"""Structural statistics of generated datasets (the paper's Table 1).

Table 1 summarizes each dataset by total size, record count, record size,
scalar-value counts (min/max/avg), maximum nesting depth, dominant scalar
type, and whether union-typed values occur.  :func:`dataset_statistics`
computes the same summary for any iterable of records so the Table 1
benchmark can print the scaled-down equivalents next to the paper's
figures, and so tests can assert that the generators really have the
structural properties the substitutions in DESIGN.md promise.

:class:`FieldStatistics` is the second, per-field kind of statistic: a
min/max/count summary of one indexed field's values, maintained by the LSM
secondary indexes as they build and consumed by the query optimizer's cost
model to estimate range-predicate selectivities (uniform-distribution
interpolation for numeric fields, a conservative default otherwise).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..types import AMultiset, Missing, TypeTag, type_tag_of
from ..types.values import INDEX_KEY_BASE, RANK_NUMBER, index_key_number

#: Selectivity assumed for range predicates the statistics cannot interpolate
#: (non-numeric fields, empty statistics): pessimistic enough that the cost
#: model only prefers an index probe when it can actually reason about it.
DEFAULT_RANGE_SELECTIVITY = 0.1


@dataclass
class FieldStatistics:
    """Count and least/greatest :func:`~repro.types.index_key` of one
    field's indexed values."""

    field_path: Tuple[str, ...] = ()
    count: int = 0
    min_key: Optional[bytes] = None
    max_key: Optional[bytes] = None

    def merge(self, other: "FieldStatistics") -> "FieldStatistics":
        """Combine two summaries (e.g. across a dataset's partitions)."""
        merged = FieldStatistics(self.field_path or other.field_path, self.count + other.count)
        nonempty = [stats for stats in (self, other) if stats.count]
        if nonempty:
            merged.min_key = min(stats.min_key for stats in nonempty)
            merged.max_key = max(stats.max_key for stats in nonempty)
        return merged

    @property
    def _numeric_bounds(self) -> Optional[Tuple[float, float]]:
        if self.count and self.min_key[0] == self.max_key[0] == INDEX_KEY_BASE + RANK_NUMBER:
            return index_key_number(self.min_key), index_key_number(self.max_key)
        return None

    def estimate_range_selectivity(self, low: Any = None, high: Any = None) -> float:
        """Estimated fraction of records with an indexed value in ``[low, high]``.

        Numeric fields interpolate under a uniform-distribution assumption;
        anything else falls back to :data:`DEFAULT_RANGE_SELECTIVITY`.  The
        estimate is clamped to ``[1/count, 1]`` so an equality probe never
        rounds down to an impossible zero cost.
        """
        if self.count == 0:
            return 1.0
        bounds = self._numeric_bounds
        floor = 1.0 / self.count
        if bounds is None:
            if low is None and high is None:
                return 1.0
            return max(DEFAULT_RANGE_SELECTIVITY, floor)
        minimum, maximum = bounds
        effective_low = minimum if low is None else float(low) if _is_number(low) else None
        effective_high = maximum if high is None else float(high) if _is_number(high) else None
        if effective_low is None or effective_high is None:
            return max(DEFAULT_RANGE_SELECTIVITY, floor)
        effective_low = max(effective_low, minimum)
        effective_high = min(effective_high, maximum)
        if effective_high < effective_low:
            return floor
        width = maximum - minimum
        if width <= 0:
            return 1.0
        fraction = (effective_high - effective_low) / width
        return min(1.0, max(floor, fraction))


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class DatasetStatistics:
    """Structural summary of a record sample (one row of Table 1)."""

    record_count: int
    total_json_bytes: int
    avg_record_bytes: float
    scalar_counts: Tuple[int, int, float]  # min, max, avg
    max_depth: int
    dominant_type: str
    has_union_types: bool
    distinct_field_names: int

    def as_row(self) -> Dict[str, Any]:
        minimum, maximum, average = self.scalar_counts
        return {
            "# of Records": self.record_count,
            "Total Size (bytes)": self.total_json_bytes,
            "Record Size (bytes)": round(self.avg_record_bytes, 1),
            "# of Scalar val. (min, max, avg)": f"{minimum}, {maximum}, {round(average, 1)}",
            "Max. Depth": self.max_depth,
            "Dominant Type": self.dominant_type,
            "Union Type?": "Yes" if self.has_union_types else "No",
            "Distinct field names": self.distinct_field_names,
        }


def _scan_value(value: Any, depth: int, type_counter: Counter, field_names: set,
                field_types: Dict[str, set]) -> Tuple[int, int]:
    """Return (scalar_count, max_depth) of one value subtree."""
    if isinstance(value, Missing):
        return 0, depth
    if isinstance(value, dict):
        scalars, deepest = 0, depth
        for name, child in value.items():
            field_names.add(name)
            child_tag = type_tag_of(child) if not isinstance(child, Missing) else TypeTag.MISSING
            field_types.setdefault(name, set()).add(child_tag)
            child_scalars, child_depth = _scan_value(child, depth + 1, type_counter,
                                                     field_names, field_types)
            scalars += child_scalars
            deepest = max(deepest, child_depth)
        return scalars, deepest
    if isinstance(value, (list, tuple, AMultiset)):
        items = value.items if isinstance(value, AMultiset) else value
        scalars, deepest = 0, depth
        for item in items:
            child_scalars, child_depth = _scan_value(item, depth + 1, type_counter,
                                                     field_names, field_types)
            scalars += child_scalars
            deepest = max(deepest, child_depth)
        return scalars, deepest
    tag = type_tag_of(value)
    type_counter[tag] += 1
    return 1, depth


def dataset_statistics(records: Iterable[Dict[str, Any]]) -> DatasetStatistics:
    """Compute Table 1-style statistics over a record sample."""
    type_counter: Counter = Counter()
    field_names: set = set()
    field_types: Dict[str, set] = {}
    scalar_counts: List[int] = []
    depths: List[int] = []
    total_bytes = 0
    count = 0
    for record in records:
        count += 1
        scalars, depth = _scan_value(record, 0, type_counter, field_names, field_types)
        scalar_counts.append(scalars)
        depths.append(depth)
        total_bytes += len(json.dumps(record, default=str))
    if count == 0:
        raise ValueError("cannot compute statistics over an empty sample")
    dominant_tag, _ = max(type_counter.items(), key=lambda pair: pair[1])
    has_union = any(len(tags - {TypeTag.NULL, TypeTag.MISSING}) > 1 for tags in field_types.values())
    return DatasetStatistics(
        record_count=count,
        total_json_bytes=total_bytes,
        avg_record_bytes=total_bytes / count,
        scalar_counts=(min(scalar_counts), max(scalar_counts), sum(scalar_counts) / count),
        max_depth=max(depths),
        dominant_type=dominant_tag.name.title(),
        has_union_types=has_union,
        distinct_field_names=len(field_names),
    )
