"""Logical query specification: what :mod:`repro.sqlpp`'s binder produces.

A :class:`QuerySpec` holds the SQL++ shapes used throughout the paper's
evaluation (Appendix A): scans, LET, UNNEST, WHERE, GROUP BY with
aggregates, ORDER BY, LIMIT, COUNT(*), and plain projections, with enough
structure for the optimizer to apply the paper's field-access consolidation
and pushdown rewrites.  Queries are stated as SQL++ text
(``Dataset.query``); the binder is the one producer of specs, and the access
paths (:class:`FullScan`, :class:`IndexProbe`) are what the optimizer
chooses between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple, Union

from ..errors import QueryError
from ..types import index_key_range
from .aggregates import get_aggregate
from .expressions import Expr


@dataclass
class UnnestClause:
    """``UNNEST <collection expression> AS <item_var>``."""

    collection: Expr
    item_var: str


@dataclass
class FullScan:
    """Access path: read every record of every partition sequentially."""

    reason: str = ""

    @property
    def name(self) -> str:
        return "FullScan"

    def describe(self) -> str:
        return f"FullScan({self.reason})" if self.reason else "FullScan"


@dataclass
class IndexProbe:
    """Access path: probe one secondary index, then fetch + re-filter records.

    ``low``/``high`` bound the indexed field (None = open-ended); the probe
    yields, in primary-key order, the newest version of every key some
    version of which — on disk or in a memtable — had its indexed value in
    range: a *candidate superset*, so ``residual`` — the query's full WHERE
    predicate — is always re-applied to the fetched records.
    """

    index_name: str
    field_path: Tuple[Any, ...]
    low: Optional[Any] = None
    high: Optional[Any] = None
    low_inclusive: bool = True
    high_inclusive: bool = True
    residual: Optional[Expr] = None

    @property
    def name(self) -> str:
        return "IndexProbe"

    @property
    def is_empty_range(self) -> bool:
        """True when the extracted bounds cannot match anything (e.g. x > 5
        AND x < 3, or bounds of two ranks: x > 5 AND x < 'a')."""
        return index_key_range(self.low, self.high, self.low_inclusive,
                               self.high_inclusive) is None

    def describe(self) -> str:
        low_bracket = "[" if self.low_inclusive else "("
        high_bracket = "]" if self.high_inclusive else ")"
        low = "-inf" if self.low is None else repr(self.low)
        high = "+inf" if self.high is None else repr(self.high)
        path = ".".join(str(step) for step in self.field_path)
        return (f"IndexProbe(index={self.index_name}, field={path}, "
                f"range={low_bracket}{low}, {high}{high_bracket})")


@dataclass
class AggregateSpec:
    """One aggregate output column."""

    output: str
    function: str
    argument: Optional[Expr] = None  # None only for count(*)

    def __post_init__(self) -> None:
        aggregate = get_aggregate(self.function)
        if aggregate.needs_input and self.argument is None:
            raise QueryError(f"aggregate {self.function!r} needs an argument expression")


@dataclass
class OrderKey:
    expr_or_column: Union[Expr, str]
    descending: bool = False


@dataclass
class LetClause:
    """``LET <name> = <expr>`` — a computed binding (used by the WoS queries)."""

    name: str
    expr: Expr


@dataclass
class QuerySpec:
    """Fully specified logical query over one dataset."""

    record_var: str = "t"
    lets: List[LetClause] = field(default_factory=list)
    unnests: List[UnnestClause] = field(default_factory=list)
    where: Optional[Expr] = None
    group_keys: List[Tuple[str, Expr]] = field(default_factory=list)
    aggregates: List[AggregateSpec] = field(default_factory=list)
    projections: List[Tuple[str, Expr]] = field(default_factory=list)
    order_by: List[OrderKey] = field(default_factory=list)
    limit: Optional[int] = None

    @property
    def is_aggregation(self) -> bool:
        return bool(self.aggregates) or bool(self.group_keys)

    @property
    def repartitions(self) -> bool:
        """Whether executing this query requires a non-local exchange.

        Group-bys and global sorts hash/merge data across partitions, which
        is what triggers the schema broadcast of paper §3.4.1.
        """
        return bool(self.group_keys) or bool(self.order_by) or bool(self.aggregates)
