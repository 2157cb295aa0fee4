"""Logical query specification and the fluent builder used by workloads.

The builder covers the SQL++ shapes used throughout the paper's evaluation
(Appendix A): scans, UNNEST, WHERE, GROUP BY with aggregates, ORDER BY,
LIMIT, COUNT(*), and plain projections.  It intentionally does *not* try to
be a general SQL++ implementation — the goal is a declarative way to express
the twelve experiment queries (plus the examples) against the storage
engine's record views, with enough structure for the optimizer to apply the
paper's field-access consolidation and pushdown rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import QueryError
from ..types import ranked_bounds
from .aggregates import get_aggregate
from .expressions import Expr, FieldAccess, Var


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
    predicate — is always re-applied to the fetched records.  ``range_conjuncts`` records which
    conjuncts the index absorbed, for EXPLAIN output.
    """

    index_name: str
    field_path: Tuple[Any, ...]
    low: Optional[Any] = None
    high: Optional[Any] = None
    low_inclusive: bool = True
    high_inclusive: bool = True
    residual: Optional[Expr] = None
    range_conjuncts: Tuple[Expr, ...] = ()

    @property
    def name(self) -> str:
        return "IndexProbe"

    @property
    def is_empty_range(self) -> bool:
        """True when the extracted bounds cannot match anything (e.g. x > 5
        AND x < 3, or bounds of two ranks: x > 5 AND x < 'a')."""
        bounds = ranked_bounds(self.low, self.high)
        if bounds is None:
            return True
        _, low, high = bounds
        if low is None or high is None:
            return False
        return low > high or (low == high and not (self.low_inclusive and self.high_inclusive))

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


class QueryBuilder:
    """Fluent builder for :class:`QuerySpec` (see datasets' QUERIES modules)."""

    def __init__(self, record_var: str = "t") -> None:
        self._spec = QuerySpec(record_var=record_var)

    # -- clauses -----------------------------------------------------------------

    def let(self, name: str, expr: Expr) -> "QueryBuilder":
        self._spec.lets.append(LetClause(name, expr))
        return self

    def unnest(self, collection: Expr, item_var: str) -> "QueryBuilder":
        self._spec.unnests.append(UnnestClause(collection, item_var))
        return self

    def where(self, predicate: Expr) -> "QueryBuilder":
        if self._spec.where is not None:
            raise QueryError("where() may only be called once; combine predicates with And()")
        self._spec.where = predicate
        return self

    def group_by(self, *keys: Tuple[str, Expr]) -> "QueryBuilder":
        self._spec.group_keys.extend(keys)
        return self

    def aggregate(self, output: str, function: str, argument: Optional[Expr] = None) -> "QueryBuilder":
        self._spec.aggregates.append(AggregateSpec(output, function, argument))
        return self

    def count_star(self, output: str = "count") -> "QueryBuilder":
        return self.aggregate(output, "count", None)

    def select(self, *projections: Tuple[str, Expr]) -> "QueryBuilder":
        self._spec.projections.extend(projections)
        return self

    def select_record(self, output: str = "record") -> "QueryBuilder":
        """``SELECT *`` — project the whole record (paper's Twitter Q4)."""
        return self.select((output, Var(self._spec.record_var)))

    def order_by(self, expr_or_column: Union[Expr, str], descending: bool = False) -> "QueryBuilder":
        self._spec.order_by.append(OrderKey(expr_or_column, descending))
        return self

    def limit(self, count: int) -> "QueryBuilder":
        if count <= 0:
            raise QueryError("limit must be positive")
        self._spec.limit = count
        return self

    # -- finish --------------------------------------------------------------------

    def build(self) -> QuerySpec:
        spec = self._spec
        if not spec.is_aggregation and not spec.projections:
            # Default to SELECT * when nothing was projected.
            spec.projections = [("record", Var(spec.record_var))]
        if spec.group_keys and spec.projections:
            raise QueryError("grouped queries project their group keys and aggregates only")
        return spec


def scan(record_var: str = "t") -> QueryBuilder:
    """Entry point: ``scan("t")`` reads like ``FROM Dataset AS t``."""
    return QueryBuilder(record_var)
