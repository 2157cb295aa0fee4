"""Optimizer rewrites for querying vector-based (compacted) records.

Field access in the vector-based format is a linear scan over a record's
vectors (paper §3.3.1), so a query with several field accesses would scan
every record several times.  The paper adds one rewrite rule to Algebricks
(§3.4.2): consolidate a query's field-access expressions into a single
``getValues()`` call evaluated once per record, and push that call through
UNNEST and EXISTS so that only the requested nested scalars — not whole
nested objects — flow through the rest of the plan.

:class:`Optimizer` implements both rewrites and produces an
:class:`AccessPlan` the plan compiler turns into scan and UNNEST stages:

* ``scan_paths`` — every path rooted at the scan variable, extracted once
  per record with one ``get_values()`` call;
* ``unnest_plans`` — for each UNNEST whose downstream uses are all scalar
  paths on the item variable, the wildcard paths to extract instead of the
  item objects (paper: "extract only the hashtag text instead of the
  hashtag objects");
* rewritten EXISTS predicates that iterate extracted scalars.

Both rewrites can be disabled (``consolidate=False``) to reproduce the
paper's *Inferred (un-op)* ablation (Figure 23); the ADM-format datasets are
never rewritten because their field accesses are offset-guided and already
position-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..config import DEVICE_PROFILES
from ..errors import QueryError
from ..types import index_key
from .expressions import (
    And,
    Arithmetic,
    Comparison,
    Exists,
    Expr,
    FieldAccess,
    Func,
    IsTest,
    Literal,
    Not,
    Or,
    Var,
)
from .plan import FullScan, IndexProbe, QuerySpec, UnnestClause

Path = Tuple[Any, ...]


@dataclass
class UnnestAccessPlan:
    """How one UNNEST clause is executed."""

    clause: UnnestClause
    #: Path (on the scan variable) of the unnested collection, when direct.
    collection_path: Optional[Path] = None
    #: Pushed-down item paths: item-var path -> full wildcard path on the scan var.
    pushdown_paths: Dict[Path, Path] = field(default_factory=dict)

    @property
    def pushed_down(self) -> bool:
        return bool(self.pushdown_paths)


@dataclass
class AccessPlan:
    """Everything the runtime needs to know about field-access strategy."""

    consolidate: bool
    scan_paths: List[Path] = field(default_factory=list)
    unnest_plans: List[UnnestAccessPlan] = field(default_factory=list)
    rewritten_spec: Optional[QuerySpec] = None

    def effective_spec(self, original: QuerySpec) -> QuerySpec:
        return self.rewritten_spec if self.rewritten_spec is not None else original


class Optimizer:
    """Builds an :class:`AccessPlan` for a query over one dataset."""

    def __init__(self, consolidate_field_access: bool = True,
                 pushdown_through_unnest: bool = True) -> None:
        self.consolidate_field_access = consolidate_field_access
        self.pushdown_through_unnest = pushdown_through_unnest

    def plan(self, spec: QuerySpec, uses_vector_format: bool) -> AccessPlan:
        """Produce the access plan; non-vector formats use plain access."""
        if not uses_vector_format or not self.consolidate_field_access:
            return AccessPlan(consolidate=False,
                              unnest_plans=[UnnestAccessPlan(clause) for clause in spec.unnests])

        record_var = spec.record_var
        rewritten = spec
        if self.pushdown_through_unnest:
            rewritten = self._rewrite_exists(spec, record_var)

        scan_paths: Set[Path] = set()
        for expr in self._expressions(rewritten):
            for node in expr.walk():
                if isinstance(node, FieldAccess) and node.source == record_var:
                    scan_paths.add(node.path)

        unnest_plans: List[UnnestAccessPlan] = []
        for clause in rewritten.unnests:
            plan = UnnestAccessPlan(clause)
            collection = clause.collection
            if isinstance(collection, FieldAccess) and collection.source == record_var:
                plan.collection_path = collection.path
            if (self.pushdown_through_unnest and plan.collection_path is not None
                    and self._can_push_down(rewritten, clause)):
                item_paths = self._item_paths(rewritten, clause.item_var)
                for item_path in item_paths:
                    full = plan.collection_path + ("*",) + item_path
                    plan.pushdown_paths[item_path] = full
                    scan_paths.add(full)
                # The collection objects themselves no longer need extracting.
                scan_paths.discard(plan.collection_path)
            unnest_plans.append(plan)

        return AccessPlan(
            consolidate=True,
            scan_paths=sorted(scan_paths, key=lambda path: (len(path), tuple(map(str, path)))),
            unnest_plans=unnest_plans,
            rewritten_spec=rewritten if rewritten is not spec else None,
        )

    # ------------------------------------------------------------------ helpers

    @staticmethod
    def _expressions(spec: QuerySpec) -> List[Expr]:
        expressions: List[Expr] = []
        expressions.extend(clause.expr for clause in spec.lets)
        expressions.extend(clause.collection for clause in spec.unnests)
        if spec.where is not None:
            expressions.append(spec.where)
        expressions.extend(expr for _, expr in spec.group_keys)
        expressions.extend(agg.argument for agg in spec.aggregates if agg.argument is not None)
        expressions.extend(expr for _, expr in spec.projections)
        expressions.extend(key.expr_or_column for key in spec.order_by
                           if isinstance(key.expr_or_column, Expr))
        return expressions

    def _can_push_down(self, spec: QuerySpec, clause: UnnestClause) -> bool:
        """Pushdown is legal when every use of the item var is a scalar path."""
        item_var = clause.item_var
        for expr in self._expressions(spec):
            for node in expr.walk():
                if isinstance(node, Var) and node.name == item_var:
                    return False
                if isinstance(node, FieldAccess) and node.source == item_var and not node.path:
                    return False
                if isinstance(node, Exists):
                    # an Exists iterating the same item var re-binds it; skip pushdown
                    if node.item_var == item_var:
                        return False
                if isinstance(node, IsTest) and any(
                        isinstance(sub, FieldAccess) and sub.source == item_var
                        for sub in node.walk()):
                    # IS MISSING/NULL observes *absence*, but wildcard
                    # extraction only emits present values — pushing the
                    # access down would silently invert the test.
                    return False
        return self._item_paths(spec, item_var) != set()

    def _item_paths(self, spec: QuerySpec, item_var: str) -> Set[Path]:
        paths: Set[Path] = set()
        for expr in self._expressions(spec):
            for node in expr.walk():
                if isinstance(node, FieldAccess) and node.source == item_var and node.path:
                    paths.add(node.path)
        return paths

    # ------------------------------------------------------------------ EXISTS rewrite

    def _rewrite_exists(self, spec: QuerySpec, record_var: str) -> QuerySpec:
        """Push consolidated access through EXISTS quantifiers (Twitter Q3).

        ``SOME ht IN t.entities.hashtags SATISFIES f(ht.text)`` becomes
        ``SOME ht IN t.entities.hashtags[*].text SATISFIES f(ht)`` so the
        consolidated scan extracts only the hashtag texts.
        """
        if spec.where is None:
            return spec
        new_where = _rewrite_expr(spec.where, record_var)
        if new_where is spec.where:
            return spec
        from dataclasses import replace

        return replace(spec, where=new_where)


def _rewrite_expr(expr: Expr, record_var: str) -> Expr:
    """Recursively rewrite EXISTS nodes that qualify for pushdown."""
    if isinstance(expr, Exists):
        collection, item_var, predicate = expr.collection, expr.item_var, expr.predicate
        if isinstance(collection, FieldAccess) and collection.source == record_var:
            item_paths = {
                node.path for node in predicate.walk()
                if isinstance(node, FieldAccess) and node.source == item_var
            }
            direct_uses = any(isinstance(node, Var) and node.name == item_var
                              for node in predicate.walk())
            # IS tests observe absence; extraction drops absent entries, so a
            # rewritten predicate would see a different collection (see
            # _can_push_down).  Leave such EXISTS un-rewritten.
            has_is_test = any(isinstance(node, IsTest) for node in predicate.walk())
            if len(item_paths) == 1 and not direct_uses and not has_is_test:
                (item_path,) = item_paths
                new_collection = FieldAccess(record_var, collection.path + ("*",) + item_path)
                new_predicate = _substitute_access(predicate, item_var, item_path)
                return Exists(new_collection, item_var, new_predicate)
        return expr
    if isinstance(expr, And):
        return And(*[_rewrite_expr(operand, record_var) for operand in expr.operands])
    if isinstance(expr, Or):
        return Or(*[_rewrite_expr(operand, record_var) for operand in expr.operands])
    if isinstance(expr, Not):
        return Not(_rewrite_expr(expr.operand, record_var))
    return expr


# ---------------------------------------------------------------------------
# access-path selection (full scan vs. secondary-index probe)
# ---------------------------------------------------------------------------

#: B+-tree descent pages charged to an index probe before any row is fetched.
PROBE_DESCENT_PAGES = 2


@dataclass
class IndexCandidate:
    """One secondary index the optimizer considered, with its cost estimate."""

    probe: IndexProbe
    selectivity: float
    estimated_rows: float
    cost_seconds: float


@dataclass
class AccessPathChoice:
    """Outcome of access-path selection, with the numbers behind it.

    ``path`` is what the executor runs; the costs and candidates are kept so
    EXPLAIN can show *why* the optimizer picked it.
    """

    path: Any  # FullScan | IndexProbe
    scan_cost_seconds: float = 0.0
    probe_cost_seconds: Optional[float] = None
    estimated_selectivity: Optional[float] = None
    estimated_rows: Optional[float] = None
    candidates: List[IndexCandidate] = field(default_factory=list)
    forced: bool = False

    @property
    def uses_index(self) -> bool:
        return isinstance(self.path, IndexProbe)

    @property
    def stage_name(self) -> str:
        """The source stage's name in the operator stats and in EXPLAIN."""
        return f"IndexProbe({self.path.index_name})" if self.uses_index else "FullScan"


def conjuncts(predicate: Optional[Expr]) -> List[Expr]:
    """Flatten a WHERE tree's top-level AND into a conjunct list."""
    if predicate is None:
        return []
    if isinstance(predicate, And):
        flattened: List[Expr] = []
        for operand in predicate.operands:
            flattened.extend(conjuncts(operand))
        return flattened
    return [predicate]


def _comparison_bound(conjunct: Expr, record_var: str, field_path: Path):
    """``(op, literal, its index key)`` with the field on the left, or None
    if not usable.

    Usable conjuncts are comparisons between exactly the indexed field path
    (on the scan variable) and a literal an index can file
    (:func:`~repro.types.index_key`), in either operand order.
    """
    if not isinstance(conjunct, Comparison) or conjunct.op == "!=":
        return None
    left, right = conjunct.left, conjunct.right
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
    if (isinstance(left, FieldAccess) and left.source == record_var
            and left.path == field_path and isinstance(right, Literal)):
        op, literal = conjunct.op, right.value
    elif (isinstance(right, FieldAccess) and right.source == record_var
          and right.path == field_path and isinstance(left, Literal)):
        op, literal = flipped[conjunct.op], left.value
    else:
        return None
    key = index_key(literal)
    return None if key is None else (op, literal, key)


def extract_key_range(predicate: Optional[Expr], record_var: str, field_path: Path):
    """Combine every usable conjunct over ``field_path`` into one key range.

    Bounds are compared by :func:`~repro.types.index_key`, the order the
    index files values in; a tighter bound is a greater low or a lesser
    high, or the same one exclusive.  Returns ``(low, low_inclusive, high,
    high_inclusive, used_conjuncts)`` or None when no conjunct constrains
    the field.
    """
    low = low_key = high = high_key = None
    low_inclusive = high_inclusive = True
    used: List[Expr] = []
    for conjunct in conjuncts(predicate):
        bound = _comparison_bound(conjunct, record_var, field_path)
        if bound is None:
            continue
        op, literal, key = bound
        inclusive = op in ("=", ">=", "<=")
        if op in ("=", ">", ">=") and (
                low_key is None or key > low_key or (key == low_key and not inclusive)):
            low, low_key, low_inclusive = literal, key, inclusive
        if op in ("=", "<", "<=") and (
                high_key is None or key < high_key or (key == high_key and not inclusive)):
            high, high_key, high_inclusive = literal, key, inclusive
        used.append(conjunct)
    if not used:
        return None
    return low, low_inclusive, high, high_inclusive, used


def choose_access_path(spec: QuerySpec, dataset, force: str = "auto") -> AccessPathChoice:
    """Pick a full scan or a secondary-index probe for one query over ``dataset``.

    The cost model is deliberately small (this is the paper's Figure 24
    regime, not a Selinger reconstruction): a full scan pays one seek plus a
    sequential read of the dataset's on-disk bytes; an index probe pays a
    B+-tree descent plus, per estimated matching row, a seek and one page
    read.  Selectivities come from the index's field statistics
    (:class:`~repro.datasets.stats.FieldStatistics`, uniform assumption);
    bandwidth and seek latency come from the dataset's device profile in
    :mod:`repro.config`.  ``force`` overrides the decision: "scan" or
    "index" instead of "auto" (benchmarks and parity tests use both).
    """
    if force not in ("auto", "scan", "index"):
        raise QueryError(f"unknown access-path mode {force!r}; use auto, scan, or index")

    profile = DEVICE_PROFILES[dataset.config.storage.device_kind]
    read_bandwidth = profile["read_bandwidth"]
    seek = profile["seek_latency"]
    page_size = dataset.config.storage.page_size
    scan_cost = seek + dataset.storage_size() / read_bandwidth

    if force == "scan":
        return AccessPathChoice(FullScan("forced"), scan_cost_seconds=scan_cost, forced=True)

    indexes = dataset.list_secondary_indexes()
    if not indexes:
        return AccessPathChoice(FullScan("no secondary indexes"), scan_cost_seconds=scan_cost,
                                forced=force == "index")
    if spec.where is None:
        return AccessPathChoice(FullScan("no WHERE clause"), scan_cost_seconds=scan_cost,
                                forced=force == "index")

    record_count = dataset.approximate_record_count()
    candidates: List[IndexCandidate] = []
    for index_name, field_path in indexes:
        if not field_path:
            continue
        key_range = extract_key_range(spec.where, spec.record_var, tuple(field_path))
        if key_range is None:
            continue
        low, low_inclusive, high, high_inclusive, used = key_range
        probe = IndexProbe(index_name=index_name, field_path=tuple(field_path),
                           low=low, high=high, low_inclusive=low_inclusive,
                           high_inclusive=high_inclusive, residual=spec.where,
                           range_conjuncts=tuple(used))
        statistics = dataset.index_statistics(index_name)
        if probe.is_empty_range:
            selectivity = 0.0
        elif statistics is not None:
            selectivity = statistics.estimate_range_selectivity(low, high)
        else:
            selectivity = 1.0
        estimated_rows = selectivity * record_count
        probe_cost = (seek + PROBE_DESCENT_PAGES * page_size / read_bandwidth
                      + estimated_rows * (seek + page_size / read_bandwidth))
        candidates.append(IndexCandidate(probe, selectivity, estimated_rows, probe_cost))

    if not candidates:
        return AccessPathChoice(FullScan("no indexed predicate in the WHERE clause"),
                                scan_cost_seconds=scan_cost, forced=force == "index")

    best = min(candidates, key=lambda candidate: candidate.cost_seconds)
    if force == "index" or best.cost_seconds < scan_cost:
        return AccessPathChoice(best.probe, scan_cost_seconds=scan_cost,
                                probe_cost_seconds=best.cost_seconds,
                                estimated_selectivity=best.selectivity,
                                estimated_rows=best.estimated_rows,
                                candidates=candidates, forced=force == "index")
    reason = (f"estimated selectivity {best.selectivity:.2%} makes the sequential "
              "scan cheaper")
    return AccessPathChoice(FullScan(reason), scan_cost_seconds=scan_cost,
                            probe_cost_seconds=best.cost_seconds,
                            estimated_selectivity=best.selectivity,
                            estimated_rows=best.estimated_rows,
                            candidates=candidates)


def _substitute_access(expr: Expr, item_var: str, item_path: Path) -> Expr:
    """Replace ``FieldAccess(item_var, item_path)`` with ``Var(item_var)``."""
    if isinstance(expr, FieldAccess) and expr.source == item_var and expr.path == item_path:
        return Var(item_var)
    if isinstance(expr, Comparison):
        return Comparison(expr.op, _substitute_access(expr.left, item_var, item_path),
                          _substitute_access(expr.right, item_var, item_path))
    if isinstance(expr, Arithmetic):
        return Arithmetic(expr.op, _substitute_access(expr.left, item_var, item_path),
                          _substitute_access(expr.right, item_var, item_path))
    if isinstance(expr, And):
        return And(*[_substitute_access(operand, item_var, item_path) for operand in expr.operands])
    if isinstance(expr, Or):
        return Or(*[_substitute_access(operand, item_var, item_path) for operand in expr.operands])
    if isinstance(expr, Not):
        return Not(_substitute_access(expr.operand, item_var, item_path))
    if isinstance(expr, Func):
        return Func(expr.name, *[_substitute_access(argument, item_var, item_path)
                                 for argument in expr.args])
    return expr
