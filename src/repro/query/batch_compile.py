"""Compilation of query expressions into column evaluators.

This is the engine's one expression evaluator.  The partition pipelines
never interpret an expression tree per record: each tree is compiled once
per query into a *column evaluator* — a closure mapping a
:class:`~repro.vector.batch.ColumnBatch` to a list of per-row values — so
interpreter dispatch and per-row environment dicts stay out of the hot loop.
A quantifier is no exception: ``SOME x IN c SATISFIES p`` flattens ``c`` into
a batch of items and runs ``p``'s ordinary column evaluator over it.

The evaluators apply the tables of :mod:`repro.query.expressions`
(``Comparison._OPS``, ``_FUNCTIONS``, ``access_path``) and state the
MISSING/NULL propagation rules; the tests' reference model
(``tests/reference.py``) interprets the same trees independently and every
query is held to it.  A plan the compiler cannot express (an unbound
variable, an unknown :class:`Expr` subclass — anywhere, a quantifier's
predicate included) fails here, at plan time, with a
:class:`~repro.errors.QueryError`.

``AND``/``OR``/``SOME`` compute every operand column and every item where an
interpreter would short-circuit.  All expression functions are pure
(arithmetic returns None on division by zero instead of raising), so the
results are identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import QueryError
from ..types import MISSING, Missing, collection_items
from ..vector.batch import BatchExtractor, ColumnBatch
from ..vector.decoder import extractor_for
from .expressions import (
    _FUNCTIONS,
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
    access_path,
    is_absent,
    render_expr,
)
from .operators import (
    BatchLetOperator,
    BatchPushdownUnnestOperator,
    BatchSelectOperator,
    BatchUnnestOperator,
    group_partials,
    project_rows,
    project_sorted,
    unnest_batch,
)
from .optimizer import AccessPlan, Path, conjuncts
from .plan import QuerySpec

#: A compiled expression: batch in, one value per row out.
ColumnEval = Callable[[ColumnBatch], List[Any]]


class _Context:
    """Which columns an evaluator may address, by variable."""

    __slots__ = ("record_var", "record_paths", "access_at_scan", "bound", "item_columns",
                 "uses_views")

    def __init__(self, record_var: Optional[str], record_paths: Set[Path],
                 access_at_scan: bool) -> None:
        self.record_var = record_var
        #: Mutable: compiling a field access on the scan variable registers
        #: its path here, so the scan extracts every addressed column
        #: (including paths the optimizer dropped from its own scan list,
        #: e.g. a projected collection whose UNNEST was pushed down).
        self.record_paths = record_paths
        #: Whether the scan fills a column per field access on the scan
        #: variable (the consolidated ``get_values`` of a vector format).
        #: Otherwise no access is moved: each one calls ``get_field`` on the
        #: record view wherever the query evaluates it — above an UNNEST that
        #: is once per item, below a WHERE only for the rows it kept.  That is
        #: ADM's offset-guided access, and on a vector format the paper's
        #: "Inferred (un-op)" plan (Figure 23), where every call is a walk.
        self.access_at_scan = access_at_scan
        #: LET names and UNNEST item variables bound so far, each held whole
        #: in the column keyed ``(name, ())``.
        self.bound: Set[str] = set()
        #: ``(item_var, item_path)`` columns a pushed-down UNNEST binds.
        self.item_columns: Set[Tuple[str, Path]] = set()
        #: Set when an evaluator addresses the whole record variable
        #: (``SELECT t``): such plans need ``batch.views``, so the scan must
        #: materialize record views and cannot run purely from cached column
        #: slices.
        self.uses_views = False

    def quantifier_scope(self, item_var: str) -> "_Context":
        """The scope of a quantifier's predicate: everything visible here plus
        ``item_var``, which shadows any outer binding of the same name — a
        LET or UNNEST name, a pushed-down item's columns, an enclosing
        quantifier's variable, even the scan variable — inside the predicate
        only.  Scan paths the predicate addresses register in the shared set.
        """
        scope = _Context(None if item_var == self.record_var else self.record_var,
                         self.record_paths, self.access_at_scan)
        scope.bound = self.bound | {item_var}
        scope.item_columns = {key for key in self.item_columns if key[0] != item_var}
        return scope


def compile_expr(expr: Expr, ctx: _Context) -> ColumnEval:
    """Compile one expression into a column evaluator (or raise QueryError)."""
    if isinstance(expr, Literal):
        if expr.slot is None:
            value = expr.value
            return lambda batch: [value] * batch.length
        slot = expr.slot
        return lambda batch: [batch.params[slot]] * batch.length

    if isinstance(expr, Var):
        name = expr.name
        if name == ctx.record_var:
            ctx.uses_views = True
            return lambda batch: batch.views
        if name in ctx.bound:
            key = (name, ())
            return lambda batch: batch.columns[key]
        raise QueryError(f"unbound variable ${name}")

    if isinstance(expr, FieldAccess):
        source, path = expr.source, expr.path
        if source == ctx.record_var:
            if not ctx.access_at_scan:
                ctx.uses_views = True
                return lambda batch: [view.get_field(*path) for view in batch.views]
            ctx.record_paths.add(path)
            key = (source, path)
            return lambda batch: batch.columns[key]
        if (source, path) in ctx.item_columns:
            key = (source, path)
            return lambda batch: batch.columns[key]
        if source in ctx.bound:
            key = (source, ())
            return lambda batch: [access_path(value, path)
                                  for value in batch.columns[key]]
        raise QueryError(f"unbound variable ${source}")

    if isinstance(expr, (Comparison, Arithmetic)):
        left = compile_expr(expr.left, ctx)
        right = compile_expr(expr.right, ctx)
        op = type(expr)._OPS[expr.op]

        def binary(batch: ColumnBatch) -> List[Any]:
            out = []
            for lhs, rhs in zip(left(batch), right(batch)):
                if is_absent(lhs) or is_absent(rhs):
                    out.append(MISSING)
                    continue
                try:
                    out.append(op(lhs, rhs))
                except TypeError:
                    out.append(MISSING)
            return out

        return binary

    if isinstance(expr, And):
        operands = [compile_expr(operand, ctx) for operand in expr.operands]

        def conjunction(batch: ColumnBatch) -> List[Any]:
            columns = [operand(batch) for operand in operands]
            out = []
            for row in range(batch.length):
                result = True
                for column in columns:
                    value = column[row]
                    if is_absent(value) or not value:
                        result = False
                        break
                out.append(result)
            return out

        return conjunction

    if isinstance(expr, Or):
        operands = [compile_expr(operand, ctx) for operand in expr.operands]

        def disjunction(batch: ColumnBatch) -> List[Any]:
            columns = [operand(batch) for operand in operands]
            out = []
            for row in range(batch.length):
                out.append(any(not is_absent(column[row]) and bool(column[row])
                               for column in columns))
            return out

        return disjunction

    if isinstance(expr, Not):
        operand = compile_expr(expr.operand, ctx)

        def negation(batch: ColumnBatch) -> List[Any]:
            return [MISSING if is_absent(value) else not value
                    for value in operand(batch)]

        return negation

    if isinstance(expr, IsTest):
        operand = compile_expr(expr.operand, ctx)
        test = _is_test(expr)

        def membership(batch: ColumnBatch) -> List[Any]:
            return [test(value) for value in operand(batch)]

        return membership

    if isinstance(expr, Func):
        name = expr.name
        arguments = [compile_expr(argument, ctx) for argument in expr.args]

        def function(batch: ColumnBatch) -> List[Any]:
            columns = [argument(batch) for argument in arguments]
            implementation = _FUNCTIONS[name]
            out = []
            for row in range(batch.length):
                values = [column[row] for column in columns]
                if values and is_absent(values[0]):
                    out.append(MISSING)
                else:
                    out.append(implementation(*values))
            return out

        return function

    if isinstance(expr, Exists):
        # The quantifier is an UNNEST folded back: flatten the collection
        # column into an item batch (one row per item, the item bound whole
        # as a column like any UNNEST item), evaluate the predicate over it
        # columnwise, and reduce "any item true" per source row.  A
        # non-collection — absent, scalar or object — has no items: false.
        item_var = expr.item_var
        collection = compile_expr(expr.collection, ctx)
        scope = ctx.quantifier_scope(item_var)
        predicate = compile_expr(expr.predicate, scope)
        ctx.uses_views |= scope.uses_views

        def exists(batch: ColumnBatch) -> List[Any]:
            item_lists = [collection_items(value) or () for value in collection(batch)]
            indices, item_batch = unnest_batch(batch, item_lists, item_var)
            out = [False] * batch.length
            for row, verdict in zip(indices, predicate(item_batch)):
                if not is_absent(verdict) and verdict:
                    out[row] = True
            return out

        return exists

    raise QueryError(f"expression {type(expr).__name__} is not supported by the executor")


def _is_test(expr: IsTest) -> Callable[[Any], bool]:
    kind, negated = expr.kind, expr.negated

    def test(value: Any) -> bool:
        if kind == "null":
            result = value is None
        elif kind == "missing":
            result = isinstance(value, Missing)
        else:
            result = is_absent(value)
        return not result if negated else result

    return test


# ---------------------------------------------------------------------------
# whole-query planning
# ---------------------------------------------------------------------------

def _free_variables(expr: Expr) -> Set[str]:
    """The variables ``expr`` reads from its environment."""
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, FieldAccess):
        return {expr.source}
    if isinstance(expr, Exists):
        return _free_variables(expr.collection) | (
            _free_variables(expr.predicate) - {expr.item_var})
    return set().union(*map(_free_variables, expr.children()))


def _split_where(spec: QuerySpec) -> Tuple[Optional[Expr], Optional[Expr]]:
    """The WHERE clause as ``(before the UNNESTs, after them)``.

    A conjunct that reads only the record variable and the LET names (none
    of them rebound by an UNNEST) has one value for every item of a record,
    so it runs before the UNNESTs: tested once per record, and a record it
    rejects is never flattened.  The rest of the conjuncts run after them.
    """
    if spec.where is None or not spec.unnests:
        return None, spec.where
    visible = ({spec.record_var} | {clause.name for clause in spec.lets}) - {
        clause.item_var for clause in spec.unnests}
    before: List[Expr] = []
    after: List[Expr] = []
    for conjunct in conjuncts(spec.where):
        (before if _free_variables(conjunct) <= visible else after).append(conjunct)
    if not before:
        return None, spec.where
    return _conjoin(before), _conjoin(after)


def _conjoin(parts: List[Expr]) -> Optional[Expr]:
    if len(parts) > 1:
        return And(*parts)
    return parts[0] if parts else None


@dataclass
class Stage:
    """One step of a partition's pipeline, in the one list that both runs
    and renders: the executor folds ``operator`` over the scan and names the
    step's cost record ``name``; EXPLAIN prints ``name`` and the ``detail``
    of a run's parameters."""

    name: str
    detail: Callable[[Sequence[Any]], str]
    #: Upstream batch iterator -> this stage's batches; the last stage drains
    #: its input into the partition's payload instead.
    operator: Callable[[Iterator[ColumnBatch]], Any]


@dataclass
class BatchQueryPlan:
    """Everything the partition pipeline needs, compiled once per query.

    The plan is immutable and shared across partition workers: the
    extractor — one per path set, shared with every other reader of those
    paths — only ever adds read-only plans to its table, and every evaluator
    closure only reads the batch it is given.
    """

    #: Columns the scan extracts per record — every path an evaluator
    #: addresses (a superset of the access plan's scan paths).
    scan_paths: List[Path]
    extractor: BatchExtractor
    #: LET / SELECT / UNNEST / SELECT (a WHERE split by
    #: :func:`_split_where`), then the terminal stage.  The source before
    #: them is the access path, which the executor costs on every run.
    stages: List[Stage]
    #: The LIMIT a partition may stop scanning at: set only when neither an
    #: ORDER BY nor an aggregation needs every row first.
    plain_limit: Optional[int]
    #: Whether any evaluator reads ``batch.views`` (whole-record projection).
    #: When False the scan may serve purely from the column-slice cache and
    #: build view-less batches.
    needs_views: bool


def compile_query(spec: QuerySpec, access_plan: AccessPlan) -> BatchQueryPlan:
    """Compile ``spec`` — the access plan's *effective* spec (EXISTS rewrites
    applied) — into a :class:`BatchQueryPlan`, or raise :class:`QueryError`.

    Clauses bind their names in pipeline order (LETs, then UNNESTs, then
    everything downstream), so a later clause sees every earlier binding.
    The WHERE conjuncts that need no UNNEST item filter before the UNNESTs.
    """
    ctx = _Context(spec.record_var, set(access_plan.scan_paths), access_plan.consolidate)
    stages: List[Stage] = []
    if spec.lets:
        lets: List[Tuple[str, ColumnEval]] = []
        for clause in spec.lets:
            lets.append((clause.name, compile_expr(clause.expr, ctx)))
            ctx.bound.add(clause.name)
        stages.append(Stage("LET", lambda params: ", ".join(
            f"{clause.name} = {render_expr(clause.expr, params)}" for clause in spec.lets),
            partial(BatchLetOperator, lets=lets)))
    before_unnest, after_unnest = _split_where(spec)
    names = (["SELECT[0]", "SELECT[1]"] if before_unnest is not None and after_unnest is not None
             else ["SELECT"])

    def select(name: str, where: Expr) -> Stage:
        return Stage(name, partial(render_expr, where),
                     partial(BatchSelectOperator, predicate=compile_expr(where, ctx)))

    if before_unnest is not None:
        stages.append(select(names[0], before_unnest))
    for position, unnest_plan in enumerate(access_plan.unnest_plans):
        clause = unnest_plan.clause
        suffix = f" AS {clause.item_var}" + (" [pushdown]" if unnest_plan.pushed_down else "")
        if unnest_plan.pushed_down:
            operator = partial(BatchPushdownUnnestOperator, record_var=spec.record_var,
                               item_var=clause.item_var,
                               pushdown_paths=dict(unnest_plan.pushdown_paths))
            ctx.item_columns.update((clause.item_var, item_path)
                                    for item_path in unnest_plan.pushdown_paths)
        else:
            operator = partial(BatchUnnestOperator, item_var=clause.item_var,
                               collection=compile_expr(clause.collection, ctx))
            ctx.bound.add(clause.item_var)
        name = "UNNEST" if len(access_plan.unnest_plans) == 1 else f"UNNEST[{position}]"
        stages.append(Stage(name, lambda params, collection=clause.collection, suffix=suffix:
                            render_expr(collection, params) + suffix, operator))
    if after_unnest is not None:
        stages.append(select(names[-1], after_unnest))
    plain_limit = None
    if spec.is_aggregation:
        if any(isinstance(key.expr_or_column, Expr) for key in spec.order_by):
            raise QueryError("grouped queries must ORDER BY an output column")
        keys = ", ".join(name for name, _ in spec.group_keys) or "<global>"
        aggregates = ", ".join(f"{agg.function}->{agg.output}" for agg in spec.aggregates)
        detail = f"[{keys}] AGGREGATE [{aggregates}]"
        stages.append(Stage(
            "GROUP BY (partial)", lambda params: detail,
            partial(group_partials,
                    group_keys=[(name, compile_expr(expr, ctx))
                                for name, expr in spec.group_keys],
                    aggregates=spec.aggregates,
                    argument_evals=[compile_expr(aggregate.argument, ctx)
                                    if aggregate.argument is not None else None
                                    for aggregate in spec.aggregates])))
    else:
        projections = [(name, compile_expr(expr, ctx)) for name, expr in spec.projections]
        outputs = "[" + ", ".join(name for name, _ in spec.projections) + "]"
        if spec.order_by:
            if not all(isinstance(key.expr_or_column, Expr) for key in spec.order_by):
                raise QueryError("non-grouped queries must ORDER BY an expression")
            stages.append(Stage(
                "SORT+PROJECT", lambda params: outputs,
                partial(project_sorted, projections=projections,
                        order_keys=[compile_expr(key.expr_or_column, ctx)
                                    for key in spec.order_by],
                        order_by=spec.order_by, limit=spec.limit)))
        else:
            plain_limit = spec.limit
            stages.append(Stage("PROJECT", lambda params: outputs,
                                partial(project_rows, projections=projections,
                                        limit=spec.limit)))

    scan_paths = sorted(ctx.record_paths,
                        key=lambda path: (len(path), tuple(map(str, path))))
    return BatchQueryPlan(scan_paths=scan_paths, extractor=extractor_for(tuple(scan_paths)),
                          stages=stages, plain_limit=plain_limit,
                          needs_views=ctx.uses_views)
