"""Compact plan renderer: which access path won, and why.

``explain(dataset, query)`` compiles (or accepts) a query, runs the same
optimizer passes the executor would — field-access consolidation and
cost-based access-path selection — and renders the resulting plan as
indented text without executing anything.  Benchmarks and tests assert on
the rendered access-path line ("IndexProbe(...)" vs "FullScan"); humans get
the cost estimates and the residual filter alongside.
"""

from __future__ import annotations

from typing import Union

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
from .optimizer import AccessPathChoice, Optimizer, choose_access_path
from .plan import QuerySpec


def render_expr(expr: Expr) -> str:
    """Render an executable expression tree back to readable SQL++-ish text."""
    if isinstance(expr, Literal):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, FieldAccess):
        steps = "".join(f"[{step}]" if not isinstance(step, str) or step == "*"
                        else f".{step}" for step in expr.path)
        return f"{expr.source}{steps}"
    if isinstance(expr, Comparison):
        return f"{render_expr(expr.left)} {expr.op} {render_expr(expr.right)}"
    if isinstance(expr, Arithmetic):
        return f"({render_expr(expr.left)} {expr.op} {render_expr(expr.right)})"
    if isinstance(expr, And):
        return " AND ".join(f"({render_expr(operand)})" for operand in expr.operands)
    if isinstance(expr, Or):
        return " OR ".join(f"({render_expr(operand)})" for operand in expr.operands)
    if isinstance(expr, Not):
        return f"NOT ({render_expr(expr.operand)})"
    if isinstance(expr, IsTest):
        negation = "NOT " if expr.negated else ""
        return f"{render_expr(expr.operand)} IS {negation}{expr.kind.upper()}"
    if isinstance(expr, Func):
        return f"{expr.name}({', '.join(render_expr(argument) for argument in expr.args)})"
    if isinstance(expr, Exists):
        return (f"SOME {expr.item_var} IN {render_expr(expr.collection)} "
                f"SATISFIES {render_expr(expr.predicate)}")
    return repr(expr)


def _spec_of(query: Union[str, QuerySpec]) -> QuerySpec:
    if isinstance(query, QuerySpec):
        return query
    from ..sqlpp import CompiledCreateIndex
    from ..sqlpp import compile as compile_sqlpp

    compiled = compile_sqlpp(query)
    if isinstance(compiled, CompiledCreateIndex):
        raise ValueError("explain() renders query plans; CREATE INDEX has none")
    return compiled.spec


def _access_path_lines(choice: AccessPathChoice) -> list:
    lines = [f"access path: {choice.path.describe()}"]
    if choice.forced:
        lines.append("  (access path forced, not cost-based)")
    if choice.estimated_selectivity is not None:
        lines.append(f"  estimated selectivity: {choice.estimated_selectivity:.3%}"
                     f" (~{choice.estimated_rows:.1f} rows)")
    if choice.probe_cost_seconds is not None:
        lines.append(f"  cost model: probe {choice.probe_cost_seconds * 1e6:.1f}us"
                     f" vs scan {choice.scan_cost_seconds * 1e6:.1f}us")
    else:
        lines.append(f"  cost model: scan {choice.scan_cost_seconds * 1e6:.1f}us")
    if choice.uses_index and choice.path.residual is not None:
        lines.append(f"  residual filter: {render_expr(choice.path.residual)}")
    return lines


def explain(dataset, query: Union[str, QuerySpec], access_path: str = "auto",
            consolidate_field_access: bool = True,
            pushdown_through_unnest: bool = True,
            analyze: bool = False, **executor_options) -> str:
    """Render the plan for ``query`` over ``dataset``.

    Without ``analyze`` nothing is executed.  With ``analyze=True`` the query
    runs through an instrumented executor and an ``ANALYZE`` section renders
    per-operator actual rows / inclusive wall time / bytes read next to the
    plan, plus buffer-cache activity and the estimated-vs-actual cardinality
    error; ``executor_options`` (e.g. ``parallelism=1``) configure that
    executor."""
    spec = _spec_of(query)
    original_spec = spec
    optimizer = Optimizer(consolidate_field_access, pushdown_through_unnest)
    access_plan = optimizer.plan(spec, dataset.config.storage_format.uses_vector_format)
    spec = access_plan.effective_spec(spec)
    choice = choose_access_path(spec, dataset, force=access_path)

    lines = [f"QUERY PLAN over dataset {dataset.config.name!r} "
             f"(format={dataset.config.storage_format.value}, "
             f"partitions={dataset.partition_count}, "
             f"~{dataset.approximate_record_count()} records)"]
    lines.extend("  " + line for line in _access_path_lines(choice))

    lines.append("  pipeline (per partition):")
    lines.append(f"    {choice.path.describe()}")
    for clause in spec.lets:
        lines.append(f"    -> LET {clause.name} = {render_expr(clause.expr)}")
    for plan in access_plan.unnest_plans:
        suffix = " [pushdown]" if plan.pushed_down else ""
        lines.append(f"    -> UNNEST {render_expr(plan.clause.collection)} "
                     f"AS {plan.clause.item_var}{suffix}")
    if spec.where is not None:
        lines.append(f"    -> SELECT {render_expr(spec.where)}")
    if spec.is_aggregation:
        keys = ", ".join(name for name, _ in spec.group_keys) or "<global>"
        aggregates = ", ".join(f"{agg.function}->{agg.output}" for agg in spec.aggregates)
        lines.append(f"    -> GROUP BY [{keys}] AGGREGATE [{aggregates}]")
    elif spec.projections:
        outputs = ", ".join(name for name, _ in spec.projections)
        lines.append(f"    -> PROJECT [{outputs}]")

    coordinator = []
    if spec.is_aggregation:
        coordinator.append("merge partial aggregates")
    if spec.order_by:
        rendered_keys = []
        for key in spec.order_by:
            text = (key.expr_or_column if isinstance(key.expr_or_column, str)
                    else render_expr(key.expr_or_column))
            rendered_keys.append(text + (" DESC" if key.descending else ""))
        coordinator.append("ORDER BY " + ", ".join(rendered_keys))
    if spec.limit is not None:
        coordinator.append(f"LIMIT {spec.limit}")
    lines.append(f"  exchange: {dataset.partition_count} partition stream(s) "
                 "merged in partition order (worker pool, default one worker per partition)")
    lines.append("  coordinator: " + ("; ".join(coordinator) if coordinator else "concatenate"))

    if access_plan.consolidate and access_plan.scan_paths:
        rendered = ", ".join(".".join(map(str, path)) for path in access_plan.scan_paths)
        lines.append(f"  consolidated field access: get_values({rendered})")

    from .executor import QueryExecutor

    executor = QueryExecutor(consolidate_field_access=consolidate_field_access,
                             pushdown_through_unnest=pushdown_through_unnest,
                             access_path=access_path, analyze=True,
                             **executor_options)
    lines.append(f"  execution: batch (size={executor.batch_size})")

    if not analyze:
        return "\n".join(lines)

    if isinstance(query, str):
        # Route through Dataset.query so the plan cache is probed exactly as
        # a production call would — ANALYZE then reports "plan: cached" vs
        # "plan: compiled" truthfully.
        result = dataset.query(query, executor=executor)
    else:
        result = executor.execute(dataset, original_spec)
    lines.extend(_analyze_lines(result.stats))
    return "\n".join(lines)


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1000.0:.3f}ms"


def _analyze_lines(stats) -> list:
    """Render the ANALYZE section from instrumented ExecutionStats."""
    lines = ["  ANALYZE (query executed):"]
    totals = stats.operator_totals()
    if totals:
        width = max(max(len(op.operator) for op in totals), len("operator"))
        lines.append(f"    {'operator':<{width}}  {'actual rows':>12}  "
                     f"{'time':>10}  {'bytes read':>12}  {'batches':>8}")
        for op in totals:
            lines.append(f"    {op.operator:<{width}}  {op.rows_out:>12}  "
                         f"{_format_seconds(op.seconds):>10}  {op.bytes_read:>12,}"
                         f"  {op.batches:>8}")
        lines.append("    (time is inclusive wall time, summed across partitions)")
    if stats.plan_source is not None:
        lines.append("    plan: cached" if stats.plan_source == "cache"
                     else "    plan: compiled")
    cache_total = stats.cache_hits + stats.cache_misses
    if cache_total:
        lines.append(f"    buffer cache: {stats.cache_hits} hit(s) / "
                     f"{stats.cache_misses} miss(es) "
                     f"({stats.cache_hit_ratio:.1%} hit rate)")
    else:
        lines.append("    buffer cache: no page accesses")
    slice_total = stats.slice_cache_hits + stats.slice_cache_misses
    if slice_total:
        lines.append(f"    column-slice cache (scan): {stats.slice_cache_hits} hit(s) / "
                     f"{stats.slice_cache_misses} miss(es) "
                     f"({stats.slice_cache_hits / slice_total:.1%} hit rate)")
    if stats.estimated_rows is not None and stats.actual_matched_rows is not None:
        lines.append(f"    cardinality: estimated {stats.estimated_rows:.1f} row(s), "
                     f"actual {stats.actual_matched_rows} row(s) matched "
                     f"(error factor {stats.cardinality_error:.1f}x)")
    elif stats.actual_matched_rows is not None:
        lines.append(f"    cardinality: actual {stats.actual_matched_rows} row(s) "
                     "matched (optimizer made no estimate)")
    lines.append(f"    execution: wall {_format_seconds(stats.wall_seconds)} "
                 f"(coordinator {_format_seconds(stats.coordinator_seconds)}), "
                 f"{stats.rows_returned} row(s) returned, "
                 f"simulated I/O {_format_seconds(stats.simulated_io_seconds)}, "
                 f"parallelism {stats.parallelism}, "
                 f"batch (size={stats.batch_size}, {stats.batches_processed} batch(es))")
    return lines
