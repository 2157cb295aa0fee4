"""Compact plan renderer: which access path won, and why.

``explain(dataset, query)`` asks the dataset for the physical plan exactly
as :meth:`~repro.core.dataset.Dataset.query` would — same planner call
(:meth:`QueryExecutor.prepare_physical`), same plan cache — costs its access
path the way a run does, and renders both as indented text: the access-path
decision with its costs, the source stage it names and the plan's own stage
list (what the executor folds into operators, so the names here are the
names in ``stats.per_partition[i].operators``) and the columns the scan
extracts.  Nothing is executed unless ``analyze=True``, which runs that same
plan object, renders the access path that run chose, and appends the
measured cost record.  Benchmarks and tests assert on the rendered
access-path line ("IndexProbe(...)" vs "FullScan").
"""

from __future__ import annotations

from typing import Any, Optional, Union

from ..cache import PhysicalPlan
from ..obs import CARDINALITY_MISESTIMATE, emit_event
from .expressions import render_expr
from .optimizer import AccessPathChoice, choose_access_path
from .plan import QuerySpec


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


def explain(dataset, query: Union[str, QuerySpec], analyze: bool = False,
            executor: Optional[Any] = None, **executor_options) -> str:
    """Render the plan for ``query`` over ``dataset``.

    ``executor`` / ``executor_options`` (e.g. ``access_path="scan"``,
    ``parallelism=1``) mean what they mean to ``dataset.query``.  Without
    ``analyze`` nothing is executed.  With ``analyze=True`` the rendered plan
    runs and an ``ANALYZE`` section shows per-operator actual rows /
    inclusive wall time / bytes read, plus buffer-cache activity and the
    estimated-vs-actual cardinality error."""
    runner = dataset._runner(executor, executor_options)
    physical, source = dataset._plan(query, runner)
    if not isinstance(physical, PhysicalPlan):
        raise ValueError("explain() renders query plans; CREATE INDEX has none")
    spec, batch_plan = physical.spec, physical.batch_plan
    if analyze:
        result, _ = dataset._run(query, runner, planned=(physical, source))
        choice = result.access_path
    else:
        choice = choose_access_path(spec, dataset, force=runner.access_path)

    lines = [f"QUERY PLAN over dataset {dataset.config.name!r} "
             f"(format={dataset.config.storage_format.value}, "
             f"partitions={dataset.partition_count}, "
             f"~{dataset.approximate_record_count()} records)"]
    lines.extend("  " + line for line in _access_path_lines(choice))

    lines.append("  pipeline (per partition):")
    lines.append("    " + choice.stage_name)
    for stage in batch_plan.stages:
        lines.append(f"    -> {stage.name}: {stage.detail}")

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
    width = runner._resolve_parallelism(dataset)
    lines.append(f"  exchange: {dataset.partition_count} partition stream(s) "
                 "merged in partition order ("
                 + ("inline" if width == 1 else f"worker pool of {width}") + ")")
    lines.append("  coordinator: " + ("; ".join(coordinator) if coordinator else "concatenate"))

    if batch_plan.scan_paths:
        rendered = ", ".join(".".join(map(str, path)) for path in batch_plan.scan_paths)
        lines.append(f"  consolidated field access: get_values({rendered})")
    lines.append(f"  execution: batch (size={runner.batch_size})")

    if analyze:
        lines.extend(_analyze_lines(dataset, result.stats))
    return "\n".join(lines)


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1000.0:.3f}ms"


def _analyze_lines(dataset, stats) -> list:
    """Render the ANALYZE section from the execution's cost record."""
    lines = ["  ANALYZE (query executed):"]
    totals = stats.operator_totals()
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
        if stats.cardinality_error > 10.0:
            emit_event(CARDINALITY_MISESTIMATE,
                       dataset=dataset.config.name,
                       access_path=stats.access_path,
                       index=stats.index_name,
                       estimated_rows=round(stats.estimated_rows, 1),
                       actual_rows=stats.actual_matched_rows,
                       error_factor=round(stats.cardinality_error, 1))
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
