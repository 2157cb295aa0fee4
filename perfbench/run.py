"""Run one workload: set up, repeat, reduce to metrics, assert the workload's shape.

The untraced run (``--trace 0``) reports the end-to-end metrics with no wrapper
installed.  The traced run (``--trace 1``) takes its counts and ``wall.*`` /
``query.*`` numbers from untraced repetitions, then installs
:class:`perfbench.trace.Tracer` for one more repetition and reports each
layer's self time from it.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .pace import SPIN_SECONDS, Lap, Pace
from .plan import Plan, build_plan
from .session import PAGE_SIZE, PARTITIONS, Repetition, Session
from .trace import Tracer
from .workloads import (END_TO_END, MAX_REPETITIONS, MIN_REPETITIONS, PER_LAYER,
                        SCAN_STATEMENTS, SCAN_TABLES, TIMING_METRICS, Workload)

#: Set-up is repeated so ``setup_s`` is a median, not one draw.  The first
#: set-up is the one the run uses; the others are made between the measured
#: repetitions and thrown away, so that one slow stretch of the box at the
#: start of a run does not land on all of them.
SETUP_REPETITIONS = 5
#: Untraced repetitions of a traced run (after the warm-up).
TRACE_BASELINE_REPETITIONS = 2
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

Metrics = Dict[str, float]
#: (plan lap, side-table lap) of every set-up.
Setup = Sequence[Tuple[Lap, Lap]]


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

def timing_metrics(workload: Workload, reps: Sequence[Repetition], setup: Setup,
                   clock: str) -> Metrics:
    """The timing metrics on one clock: ``"paced"`` (gated), ``"cpu"`` (the
    ``raw.*`` twins: CPU time as read, not paced) or ``"wall"``.

    Every repetition runs the same blocks in the same order.  A region's time
    is the sum over its blocks of the block's median over the repetitions, so
    a burst that hits one repetition of a block is dropped block by block.
    Set-up has two blocks, the plan and the side table.
    """
    def region(name: str) -> float:
        blocks = zip(*([getattr(lap, clock) for lap in rep.laps[name]] for rep in reps))
        return sum(statistics.median(block) for block in blocks)

    rounds = workload.rounds
    metrics = {
        "setup_s": sum(statistics.median(getattr(lap, clock) for lap in block)
                       for block in zip(*setup)),
        "ingest_records_per_s": workload.tweets / region("ingest"),
        "ingest_open_records_per_s": workload.tweets / region("ingest_open"),
        "update_ops_per_s": rounds * workload.writes_per_round / region("write"),
        "get_ms": 1e3 * region("get") / (rounds * workload.gets_per_round),
        "probe_query_ms": 1e3 * region("probe") / (rounds * workload.probes_per_round),
        "scan_after_write_ms": 1e3 * region("after_write") / rounds,
    }
    logs: Dict[str, List[float]] = {"query_inferred_ms": [], "query_open_ms": []}
    for table, mean in SCAN_TABLES:
        for statement in SCAN_STATEMENTS:
            value = 1e3 * region(f"{table}.{statement}")
            metrics[f"query.{table}.{statement}_ms"] = value
            logs[mean].append(math.log(value))
    for mean, values in logs.items():
        metrics[mean] = math.exp(sum(values) / len(values))
    return metrics


def end_to_end_metrics(workload: Workload, plan: Plan, reps: Sequence[Repetition],
                       setup: Setup) -> Metrics:
    metrics = timing_metrics(workload, reps, setup, "paced")
    counts = reps[0].counts
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["storage_bytes_per_user_byte"] = counts["storage_bytes"] / plan.live_user_bytes
    metrics["storage_open_bytes_per_user_byte"] = (counts["storage_open_bytes"]
                                                   / plan.ingested_user_bytes)
    metrics["write_bytes_per_user_byte"] = (counts["inferred_device_bytes_written"]
                                            / plan.submitted_user_bytes)
    return {name: metrics[name] for name, _, _, _ in END_TO_END}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile_ms(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile in milliseconds (0 when nothing was timed)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return 1e3 * ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def per_layer_metrics(workload: Workload, reps: Sequence[Repetition], traced: Repetition,
                      tracer: Tracer, setup: Setup, speed_factor: float) -> Metrics:
    totals = tracer.layer_totals()
    counts = reps[0].counts
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "size": 0}

    def layer(name: str) -> Dict[str, float]:
        return totals.get(name, empty)

    def self_us(name: str) -> float:
        return 1e6 * _ratio(layer(name)["self_s"], layer(name)["calls"])

    def size_per_call(name: str) -> float:
        return _ratio(layer(name)["size"], layer(name)["calls"])

    wall_over_cpu = [rep.total_seconds("wall") / rep.total_seconds("cpu") for rep in reps]
    compacted = layer("vector.compact")["size"]
    writes = traced.op_seconds["write"]

    metrics: Metrics = {
        "sqlpp.compile_us": self_us("sqlpp.compile"),
        "sqlpp.statements": layer("sqlpp.compile")["calls"],
        "optimizer.prepare_us": self_us("optimizer.prepare"),
        "plan_cache.hit_ratio": _ratio(counts["plan_cache.hits"],
                                       counts["plan_cache.hits"] + counts["plan_cache.misses"]),
        "column_cache.hit_ratio": _ratio(
            counts["column_cache.hits"],
            counts["column_cache.hits"] + counts["column_cache.misses"]),
        "executor.execute_s": layer("executor.execute")["self_s"],
        "executor.records_per_row": _ratio(counts["executor.records_scanned"],
                                           counts["executor.rows_returned"]),
        "vector.encode_us_per_record": self_us("vector.encode"),
        "vector.extract_us_per_record": self_us("vector.extract"),
        "vector.materialize_us_per_record": self_us("vector.materialize"),
        "vector.structure_us_per_record": self_us("vector.structure"),
        "vector.compact_us_per_record": self_us("vector.compact"),
        "vector.encoded_bytes_per_record": size_per_call("vector.encode"),
        "vector.compacted_bytes_per_record": size_per_call("vector.compact"),
        "adm.encode_us_per_record": self_us("adm.encode"),
        "adm.decode_us_per_record": 1e6 * _ratio(layer("adm.decode")["self_s"],
                                                 layer("codec.view")["size"]),
        "schema.observe_us_per_record": self_us("schema.observe"),
        "schema.remove_us_per_record": self_us("schema.remove"),
        # Inclusive on purpose: structure + observe + compact are its children,
        # and the sum is what a flush pays per record for the compactor.
        "compactor.transform_us_per_record": 1e6 * _ratio(
            layer("compactor.transform")["busy_s"], layer("compactor.transform")["calls"]),
        "compactor.bytes_saved_ratio": _ratio(counts["compactor.bytes_saved"],
                                              counts["compactor.bytes_saved"] + compacted),
        "lsm.insert_us": self_us("lsm.insert"),
        "lsm.upsert_us": self_us("lsm.upsert"),
        "lsm.search_us": self_us("lsm.search"),
        "lsm.flush_s": layer("lsm.flush")["self_s"],
        "lsm.merge_s": layer("lsm.merge")["self_s"],
        # Inclusive: WAL replay and whatever it flushes are what a restart waits for.
        "lsm.recovery_s": layer("lsm.recover")["busy_s"],
        "btree.search_us": self_us("btree.search"),
        "btree.pages_per_search": _ratio(
            tracer.direct_children("btree.search", "buffer_cache.read_page"),
            layer("btree.search")["calls"]),
        "btree.bulk_build_s": layer("btree.bulk_build")["self_s"],
        "btree.unpack_leaf_us": self_us("btree.unpack_leaf"),
        "btree.pack_leaf_us": self_us("btree.pack_leaf"),
        "buffer_cache.hit_ratio": _ratio(
            counts["buffer_cache.hits"],
            counts["buffer_cache.hits"] + counts["buffer_cache.misses"]),
        "file_manager.read_page_us": self_us("file_manager.read_page"),
        "file_manager.write_page_us": self_us("file_manager.write_page"),
        "compression.compress_us_per_page": self_us("compression.compress"),
        "compression.decompress_us_per_page": self_us("compression.decompress"),
        "compression.ratio": _ratio(counts["compression.logical_bytes"],
                                    counts["compression.stored_bytes"]),
        "wal.append_us": self_us("wal.append"),
        "clock.wall_over_cpu_min": min(wall_over_cpu),
        "clock.wall_over_cpu_median": statistics.median(wall_over_cpu),
        "clock.trace_overhead_ratio": traced.total_seconds("paced") / statistics.median(
            rep.total_seconds("paced") for rep in reps),
        "clock.speed_factor": speed_factor,
        "tail.get_p95_ms": _percentile_ms(traced.op_seconds["get"], 0.95),
        "tail.get_p99_ms": _percentile_ms(traced.op_seconds["get"], 0.99),
        "tail.upsert_p95_ms": _percentile_ms(writes, 0.95),
        "tail.upsert_p99_ms": _percentile_ms(writes, 0.99),
        "tail.upsert_max_ms": _percentile_ms(writes, 1.0),
        "tail.probe_p95_ms": _percentile_ms(traced.op_seconds["probe"], 0.95),
    }
    wall = timing_metrics(workload, reps, setup, "wall")
    raw = timing_metrics(workload, reps, setup, "cpu")
    paced = timing_metrics(workload, reps, setup, "paced")
    for name in TIMING_METRICS:
        metrics[f"wall.{name}"] = wall[name]
        metrics[f"raw.{name}"] = raw[name]
    for name, _, _ in PER_LAYER:
        if name.startswith("query."):
            metrics[name] = paced[name]
        elif name not in metrics:
            metrics[name] = counts[name]  # a count read straight off the engine's stats
    return {name: metrics[name] for name, _, _ in PER_LAYER}


# ---------------------------------------------------------------------------
# Shape: each workload asserts it is the workload it claims to be
# ---------------------------------------------------------------------------

def check_shape(workload: Workload, rep: Repetition) -> None:
    """Count a failed check when the run did not have the workload's shape.

    Only at the committed size: a shrunken test run legitimately flushes less.
    """
    if workload.scale != 1.0:
        return
    counts = rep.counts
    for partition, (flushes, merges) in enumerate(rep.ingest_shape):
        rep.check(flushes >= workload.min_ingest_flushes and merges >= workload.min_ingest_merges,
                  f"partition {partition} ingested with {flushes} flushes, {merges} merges")
    rep.check(all(path == "IndexProbe" for path in rep.probe_access_paths),
              f"probe plans {sorted(set(rep.probe_access_paths))}")
    rep.check(counts["lsm.stall_s"] == 0, f"writers stalled {counts['lsm.stall_s']} s")
    if workload.buffer_cache_pages * PAGE_SIZE < counts["compression.logical_bytes"]:
        hit_ratio = _ratio(counts["rounds.buffer_cache_hits"],
                           counts["rounds.buffer_cache_hits"]
                           + counts["rounds.buffer_cache_misses"])
        rep.check(0.3 < hit_ratio < 0.95, f"buffer-cache hit ratio {hit_ratio:.3f} in the rounds")
    else:
        rep.check(counts["buffer_cache.evictions"] == 0,
                  f"{counts['buffer_cache.evictions']} evictions though the data fits")
    if workload.cold_scans:
        rep.check(counts["scan.column_cache_hits"] == 0,
                  f"{counts['scan.column_cache_hits']} column-cache hits in a cold scan pass")
    else:
        rep.check(counts["scan.column_cache_hits"] > 0, "no column-cache hit in a warm scan pass")
        rep.check(all(source == "cache" for source in rep.scan_plan_sources),
                  f"warm plan sources {sorted(set(map(str, rep.scan_plan_sources)))}")


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def set_up(workload: Workload, seed: int, pace: Pace) -> Tuple[Plan, Session, Tuple[Lap, Lap]]:
    """One timed set-up: the plan (inputs and oracle), then the side table."""
    gc.collect()
    with Lap(pace) as planning:
        plan = build_plan(workload, seed)
    with Lap(pace) as building:
        session = Session(plan, pace)
    pace.sample()  # closes the window of the last lap
    return plan, session, (planning, building)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 mutate_plan: Optional[Callable[[Plan], None]] = None,
                 out_dir: str = OUT_DIR) -> Dict[str, Any]:
    """Run ``workload`` and return ``{"result": …, "stamp": …}``.

    ``result`` is the contract's JSON object.  ``mutate_plan`` lets the tests
    plant a wrong oracle answer.
    """
    pace = Pace()
    plan, session, laps = set_up(workload, seed, pace)
    if mutate_plan is not None:
        mutate_plan(plan)
    # The plan's records and oracle are some hundred thousand long-lived
    # objects of the benchmark's own.  Frozen, they are not walked by a full
    # collection that the engine's allocations trigger inside a timed region
    # (20-50 ms when it landed in a 30 ms block of gets), so the collector
    # costs the engine what the engine's own heap costs.
    gc.collect()
    gc.freeze()
    try:
        return _measure(workload, seed, seconds, trace, plan, session, [laps], out_dir)
    finally:
        gc.unfreeze()


def _measure(workload: Workload, seed: int, seconds: float, trace: bool, plan: Plan,
             session: Session, setup: List[Tuple[Lap, Lap]], out_dir: str) -> Dict[str, Any]:
    deadline = time.perf_counter() + seconds
    session.run()  # warm-up, discarded
    reps: List[Repetition] = []
    wanted = TRACE_BASELINE_REPETITIONS if trace else MIN_REPETITIONS
    lasted = 0.0
    while len(reps) < wanted or (not trace and len(reps) < MAX_REPETITIONS
                                 and time.perf_counter() + lasted < deadline):
        started = time.perf_counter()
        reps.append(session.run())
        if len(setup) < SETUP_REPETITIONS:
            setup.append(set_up(workload, seed, session.pace)[2])
        lasted = time.perf_counter() - started

    tracer: Optional[Tracer] = None
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = session.run(per_op=True)
            session.crash_and_recover(traced)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(out_dir, f"trace_{workload.name}.json"))
        checked = reps + [traced]
    else:
        # Durability is checked once, after the last repetition's timed regions.
        session.crash_and_recover(reps[-1])
        checked = reps

    first = reps[0]
    for number, rep in enumerate(checked[1:], start=2):
        differing = sorted(key for key in first.counts if rep.counts[key] != first.counts[key])
        first.check(not differing, f"repetition {number} counts differ: {differing}")
    check_shape(workload, first)

    speed_factor = session.pace.mean_spin_seconds() / SPIN_SECONDS
    if tracer is not None:
        metrics = per_layer_metrics(workload, reps, traced, tracer, setup, speed_factor)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = end_to_end_metrics(workload, plan, reps, setup)
        units = {name: unit for name, unit, _, _ in END_TO_END}

    failed = sum(rep.failed for rep in checked)
    result = {
        "correct": failed == 0,
        "attempted": sum(rep.attempted for rep in checked),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    counts = first.counts
    stamp = {
        "workload": workload.name, "seed": seed, "trace": trace,
        "commit": commit_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "repetitions": len(reps), "speed_factor": speed_factor,
        "scale": workload.scale,
        "tweets": workload.tweets, "sensors": workload.sensors, "partitions": PARTITIONS,
        "page_size": PAGE_SIZE, "memory_budget": workload.memory_budget,
        "compression": workload.compression,
        "data_pages": counts["compression.logical_bytes"] // PAGE_SIZE,
        "buffer_cache_pages": workload.buffer_cache_pages,
        "buffer_cache_to_data": _ratio(workload.buffer_cache_pages * PAGE_SIZE,
                                       counts["compression.logical_bytes"]),
        "ingest_flushes_merges_per_partition": first.ingest_shape,
        "flushes": counts["lsm.flushes"], "merges": counts["lsm.merges"],
        "failures": [note for rep in checked for note in rep.failure_notes][:10],
    }
    return {"result": result, "stamp": stamp}


def commit_sha() -> str:
    """HEAD of the enclosing git checkout, read without spawning git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"
