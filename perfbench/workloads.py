"""The four workloads and the metric catalogue.

This module is the single source of the names in ``BENCHMARK.json``:
``benchmark_json()`` renders exactly that file, and the test suite fails when
the committed file and this module disagree.

Every workload runs the same *repetition* (see :mod:`perfbench.session`) — a
measured insert-only ingest of the same tweets into a fresh INFERRED and a
fresh OPEN dataset, one pass over the twelve Appendix-A statements, rounds of
[writes → one scan → point gets → index-probe queries] and a final flush — so
every workload reports every end-to-end metric, as the benchmark contract
requires.  The workloads differ in the properties the engine's behaviour
depends on: how many flush/merge cycles the ingest goes through, page
compression, buffer-cache size relative to the data, whether caches are dropped
before each scan statement, and how the time is split between writes and reads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

#: How long one run measures (``run_seconds`` of BENCHMARK.json): the warm-up
#: repetition and as many measured ones as end within it.
RUN_SECONDS = 28

#: Measured repetitions never drop below this, whatever ``--seconds`` says;
#: one more, discarded, repetition always runs first as warm-up.
MIN_REPETITIONS = 5
MAX_REPETITIONS = 12


@dataclass(frozen=True)
class Workload:
    """One set of inputs: dataset configuration plus traffic mix."""

    name: str
    why: str
    compression: Optional[str]
    buffer_cache_pages: int
    #: ``LSMConfig.memory_component_budget``: sets how often a partition flushes.
    memory_budget: int
    #: Twitter records ingested (insert-only, measured) into both formats at
    #: the start of every repetition.
    tweets: int
    #: Sensor records of the read-only INFERRED side table, built in set-up.
    sensors: int
    rounds: int
    writes_per_round: int
    gets_per_round: int
    probes_per_round: int
    #: Drop buffer, plan-result and column-slice caches before every scan
    #: statement of the pass; otherwise one untimed pass warms them first.
    cold_scans: bool
    #: Flushes and merges every INFERRED partition must have gone through when
    #: the ingest ends (asserted at the committed size).
    min_ingest_flushes: int = 1
    min_ingest_merges: int = 0
    #: 1.0 at the committed size; the tests shrink it.  Shape assertions
    #: (flush counts, hit ratios) only apply at 1.0.
    scale: float = 1.0

    def scaled(self, factor: float) -> "Workload":
        def shrink(value: int, floor: int) -> int:
            return max(floor, int(value * factor))

        return replace(
            self, scale=self.scale * factor,
            tweets=shrink(self.tweets, 60), sensors=shrink(self.sensors, 10),
            writes_per_round=shrink(self.writes_per_round, 10),
            gets_per_round=shrink(self.gets_per_round, 10),
            probes_per_round=shrink(self.probes_per_round, 2))


# The memtable budgets are chosen so that flush and merge counts do not depend
# on the seed: over seeds 1-20, every partition of both formats ends its ingest
# (and tw_inf its rounds) with a memtable between 20 % and 80 % full, and
# tw_inf ends a repetition with one or two components per partition.  A budget
# that leaves a memtable nearly full or nearly empty lets the record sizes of
# one seed tip it into one flush more, and the byte ratios jump by 3-4 %; many
# small components at the end make them wander by 1-2 % (page-granular files).
WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="ingest_insert",
        why="Write path: a small memtable makes each partition flush 15+ and merge 3+ times, so "
            "encode, WAL, infer+compact, bulk B-tree build and merge dominate; reads are a sliver.",
        compression=None, buffer_cache_pages=4096, memory_budget=207 * 256,
        tweets=1900, sensors=80,
        rounds=12, writes_per_round=25, gets_per_round=200, probes_per_round=10,
        cold_scans=True, min_ingest_flushes=15, min_ingest_merges=3),
    Workload(
        name="mixed_rw",
        why="Writes beside reads on zlib pages with a buffer cache about 1/7 of the data: anti-schema "
            "lookups, schema shrink, decompress, eviction, cache invalidation on every flush.",
        compression="zlib", buffer_cache_pages=24, memory_budget=72 * 1024,
        tweets=1400, sensors=80,
        rounds=12, writes_per_round=45, gets_per_round=200, probes_per_round=12,
        cold_scans=True),
    Workload(
        name="scan_cold",
        why="Caches dropped before every scan statement, data fits the buffer cache: page read, leaf "
            "unpack and vector decode dominate queries; the workload a decode change must move.",
        compression=None, buffer_cache_pages=4096, memory_budget=178 * 1024,
        tweets=1600, sensors=140,
        rounds=12, writes_per_round=25, gets_per_round=200, probes_per_round=10,
        cold_scans=True),
    Workload(
        name="scan_warm",
        why="Same data as scan_cold with caches kept: plan cache and column-slice cache serve the "
            "decode, so a decode change must show no change in query_inferred_ms here.",
        compression=None, buffer_cache_pages=4096, memory_budget=178 * 1024,
        tweets=1600, sensors=140,
        rounds=12, writes_per_round=25, gets_per_round=200, probes_per_round=10,
        cold_scans=False),
)


def workload_named(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(f"unknown workload {name!r}; choose from "
                   f"{[workload.name for workload in WORKLOADS]}")


# ---------------------------------------------------------------------------
# Metric catalogue
# ---------------------------------------------------------------------------

#: (name, unit, better, bound).  Timings are paced CPU time (see perfbench.pace).
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("ingest_records_per_s", "1/s", "higher", 0.1),
    ("ingest_open_records_per_s", "1/s", "higher", 0.1),
    ("storage_bytes_per_user_byte", "B/B", "lower", 0.03),
    ("storage_open_bytes_per_user_byte", "B/B", "lower", 0.03),
    ("write_bytes_per_user_byte", "B/B", "lower", 0.03),
    ("update_ops_per_s", "1/s", "higher", 0.1),
    ("get_ms", "ms", "lower", 0.1),
    ("probe_query_ms", "ms", "lower", 0.1),
    ("scan_after_write_ms", "ms", "lower", 0.1),
    ("query_inferred_ms", "ms", "lower", 0.1),
    ("query_open_ms", "ms", "lower", 0.1),
)

#: The timing metrics above; each has two ungated twins, ``wall.*`` and ``raw.*``.
TIMING_METRICS = tuple(name for name, unit, _, _ in END_TO_END if unit in ("s", "1/s", "ms"))

SCAN_STATEMENTS = ("Q1", "Q2", "Q3", "Q4")
#: Scan tables in round-robin order, and the geometric mean each belongs to.
SCAN_TABLES = (("tw_inf", "query_inferred_ms"), ("tw_open", "query_open_ms"),
               ("se_inf", "query_inferred_ms"))


def _per_layer() -> Tuple[Tuple[str, str, str], ...]:
    lower, higher = "lower", "higher"
    rows: List[Tuple[str, str, str]] = [
        ("sqlpp.compile_us", "us", lower), ("sqlpp.statements", "count", lower),
        ("optimizer.prepare_us", "us", lower), ("optimizer.index_probe_plans", "count", higher),
        ("plan_cache.hits", "count", higher), ("plan_cache.misses", "count", lower),
        ("plan_cache.hit_ratio", "ratio", higher),
        ("column_cache.hits", "count", higher), ("column_cache.misses", "count", lower),
        ("column_cache.hit_ratio", "ratio", higher), ("column_cache.evictions", "count", lower),
        ("column_cache.bytes_used", "B", lower),
        ("executor.execute_s", "s", lower), ("executor.records_scanned", "count", lower),
        ("executor.rows_returned", "count", lower), ("executor.records_per_row", "ratio", lower),
        ("executor.batches", "count", lower), ("executor.fallback_queries", "count", lower),
        ("vector.encode_us_per_record", "us", lower),
        ("vector.extract_us_per_record", "us", lower),
        ("vector.materialize_us_per_record", "us", lower),
        ("vector.structure_us_per_record", "us", lower),
        ("vector.compact_us_per_record", "us", lower),
        ("vector.encoded_bytes_per_record", "B", lower),
        ("vector.compacted_bytes_per_record", "B", lower),
        ("adm.encode_us_per_record", "us", lower), ("adm.decode_us_per_record", "us", lower),
        ("schema.observe_us_per_record", "us", lower),
        ("schema.remove_us_per_record", "us", lower),
        ("schema.field_count", "count", lower), ("schema.snapshot_bytes", "B", lower),
        ("compactor.transform_us_per_record", "us", lower),
        ("compactor.bytes_saved_ratio", "ratio", higher),
        ("lsm.insert_us", "us", lower), ("lsm.upsert_us", "us", lower),
        ("lsm.search_us", "us", lower),
        ("lsm.flush_s", "s", lower), ("lsm.flushes", "count", lower),
        ("lsm.merge_s", "s", lower), ("lsm.merges", "count", lower),
        ("lsm.bytes_flushed", "B", lower), ("lsm.bytes_merged", "B", lower),
        ("lsm.components_final", "count", lower),
        ("lsm.maintenance_point_lookups", "count", lower),
        ("lsm.stall_s", "s", lower), ("lsm.recovery_s", "s", lower),
        ("btree.search_us", "us", lower), ("btree.pages_per_search", "ratio", lower),
        ("btree.bulk_build_s", "s", lower), ("btree.unpack_leaf_us", "us", lower),
        ("btree.pack_leaf_us", "us", lower),
        ("buffer_cache.hits", "count", higher), ("buffer_cache.misses", "count", lower),
        ("buffer_cache.hit_ratio", "ratio", higher), ("buffer_cache.evictions", "count", lower),
        ("file_manager.read_page_us", "us", lower), ("file_manager.write_page_us", "us", lower),
        ("compression.compress_us_per_page", "us", lower),
        ("compression.decompress_us_per_page", "us", lower),
        ("compression.ratio", "ratio", higher),
        ("wal.append_us", "us", lower), ("wal.records", "count", lower),
        ("wal.bytes", "B", lower),
        ("device.bytes_read", "B", lower), ("device.bytes_written", "B", lower),
        ("device.read_ops", "count", lower), ("device.write_ops", "count", lower),
        ("device.simulated_s", "s", lower),
        ("clock.wall_over_cpu_min", "ratio", lower),
        ("clock.wall_over_cpu_median", "ratio", lower),
        ("clock.trace_overhead_ratio", "ratio", lower),
        ("clock.speed_factor", "ratio", lower),
    ]
    # Ungated twins of the timing metrics: ``wall.*`` on perf_counter, ``raw.*``
    # on the CPU clock as read — next to a gated (paced) value they show when
    # waiting or the pacing, not the engine, moved it.
    for twin in ("wall", "raw"):
        rows += [(f"{twin}.{name}", unit, better) for name, unit, better, _ in END_TO_END
                 if name in TIMING_METRICS]
    rows += [
        ("tail.get_p95_ms", "ms", lower), ("tail.get_p99_ms", "ms", lower),
        ("tail.upsert_p95_ms", "ms", lower), ("tail.upsert_p99_ms", "ms", lower),
        ("tail.upsert_max_ms", "ms", lower), ("tail.probe_p95_ms", "ms", lower),
    ]
    for table, _ in SCAN_TABLES:
        rows += [(f"query.{table}.{statement}_ms", "ms", lower)
                 for statement in SCAN_STATEMENTS]
    return tuple(rows)


#: (name, unit, better).  Reported by the traced run (``--trace 1``).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = _per_layer()

#: Per-layer metrics in these units are exact counts: two runs of one seed
#: must agree on them to the last digit.
EXACT_UNITS = ("count", "B")


def benchmark_json() -> Dict[str, Any]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "perfbench"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": workload.name, "why": workload.why}
                      for workload in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": better, "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }
