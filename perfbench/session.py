"""One repetition of a workload: build, scan, write, read, check.

The engine is configured with no waiting in it — synchronous LSM lifecycle,
``parallelism=1``, ``io_throttle=0``, in-memory file manager — so wall time is
process CPU time plus whatever the shared box steals.  Every timed region is
therefore read on both clocks (:class:`perfbench.pace.Lap`): gated metrics use
``time.process_time()``, paced by the box's local speed, the ``wall.*`` twins
``time.perf_counter()``.

Sub-millisecond operations are timed in blocks, never one by one (the traced
repetition alone adds per-operation laps for the ``tail.*`` diagnostics), every
result is consumed inside its timed region, and every answer is checked against
the plan's oracle after the region has closed.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro import (Dataset, LSMConfig, MetricsRegistry, StorageConfig, StorageEnvironment,
                   StorageFormat, metrics_delta)
from repro.datasets import sensors, twitter

from .pace import Lap, Pace
from .plan import Plan, probe_text
from .workloads import SCAN_STATEMENTS, SCAN_TABLES, Workload

PAGE_SIZE = 8 * 1024
PARTITIONS = 2
INDEX_NAME = "ts_idx"
INDEX_FIELD = "timestamp_ms"
#: The statement issued right after every write block.
AFTER_WRITE_STATEMENT = "Q2"
#: Operations per timed block, at most.  A block is long enough (20-60 ms)
#: that reading the clocks costs nothing and the reference sample before it
#: (4 ms) is a small share of it, and short enough that the speed factor
#: measured next to a block is the speed during it and that the host's
#: interference, which comes in bursts, leaves most repetitions of every block
#: untouched — what the per-block median over repetitions (see perfbench.run)
#: relies on.
BLOCK_OPERATIONS = {"ingest": 100, "ingest_open": 200, "write": 50, "get": 200, "probe": 12}
_STATEMENTS = {"tw_inf": twitter.SQLPP, "tw_open": twitter.SQLPP, "se_inf": sensors.SQLPP}
_ANSWERS = {"tw_inf": "tw", "tw_open": "tw", "se_inf": "se"}
_MAX_FAILURE_NOTES = 10


class Repetition:
    """Everything one repetition measured and checked."""

    def __init__(self) -> None:
        #: Region name → laps, in execution order.  Regions: ``ingest``,
        #: ``ingest_open``, ``write`` (one per round plus the final flush),
        #: ``get``, ``probe``, ``after_write`` and one per scan statement
        #: (``tw_inf.Q1`` …).
        self.laps: Dict[str, List[Lap]] = defaultdict(list)
        #: Per-operation CPU seconds (traced repetition only).
        self.op_seconds: Dict[str, List[float]] = defaultdict(list)
        #: Counts that must repeat exactly for one seed.
        self.counts: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failure_notes: List[str] = []
        #: (flushes, merges) of each INFERRED partition when the ingest ended.
        self.ingest_shape: List[Tuple[int, int]] = []
        self.probe_access_paths: List[str] = []
        self.scan_plan_sources: List[Any] = []

    def total_seconds(self, clock: str) -> float:
        return sum(getattr(lap, clock) for laps in self.laps.values() for lap in laps)

    def check(self, passed: bool, note: str) -> None:
        self.attempted += 1
        if not passed:
            self.failed += 1
            if len(self.failure_notes) < _MAX_FAILURE_NOTES:
                self.failure_notes.append(note)


def new_environment(workload: Workload, registry: MetricsRegistry) -> StorageEnvironment:
    return StorageEnvironment(
        StorageConfig(page_size=PAGE_SIZE, buffer_cache_pages=workload.buffer_cache_pages,
                      compression=workload.compression, io_throttle=0.0),
        metrics=registry)


def new_dataset(name: str, storage_format: StorageFormat, workload: Workload,
                environment: StorageEnvironment) -> Dataset:
    dataset = Dataset.create(
        name, storage_format, environment=environment, partitions=PARTITIONS,
        lsm=LSMConfig(memory_component_budget=workload.memory_budget,
                      background_maintenance=False))
    if dataset.background_maintenance:
        # A background flush would do its work off the clock's measured regions.
        raise RuntimeError("perfbench measures the synchronous LSM lifecycle only")
    return dataset


def _counter(counters: Dict[str, float], name: str) -> float:
    """Sum of a counter over all its label sets."""
    return sum(value for key, value in counters.items()
               if key == name or key.startswith(name + "{"))


class Session:
    """A plan bound to an engine: owns the read-only side table, runs repetitions."""

    def __init__(self, plan: Plan, pace: Pace) -> None:
        self.plan = plan
        self.workload = plan.workload
        self.pace = pace
        #: One registry for every environment of the run, so a repetition's
        #: counts are one ``metrics_delta`` whichever table did the work.
        self.registry = MetricsRegistry()
        self.sensors = new_dataset("se_inf", StorageFormat.INFERRED, self.workload,
                                   new_environment(self.workload, self.registry))
        self.sensors.insert_all(plan.sensor_records)
        self.sensors.flush_all()

    # ------------------------------------------------------------------ one repetition

    def run(self, per_op: bool = False) -> Repetition:
        plan, workload = self.plan, self.workload
        rep = Repetition()
        gc.collect()
        before = self.registry.snapshot()
        environment = new_environment(workload, self.registry)
        inferred = new_dataset("tw_inf", StorageFormat.INFERRED, workload, environment)
        open_environment = new_environment(workload, self.registry)
        opened = new_dataset("tw_open", StorageFormat.OPEN, workload, open_environment)
        for dataset in (inferred, opened):
            dataset.create_index(INDEX_NAME, INDEX_FIELD)

        for region, dataset in (("ingest", inferred), ("ingest_open", opened)):
            # The feed arrives in batches: one insert_all and one lap per batch.
            size = BLOCK_OPERATIONS[region]
            ingested = 0
            for start in range(0, len(plan.records), size):
                with self._lap(rep, region):
                    ingested += dataset.insert_all(plan.records[start:start + size])
            with self._lap(rep, region):
                dataset.flush_all()
            rep.check(ingested == len(plan.records), f"{region}: {ingested} records")
        rep.ingest_shape = [(partition.index.stats.flushes, partition.index.stats.merges)
                            for partition in inferred.partitions]
        open_storage_bytes = opened.storage_size()

        tables = {"tw_inf": inferred, "tw_open": opened, "se_inf": self.sensors}
        scan_column_hits = self._scan_pass(rep, tables)

        cache_before = environment.buffer_cache.stats_snapshot()
        for step in plan.rounds:
            self._write_block(rep, inferred, step.writes, per_op)
            self._statement(rep, "after_write", inferred,
                            twitter.SQLPP[AFTER_WRITE_STATEMENT], step.after_write, cold=False)
            self._get_block(rep, inferred, step.get_keys, step.get_expected, per_op)
            self._probe_block(rep, inferred, step.probes, step.probe_expected, per_op)
        # The last memtable's flush is write work: leaving it out would let a
        # change defer cost past the end of the measured region.
        with self._lap(rep, "write"):
            inferred.flush_all()
        round_cache = environment.buffer_cache.stats_snapshot().diff(cache_before)
        count = inferred.count()
        rep.check(count == plan.live_count, f"{count} records after the rounds")

        self._collect_counts(rep, inferred, (environment, open_environment), before)
        rep.counts.update({
            "storage_bytes": inferred.storage_size(),
            "storage_open_bytes": open_storage_bytes,
            "inferred_device_bytes_written": environment.device.stats.bytes_written,
            "scan.column_cache_hits": scan_column_hits,
            "rounds.buffer_cache_hits": round_cache.hits,
            "rounds.buffer_cache_misses": round_cache.misses,
        })
        self.pace.sample()  # closes the window of the last lap
        self._latest = (inferred, environment)
        return rep

    # ------------------------------------------------------------------ timed regions

    def _lap(self, rep: Repetition, region: str) -> Lap:
        lap = Lap(self.pace)
        rep.laps[region].append(lap)
        return lap

    def _each(self, rep: Repetition, region: str, calls: Sequence[Tuple[Callable, Any]],
              per_op: bool) -> List[Any]:
        """Run ``function(argument)`` for every call, one lap per block of them.

        An exception is that operation's outcome (checked later as a failure),
        not the end of the block.
        """
        outcomes: List[Any] = []
        seconds = rep.op_seconds[region] if per_op else None
        clock = time.process_time
        size = BLOCK_OPERATIONS[region]
        for start in range(0, len(calls), size):
            with self._lap(rep, region):
                for function, argument in calls[start:start + size]:
                    started = clock() if per_op else 0.0
                    try:
                        outcomes.append(function(argument))
                    except Exception as exc:  # boundary: counted, reported, run goes on
                        outcomes.append(exc)
                    if per_op:
                        seconds.append(clock() - started)
        return outcomes

    def _scan_pass(self, rep: Repetition, tables: Dict[str, Dataset]) -> float:
        """One timed execution of each of the twelve statements; returns the
        column-slice-cache hits the pass made."""
        cold = self.workload.cold_scans
        if not cold:
            # Warm means warm: one untimed pass over the freshly built tables
            # fills their plan and column-slice caches.  The side table keeps
            # its caches from the repetition before (the warm-up's, at least).
            for table in ("tw_inf", "tw_open"):
                for text in _STATEMENTS[table].values():
                    tables[table].query(text, parallelism=1)
        hits_before = _counter(self.registry.snapshot()["counters"], "column_cache_hits")
        # Round-robin over tables within a statement, so an interference burst
        # hits one execution of several statements, not every one of one.
        for statement in SCAN_STATEMENTS:
            rows: Dict[str, Any] = {}
            for table, _ in SCAN_TABLES:
                answer = self.plan.answers[_ANSWERS[table]][statement]
                result = self._statement(rep, f"{table}.{statement}", tables[table],
                                         _STATEMENTS[table][statement], answer, cold)
                if result is not None:
                    rows[table] = result.rows
                    rep.scan_plan_sources.append(result.stats.plan_source)
            rep.check(rows.get("tw_inf") == rows.get("tw_open"),
                      f"{statement}: tw_inf and tw_open rows differ")
        return _counter(self.registry.snapshot()["counters"], "column_cache_hits") - hits_before

    def _statement(self, rep: Repetition, region: str, dataset: Dataset, text: str,
                   answer: Any, cold: bool) -> Any:
        try:
            with self._lap(rep, region):
                result = dataset.query(text, cold_cache=cold, parallelism=1)
        except Exception as exc:  # boundary: counted, reported, run goes on
            rep.check(False, f"{region} raised {exc!r}")
            return None
        rep.check(answer.matches(result.rows), f"{region} returned {_brief(result.rows)}")
        return result

    def _write_block(self, rep: Repetition, dataset: Dataset,
                     writes: Sequence[Tuple[str, Any]], per_op: bool) -> None:
        methods = {"upsert": dataset.upsert, "insert": dataset.insert, "delete": dataset.delete}
        outcomes = self._each(rep, "write", [(methods[kind], argument)
                                             for kind, argument in writes], per_op)
        for (kind, _), outcome in zip(writes, outcomes):
            rep.check(outcome is None, f"{kind} raised {outcome!r}")

    def _get_block(self, rep: Repetition, dataset: Dataset, keys: Sequence[int],
                   expected: Sequence[Any], per_op: bool) -> None:
        outcomes = self._each(rep, "get", [(dataset.get, key) for key in keys], per_op)
        for key, outcome, wanted in zip(keys, outcomes, expected):
            rep.check(not isinstance(outcome, Exception) and outcome == wanted,
                      f"get({key}) returned {_brief(outcome)}")

    def _probe_block(self, rep: Repetition, dataset: Dataset,
                     probes: Sequence[Tuple[int, int]], expected: Sequence[Any],
                     per_op: bool) -> None:
        def probe(bounds: Tuple[int, int]) -> Any:
            return dataset.query(probe_text(*bounds), parallelism=1)

        outcomes = self._each(rep, "probe", [(probe, bounds) for bounds in probes], per_op)
        for bounds, outcome, wanted in zip(probes, outcomes, expected):
            if isinstance(outcome, Exception):
                rep.check(False, f"probe{bounds} raised {outcome!r}")
                continue
            rep.probe_access_paths.append(outcome.stats.access_path)
            rows = outcome.rows
            got = {row["value"] for row in rows}
            rep.check(len(got) == len(rows) and got == wanted,
                      f"probe{bounds} returned ids {sorted(got)[:8]}")

    # ------------------------------------------------------------------ counts

    def _collect_counts(self, rep: Repetition, dataset: Dataset,
                        environments: Sequence[StorageEnvironment],
                        before: Dict[str, Any]) -> None:
        """Counts of the whole repetition, read off the engine's public stats.

        Registry counters cover all three tables; the ``lsm.*``, ``schema.*``,
        ``compactor.*`` and ``compression.*`` rows describe the INFERRED tweet
        table, the one that is written to after its ingest.
        """
        counters = metrics_delta(self.registry.snapshot(), before)["counters"]
        ingest = dataset.ingest_stats()
        environment = environments[0]
        manager = environment.file_manager
        schemas = [schema for schema in dataset.schemas().values() if schema is not None]
        compactors = [partition.compactor for partition in dataset.partitions
                      if partition.compactor is not None]
        rep.counts = {
            "plan_cache.hits": _counter(counters, "plan_cache_hits"),
            "plan_cache.misses": _counter(counters, "plan_cache_misses"),
            "column_cache.hits": _counter(counters, "column_cache_hits"),
            "column_cache.misses": _counter(counters, "column_cache_misses"),
            "column_cache.evictions": _counter(counters, "column_cache_evictions"),
            "column_cache.bytes_used": environment.column_cache.bytes_used,
            "executor.records_scanned": _counter(counters, "query_records_scanned"),
            "executor.rows_returned": _counter(counters, "query_rows_returned"),
            "executor.batches": _counter(counters, "query_batches_processed"),
            "executor.fallback_queries": _counter(counters, "query_batch_fallbacks"),
            "optimizer.index_probe_plans": rep.probe_access_paths.count("IndexProbe"),
            "schema.field_count": sum(schema.field_count for schema in schemas),
            "schema.snapshot_bytes": sum(len(schema.to_bytes()) for schema in schemas),
            "compactor.bytes_saved": sum(compactor.bytes_saved for compactor in compactors),
            "lsm.flushes": ingest["flushes"],
            "lsm.merges": ingest["merges"],
            "lsm.bytes_flushed": ingest["bytes_flushed"],
            "lsm.bytes_merged": ingest["bytes_merged"],
            "lsm.components_final": sum(partition.index.component_count()
                                        for partition in dataset.partitions),
            "lsm.maintenance_point_lookups": ingest["maintenance_point_lookups"],
            "lsm.stall_s": ingest["ingest_stall_seconds"],
            "buffer_cache.hits": _counter(counters, "cache_hits"),
            "buffer_cache.misses": _counter(counters, "cache_misses"),
            "buffer_cache.evictions": _counter(counters, "cache_evictions"),
            "compression.logical_bytes": PAGE_SIZE * sum(
                manager.num_pages(name) for name in manager.list_files()),
            "compression.stored_bytes": manager.total_size(),
            "wal.records": _counter(counters, "wal_records_appended"),
            "wal.bytes": _counter(counters, "wal_bytes_written"),
            "device.bytes_read": _counter(counters, "device_bytes_read"),
            "device.bytes_written": _counter(counters, "device_bytes_written"),
            "device.read_ops": _counter(counters, "device_read_ops"),
            "device.write_ops": _counter(counters, "device_write_ops"),
            "device.simulated_s": sum(each.simulated_io_seconds() for each in environments),
        }

    # ------------------------------------------------------------------ durability

    def crash_and_recover(self, rep: Repetition) -> None:
        """After the latest repetition ``rep``: make unflushed writes, lose the
        process state, recover, re-check.

        The crash keeps the environment (page files + WAL) and drops the
        ``Dataset`` with its memtables and component lists — all a restart
        would have.  Every acknowledged write must read back afterwards.
        """
        plan = self.plan
        dataset, environment = self._latest
        del self._latest
        methods = {"upsert": dataset.upsert, "insert": dataset.insert, "delete": dataset.delete}
        for kind, argument in plan.recovery_writes:
            methods[kind](argument)
        del dataset, methods
        revived = new_dataset("tw_inf", StorageFormat.INFERRED, self.workload, environment)
        revived.create_index(INDEX_NAME, INDEX_FIELD)
        try:
            for partition in revived.partitions:
                partition.recover()
        except Exception as exc:  # boundary: counted, reported, run goes on
            rep.check(False, f"recovery raised {exc!r}")
            return
        count = revived.count()
        rep.check(count == plan.recovery_count,
                  f"{count} records after recovery, expected {plan.recovery_count}")
        for key, wanted in zip(plan.recovery_keys, plan.recovery_expected):
            got = revived.get(key)
            rep.check(got == wanted, f"get({key}) after recovery returned {_brief(got)}")


def _brief(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 160 else text[:157] + "..."
