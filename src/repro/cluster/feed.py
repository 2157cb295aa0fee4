"""Data feeds: continuous ingestion into a dataset (paper §4.3).

The paper ingests the Twitter dataset through an AsterixDB *data feed* that
emulates the Twitter firehose, both insert-only and with 50 % updates of
previously ingested records.  :class:`DataFeed` reproduces that driver: it
streams records from a generator into a dataset, optionally replacing a
fraction of operations with upserts of already-ingested keys (updates that
add fields, remove fields, or change value types), and reports wall-clock
time alongside the simulated device time of the write path (data pages,
transaction log, look-aside files).
"""

from __future__ import annotations

import queue
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.dataset import Dataset, hash_partition
from ..errors import FeedError
from ..obs import StatsDictMixin, metrics_delta
from ..obs import tracer as _tracer


@dataclass
class FeedReport(StatsDictMixin):
    """Outcome of one feed run."""

    _DERIVED = ("total_seconds", "records_per_second", "write_amplification")

    records_ingested: int = 0
    inserts: int = 0
    updates: int = 0
    wall_seconds: float = 0.0
    simulated_io_seconds: float = 0.0
    log_bytes_written: int = 0
    data_bytes_written: int = 0
    flushes: int = 0
    merges: int = 0
    #: Device bytes written by flushes / merges during the run.
    bytes_flushed: int = 0
    bytes_merged: int = 0
    #: Wall seconds ingest writers spent blocked in backpressure waits
    #: (background maintenance only; 0.0 under synchronous maintenance).
    ingest_stall_seconds: float = 0.0
    #: Ingest worker threads used (1 = the sequential driver).
    ingest_threads: int = 1
    #: Metrics-registry activity during the run (snapshot delta over the
    #: dataset's registry — the same counters every other layer reports).
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Wall time plus simulated device time — the headline ingest metric."""
        return self.wall_seconds + self.simulated_io_seconds

    @property
    def records_per_second(self) -> float:
        if self.total_seconds == 0:
            return 0.0
        return self.records_ingested / self.total_seconds

    @property
    def write_amplification(self) -> float:
        """Maintenance bytes written per flushed byte (merges re-write data,
        so 1.0 means no merges ran; 2.0 means every byte was written twice)."""
        if self.bytes_flushed == 0:
            return 0.0
        return (self.bytes_flushed + self.bytes_merged) / self.bytes_flushed


class DataFeed:
    """Streams generated records into a dataset, optionally with updates.

    ``per_partition_ingest=True`` runs one ingest worker thread per dataset
    partition (the record stream is hash-routed to bounded per-partition
    queues in arrival order), so ingestion genuinely overlaps across
    partitions — and, when the dataset runs background maintenance, with its
    own flushes and merges.  The one-writer-per-partition rule is preserved:
    each partition's operations are applied by exactly one thread, in the
    same relative order the sequential driver would apply them, so the final
    dataset state is identical across both drivers.
    """

    #: Bound of each per-partition operation queue (driver backpressure).
    _QUEUE_DEPTH = 256

    def __init__(self, dataset: Dataset, update_ratio: float = 0.0,
                 update_generator: Optional[Callable[[Dict[str, Any], random.Random], Dict[str, Any]]] = None,
                 seed: int = 17, per_partition_ingest: bool = False) -> None:
        if not 0.0 <= update_ratio <= 1.0:
            raise FeedError(f"update_ratio must lie in [0, 1], got {update_ratio}")
        if update_ratio > 0 and update_generator is None:
            raise FeedError("an update_ratio > 0 requires an update_generator")
        self.dataset = dataset
        self.update_ratio = update_ratio
        self.update_generator = update_generator
        self.per_partition_ingest = per_partition_ingest
        self._rng = random.Random(seed)
        self._ingested_sample: List[Dict[str, Any]] = []
        self._closed = False

    def run(self, records: Iterable[Dict[str, Any]]) -> FeedReport:
        """Ingest all records from the source; returns the feed report.

        When ``update_ratio`` is set, each incoming record triggers, with
        that probability, an additional upsert of a previously ingested
        record whose structure has been modified — the paper's 50 %-update
        workload issues one update per insert on average at ratio 0.5.
        """
        if self._closed:
            raise FeedError("this feed has already been closed")
        report = FeedReport()
        environments = self.dataset.environments
        io_before = [environment.device.stats for environment in environments]
        # Lifecycle counters are reported as per-run deltas, so back-to-back
        # feeds on one dataset do not re-bill earlier runs' maintenance.
        lifecycle_before = self.dataset.ingest_stats()
        metrics_before = self.dataset.metrics.snapshot()
        started = time.perf_counter()

        # The ingest span stays open until maintenance quiesces, so background
        # flush/merge spans (submitted from inside this context) attach under
        # it in the trace.
        with _tracer.span("feed.run", dataset=self.dataset.config.name) as span:
            if self.per_partition_ingest and self.dataset.partition_count > 1:
                self._run_partitioned(records, report)
            else:
                for record in records:
                    self.dataset.insert(record)
                    report.inserts += 1
                    report.records_ingested += 1
                    self._remember(record)
                    update = self._maybe_update(record)
                    if update is not None:
                        self.dataset.upsert(update)
                        report.updates += 1

            report.wall_seconds = time.perf_counter() - started
            # Quiesce background maintenance before the closing snapshots: the
            # wall clock above measures the ingest path (feeds complete while
            # the LSM keeps flushing, as in AsterixDB), but the I/O and
            # lifecycle counters below must be deterministic, not a race
            # against in-flight flushes/merges.  No-op under synchronous
            # maintenance.
            self.dataset.drain()
            span.set_attribute("records", report.records_ingested)
        report.metrics = metrics_delta(self.dataset.metrics.snapshot(), metrics_before)
        for environment, before in zip(environments, io_before):
            delta = environment.device.stats.diff(before)
            report.simulated_io_seconds += environment.device.simulated_seconds(delta)
            report.data_bytes_written += delta.bytes_written
            report.log_bytes_written += environment.device.per_class.get(
                "log", type(delta)()).bytes_written
        stats = self.dataset.ingest_stats()
        report.flushes = stats["flushes"] - lifecycle_before["flushes"]
        report.merges = stats["merges"] - lifecycle_before["merges"]
        report.bytes_flushed = stats["bytes_flushed"] - lifecycle_before["bytes_flushed"]
        report.bytes_merged = stats["bytes_merged"] - lifecycle_before["bytes_merged"]
        report.ingest_stall_seconds = max(
            0.0, stats["ingest_stall_seconds"] - lifecycle_before["ingest_stall_seconds"])
        return report

    def _maybe_update(self, record: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Draw the update op that follows ``record``, if the dice say so.

        All randomness is consumed here, on the driver thread, in arrival
        order — the partitioned driver produces the exact same operation
        sequence as the sequential one.
        """
        if (self.update_ratio > 0 and self._ingested_sample
                and self._rng.random() < self.update_ratio):
            victim = self._rng.choice(self._ingested_sample)
            return self.update_generator(victim, self._rng)
        return None

    def _run_partitioned(self, records: Iterable[Dict[str, Any]], report: FeedReport) -> None:
        """Hash-route the operation stream to one ingest thread per partition."""
        partitions = self.dataset.partitions
        count = len(partitions)
        report.ingest_threads = count
        queues: List["queue.Queue[Optional[Tuple[str, Dict[str, Any]]]]"] = [
            queue.Queue(maxsize=self._QUEUE_DEPTH) for _ in range(count)]
        failures: List[BaseException] = []
        failed = threading.Event()

        def worker(partition, ops: "queue.Queue") -> None:
            broken = False
            while True:
                op = ops.get()
                if op is None:
                    return
                if broken or failed.is_set():
                    continue  # drain without applying: keep the driver unblocked
                kind, record = op
                try:
                    if kind == "insert":
                        partition.insert(record)
                    else:
                        partition.upsert(record)
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    failures.append(exc)
                    failed.set()
                    broken = True

        # Worker threads start with an empty contextvars context; binding the
        # driver's context keeps maintenance submitted by these writers (and
        # hence their flush/merge spans) under the open ingest span.
        threads = [threading.Thread(target=_tracer.wrap_context(worker),
                                    args=(partition, queues[index]),
                                    name=f"repro-ingest-p{partition.partition_id}", daemon=True)
                   for index, partition in enumerate(partitions)]
        for thread in threads:
            thread.start()
        try:
            for record in records:
                if failed.is_set():
                    break
                key = self.dataset._key_of(record)
                queues[hash_partition(key, count)].put(("insert", record))
                report.inserts += 1
                report.records_ingested += 1
                self._remember(record)
                update = self._maybe_update(record)
                if update is not None:
                    update_key = self.dataset._key_of(update)
                    queues[hash_partition(update_key, count)].put(("upsert", update))
                    report.updates += 1
        finally:
            for ops in queues:
                ops.put(None)
            for thread in threads:
                thread.join()
        if failures:
            raise FeedError(f"partitioned ingest failed: {failures[0]!r}") from failures[0]

    def maintenance_bytes_written(self) -> int:
        """Device bytes written under the "maintenance" I/O class — flush and
        merge traffic executed by background workers (0 in synchronous mode,
        where maintenance runs on the writer's thread untagged)."""
        total = 0
        for environment in self.dataset.environments:
            stats = environment.device.per_class.get("maintenance")
            if stats is not None:
                total += stats.bytes_written
        return total

    def close(self) -> None:
        """Flush whatever is still in the in-memory components and close.

        Under background maintenance ``flush_all()`` doubles as the drain
        barrier: every sealed memtable and scheduled merge settles before
        this returns, so post-close statistics are deterministic.
        """
        self.dataset.flush_all()
        self._closed = True

    # -- internals --------------------------------------------------------------------

    _SAMPLE_LIMIT = 2048

    def _remember(self, record: Dict[str, Any]) -> None:
        """Keep a bounded reservoir of ingested records to draw updates from."""
        if len(self._ingested_sample) < self._SAMPLE_LIMIT:
            self._ingested_sample.append(record)
        else:
            index = self._rng.randrange(0, self._SAMPLE_LIMIT)
            self._ingested_sample[index] = record
