"""Background LSM lifecycle: async flush/merge, rotation, backpressure, drain.

The contract pinned down here:

* **Row-level parity by construction** — ``tests/test_model.py`` holds
  both lifecycles, across ``max_sealed_memtables`` settings, to one
  reference model; here a concurrent query thread must never see torn
  state while backgrounded ingest runs;
* **Measured overlap** — with the device's latency-realism throttle on, a
  multi-partition ``DataFeed`` with per-partition ingest threads and
  background flush/merge finishes in measurably less wall time than the
  synchronous sequential pipeline;
* **Deterministic quiescence** — ``Dataset.close()`` (and the context
  manager) drains in-flight maintenance, is idempotent, and surfaces
  background failures instead of hanging;
* **Durability** — a crash in the middle of a background flush leaves an
  INVALID component that recovery removes, and the WAL (truncated only up
  to each sealed memtable's covered LSN, per partition) replays to the
  same row set.
"""

import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Dataset, DeviceKind, LSMConfig, StorageEnvironment, StorageFormat
from repro.cluster import DataFeed
from repro.config import StorageConfig
from repro.datasets import twitter
from repro.errors import KeyNotFoundError, SchedulerError
from repro.lsm import LSMBTree, LSMIOScheduler, NoMergePolicy, PrefixMergePolicy
from repro.obs import MetricsRegistry
from repro.query import QueryExecutor
from repro.storage import BufferCache, FileManager, SimulatedStorageDevice
from repro.storage.wal import LogRecordType, WriteAheadLog

PARTITIONS = 4

#: Small memory budget so modest record counts produce many rotations.
SMALL_BUDGET = 16 * 1024


def _lsm(background=False, **overrides):
    defaults = dict(memory_component_budget=SMALL_BUDGET,
                    max_tolerable_component_count=3,
                    background_maintenance=background)
    defaults.update(overrides)
    return LSMConfig(**defaults)


def _rows(dataset):
    return sorted((row["id"], row.get("lang"), row.get("retweet_count"))
                  for row in dataset.scan())


# ---------------------------------------------------------------------------
# scheduler unit behaviour
# ---------------------------------------------------------------------------

class TestScheduler:
    def test_drain_waits_for_submitted_work(self):
        scheduler = LSMIOScheduler()
        done = []
        gate = threading.Event()

        def task():
            gate.wait(timeout=5)
            done.append(1)

        for _ in range(4):
            scheduler.submit_flush(None, task)
        assert scheduler.pending() == 4
        gate.set()
        scheduler.drain()
        assert done == [1, 1, 1, 1]
        assert scheduler.pending() == 0
        scheduler.close()

    def test_drain_waits_only_for_its_own_index(self):
        """Two indexes share one scheduler: A's drain returns while B's merge
        is still held, and B's drain then waits for that merge."""
        cache = BufferCache(FileManager(SimulatedStorageDevice(), 4096), 256)
        scheduler = LSMIOScheduler()

        def index(name, merge_policy):
            return LSMBTree(name=name, partition=0, buffer_cache=cache, memory_budget=2048,
                            merge_policy=merge_policy, scheduler=scheduler,
                            max_sealed_memtables=4)

        a = index("a", NoMergePolicy())
        b = index("b", PrefixMergePolicy(max_tolerable_component_count=2))
        started, release = threading.Event(), threading.Event()
        original = b.maybe_merge

        def held_merge():
            started.set()
            release.wait(timeout=30)
            return original()

        b.maybe_merge = held_merge
        key = rotations = 0
        while rotations < 2:  # two sealed memtables: two flushes, then a merge
            b.insert(key, b"%06d" % key * 20)
            key += 1
            rotations += b.memory_component.is_empty
        assert started.wait(timeout=10)

        for a_key in range(200):  # background flushes of A beside B's merge
            a.insert(a_key, b"%06d" % a_key * 20)
        drained = threading.Thread(target=a.drain_maintenance, daemon=True)
        drained.start()
        drained.join(timeout=10)
        assert not drained.is_alive()
        assert a.stats.flushes >= 2 and b.stats.merges == 0

        release.set()
        b.drain_maintenance()
        assert b.stats.merges == 1 and b.component_count() == 1
        scheduler.close()
        assert a.exact_count() == 200 and b.exact_count() == key

    def test_counts_hold_under_concurrent_submitters(self):
        """The counts are read-modify-writes under the scheduler's lock: six
        threads submit for one owner, beside the workers finishing its
        tasks, with a tiny switch interval, then each drains it.  Every
        drain returns and nothing is left pending; a lost update would
        leave the drains waiting."""
        metrics = MetricsRegistry()
        scheduler = LSMIOScheduler(metrics=metrics)
        owner, accepted = object(), []

        def submit_and_drain():
            futures = []
            for _ in range(600):
                futures.append(scheduler.submit_flush(owner, lambda: None))
                futures.append(scheduler.submit_merge(owner, lambda: None))
            scheduler.drain(owner)
            accepted.append(sum(future is not None for future in futures))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submit_and_drain, daemon=True) for _ in range(6)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(accepted) == 6 and scheduler.pending() == 0
        completed = sum(metrics.counter("scheduler_tasks_completed", kind=kind).value
                        for kind in ("flush", "merge"))
        assert completed == sum(accepted) >= 6 * 600
        scheduler.close()

    def test_close_is_idempotent_and_rejects_new_work(self):
        scheduler = LSMIOScheduler()
        scheduler.close()
        scheduler.close()
        with pytest.raises(SchedulerError):
            scheduler.submit_flush(None, lambda: None)

    def test_background_failure_surfaces_on_drain(self):
        scheduler = LSMIOScheduler()

        def boom():
            raise ValueError("flush exploded")

        scheduler.submit_flush(None, boom)
        with pytest.raises(SchedulerError, match="flush exploded"):
            scheduler.drain()
        with pytest.raises(SchedulerError):
            scheduler.close()


# ---------------------------------------------------------------------------
# WAL handoff
# ---------------------------------------------------------------------------

class TestWalPartitionTruncation:
    def test_truncate_partition_spares_other_partitions(self):
        wal = WriteAheadLog()
        a1 = wal.append(LogRecordType.INSERT, "ds", 0, key=1, payload=b"a")
        b1 = wal.append(LogRecordType.INSERT, "ds", 1, key=2, payload=b"b")
        a2 = wal.append(LogRecordType.INSERT, "ds", 0, key=3, payload=b"c")
        wal.truncate_partition("ds", 0, up_to_lsn=a2.lsn)
        surviving = list(wal.replay())
        assert [record.lsn for record in surviving] == [b1.lsn]
        del a1

    def test_truncate_partition_keeps_newer_records_of_same_partition(self):
        wal = WriteAheadLog()
        old = wal.append(LogRecordType.INSERT, "ds", 0, key=1, payload=b"a")
        new = wal.append(LogRecordType.INSERT, "ds", 0, key=2, payload=b"b")
        wal.truncate_partition("ds", 0, up_to_lsn=old.lsn)
        assert [record.key for record in wal.replay()] == [new.key]


# ---------------------------------------------------------------------------
# parity with the synchronous oracle
# ---------------------------------------------------------------------------

class TestBackgroundParity:
    def test_queries_see_sealed_memtables_before_flush_completes(self):
        """Reads reconcile mutable + sealed + disk: nothing ingested may go
        missing while its sealed memtable still waits for a flush worker."""
        dataset = Dataset.create("bg_sealed_reads", StorageFormat.OPEN,
                                 partitions=1, lsm=_lsm(background=True))
        index = dataset.partitions[0].index
        for i in range(400):
            dataset.insert({"id": i, "pad": "x" * 120})
            assert dataset.get(i) is not None
        # Whether or not flushes have completed yet, every row is visible.
        assert dataset.count() == 400
        dataset.close()
        assert index.sealed_memtables == []
        assert dataset.count() == 400

    def test_close_is_idempotent_and_context_manager_closes(self):
        with Dataset.create("bg_ctx", StorageFormat.OPEN, partitions=2,
                            lsm=_lsm(background=True)) as dataset:
            dataset.insert_all({"id": i, "pad": "y" * 100} for i in range(300))
        assert dataset.scheduler.closed
        dataset.close()  # second close is a no-op
        # Post-close writes fall back to synchronous maintenance.
        dataset.insert({"id": 10_000, "pad": "z"})
        dataset.flush_all()
        assert dataset.get(10_000) is not None

    def test_upsert_antischema_lookups_survive_concurrent_merges(self):
        """Regression: the writer's maintenance lookups (the anti-schema
        fetch) take the read guard, so a background
        merge retiring components mid-lookup defers its file deletions
        instead of yanking pages out from under the writer."""
        environment = StorageEnvironment(StorageConfig(
            page_size=1024, buffer_cache_pages=64))
        dataset = Dataset.create(
            "bg_upsert_merge", StorageFormat.INFERRED, environment=environment,
            partitions=1,
            lsm=_lsm(background=True, memory_component_budget=2048,
                     max_tolerable_component_count=2, max_sealed_memtables=2))
        for i in range(900):
            dataset.upsert({"id": i % 40, "v": i, "pad": "x" * 60})
        dataset.flush_all()
        assert dataset.count() == 40
        stats = dataset.ingest_stats()
        assert stats["merges"] > 0, "the scenario must actually exercise merges"
        assert stats["maintenance_point_lookups"] > 0
        dataset.close()

    def test_create_index_waits_out_an_in_flight_flush(self):
        """Regression: CREATE INDEX racing one background flush.  The flush
        is held at its commit step — component and auxiliary trees written
        against the old definition list, not yet installed — while CREATE
        INDEX is issued.  Backfill and registration take the maintenance
        lock, so the new component cannot go live without a tree for the
        index (at the parent the probe then skipped it: 0 rows for 10)."""
        dataset = Dataset.create("bg_create_index", StorageFormat.INFERRED, partitions=1,
                                 lsm=_lsm(background=True, memory_component_budget=1 << 20))
        index = dataset.partitions[0].index
        held, release = threading.Event(), threading.Event()
        truncate = index.wal.truncate_partition

        def held_truncate(*args):
            held.set()
            assert release.wait(timeout=10)
            return truncate(*args)

        index.wal.truncate_partition = held_truncate
        dataset.insert_all({"id": i, "v": i} for i in range(50))
        index._submit_or_run(index._rotate)  # one background flush
        assert held.wait(timeout=10)
        failures = []

        def create_index():
            try:
                dataset.create_index("by_v", "v")
            except BaseException as exc:  # surfaced on the test thread below
                failures.append(exc)

        creator = threading.Thread(target=create_index)
        creator.start()
        creator.join(timeout=0.3)  # an unlocked CREATE INDEX has finished by now
        release.set()
        creator.join(timeout=10)
        assert not creator.is_alive() and not failures
        dataset.drain()
        assert index.component_count() == 1
        text = "SELECT VALUE t.id FROM bg_create_index AS t WHERE t.v >= 10 AND t.v < 20"
        via_index = dataset.query(text, access_path="index")
        assert via_index.stats.access_path == "IndexProbe"
        assert (sorted(row["value"] for row in via_index.rows)
                == sorted(row["value"] for row in dataset.query(text, access_path="scan").rows)
                == list(range(10, 20)))
        dataset.close()

    def test_backpressure_stalls_writer_and_is_reported(self):
        """With one sealed memtable allowed and a throttled device, the
        writer must block on rotation and the stall time must be recorded.
        The 4 KiB budget seals a memtable every 14 records, so the writer
        fills the next one before the throttled flush of the last ends (at
        8 KiB the flush keeps up with the writer)."""
        environment = StorageEnvironment(StorageConfig(
            page_size=1024, device_kind=DeviceKind.SATA_SSD, io_throttle=40.0))
        dataset = Dataset.create(
            "bg_stall", StorageFormat.OPEN, environment=environment,
            partitions=1,
            lsm=_lsm(background=True, max_sealed_memtables=1,
                     memory_component_budget=4 * 1024))
        dataset.insert_all({"id": i, "pad": "s" * 200} for i in range(160))
        dataset.close()
        assert dataset.ingest_stats()["ingest_stall_seconds"] > 0.0


# ---------------------------------------------------------------------------
# measured overlap (the acceptance criterion)
# ---------------------------------------------------------------------------

class TestBackgroundOverlap:
    THROTTLE = 40.0
    RECORDS = 240

    def _environment(self):
        return StorageEnvironment(StorageConfig(
            page_size=1024, buffer_cache_pages=4096,
            device_kind=DeviceKind.SATA_SSD, io_throttle=self.THROTTLE))

    def _records(self):
        return [{"id": i, "lang": f"l{i % 5}", "pad": "x" * 180}
                for i in range(self.RECORDS)]

    def _feed(self, name, background, per_partition):
        # Budget small enough that every partition rotates/flushes several
        # times mid-run — the overlap being measured is ingest vs flush, not
        # just ingest vs ingest.
        dataset = Dataset.create(
            name, StorageFormat.OPEN, environment=self._environment(),
            partitions=PARTITIONS,
            lsm=_lsm(background=background, max_sealed_memtables=3,
                     memory_component_budget=6 * 1024))
        feed = DataFeed(dataset, per_partition_ingest=per_partition)
        report = feed.run(self._records())
        feed.close()
        return dataset, report, feed

    def test_background_feed_beats_synchronous_wall_time_with_parity(self):
        """Acceptance: with ``io_throttle`` on, the multi-partition feed with
        background flush/merge and per-partition ingest threads finishes
        measurably faster than the synchronous sequential pipeline, with
        identical post-ingest state.  The 0.8 factor is generous slack — the
        expected ratio with 4 ingest threads plus flush workers is ~0.3.
        """
        sync_dataset, sync_report, sync_feed = self._feed(
            "ov_sync", background=False, per_partition=False)
        bg_dataset, bg_report, bg_feed = self._feed(
            "ov_bg", background=True, per_partition=True)

        assert bg_report.wall_seconds < sync_report.wall_seconds * 0.8
        assert bg_report.ingest_threads == PARTITIONS
        assert sync_report.ingest_threads == 1

        # Row-level parity and identical ingest accounting.
        assert _rows(bg_dataset) == _rows(sync_dataset)
        assert bg_dataset.count() == sync_dataset.count() == self.RECORDS
        assert bg_report.records_ingested == sync_report.records_ingested
        assert (bg_dataset.ingest_stats()["inserts"]
                == sync_dataset.ingest_stats()["inserts"])
        # Background maintenance traffic was tagged by the worker threads.
        assert bg_feed.maintenance_bytes_written() > 0
        assert sync_feed.maintenance_bytes_written() == 0
        bg_dataset.close()


# ---------------------------------------------------------------------------
# crash mid-background-flush + recovery
# ---------------------------------------------------------------------------

class TestCrashRecovery:
    def test_wal_replays_unflushed_sealed_memtables(self):
        """A background flush that dies before the footer leaves an INVALID
        component and an untruncated WAL; recovery removes the former and
        replays the latter to the exact pre-crash row set."""
        environment = StorageEnvironment()
        dataset = Dataset.create(
            "crash_bg", StorageFormat.INFERRED, environment=environment,
            partitions=1, lsm=_lsm(background=True, max_sealed_memtables=4))
        partition = dataset.partitions[0]
        index = partition.index

        # Arm the crash: every background flush dies just before the footer
        # page (the component's validity bit) is written.
        original = index._flush_memtable

        def crashing_flush(memtable, up_to_lsn, fail_before_footer=False):
            return original(memtable, up_to_lsn, fail_before_footer=True)

        index._flush_memtable = crashing_flush

        # Few enough rotations that the writer never trips backpressure
        # (which would — correctly — surface the armed failure mid-insert).
        records = list(twitter.generate(50))
        for record in records:
            dataset.insert(record)

        # The failure is surfaced deterministically, not swallowed.
        with pytest.raises(SchedulerError):
            dataset.drain()
        with pytest.raises(SchedulerError):
            dataset.close()

        # "Crash": abandon the dataset object; files + WAL survive in the
        # environment.  A footer-less (INVALID) component file was left
        # behind by the dying flush; recovery must remove it.
        invalid_files = [name for name in environment.file_manager.list_files()
                         if name.startswith("crash_bg_p0_c")]
        assert invalid_files, "the dying flush should have left a partial component"

        revived = Dataset.create("crash_bg", StorageFormat.INFERRED,
                                 environment=environment, partitions=1,
                                 lsm=_lsm(background=False))
        revived.partitions[0].recover()

        assert sorted(row["id"] for row in revived.scan()) == sorted(
            record["id"] for record in records)
        assert revived.count() == len(records)

    def test_clean_background_ingest_recovers_after_losing_memtables(self):
        """Without any crash trickery: drop the in-memory state mid-ingest
        (some components flushed in the background, some operations only in
        the WAL) and recover to the full row set."""
        environment = StorageEnvironment()
        dataset = Dataset.create(
            "crash_clean", StorageFormat.INFERRED, environment=environment,
            partitions=1, lsm=_lsm(background=True))
        records = list(twitter.generate(150))
        for record in records:
            dataset.insert(record)
        dataset.drain()   # quiesce maintenance; mutable memtable NOT flushed
        dataset.scheduler.close()

        revived = Dataset.create("crash_clean", StorageFormat.INFERRED,
                                 environment=environment, partitions=1,
                                 lsm=_lsm(background=False))
        report = revived.partitions[0].recover()
        assert sorted(row["id"] for row in revived.scan()) == sorted(
            record["id"] for record in records)
        del report


# ---------------------------------------------------------------------------
# hypothesis stress: concurrent ingest + queries vs the synchronous oracle
# ---------------------------------------------------------------------------

class TestConcurrentIngestStress:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(ops=st.lists(
        st.tuples(st.sampled_from(["insert", "upsert", "delete"]),
                  st.integers(min_value=0, max_value=60),
                  st.integers(min_value=0, max_value=9)),
        min_size=20, max_size=120))
    def test_interleaved_ops_and_queries_match_oracle(self, ops):
        """Concurrent queries during backgrounded ingest never see torn
        state, and the drained end state matches a synchronous oracle fed
        the identical operation sequence (same exceptions included)."""
        background = Dataset.create(
            "stress_bg", StorageFormat.OPEN, partitions=2,
            lsm=_lsm(background=True, memory_component_budget=2048,
                     max_sealed_memtables=2))
        oracle = Dataset.create("stress_sync", StorageFormat.OPEN, partitions=2,
                                lsm=_lsm(background=False,
                                         memory_component_budget=2048))

        text = "SELECT t.id AS id FROM stress_bg AS t"
        executor = QueryExecutor(parallelism=2)
        failures = []
        done = threading.Event()

        def query_loop():
            try:
                while not done.is_set():
                    ids = [row["id"] for row in background.query(text, executor=executor).rows]
                    assert len(ids) == len(set(ids)), "duplicate key in concurrent scan"
            except Exception as exc:  # pragma: no cover - failure reporting
                failures.append(repr(exc))

        def apply(target):
            outcomes = []
            for op, key, value in ops:
                raised = False
                try:
                    if op == "insert":
                        target.upsert({"id": key, "value": value, "pad": "p" * 40})
                    elif op == "upsert":
                        target.upsert({"id": key, "value": value, "kind": "u"})
                    else:
                        target.delete(key)
                except KeyNotFoundError:
                    raised = True
                outcomes.append(raised)
            return outcomes

        querier = threading.Thread(target=query_loop)
        querier.start()
        try:
            background_outcomes = apply(background)
        finally:
            done.set()
            querier.join()
        assert apply(oracle) == background_outcomes, "oracle diverged on exceptions"

        background.flush_all()
        oracle.flush_all()
        assert not failures, failures
        assert (sorted((row["id"], row.get("value"), row.get("kind"))
                       for row in background.scan())
                == sorted((row["id"], row.get("value"), row.get("kind"))
                          for row in oracle.scan()))
        assert background.count() == oracle.count()
        background.close()
