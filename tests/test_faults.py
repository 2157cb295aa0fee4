"""Fault-injection framework + storage/maintenance hardening.

The contract pinned down here:

* the ``REPRO_FAULTS`` spec grammar and the code API configure the same
  deterministic, seedable rules, and every injection point is discoverable;
* page and WAL checksums turn injected corruption into typed
  ``CorruptPageError`` — never silently wrong bytes;
* transient background failures are retried with backoff inside the
  scheduler's budget, the failure latch is explicit (nothing clears it but
  ``clear_failure``), and ``Dataset.resume_maintenance`` requeues the work
  a latched failure orphaned;
* a component that fails its checksum is quarantined: queries raise
  ``QuarantinedComponentError`` instead of returning partial rows, and the
  ``component_quarantined`` event + metrics flow through ``repro.obs``;
* queries get a cooperative deadline (``QueryExecutor(deadline=...)``).
"""

import random
import re
import threading
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset, StorageFormat
from repro.core import StorageEnvironment
from repro.errors import (
    CorruptPageError,
    FaultSpecError,
    PageNotFoundError,
    PermanentIOError,
    QuarantinedComponentError,
    QueryDeadlineError,
    SchedulerError,
    StorageError,
    TransientIOError,
)
from repro.faults import (
    FAULT_POINTS,
    FaultInjector,
    FaultRule,
    fault_points,
    get_injector,
    parse_spec,
)
from repro.faults.points import is_registered
from repro.lsm import ComponentId, LSMBTree, LSMIOScheduler, NoMergePolicy, PrefixMergePolicy
from repro.obs import MetricsRegistry, get_registry
from repro.query import QueryExecutor
from repro.storage import BufferCache, FileManager, SimulatedStorageDevice, ZlibCodec
from repro.storage.wal import LogRecordType, WriteAheadLog

PAGE_SIZE = 2048


#: Each test starts from an empty global injector (see ``tests/conftest.py``).
pytestmark = pytest.mark.usefixtures("isolated_injector")


def _cache(capacity=512):
    device = SimulatedStorageDevice()
    manager = FileManager(device, PAGE_SIZE)
    return device, manager, BufferCache(manager, capacity)


def _scan_keys(index):
    """The keys of a full scan, in scan order."""
    return [key for _, run, start, stop in index.scan() for key in run.keys[start:stop]]


def _index(cache, **overrides):
    defaults = dict(name="ds", partition=0, buffer_cache=cache,
                    memory_budget=1 << 20, merge_policy=NoMergePolicy())
    defaults.update(overrides)
    return LSMBTree(**defaults)


def _counter_value(name, **labels):
    return get_registry().counter(name, **labels).value


# ---------------------------------------------------------------------------
# spec grammar + rule validation
# ---------------------------------------------------------------------------

class TestSpecGrammar:
    def test_parse_multi_rule_spec(self):
        parsed = parse_spec("device.read:p=0.25:seed=7;"
                            "wal.append:nth=3:error=corrupt:times=2")
        assert parsed == [
            ("device.read", {"probability": 0.25, "seed": 7}),
            ("wal.append", {"nth": 3, "error": "corrupt", "times": 2}),
        ]

    def test_empty_chunks_skipped(self):
        assert parse_spec(" ; ;") == []

    @pytest.mark.parametrize("spec", [
        "device.read:p",               # no '='
        "device.read:p=",              # empty value
        "device.read:p=abc",           # non-numeric
        "device.read:nth=x",
        "device.read:p=0.1:bogus=1",   # unknown key
    ])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(FaultSpecError):
            parse_spec(spec)

    def test_load_spec_applies_rules(self):
        injector = FaultInjector()
        rules = injector.load_spec("device.read:nth=1;device.write:p=0.5:seed=3")
        assert len(rules) == 2
        assert injector.active
        described = injector.rules()
        assert any("device.read" in rule for rule in described)
        assert any("seed=3" in rule for rule in described)

    @pytest.mark.parametrize("kwargs", [
        dict(point="no.such.point", nth=1),
        dict(point="device.read"),                      # no trigger
        dict(point="device.read", nth=1, probability=0.5),  # both triggers
        dict(point="device.read", probability=1.5),
        dict(point="device.read", nth=0),
        dict(point="device.read", nth=1, error="weird"),
        dict(point="device.read", nth=1, times=0),
    ])
    def test_invalid_rules_rejected(self, kwargs):
        with pytest.raises(FaultSpecError):
            FaultRule(**kwargs)


# ---------------------------------------------------------------------------
# determinism + discoverability
# ---------------------------------------------------------------------------

class TestDeterminism:
    def _schedule(self, seed, hits=200):
        injector = FaultInjector()
        injector.add_rule("device.read", probability=0.3, seed=seed)
        fired = []
        for ordinal in range(hits):
            try:
                injector.fire("device.read")
            except TransientIOError:
                fired.append(ordinal)
        return fired

    def test_same_seed_same_fault_schedule(self):
        first = self._schedule(seed=42)
        second = self._schedule(seed=42)
        assert first == second
        assert first  # 200 hits at p=0.3 must fire at least once

    def test_different_seeds_diverge(self):
        assert self._schedule(seed=1) != self._schedule(seed=2)

    def test_default_seed_is_deterministic(self):
        injector = FaultInjector()
        rule = injector.add_rule("device.read", probability=0.5)
        again = FaultInjector().add_rule("device.read", probability=0.5)
        assert rule.seed == again.seed

    def test_nth_rule_fires_on_every_nth_hit(self):
        injector = FaultInjector()
        injector.add_rule("wal.truncate", nth=3)
        outcomes = []
        for _ in range(9):
            try:
                injector.fire("wal.truncate")
                outcomes.append(False)
            except TransientIOError:
                outcomes.append(True)
        assert outcomes == [False, False, True] * 3

    def test_times_caps_total_firings(self):
        injector = FaultInjector()
        injector.add_rule("device.write", nth=1, times=2)
        raised = 0
        for _ in range(10):
            try:
                injector.fire("device.write")
            except TransientIOError:
                raised += 1
        assert raised == 2

    def test_registry_is_discoverable(self):
        names = {point.name for point in fault_points()}
        assert names == {
            "device.read", "device.write", "file.read_page", "file.write_page",
            "buffercache.miss", "wal.append", "wal.truncate",
            "scheduler.flush", "scheduler.merge",
            "cache.lookup", "cache.store",
        }
        assert all(point.description for point in FAULT_POINTS)
        assert is_registered("device.read")
        assert not is_registered("device.teleport")

    def test_readme_table_lists_every_registered_point(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| Point | Fires in |", 1)[1].split("\n\n", 1)[0]
        documented = set(re.findall(r"^\| `([\w.]+)` \|", table, re.MULTILINE))
        assert documented == {point.name for point in fault_points()}

    def test_fire_sites_name_registered_points(self):
        # A literal fire site must name a registered point (a typo could never
        # be targeted), and each point must be named somewhere in the engine
        # outside the registry (the scheduler picks its two by variable).
        package = Path(__file__).resolve().parents[1] / "src" / "repro"
        sites, quoted = set(), set()
        for path in package.rglob("*.py"):
            if path.parent.name == "faults":
                continue
            source = path.read_text(encoding="utf-8")
            sites.update(re.findall(r'(?:fire_fault|corrupt_payload)\("([^"]+)"', source))
            quoted.update(re.findall(r'"([a-z_]+\.[a-z_]+)"', source))
        registered = {point.name for point in fault_points()}
        assert sites and sites <= registered
        assert registered <= quoted

    def test_armed_injector_refuses_an_unregistered_fire_site(self):
        injector = FaultInjector()
        injector.fire("device.teleport")  # unarmed: a flag read, nothing checked
        injector.add_rule("device.read", nth=1000)
        with pytest.raises(FaultSpecError, match="device.teleport"):
            injector.fire("device.teleport")
        with pytest.raises(FaultSpecError, match="device.teleport"):
            injector.corrupt("device.teleport", b"page")

    def test_hit_counts_track_consultations(self):
        injector = FaultInjector()
        injector.add_rule("device.read", probability=0.0)
        for _ in range(5):
            injector.fire("device.read")
        assert injector.hit_counts() == {"device.read": 5}

    def test_error_classes_map_to_types(self):
        for error, exc_type in [("transient", TransientIOError),
                                ("permanent", PermanentIOError),
                                ("corrupt", CorruptPageError)]:
            injector = FaultInjector()
            injector.add_rule("device.read", nth=1, error=error)
            with pytest.raises(exc_type):
                injector.fire("device.read")

    def test_faults_injected_metric(self):
        before = _counter_value("faults_injected_total", point="device.read")
        injector = get_injector()
        injector.add_rule("device.read", nth=1, times=3)
        raised = 0
        for _ in range(5):
            try:
                injector.fire("device.read")
            except TransientIOError:
                raised += 1
        assert raised == 3
        after = _counter_value("faults_injected_total", point="device.read")
        assert after == before + 3


# ---------------------------------------------------------------------------
# the page store against an oracle
# ---------------------------------------------------------------------------

_FILE_NAMES = st.sampled_from(["a", "b", "c"])
_FILE_OPS = st.lists(st.one_of(
    st.tuples(st.just("create"), _FILE_NAMES),
    st.tuples(st.just("delete"), _FILE_NAMES),
    # (file, page-number offset from the append position, content seed, compressible?)
    st.tuples(st.just("write"), _FILE_NAMES, st.integers(-1, 1), st.integers(0, 255),
              st.booleans()),
    st.tuples(st.just("read"), _FILE_NAMES, st.integers(0, 6)),
), max_size=40)


def _content(seed: int, compressible: bool) -> bytes:
    if compressible:
        return bytes([seed]) * PAGE_SIZE
    return random.Random(seed).getrandbits(8 * PAGE_SIZE).to_bytes(PAGE_SIZE, "little")


@pytest.mark.parametrize("compressed", [False, True])
@settings(max_examples=60, deadline=None)
@given(ops=_FILE_OPS)
def test_file_manager_against_dict_oracle(compressed, ops):
    """Any create/write/read/delete sequence agrees with a dict of page lists:
    contents, page counts, rejected calls, and the size formula
    ``stored + (4 + 12 x pages when compressed)``; afterwards a corrupted read
    of every file still trips its CRC."""
    manager = FileManager(SimulatedStorageDevice(), PAGE_SIZE,
                          ZlibCodec() if compressed else None)
    oracle = {}

    def stored_size(page: bytes) -> int:
        return min(len(zlib.compress(page, 1)), PAGE_SIZE) if compressed else PAGE_SIZE

    for op, name, *args in ops:
        if op == "create":
            if name in oracle:
                with pytest.raises(StorageError):
                    manager.create_file(name)
            else:
                manager.create_file(name)
                oracle[name] = []
        elif op == "delete":
            manager.delete_file(name)  # deleting an unknown file is a no-op
            oracle.pop(name, None)
        elif op == "write":
            offset, seed, compressible = args
            page = _content(seed, compressible)
            if name not in oracle or offset != 0:
                with pytest.raises(StorageError):
                    manager.write_page(name, len(oracle.get(name, ())) + offset, page)
            else:
                manager.write_page(name, len(oracle[name]), page)
                oracle[name].append(page)
        else:
            (page_no,) = args
            if name not in oracle:
                with pytest.raises(StorageError):
                    manager.read_page(name, page_no)
            elif page_no >= len(oracle[name]):
                with pytest.raises(PageNotFoundError):
                    manager.read_page(name, page_no)
            else:
                assert manager.read_page(name, page_no) == oracle[name][page_no]
        assert manager.list_files() == sorted(oracle)
        for known, pages in oracle.items():
            assert manager.num_pages(known) == len(pages)
            laf = 4 + 12 * len(pages) if compressed else 0
            assert manager.file_size(known) == sum(map(stored_size, pages)) + laf
    assert manager.total_size() == sum(manager.file_size(known) for known in oracle)

    for known, pages in oracle.items():
        if pages:
            get_injector().add_rule("file.read_page", nth=1, error="corrupt", times=1)
            try:
                with pytest.raises(CorruptPageError):
                    manager.read_page(known, 0)
            finally:
                get_injector().clear()  # hypothesis examples share the fixture
            assert manager.read_page(known, 0) == pages[0]


# ---------------------------------------------------------------------------
# checksums: pages and WAL records
# ---------------------------------------------------------------------------

class TestChecksums:
    def test_page_corruption_caught_by_crc(self):
        _, manager, _ = _cache()
        manager.create_file("f")
        manager.write_page("f", 0, b"a" * PAGE_SIZE)
        assert manager.read_page("f", 0) == b"a" * PAGE_SIZE
        before = _counter_value("checksum_failures_total", kind="page")
        get_injector().add_rule("file.read_page", nth=1, error="corrupt", times=1)
        with pytest.raises(CorruptPageError):
            manager.read_page("f", 0)
        assert _counter_value("checksum_failures_total", kind="page") == before + 1
        # The stored page is intact; with the rule exhausted reads succeed.
        assert manager.read_page("f", 0) == b"a" * PAGE_SIZE

    def test_injected_write_failure_charges_nothing(self):
        device, manager, _ = _cache()
        manager.create_file("f")
        written_before = device.stats.bytes_written
        get_injector().add_rule("device.write", nth=1, times=1)
        with pytest.raises(TransientIOError):
            manager.write_page("f", 0, b"b" * PAGE_SIZE)
        assert device.stats.bytes_written == written_before
        # ... and keeps nothing: the page can still be written, once.
        assert manager.num_pages("f") == 0
        manager.write_page("f", 0, b"b" * PAGE_SIZE)
        assert manager.read_page("f", 0) == b"b" * PAGE_SIZE

    def test_wal_records_carry_content_crc(self):
        wal = WriteAheadLog()
        record = wal.append(LogRecordType.INSERT, "ds", 0, key=1, payload=b"row")
        assert record.crc == record.content_crc()

    def test_torn_tail_detection_truncates_at_first_bad_record(self):
        wal = WriteAheadLog()
        for key in range(6):
            wal.append(LogRecordType.INSERT, "ds", 0, key=key, payload=b"p%d" % key)
        # Tear record 3 (a crash mid-write): everything from it on is lost.
        wal._records[3].payload = b"garbage"
        before = _counter_value("checksum_failures_total", kind="wal")
        assert wal.drop_torn_tail() == 3
        assert _counter_value("checksum_failures_total", kind="wal") == before + 3
        surviving = [record.key for record in wal.replay()]
        assert surviving == [0, 1, 2]
        assert wal.drop_torn_tail() == 0  # idempotent on an intact log

    def test_injected_wal_corruption_is_a_torn_record(self):
        wal = WriteAheadLog()
        wal.append(LogRecordType.INSERT, "ds", 0, key=0, payload=b"ok")
        get_injector().add_rule("wal.append", nth=1, error="corrupt", times=1)
        wal.append(LogRecordType.INSERT, "ds", 0, key=1, payload=b"will-tear")
        wal.append(LogRecordType.INSERT, "ds", 0, key=2, payload=b"after")
        assert wal.drop_torn_tail() == 2
        assert [record.key for record in wal.replay()] == [0]

    def test_failed_append_leaves_no_trace(self):
        wal = WriteAheadLog()
        wal.append(LogRecordType.INSERT, "ds", 0, key=0, payload=b"ok")
        get_injector().add_rule("wal.append", nth=1, times=1)
        with pytest.raises(TransientIOError):
            wal.append(LogRecordType.INSERT, "ds", 0, key=1, payload=b"lost")
        assert len(wal) == 1
        assert wal.last_lsn == 1
        follow_up = wal.append(LogRecordType.INSERT, "ds", 0, key=2, payload=b"ok2")
        assert follow_up.lsn == 2  # no LSN hole


# ---------------------------------------------------------------------------
# scheduler: retry/backoff + the explicit failure latch
# ---------------------------------------------------------------------------

class TestSchedulerResilience:
    def test_transient_failures_retried_within_budget(self):
        get_injector().add_rule("scheduler.flush", nth=1, times=2)
        metrics = MetricsRegistry()
        scheduler = LSMIOScheduler(metrics=metrics, retry_budget=4, backoff_base=0.0001)
        ran = []
        scheduler.submit_flush(None, lambda: ran.append(1))
        scheduler.close()  # drains; no failure may surface
        assert ran == [1]
        assert metrics.counter("maintenance_retries_total", kind="flush").value == 2
        assert metrics.counter("scheduler_tasks_completed", kind="flush").value == 1
        assert metrics.counter("maintenance_retries_total", kind="merge").value == 0

    def test_budget_exhaustion_latches_failure(self):
        get_injector().add_rule("scheduler.flush", nth=1)  # always fire
        scheduler = LSMIOScheduler(retry_budget=2, backoff_base=0.0001)
        scheduler.submit_flush(None, lambda: None)
        with pytest.raises(SchedulerError):
            scheduler.drain()
        # The latch is sticky: nothing clears it implicitly.
        with pytest.raises(SchedulerError):
            scheduler.raise_if_failed()
        failure = scheduler.clear_failure()
        assert isinstance(failure, TransientIOError)
        scheduler.raise_if_failed()  # clean now
        # After clearing, the scheduler accepts and completes new work.
        get_injector().clear()
        done = []
        scheduler.submit_flush(None, lambda: done.append(1))
        scheduler.close()
        assert done == [1]

    def test_permanent_failures_are_not_retried(self):
        get_injector().add_rule("scheduler.flush", nth=1, error="permanent")
        metrics = MetricsRegistry()
        scheduler = LSMIOScheduler(metrics=metrics, retry_budget=5, backoff_base=0.0001)
        scheduler.submit_flush(None, lambda: None)
        with pytest.raises(SchedulerError) as excinfo:
            scheduler.drain()
        assert isinstance(excinfo.value.__cause__, PermanentIOError)
        assert metrics.counter("maintenance_retries_total", kind="flush").value == 0
        assert metrics.counter("scheduler_tasks_completed", kind="flush").value == 0
        assert scheduler.pending() == 0
        scheduler.clear_failure()
        scheduler.close()

    def test_zero_budget_surfaces_first_transient(self):
        get_injector().add_rule("scheduler.flush", nth=1, times=1)
        scheduler = LSMIOScheduler(retry_budget=0)
        scheduler.submit_flush(None, lambda: None)
        with pytest.raises(SchedulerError):
            scheduler.drain()
        scheduler.clear_failure()
        scheduler.close()

    def test_merge_abandoned_before_its_body_does_not_wedge_drain(self):
        """A merge the scheduler gives up on before its task body runs must
        stop counting as pending: once the failure is cleared, drain returns
        and the next flush can schedule a merge again."""
        _, _, cache = _cache()
        scheduler = LSMIOScheduler(retry_budget=0, backoff_base=0.0001)
        index = _index(cache, scheduler=scheduler,
                       merge_policy=PrefixMergePolicy(max_tolerable_component_count=2))
        get_injector().add_rule("scheduler.merge", nth=1, times=1, error="permanent")
        merged = []
        original = index.maybe_merge

        def observed_merge():
            merged.append(1)
            return original()

        index.maybe_merge = observed_merge

        def insert(keys):
            for key in keys:
                index.insert(key, b"v%03d" % key)

        insert(range(10))
        index.flush()
        insert(range(10, 20))
        with pytest.raises(SchedulerError) as excinfo:
            index.flush()  # its merge submission dies at the fault point
        assert isinstance(excinfo.value.__cause__, PermanentIOError)
        assert merged == [] and index.component_count() == 2
        assert isinstance(scheduler.clear_failure(), PermanentIOError)
        index.drain_maintenance()  # nothing pending: returns at once

        insert(range(20, 30))
        index.flush()
        assert merged == [1]
        assert index.component_count() == 1 and index.stats.merges == 1
        assert _scan_keys(index) == list(range(30))
        scheduler.close()

    def test_concurrent_raise_if_failed_is_safe(self):
        """Regression: raise_if_failed reads the latch under the lock, so
        concurrent failers/readers never race on a half-written latch."""
        scheduler = LSMIOScheduler(retry_budget=0)
        get_injector().add_rule("scheduler.flush", nth=2)  # some tasks fail
        for _ in range(8):
            scheduler.submit_flush(None, lambda: None)
        errors = []

        def poll():
            for _ in range(100):
                try:
                    scheduler.raise_if_failed()
                except SchedulerError:
                    pass
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

        threads = [threading.Thread(target=poll) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        with pytest.raises(SchedulerError):
            scheduler.close()


# ---------------------------------------------------------------------------
# end-to-end: ingest + flush survive transient device faults
# ---------------------------------------------------------------------------

class TestFlushRetrySafety:
    def test_background_flush_retries_through_device_faults(self):
        get_injector().add_rule("scheduler.flush", probability=0.5, seed=11)
        _, _, cache = _cache()
        scheduler = LSMIOScheduler(retry_budget=10, backoff_base=0.0001)
        index = _index(cache, scheduler=scheduler, memory_budget=4096,
                       max_sealed_memtables=4)
        for key in range(200):
            index.insert(key, (b"%06d" % key) * 16)
        index.drain_maintenance()
        scheduler.close()
        assert index.exact_count() == 200
        assert _scan_keys(index) == list(range(200))

    def test_flush_rollback_preserves_compactor_schema(self):
        """A transient flush failure must restore the tuple compactor's
        schema snapshot, so the retry infers from the same starting state."""
        dataset = Dataset.create("rollback_schema", StorageFormat.INFERRED)
        dataset.insert({"id": 1, "name": "a"})
        get_injector().add_rule("scheduler.flush", nth=1, times=1)
        # Synchronous flush path: the fault fires inside the scheduler only
        # for background mode, so drive the index flush directly instead.
        partition = dataset.partitions[0]
        flush_count_before = partition.compactor.flush_count
        get_injector().clear()
        get_injector().add_rule("device.write", nth=1, times=1)
        with pytest.raises(TransientIOError):
            partition.index.flush()
        assert partition.compactor.flush_count == flush_count_before
        assert partition.index.component_count() == 0
        # Rule exhausted: the retried flush succeeds and compacts normally.
        partition.index.flush()
        assert partition.compactor.flush_count == flush_count_before + 1
        assert partition.index.component_count() == 1
        assert dataset.get(1) == {"id": 1, "name": "a"}
        dataset.close()

    def test_inline_flush_failure_leaves_a_sealed_memtable_the_next_flush_persists(self):
        """Without a scheduler a failed flush() reaches the caller un-retried
        and un-latched.  The memtable it sealed stays readable, the writer
        keeps going, and the next flush() persists the leftover and the
        current memtable in seal order, each truncating its own WAL prefix."""
        _, _, cache = _cache()
        wal = WriteAheadLog()
        index = _index(cache, wal=wal)
        for key in range(20):
            index.insert(key, b"old-%03d" % key)
        sealed_up_to = wal.last_lsn
        get_injector().add_rule("device.write", nth=1, times=1)
        with pytest.raises(TransientIOError):
            index.flush()
        assert index.component_count() == 0 and cache.file_manager.list_files() == []
        assert [sealed.up_to_lsn for sealed in index.sealed_memtables] == [sealed_up_to]
        assert index.memory_component.is_empty
        assert _scan_keys(index) == list(range(20))
        assert all(index.search(key).payload == b"old-%03d" % key for key in range(20))

        for key in range(20, 30):
            index.insert(key, b"new-%03d" % key)
        index.upsert(3, b"new-003")  # shadows the sealed version
        assert index.search(3).payload == b"new-003"
        index.drain_maintenance()  # nothing was submitted anywhere: returns

        def logged_keys():
            return sorted(record.key for record in wal.replay(dataset="ds", partition=0))

        assert logged_keys() == sorted(list(range(30)) + [3])
        original = index._flush_memtable
        logged_after_each_flush = []

        def observing_flush(memtable, up_to_lsn, fail_before_footer=False):
            component = original(memtable, up_to_lsn, fail_before_footer)
            logged_after_each_flush.append(logged_keys())
            return component

        index._flush_memtable = observing_flush
        newest = index.flush()
        # The leftover's flush retires exactly the sealed prefix of the log.
        assert logged_after_each_flush == [[3] + list(range(20, 30)), []]
        assert index.sealed_memtables == []
        assert newest is index.components[0]
        assert [component.component_id for component in index.components] == [
            ComponentId.flushed(1), ComponentId.flushed(0)]
        assert [entry.key for entry in index.components[1].scan()] == list(range(20))
        assert [entry.key for entry in index.components[0].scan()] == [3] + list(range(20, 30))
        index.drain_maintenance()
        assert index.stats.flushes == 2 and index.stats.ingest_stall_seconds == 0.0
        assert _scan_keys(index) == list(range(30))
        assert index.search(3).payload == b"new-003"


# ---------------------------------------------------------------------------
# quarantine: corrupt components produce typed errors, never wrong rows
# ---------------------------------------------------------------------------

class TestQuarantine:
    def _flushed_index(self, rows=30):
        _, _, cache = _cache(capacity=4)  # tiny cache: reads go to disk
        index = _index(cache)
        for key in range(rows):
            index.insert(key, (b"%06d" % key) * 8)
        index.flush()
        return index, cache

    def test_corrupt_component_quarantined_on_search(self):
        index, cache = self._flushed_index()
        cache.clear()
        events_before = _counter_value("events_total", event="component_quarantined")
        get_injector().add_rule("file.read_page", nth=1, error="corrupt", times=1)
        with pytest.raises(QuarantinedComponentError) as excinfo:
            index.search(7)
        assert excinfo.value.component_name
        assert isinstance(excinfo.value.__cause__, CorruptPageError)
        assert _counter_value(
            "events_total", event="component_quarantined") == events_before + 1
        # Fail-fast forever after, even with injection over — and the event
        # is emitted only once per component.
        with pytest.raises(QuarantinedComponentError):
            index.search(3)
        with pytest.raises(QuarantinedComponentError):
            list(index.scan())
        assert _counter_value(
            "events_total", event="component_quarantined") == events_before + 1
        assert len(index.quarantined_components()) == 1

    def test_scan_hits_quarantine_too(self):
        index, cache = self._flushed_index()
        cache.clear()
        get_injector().add_rule("file.read_page", nth=1, error="corrupt", times=1)
        with pytest.raises(QuarantinedComponentError):
            list(index.scan())

    @staticmethod
    def _zero_first_primary_leaf(environment, dataset):
        """Zero page 0 of the dataset's one component — its first primary
        leaf — keeping the stale CRC, and drop the caches."""
        (component,) = dataset.partitions[0].index.components
        pages = environment.buffer_cache.file_manager._files[component.file_name].pages
        payload, crc = pages[0]
        pages[0] = (bytes(len(payload)), crc)
        environment.drop_caches()
        return component

    def test_corrupt_key_page_met_at_reopen_quarantines_the_component(self):
        """Re-opening a component reads its primary leaves back for the
        key-hash fence; bit rot there ends like a read meeting it: the
        component is quarantined and reads of it raise, recovery does not."""
        environment = StorageEnvironment()
        dataset = Dataset.create("reopen", StorageFormat.INFERRED, environment=environment)
        dataset.insert_all({"id": key, "v": key % 5} for key in range(200))
        dataset.flush_all()
        component = self._zero_first_primary_leaf(environment, dataset)
        events_before = _counter_value("events_total", event="component_quarantined")

        revived = Dataset.create("reopen", StorageFormat.INFERRED, environment=environment)
        revived.partitions[0].recover()
        assert list(revived.partitions[0].index.quarantined_components()) == [component.file_name]
        assert revived.partitions[0].index.components[0].key_hashes is None
        assert _counter_value(
            "events_total", event="component_quarantined") == events_before + 1
        with pytest.raises(QuarantinedComponentError):
            revived.get(3)
        with pytest.raises(QuarantinedComponentError):
            revived.count()
        revived.insert({"id": 1000, "v": 1})  # new writes still land in memory
        revived.close()

    def test_logged_upsert_replays_over_a_component_quarantined_at_reopen(self):
        """A logged upsert whose old version sits in a component quarantined
        at re-open replays without its anti-schema, as a logged delete does:
        recovery finishes and flushes the new version."""
        environment = StorageEnvironment()
        dataset = Dataset.create("replay", StorageFormat.INFERRED, environment=environment)
        dataset.insert_all({"id": key, "v": key % 5} for key in range(200))
        dataset.flush_all()
        dataset.upsert({"id": 3, "v": "three"})
        component = self._zero_first_primary_leaf(environment, dataset)

        revived = Dataset.create("replay", StorageFormat.INFERRED, environment=environment)
        revived.partitions[0].recover()
        index = revived.partitions[0].index
        assert list(index.quarantined_components()) == [component.file_name]
        assert len(index.components) == 2 and index.memory_component.is_empty
        assert [entry.key for entry in index.components[0].scan()] == [3]
        with pytest.raises(QuarantinedComponentError):
            revived.get(3)  # the read snapshot still needs the quarantined component
        revived.close()

    def test_memtable_reads_survive_quarantine(self):
        index, cache = self._flushed_index()
        cache.clear()
        get_injector().add_rule("file.read_page", nth=1, error="corrupt", times=1)
        with pytest.raises(QuarantinedComponentError):
            index.search(0)
        # New, unflushed data never touches the quarantined component.
        index.insert(1000, b"fresh" * 8)
        assert index.search(1000).payload == b"fresh" * 8


# ---------------------------------------------------------------------------
# query deadline
# ---------------------------------------------------------------------------

class TestQueryDeadline:
    def _dataset(self, partitions=2):
        dataset = Dataset.create("deadline_ds", StorageFormat.OPEN,
                                 partitions=partitions)
        dataset.insert_all({"id": key, "val": key % 7} for key in range(300))
        return dataset

    def test_zero_deadline_expires_immediately(self):
        dataset = self._dataset()
        executor = QueryExecutor(deadline=0)
        with pytest.raises(QueryDeadlineError):
            dataset.query("SELECT d.val AS val FROM deadline_ds AS d",
                          executor=executor)
        dataset.close()

    def test_generous_deadline_passes(self):
        dataset = self._dataset()
        executor = QueryExecutor(deadline=60.0)
        rows = dataset.query(
            "SELECT d.id AS id FROM deadline_ds AS d WHERE d.val = 3",
            executor=executor)
        assert sorted(row["id"] for row in rows) == [
            key for key in range(300) if key % 7 == 3]
        dataset.close()

    def test_deadline_cancels_parallel_workers(self):
        dataset = self._dataset(partitions=4)
        executor = QueryExecutor(deadline=0, parallelism=4)
        with pytest.raises(QueryDeadlineError):
            dataset.query("SELECT d.id AS id FROM deadline_ds AS d",
                          executor=executor)
        dataset.close()


# ---------------------------------------------------------------------------
# recovery integration: torn WAL tail + resume after latched failure
# ---------------------------------------------------------------------------

class TestRecoveryIntegration:
    def test_resume_maintenance_clears_latch_and_requeues(self):
        _, _, cache = _cache()
        scheduler = LSMIOScheduler(retry_budget=0, backoff_base=0.0001)
        index = _index(cache, scheduler=scheduler, memory_budget=4096,
                       max_sealed_memtables=8)
        get_injector().add_rule("scheduler.flush", nth=1, times=1)
        for key in range(120):
            index.insert(key, (b"%06d" % key) * 16)
        with pytest.raises(SchedulerError):
            index.drain_maintenance()
        assert scheduler.clear_failure() is not None
        resubmitted = index.resume_maintenance()
        assert resubmitted >= 1
        index.drain_maintenance()
        assert _scan_keys(index) == list(range(120))
        scheduler.close()
