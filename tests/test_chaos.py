"""Chaos suite: randomized fault schedules over concurrent ingest + queries.

The end-to-end robustness contract (ISSUE PR 9), checked under
hypothesis-generated fault schedules rather than hand-picked ones:

* **No silent corruption** — with arbitrary transient/permanent/corrupt
  faults firing at any registered injection point, every operation and
  every query either raises a *typed* :class:`~repro.errors.ReproError`
  or behaves exactly; concurrent scans never return duplicated keys or
  values that were never written.
* **Oracle parity** — once the fault schedule is exhausted and maintenance
  is resumed, the surviving dataset holds exactly the rows a no-fault
  oracle (a plain dict fed the same *applied* operations) predicts.
  Classification is exact because of the write path's ordering: the WAL
  append precedes the memtable put, so a typed I/O error means *not
  applied*, while a :class:`~repro.errors.SchedulerError` is backpressure
  raised after the put — *applied*.
* **Torn-tail recovery** — a crash mid-flush leaves an INVALID component
  and a WAL whose tail may be torn; recovery removes the former, cuts the
  log at the first CRC-bad record, and replays to exactly the rows whose
  appends preceded the tear.
"""

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Dataset, LSMConfig, StorageEnvironment, StorageFormat
from repro.errors import ReproError, SchedulerError
from repro.faults import get_injector
from repro.storage.wal import LogRecordType

SMALL_BUDGET = 8 * 1024

#: Points a parity run may fault.  All nine registered points are fair game:
#: read-path corruption can permanently quarantine a component, in which case
#: the final scan must raise the typed error instead of matching the oracle —
#: both outcomes are accepted below, per the contract.
_POINTS = [
    "device.read", "device.write", "file.read_page", "file.write_page",
    "buffercache.miss", "wal.append", "wal.truncate",
    "scheduler.flush", "scheduler.merge",
]

_DELETED = object()


#: Each test starts from an empty global injector (see ``tests/conftest.py``).
pytestmark = pytest.mark.usefixtures("isolated_injector")


def _lsm(background=True, **overrides):
    defaults = dict(memory_component_budget=SMALL_BUDGET,
                    max_tolerable_component_count=3,
                    max_sealed_memtables=2,
                    background_maintenance=background)
    defaults.update(overrides)
    return LSMConfig(**defaults)


def _settle(dataset, injector, attempts=50):
    """Clear the fault schedule, then resume maintenance until it drains."""
    injector.clear()
    for _ in range(attempts):
        try:
            dataset.drain()
            return
        except SchedulerError:
            dataset.resume_maintenance()
    pytest.fail("maintenance never settled after the fault schedule cleared")


_RULES = st.lists(
    st.fixed_dictionaries({
        "point": st.sampled_from(_POINTS),
        "error": st.sampled_from(["transient", "permanent", "corrupt"]),
        "nth": st.integers(min_value=2, max_value=12),
        "times": st.integers(min_value=1, max_value=3),
    }),
    min_size=1, max_size=3)

_OPS = st.lists(
    st.tuples(st.sampled_from(["upsert", "delete"]),
              st.integers(min_value=0, max_value=30),
              st.integers(min_value=0, max_value=9)),
    min_size=25, max_size=80)


class TestChaosOracleParity:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large,
                                     HealthCheck.filter_too_much])
    @given(rules=_RULES, ops=_OPS)
    def test_faulted_ingest_matches_oracle_or_raises_typed(self, rules, ops):
        injector = get_injector()
        injector.clear()
        for rule in rules:
            injector.add_rule(rule["point"], nth=rule["nth"],
                              error=rule["error"], times=rule["times"])

        environment = StorageEnvironment()
        dataset = Dataset.create("chaos", StorageFormat.INFERRED,
                                 environment=environment, partitions=2,
                                 lsm=_lsm())
        oracle = {}
        versions = {}  # key -> every val ever written (for concurrent scans)

        # Concurrent reader: every scan outcome must be a typed ReproError or
        # a sane snapshot — unique keys, only values some write produced.
        stop = threading.Event()
        reader_failures = []

        def reader():
            while not stop.is_set():
                try:
                    rows = list(dataset.scan())
                except ReproError:
                    continue
                except BaseException as exc:  # noqa: BLE001 - the assertion
                    reader_failures.append(exc)
                    return
                seen = [row["id"] for row in rows]
                if len(seen) != len(set(seen)):
                    reader_failures.append(AssertionError(
                        f"scan returned duplicated keys: {sorted(seen)}"))
                    return
                for row in rows:
                    if row["val"] not in versions.get(row["id"], set()):
                        reader_failures.append(AssertionError(
                            f"scan returned never-written row {row}"))
                        return

        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        try:
            for op, key, val in ops:
                try:
                    if op == "upsert":
                        versions.setdefault(key, set()).add(val)
                        dataset.upsert({"id": key, "val": val})
                        oracle[key] = val
                    else:
                        dataset.delete(key)
                        oracle[key] = _DELETED
                except SchedulerError:
                    # Backpressure surfaced a latched background failure —
                    # the WAL append and memtable put already happened.
                    if op == "upsert":
                        oracle[key] = val
                    else:
                        oracle[key] = _DELETED
                    dataset.resume_maintenance()
                except ReproError:
                    # Typed failure before the put (WAL append, antischema
                    # read, missing delete key): the operation did not apply.
                    pass
        finally:
            stop.set()
            reader_thread.join()

        if reader_failures:
            raise reader_failures[0]

        _settle(dataset, injector)
        expected = sorted((key, val) for key, val in oracle.items()
                          if val is not _DELETED)
        try:
            actual = sorted((row["id"], row["val"]) for row in dataset.scan())
        except ReproError:
            # A corrupt-read fault quarantined a component: the typed error
            # IS the accepted outcome — never silently wrong rows.
            return
        assert actual == expected
        assert dataset.count() == len(expected)


class TestCrashTornTailRecovery:
    def test_crash_mid_flush_with_torn_tail_recovers_exactly(self):
        """Every background flush dies before the footer (crash-mid-flush),
        then the WAL tail is torn at a known record: recovery must remove
        the INVALID component, cut the log at the tear, and land on exactly
        the rows appended before it."""
        environment = StorageEnvironment()
        dataset = Dataset.create("chaos_crash", StorageFormat.INFERRED,
                                 environment=environment, partitions=1,
                                 lsm=_lsm(max_sealed_memtables=8))
        index = dataset.partitions[0].index
        original = index._flush_memtable

        def crashing_flush(memtable, up_to_lsn, fail_before_footer=False):
            return original(memtable, up_to_lsn, fail_before_footer=True)

        index._flush_memtable = crashing_flush

        torn_from = 35
        pad = "x" * 600  # force several memtable rotations under the 8 KB budget
        for i in range(50):
            dataset.insert({"id": i, "val": i, "pad": pad})
        with pytest.raises(SchedulerError):
            dataset.close()

        # No flush ever committed, so every insert is still in the WAL.
        # Tear the record for key `torn_from`: recovery must drop it and
        # everything after it.
        wal = environment.wal
        torn = [record for record in wal.replay()
                if record.record_type is LogRecordType.INSERT
                and record.key == torn_from]
        assert len(torn) == 1
        torn[0].payload = b"\x00" + torn[0].payload[1:]

        invalid = [name for name in environment.file_manager.list_files()
                   if name.startswith("chaos_crash_p0_c")]
        assert invalid, "the dying flush should have left a partial component"

        # The tear cuts the log at `torn_from`'s record: everything after it
        # (inserts 35..49, plus any later flush markers) is unreadable.
        assert wal.drop_torn_tail() >= 50 - torn_from

        revived = Dataset.create("chaos_crash", StorageFormat.INFERRED,
                                 environment=environment, partitions=1,
                                 lsm=_lsm(background=False))
        revived.partitions[0].recover()
        assert sorted(row["id"] for row in revived.scan()) == list(range(torn_from))
        assert revived.count() == torn_from

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(tail=st.integers(min_value=1, max_value=12),
           tear_at=st.integers(min_value=1, max_value=12))
    def test_torn_tail_position_determines_recovered_rows(self, tail, tear_at):
        """For any tail length and tear position: flushed rows always
        survive, and exactly the WAL-only rows before the tear replay."""
        tear_at = min(tear_at, tail)
        injector = get_injector()
        injector.clear()

        environment = StorageEnvironment()
        dataset = Dataset.create("chaos_tail", StorageFormat.INFERRED,
                                 environment=environment, partitions=1,
                                 lsm=_lsm(background=False,
                                          memory_component_budget=1 << 20))
        flushed = 20
        for i in range(flushed):
            dataset.insert({"id": i, "val": i})
        dataset.flush_all()

        # `tear_at`-th tail append is stored torn (CRC-bad) by the injector.
        injector.add_rule("wal.append", nth=tear_at, times=1, error="corrupt")
        for i in range(flushed, flushed + tail):
            dataset.insert({"id": i, "val": i})
        injector.clear()

        assert environment.wal.drop_torn_tail() == tail - tear_at + 1

        revived = Dataset.create("chaos_tail", StorageFormat.INFERRED,
                                 environment=environment, partitions=1,
                                 lsm=_lsm(background=False))
        revived.partitions[0].recover()
        expected = list(range(flushed + tear_at - 1))
        assert sorted(row["id"] for row in revived.scan()) == expected
