"""Access-path selection: scan/index parity, lifecycle, and EXPLAIN tests.

The executor may answer a range predicate by a full scan or by probing a
secondary index; whichever the cost model (or a forced override) picks, the
rows must be identical, in the same (primary-key) order.  The probe path is
a *candidate superset* machine — a key becomes a candidate when any of its
versions, in a component's index tree or in a memtable (by the indexed
value the entry caches), lies in the range, and its newest version may
have left the range or been deleted since — so these tests hammer exactly
those edges: every storage format, compressed and not, mutable and sealed
memtables, CREATE INDEX over unflushed data, and recovery with a torn or
missing index tree.  Random, inverted and open-ended ranges through the
whole LSM lifecycle (upsert, delete, flush, merge, crash recovery) are
``tests/test_model.py``'s.
"""

import importlib
import sys
import threading

import pytest

from repro import (Dataset, DeviceKind, LSMConfig, StorageConfig, StorageEnvironment,
                   StorageFormat)
from repro.datasets.stats import FieldStatistics
from repro.errors import ComponentStateError, SqlppError, TransientIOError
from repro.query import QueryExecutor, choose_access_path
from repro.query.expressions import Comparison, field, lit
from repro.query.optimizer import AccessPathChoice
from repro.query.plan import FullScan, scan
from repro.sqlpp import CompiledCreateIndex
from repro.sqlpp import compile as compile_sqlpp
from repro.types import ADate, ADateTime, APoint, ATime, Datatype
from repro.types.values import RANK_NUMBER

RECORD_COUNT = 400
SELECTIVITIES = (0.001, 0.01, 0.1, 0.5)
FORMATS = (StorageFormat.OPEN, StorageFormat.CLOSED, StorageFormat.INFERRED)
COMPRESSIONS = (None, "snappy")


def _records(count=RECORD_COUNT):
    records = []
    for i in range(count):
        record = {"id": i, "ts": 1000 + i * 3, "name": f"user{i}",
                  "nested": {"score": i % 97}, "tags": [f"t{i % 5}"]}
        if i % 7 == 0:
            del record["nested"]          # MISSING indexed field on some records
        records.append(record)
    return records


def _build(storage_format, compression=None, records=None, index=True,
           device=DeviceKind.NVME_SSD):
    records = records if records is not None else _records()
    environment = StorageEnvironment.for_device(device, compression=compression,
                                                page_size=4096, buffer_cache_pages=512)
    datatype = None
    if storage_format is StorageFormat.CLOSED:
        datatype = Datatype.from_records("AccessPathType", records, is_open=True,
                                         primary_key="id")
    dataset = Dataset.create("apaths", storage_format, environment=environment,
                             datatype=datatype)
    if index:
        dataset.create_index("by_ts", "ts")
    dataset.insert_all(records)
    dataset.flush_all()
    return dataset


def _range_query(low, high, low_op=">=", high_op="<="):
    conjuncts = []
    if low is not None:
        conjuncts.append(f"t.ts {low_op} {low}")
    if high is not None:
        conjuncts.append(f"t.ts {high_op} {high}")
    where = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""
    return f"SELECT VALUE t.id FROM apaths AS t{where}"


def _rows(dataset, text, access_path):
    result = dataset.query(text, access_path=access_path)
    return sorted(row["value"] for row in result.rows), result


# ---------------------------------------------------------------------------
# parity across selectivities, formats, and compression
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("compression", COMPRESSIONS, ids=["raw", "snappy"])
@pytest.mark.parametrize("storage_format", FORMATS, ids=[f.value for f in FORMATS])
class TestScanIndexParity:
    def test_every_selectivity_is_row_identical(self, storage_format, compression):
        records = _records()
        dataset = _build(storage_format, compression, records)
        timestamps = sorted(record["ts"] for record in records)
        for selectivity in SELECTIVITIES:
            span = max(1, int(len(timestamps) * selectivity))
            low = timestamps[0]
            high = timestamps[min(span, len(timestamps) - 1)]
            text = _range_query(low, high)
            via_index, index_result = _rows(dataset, text, "index")
            via_scan, scan_result = _rows(dataset, text, "scan")
            assert index_result.stats.access_path == "IndexProbe"
            assert scan_result.stats.access_path == "FullScan"
            assert via_index == via_scan
            expected = sorted(record["id"] for record in records
                              if low <= record["ts"] <= high)
            assert via_index == expected

    def test_cost_based_choice_matches_both(self, storage_format, compression):
        records = _records()
        dataset = _build(storage_format, compression, records)
        text = _range_query(1000, 1006)
        auto_rows, _ = _rows(dataset, text, "auto")
        forced_rows, _ = _rows(dataset, text, "scan")
        assert auto_rows == forced_rows == [0, 1, 2]


# ---------------------------------------------------------------------------
# LSM lifecycle: the probe stays correct through every state transition
# ---------------------------------------------------------------------------

class TestLsmLifecycle:
    def test_recovery_rebuilds_torn_and_new_index_trees(self):
        # Crash with one component's by_ts file left INVALID (a crash
        # mid-build) and a second index that did not exist before the crash:
        # recovery rebuilds both trees from the primary component instead of
        # running without.
        environment = StorageEnvironment.for_device(DeviceKind.NVME_SSD,
                                                    page_size=4096, buffer_cache_pages=512)
        dataset = Dataset.create("apaths", StorageFormat.INFERRED, environment=environment)
        dataset.create_index("by_ts", "ts")
        records = [{"id": i, "ts": i * 10, "payload": f"p{i}"} for i in range(60)]
        dataset.insert_all(records)
        dataset.flush_all()
        manager = environment.buffer_cache.file_manager
        torn = dataset.partitions[0].index.components[0].secondary_trees["by_ts"].file_name
        manager.delete_file(torn)
        manager.create_file(torn)
        revived = Dataset.create("apaths", StorageFormat.INFERRED, environment=environment)
        revived.create_index("by_ts", "ts")
        revived.create_index("by_payload", "payload")
        for part in revived.partitions:
            part.recover()
        payloads = 'SELECT VALUE t.id FROM apaths AS t WHERE t.payload >= "p1" AND t.payload <= "p3"'
        for text, index_name, expected in (
                (_range_query(100, 400), "by_ts", list(range(10, 41))),
                (payloads, "by_payload",
                 sorted(record["id"] for record in records if "p1" <= record["payload"] <= "p3"))):
            via_index, result = _rows(revived, text, "index")
            assert result.stats.index_name == index_name
            assert via_index == expected == _rows(revived, text, "scan")[0]

        # A live component without a tree for a registered index is a broken
        # invariant, not something a probe may skip.
        index = revived.partitions[0].index
        index.components[-1].drop_secondary_index("by_payload")
        with pytest.raises(ComponentStateError):
            index.secondary_candidate_keys("by_payload", None, None)

    def test_merge_refuses_an_input_without_an_index_tree(self):
        # A merge derives its index trees from its inputs' trees; a missing
        # one is a broken invariant, not a reason to rebuild from records.
        dataset = Dataset.create("gaps", StorageFormat.OPEN,
                                 lsm=LSMConfig(merge_policy="none", background_maintenance=False))
        dataset.create_index("by_v", "v")
        for start in (0, 10):
            dataset.insert_all({"id": i, "v": i} for i in range(start, start + 10))
            dataset.flush_all()
        index = dataset.partitions[0].index
        inputs = list(index.components)
        inputs[-1].drop_secondary_index("by_v")
        with pytest.raises(ComponentStateError, match="no tree for index 'by_v'"):
            index.merge(inputs)
        assert index.components == inputs

    def test_index_created_after_data_backfills(self):
        dataset = _build(StorageFormat.OPEN, index=False)
        dataset.flush_all()
        dataset.create_index("by_ts", "ts")             # backfill over existing components
        text = _range_query(1000, 1030)
        via_index, result = _rows(dataset, text, "index")
        via_scan, _ = _rows(dataset, text, "scan")
        assert result.stats.index_name == "by_ts"
        assert via_index == via_scan == list(range(11))


# ---------------------------------------------------------------------------
# EXPLAIN: the rendered plan names the winning access path and flips
# ---------------------------------------------------------------------------

class TestExplain:
    def test_low_selectivity_names_index_probe(self):
        dataset = _build(StorageFormat.INFERRED, device=DeviceKind.SATA_SSD)
        plan = dataset.explain(_range_query(1000, 1003))
        assert "IndexProbe(index=by_ts, field=ts" in plan
        assert "residual filter" in plan
        assert "estimated selectivity" in plan

    def test_high_selectivity_names_full_scan(self):
        dataset = _build(StorageFormat.INFERRED, device=DeviceKind.SATA_SSD)
        plan = dataset.explain(_range_query(1000, 1000 + 3 * RECORD_COUNT))
        assert "FullScan" in plan
        assert "IndexProbe(index=" not in plan

    def test_flips_exactly_once_as_selectivity_grows(self):
        dataset = _build(StorageFormat.INFERRED, device=DeviceKind.SATA_SSD)
        choices = []
        for width in range(0, 3 * RECORD_COUNT + 1, 30):
            plan = dataset.explain(_range_query(1000, 1000 + width))
            choices.append("IndexProbe" if "IndexProbe(index=" in plan else "FullScan")
        assert choices[0] == "IndexProbe"
        assert choices[-1] == "FullScan"
        flips = sum(1 for before, after in zip(choices, choices[1:]) if before != after)
        assert flips == 1  # monotone: once the scan wins, it keeps winning

    def test_forced_paths_render_as_forced(self):
        dataset = _build(StorageFormat.INFERRED, device=DeviceKind.SATA_SSD)
        narrow = _range_query(1000, 1003)
        assert "FullScan(forced)" in dataset.explain(narrow, access_path="scan")
        forced = dataset.explain(_range_query(1000, 4000), access_path="index")
        assert "IndexProbe(index=by_ts" in forced and "forced" in forced

    def test_analyze_renders_the_access_path_its_run_chose(self, monkeypatch):
        # A costing after the run (say, after a concurrent flush) may
        # disagree with the run: ANALYZE shows the path that ran.
        dataset = _build(StorageFormat.INFERRED, device=DeviceKind.SATA_SSD)
        narrow = _range_query(1000, 1003)
        monkeypatch.setattr(importlib.import_module("repro.query.explain"), "choose_access_path",
                            lambda spec, ds, force: AccessPathChoice(FullScan("re-costed")))
        assert "FullScan(re-costed)" in dataset.explain(narrow)
        analyzed = dataset.explain(narrow, analyze=True)
        assert "access path: IndexProbe(index=by_ts" in analyzed and "FullScan" not in analyzed

    def test_no_usable_index_reports_why(self):
        dataset = _build(StorageFormat.INFERRED)
        plan = dataset.explain("SELECT VALUE t.id FROM apaths AS t WHERE t.name = 'user3'")
        assert "FullScan(no indexed predicate" in plan
        plan = dataset.explain("SELECT VALUE t.id FROM apaths AS t")
        assert "FullScan(no WHERE clause)" in plan


# ---------------------------------------------------------------------------
# hostile-typed data: incomparable bounds, mixed-type fields
# ---------------------------------------------------------------------------

class TestTypeEdgeCases:
    def test_incomparable_bound_keeps_parity(self):
        # A numeric predicate over a string-valued index must not crash the
        # probe path; both paths agree the predicate is never true.
        dataset = Dataset.create("strs", StorageFormat.OPEN)
        dataset.create_index("by_ts", "ts")
        dataset.insert_all({"id": i, "ts": f"s{i}"} for i in range(50))
        dataset.flush_all()
        numeric = "SELECT VALUE t.id FROM strs AS t WHERE t.ts >= 5"
        assert dataset.query(numeric, access_path="index").rows == []
        assert dataset.query(numeric, access_path="scan").rows == []
        stringy = "SELECT VALUE t.id FROM strs AS t WHERE t.ts >= 's48'"
        via_index = sorted(r["value"] for r in dataset.query(stringy, access_path="index").rows)
        via_scan = sorted(r["value"] for r in dataset.query(stringy, access_path="scan").rows)
        assert via_index == via_scan == [5, 6, 7, 8, 9, 48, 49]  # lexicographic order

    def test_failed_backfill_leaves_no_half_built_index(self, isolated_injector):
        # A write fault in the second component the backfill reaches: CREATE
        # INDEX must fail atomically — no registered index, no orphan .ix
        # files — and succeed, mixed-type values and all, once retried.
        dataset = Dataset.create("mixed", StorageFormat.OPEN)
        dataset.insert_all([{"id": 1, "ts": 5}, {"id": 2, "ts": "five"}])
        dataset.flush_all()
        dataset.insert_all([{"id": 3, "ts": 6}])
        dataset.flush_all()
        # A one-leaf tree is three page writes: leaf, metadata, footer.
        isolated_injector.add_rule("file.write_page", nth=4, times=1)
        with pytest.raises(TransientIOError):
            dataset.create_index("by_ts", "ts")
        assert isolated_injector.hit_counts()["file.write_page"] == 4
        assert dataset.list_secondary_indexes() == []
        files = dataset.environments[0].file_manager.list_files()
        assert not any(".ix." in name for name in files)
        rows = dataset.query("SELECT VALUE t.id FROM mixed AS t WHERE t.ts = 5").rows
        assert [row["value"] for row in rows] == [1]
        isolated_injector.clear()
        dataset.create_index("by_ts", "ts")
        for predicate, expected in (("t.ts = 5", [1]), ("t.ts >= 0", [1, 3]),
                                    ("t.ts >= 'a'", [2])):
            text = f"SELECT VALUE t.id FROM mixed AS t WHERE {predicate}"
            via_index, result = _rows(dataset, text, "index")
            assert result.stats.access_path == "IndexProbe"
            assert via_index == _rows(dataset, text, "scan")[0] == expected

    @pytest.mark.parametrize("storage_format", (StorageFormat.OPEN, StorageFormat.INFERRED),
                             ids=["open", "inferred"])
    def test_boolean_and_nan_values_do_not_wedge_flushes(self, storage_format):
        # A boolean is indexed as its int and NaN not at all: flushes keep
        # working and the probe still returns what the scan returns.
        dataset = Dataset.create("flags", storage_format)
        dataset.create_index("ix", "v")
        dataset.insert_all([{"id": 0, "v": 0}, {"id": 1, "v": 1}, {"id": 3, "v": 5}])
        dataset.flush_all()
        dataset.insert_all([{"id": 2, "v": True}, {"id": 4, "v": float("nan")},
                            {"id": 5, "v": False}, {"id": 6, "v": 1.0}])
        dataset.flush_all()
        for predicate in ("t.v = true", "t.v = 1", "t.v >= 0", "t.v <= 10"):
            text = f"SELECT VALUE t.id FROM flags AS t WHERE {predicate}"
            via_index, index_result = _rows(dataset, text, "index")
            via_scan, _ = _rows(dataset, text, "scan")
            assert index_result.stats.access_path == "IndexProbe"
            assert via_index == via_scan, predicate
        assert _rows(dataset, "SELECT VALUE t.id FROM flags AS t WHERE t.v = 1", "index")[0] \
            == [1, 2, 6]
        dataset.insert_all([{"id": 7, "v": True}])
        dataset.flush_all()
        assert dataset.index_statistics("ix").count == 7  # NaN is the one not indexed

    @pytest.mark.parametrize("storage_format", (StorageFormat.OPEN, StorageFormat.INFERRED),
                             ids=["open", "inferred"])
    def test_int_and_string_in_one_indexed_field_do_not_wedge_flushes(self, storage_format):
        # Index keys rank by type first: an int, a string and a date in one
        # field share one key order, so every flush after them still
        # succeeds, and so does the flush that ends a recovery.
        environment = StorageEnvironment()
        dataset = Dataset.create("wedge", storage_format, environment=environment)
        dataset.create_index("ix", "v")
        dataset.insert_all([{"id": 1, "v": 5}, {"id": 2, "v": "five"}, {"id": 6, "v": ADate(9)}])
        dataset.flush_all()
        dataset.insert_all([{"id": 3, "v": 6}])
        dataset.flush_all()
        assert dataset.partitions[0].index.memory_component.is_empty
        assert dataset.index_statistics("ix").count == 4
        dataset.insert_all([{"id": 4, "v": "abc"}, {"id": 5, "v": 0}])  # left to the WAL
        revived = Dataset.create("wedge", storage_format, environment=environment)
        revived.create_index("ix", "v")
        for partition in revived.partitions:
            assert partition.recover().index.memory_component.is_empty
        for predicate, expected in (("t.v >= 0", [1, 3, 5]), ("t.v >= 'a'", [2, 4])):
            text = f"SELECT VALUE t.id FROM wedge AS t WHERE {predicate}"
            via_index, result = _rows(revived, text, "index")
            assert result.stats.access_path == "IndexProbe"
            assert via_index == _rows(revived, text, "scan")[0] == expected

    @pytest.mark.parametrize("storage_format", (StorageFormat.OPEN, StorageFormat.INFERRED),
                             ids=["open", "inferred"])
    def test_temporal_literals_probe_in_the_evaluators_order(self, storage_format):
        # No SQL++ literal is a datetime, but a built query can hold one.  A
        # datetime is keyed by its millisecond count, the order the evaluator
        # compares in (as text, 'datetime(1000)' sorts below 'datetime(20)').
        # A point has no such order: it is not indexed and its literal scans.
        dataset = Dataset.create("temporal", storage_format)
        dataset.create_index("ix", "ts")
        dataset.insert_all([{"id": 1, "ts": ADateTime(1000)}, {"id": 2, "ts": ADateTime(20)},
                            {"id": 3, "ts": ADateTime(999)}, {"id": 4, "ts": ATime(5)},
                            {"id": 5, "ts": ADate(10 ** 7)}, {"id": 6, "ts": APoint(1.0, 2.0)},
                            {"id": 7, "ts": 20}])
        cases = ((">=", ADateTime(20), [1, 2, 3]), ("<", ADateTime(1000), [2, 3]),
                 ("=", ATime(5), [4]), (">", ADate(0), [5]), ("=", APoint(1.0, 2.0), [6]))

        def ids(op, literal, access_path):
            spec = (scan("t").where(Comparison(op, field("t", "ts"), lit(literal)))
                    .select(("id", field("t", "id"))).build())
            result = QueryExecutor(access_path=access_path).execute(dataset, spec)
            return sorted(row["id"] for row in result.rows), result.stats.access_path

        for step in ("memtable", "flush"):
            if step == "flush":
                dataset.flush_all()  # an out-of-range date has no text, and needs none
            for op, literal, expected in cases:
                via_index, path = ids(op, literal, "index")
                expected_path = "FullScan" if isinstance(literal, APoint) else "IndexProbe"
                assert path == expected_path, (step, literal)
                assert via_index == ids(op, literal, "scan")[0] == expected, (step, literal)
        assert dataset.index_statistics("ix").count == 6  # all but the point
        ordered = dataset.query("SELECT VALUE t.id FROM temporal AS t WHERE t.id <= 3 "
                                "ORDER BY t.ts").rows
        assert [row["value"] for row in ordered] == [2, 3, 1]

    def test_merge_does_not_double_count_statistics(self):
        dataset = Dataset.create("stats", StorageFormat.OPEN)
        dataset.create_index("by_v", "v")
        dataset.insert_all({"id": i, "v": i} for i in range(60))
        dataset.flush_all()
        dataset.insert_all({"id": 100 + i, "v": 100 + i} for i in range(60))
        dataset.flush_all()
        assert dataset.index_statistics("by_v").count == 120
        partition = dataset.partitions[0]
        partition.index.merge(list(partition.index.components))
        statistics = dataset.index_statistics("by_v")
        assert statistics.count == 120
        assert (statistics.min_key, statistics.max_key) == ((RANK_NUMBER, 0), (RANK_NUMBER, 159))


# ---------------------------------------------------------------------------
# memtable candidates: only in-range in-memory versions, rows in key order
# ---------------------------------------------------------------------------

def _seal(dataset):
    """Seal every partition's mutable memtable and leave it unflushed."""
    for partition in dataset.partitions:
        index = partition.index
        with index._rotation_cond:
            index._seal()


def _same_rows(dataset, predicate):
    """The ids the probe returns for ``predicate``, asserted equal, in
    order, to the scan's."""
    text = f"SELECT VALUE t.id FROM mem AS t WHERE {predicate}"
    via_index = dataset.query(text, access_path="index")
    via_scan = dataset.query(text, access_path="scan")
    assert via_index.stats.access_path == "IndexProbe"
    assert via_index.rows == via_scan.rows, predicate
    return [row["value"] for row in via_index.rows]


@pytest.mark.parametrize("storage_format", (StorageFormat.OPEN, StorageFormat.INFERRED),
                         ids=["open", "inferred"])
class TestMemtableCandidates:
    def test_memtable_version_left_the_range_its_flushed_entry_did_not(self, storage_format):
        dataset = Dataset.create("mem", storage_format)
        dataset.create_index("ix", "v")
        dataset.insert_all([{"id": 1, "v": 5}, {"id": 2, "v": 6}])
        dataset.flush_all()
        dataset.upsert({"id": 1, "v": 50})
        assert _same_rows(dataset, "t.v >= 0 AND t.v <= 10") == [2]
        assert _same_rows(dataset, "t.v >= 40") == [1]

    def test_in_range_when_sealed_deleted_or_moved_in_the_mutable_memtable(self, storage_format):
        dataset = Dataset.create("mem", storage_format)
        dataset.create_index("ix", "v")
        dataset.insert_all({"id": i, "v": i} for i in range(5))
        _seal(dataset)
        dataset.delete(2)
        dataset.upsert({"id": 3, "v": 99})
        assert dataset.partitions[0].index.sealed_memtables
        assert _same_rows(dataset, "t.v >= 0 AND t.v <= 10") == [0, 1, 4]
        assert _same_rows(dataset, "t.v > 10") == [3]

    def test_int_and_string_in_one_indexed_field_in_the_memtable(self, storage_format):
        # A bound probes the keys of its own rank: the same rows in the
        # memtable, after a flush and after a merge.
        dataset = Dataset.create("mem", storage_format)
        dataset.create_index("ix", "v")
        dataset.insert_all([{"id": 1, "v": 5}, {"id": 2, "v": "five"}, {"id": 3, "v": 7}])
        for step in ("memtable", "flush", "merge"):
            if step == "flush":
                dataset.flush_all()
            elif step == "merge":
                dataset.upsert({"id": 3, "v": 7})  # a second component to merge
                dataset.flush_all()
                index = dataset.partitions[0].index
                index.merge(list(index.components))
                assert len(index.components) == 1
            assert _same_rows(dataset, "t.v >= 0") == [1, 3], step
            assert _same_rows(dataset, "t.v < 6") == [1], step
            assert _same_rows(dataset, "t.v = 'five'") == [2], step
            assert _same_rows(dataset, "t.v >= 'a'") == [2], step

    def test_create_index_over_a_mutable_and_a_sealed_memtable(self, storage_format):
        dataset = Dataset.create("mem", storage_format)
        dataset.insert_all({"id": i, "v": i} for i in range(5))
        _seal(dataset)
        dataset.insert_all({"id": i, "v": i} for i in range(5, 10))
        dataset.upsert({"id": 1, "v": 100})
        dataset.create_index("ix", "v")
        assert dataset.partitions[0].index.sealed_memtables
        assert _same_rows(dataset, "t.v <= 6") == [0, 2, 3, 4, 5, 6]
        dataset.flush_all()
        assert _same_rows(dataset, "t.v <= 6") == [0, 2, 3, 4, 5, 6]

    def test_rows_in_key_order_and_only_in_range_candidates(self, storage_format):
        # Flushed ids 0-2 and an unflushed id 10 hold v = 5; ids 3-5 and
        # 11-12 hold v = 9.  The probe examines the four in-range
        # candidates only, none of the out-of-range memtable records, and
        # returns them in key order, as the scan does.
        dataset = Dataset.create("mem", storage_format)
        dataset.create_index("ix", "v")
        dataset.insert_all([{"id": i, "v": 5 if i < 3 else 9} for i in range(6)])
        dataset.flush_all()
        dataset.insert_all([{"id": 10, "v": 5}, {"id": 11, "v": 9}, {"id": 12, "v": 9}])
        assert _same_rows(dataset, "t.v = 5") == [0, 1, 2, 10]
        result = dataset.query("SELECT VALUE t.id FROM mem AS t WHERE t.v = 5",
                               access_path="index")
        assert result.stats.records_scanned == 4


def test_concurrent_probes_fill_one_memtable_cache():
    # Six threads on two cores probe two indexes over memtable entries none
    # of which has cached a value yet, switching threads every microsecond:
    # a cache one probe replaces under another loses a value, never a row.
    dataset = Dataset.create("mem", StorageFormat.INFERRED)
    dataset.create_index("by_v", "v")
    dataset.create_index("by_w", "w")
    dataset.insert_all({"id": i, "v": i % 50, "w": i % 7} for i in range(600))
    index = dataset.partitions[0].index
    expected = {"by_v": sorted(i for i in range(600) if 10 <= i % 50 <= 12),
                "by_w": sorted(i for i in range(600) if i % 7 == 3)}
    bounds = {"by_v": (10, 12), "by_w": (3, 3)}
    seen = []

    def probe(name):
        low, high = bounds[name]
        for _ in range(5):
            seen.append((name, [result.key for result in index.probe(name, low, high)]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=probe, args=(name,))
                   for name in ("by_v", "by_w") * 3]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(seen) == 30
    assert all(keys == expected[name] for name, keys in seen)


# ---------------------------------------------------------------------------
# merged index trees: derived from the inputs' trees, byte-equal to a rebuild
# ---------------------------------------------------------------------------

_ABSENT = object()
#: What the indexed fields hold: ints, a float, booleans (indexed as ints),
#: and values never indexed — NaN, null, a missing field, an object.
_INDEXED_VALUES = (3, 7.5, True, float("nan"), None, _ABSENT, {"o": 1}, -2, 11, False, 0, 42)


def _versioned(key, turn):
    """Record ``key`` as written at ``turn``: each turn moves both indexed values."""
    value = _INDEXED_VALUES[(key + turn) % len(_INDEXED_VALUES)]
    score = _INDEXED_VALUES[(5 * key + turn) % len(_INDEXED_VALUES)]
    record = {"id": key, "name": f"n{key % 4}"}
    if value is not _ABSENT:
        record["v"] = value
    if score is not _ABSENT:
        record["nested"] = {"score": score} if key % 6 else score  # a scalar has no .score
    return record


@pytest.fixture
def extractor_calls(monkeypatch):
    """Calls of each secondary index's extractor, by index name."""
    from repro.core import partition as partition_module
    from repro.lsm import SecondaryIndexDef

    calls = {}

    def counting_definition(name, extractor, **fields):
        def counted(payload, schema):
            calls[name] = calls.get(name, 0) + 1
            return extractor(payload, schema)
        return SecondaryIndexDef(name=name, extractor=counted, **fields)

    monkeypatch.setattr(partition_module, "SecondaryIndexDef", counting_definition)
    return calls


@pytest.mark.parametrize("storage_format", list(StorageFormat), ids=[f.value for f in StorageFormat])
def test_merged_index_trees_equal_a_rebuild(storage_format, extractor_calls):
    """A merge writes its ``.ix.<name>`` trees without calling an
    extractor, and every page equals what recovery rebuilds from the merged
    primary tree; a flush calls each extractor once per live record it
    writes, a CREATE INDEX backfill once per stored record."""
    environment = StorageEnvironment(StorageConfig(page_size=1024, buffer_cache_pages=256))
    lsm = LSMConfig(merge_policy="none", background_maintenance=False)
    datatype = None
    if storage_format is StorageFormat.CLOSED:
        datatype = Datatype.from_records("MergeType", [{"id": 0, "name": "n"}], is_open=True,
                                         primary_key="id")
    indexes = (("by_v", "v"), ("by_score", "nested.score"))

    def open_dataset(registered):
        dataset = Dataset.create("merged", storage_format, environment=environment, lsm=lsm,
                                 datatype=datatype)
        for name, path in indexes[:registered]:
            dataset.create_index(name, path)
        return dataset

    dataset = open_dataset(1)
    manager = environment.buffer_cache.file_manager
    live = {}

    def flush(writes):
        """Apply ``(key, turn)`` writes — turn None deletes — then flush and
        check each registered index's extractor ran once per live entry."""
        memtable = {}
        for key, turn in writes:
            if turn is None:
                dataset.delete(key)
                live.pop(key)
            else:
                (dataset.upsert if key in live else dataset.insert)(_versioned(key, turn))
                live[key] = turn
            memtable[key] = turn is not None
        extractor_calls.clear()
        dataset.flush_all()
        registered = [name for name, _ in dataset.list_secondary_indexes()]
        assert extractor_calls == {name: sum(memtable.values()) for name in registered}

    def pages_of(component):
        names = [tree.file_name for tree in component.secondary_trees.values()]
        return {name: [manager.read_page(name, page) for page in range(manager.num_pages(name))]
                for name in names}

    def merge_and_check(count):
        nonlocal dataset
        index = dataset.partitions[0].index
        extractor_calls.clear()
        merged = index.merge(index.components[:count])
        assert extractor_calls == {}
        written = pages_of(merged)
        assert len(written) == 2 and all(written.values())
        for name in written:
            manager.delete_file(name)
        environment.buffer_cache.clear()
        dataset = open_dataset(2)
        dataset.partitions[0].recover()
        assert pages_of(dataset.partitions[0].index.components[0]) == written
        for name, path in indexes:
            text = f"SELECT VALUE t.id FROM merged AS t WHERE t.{path} >= 0"
            assert _rows(dataset, text, "index")[0] == _rows(dataset, text, "scan")[0]
        return merged

    flush([(key, 0) for key in range(48)])
    flush([(key, 1) for key in range(16)] + [(key, None) for key in range(16, 24)]
          + [(key, 1) for key in range(48, 64)])
    extractor_calls.clear()
    dataset.create_index(*indexes[1])
    stored = sum(component.record_count for component in dataset.partitions[0].index.components)
    assert extractor_calls == {"by_score": stored}
    flush([(key, 2) for key in range(16, 20)] + [(key, 2) for key in range(8, 12)]
          + [(key, None) for key in range(48, 52)] + [(key, None) for key in range(4)])
    flush([(key, 3) for key in range(2)] + [(key, None) for key in range(30, 34)]
          + [(key, 3) for key in range(52, 56)] + [(2, 4), (2, None), (2, 5)])

    kept = merge_and_check(2)  # the newest two: anti-matter must keep shadowing
    assert kept.metadata.antimatter_count > 0
    dropped = merge_and_check(3)  # everything: anti-matter is dropped
    assert dropped.metadata.antimatter_count == 0
    assert sorted(record["id"] for record in dataset.scan()) == sorted(live)


# ---------------------------------------------------------------------------
# CREATE INDEX surface + statistics plumbing
# ---------------------------------------------------------------------------

class TestCreateIndexSurface:
    def test_create_index_via_sqlpp_text(self):
        dataset = _build(StorageFormat.OPEN, index=False)
        result = dataset.query("CREATE INDEX by_score ON apaths (nested.score)")
        assert result.rows == []
        assert ("by_score", ("nested", "score")) in dataset.list_secondary_indexes()
        text = "SELECT VALUE t.id FROM apaths AS t WHERE t.nested.score >= 90 AND t.nested.score <= 96"
        via_index, probe = _rows(dataset, text, "index")
        via_scan, _ = _rows(dataset, text, "scan")
        assert probe.stats.index_name == "by_score"
        assert via_index == via_scan

    def test_compile_returns_create_index_statement(self):
        compiled = compile_sqlpp("CREATE INDEX by_ts ON Tweets (timestamp_ms);")
        assert isinstance(compiled, CompiledCreateIndex)
        assert compiled.index_name == "by_ts"
        assert compiled.dataset == "Tweets"
        assert compiled.field_path == ("timestamp_ms",)

    def test_malformed_create_index_raises_positioned_error(self):
        with pytest.raises(SqlppError) as excinfo:
            compile_sqlpp("CREATE INDEX ON Tweets (ts)")
        assert excinfo.value.line == 1

    def test_statistics_feed_the_cost_model(self):
        dataset = _build(StorageFormat.OPEN, device=DeviceKind.SATA_SSD)
        statistics = dataset.index_statistics("by_ts")
        assert isinstance(statistics, FieldStatistics)
        assert statistics.count == RECORD_COUNT
        assert statistics.min_key == (RANK_NUMBER, 1000)
        narrow = compile_sqlpp(_range_query(1000, 1003)).spec
        choice = choose_access_path(narrow, dataset)
        assert choice.uses_index
        assert choice.estimated_selectivity < 0.02
        wide = compile_sqlpp(_range_query(None, None)).spec
        choice = choose_access_path(wide, dataset)
        assert not choice.uses_index
