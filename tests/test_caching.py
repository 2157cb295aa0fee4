"""Plan cache, prepared statements, and the decoded column-slice cache.

The contract pinned down here (PR 10):

* repeated ``Dataset.query(text)`` calls reuse the compiled physical plan
  (``stats.plan_source == "cache"``) and return rows identical to a cold
  compile; ``Dataset.prepare`` pins a plan without the shared cache;
* any event that can change optimizer inputs — ``CREATE INDEX``, flush,
  merge, bulk load, ``invalidate_plans`` — moves the reuse epoch, so stale
  plans stop matching instead of being served;
* warm scans served by the column-slice cache are row-identical to cold
  ones, and memtable rows are always re-read, so unflushed updates are never
  hidden by the cache (``tests/test_model.py`` holds warm and cold rows to
  the reference model across random lifecycle interleavings);
* a quarantined component's cached slices are evicted and queries re-raise
  ``QuarantinedComponentError`` — a poisoned cache can never serve rows
  the storage layer refuses to, nor can a dataset re-created under the same
  name be served the old component files' slices;
* cached chunks travel by reference and a plan that read them returns its
  result as a copy, so mutating a result never reaches the cache (or a
  memtable record);
* ``cache.lookup``/``cache.store`` faults degrade to misses/skipped
  stores: identical rows, never an error surfaced to the query;
* both caches built with a capacity of 0 disable their layer entirely.
"""

import pytest

from repro import Dataset, StorageFormat
from repro.cache import (
    ColumnSliceCache,
    PlanCache,
    SliceChunk,
    SliceScanStats,
    cached_component_scan,
)
from repro.cache.column_cache import paths_cache_key
from repro.core import PreparedStatement, StorageEnvironment
from repro.datasets import wos  # noqa: F401  -- registers to_array
from repro.errors import DatasetError, QuarantinedComponentError, SqlppError
from repro.faults import get_injector
from repro.obs import MetricsRegistry
from repro.sqlpp import compile as compile_sqlpp
from repro.types import AMultiset

from reference import partition_records, reference_rows


#: Each test starts from an empty global injector (see ``tests/conftest.py``).
pytestmark = pytest.mark.usefixtures("isolated_injector")


def _records(rows=60):
    return [{"id": key, "name": f"user{key}", "age": key % 45, "city": f"c{key % 7}"}
            for key in range(rows)]


def _dataset(name, rows=60, partitions=1, **overrides):
    dataset = Dataset.create(name, StorageFormat.INFERRED, partitions=partitions,
                             **overrides)
    dataset.insert_all(_records(rows))
    dataset.flush_all()
    return dataset


QUERY = "SELECT d.name AS name FROM Ds AS d WHERE d.age < 20"


def _rows(result):
    return sorted(row["name"] for row in result.rows)


def _reference_names(records):
    """QUERY's answer over ``records`` by the tests' reference model."""
    rows = reference_rows(compile_sqlpp(QUERY).spec, partition_records(records))
    return sorted(row["name"] for row in rows)


# ---------------------------------------------------------------------------
# plan cache: unit behavior
# ---------------------------------------------------------------------------

class TestPlanCacheUnit:
    def test_lru_bounds_and_eviction_order(self):
        registry = MetricsRegistry()
        cache = PlanCache(capacity=2, metrics=registry)
        cache.put("a", "plan-a")
        cache.put("b", "plan-b")
        assert cache.get("a") == "plan-a"  # refreshes "a"
        cache.put("c", "plan-c")           # evicts "b", the LRU entry
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") == "plan-a"
        assert cache.get("c") == "plan-c"
        assert registry.counter("plan_cache_evictions").value == 1
        assert registry.gauge("plan_cache_entries").value == 2

    def test_a_newer_epoch_evicts_every_older_entry(self):
        # Epochs only move forward: an entry of an older one can never match.
        registry = MetricsRegistry()
        cache = PlanCache(capacity=4, metrics=registry)
        cache.put(("a", 1), "plan-a", epoch=1)
        cache.put(("b", 1), "plan-b", epoch=1)
        cache.retire(1)  # the current epoch: every entry stays
        assert len(cache) == 2
        cache.put(("a", 2), "plan-a2", epoch=2)
        assert len(cache) == 1 and cache.get(("b", 1)) is None
        assert cache.get(("a", 2)) == "plan-a2"
        cache.retire(3)
        assert len(cache) == 0
        assert registry.counter("plan_cache_evictions").value == 3
        assert registry.gauge("plan_cache_entries").value == 0

    def test_zero_capacity_disables(self):
        cache = PlanCache(capacity=0, metrics=MetricsRegistry())
        assert not cache.enabled
        cache.put("a", "plan-a")
        assert cache.get("a") is None
        assert len(cache) == 0


# ---------------------------------------------------------------------------
# plan cache: the key is the statement's lexemes
# ---------------------------------------------------------------------------

class TestPlanKey:
    """Two texts share a plan exactly when their tokens' source texts are
    equal: layout and comments never matter, a literal's spelling always."""

    @staticmethod
    def _sources(dataset, *texts):
        return [dataset.query(text).stats.plan_source for text in texts]

    def test_reformatted_copies_share_a_plan(self):
        dataset = _dataset("Ds")
        assert self._sources(
            dataset,
            "SELECT d.name AS name FROM Ds AS d WHERE d.age < 20",
            "SELECT  d.name AS name\n FROM\tDs AS d\r\n WHERE d.age<20 ",
            "\n\tSELECT d . name AS name FROM Ds AS d WHERE d.age <\n20",
        ) == ["compiled", "cache", "cache"]

    def test_copies_with_comments_share_a_plan(self):
        dataset = _dataset("Ds")
        assert self._sources(
            dataset,
            "SELECT d.name AS name FROM Ds AS d WHERE d.age < 20",
            "SELECT d.name AS name -- trailing\nFROM Ds AS d WHERE d.age < 20 -- end",
            "/* lead */SELECT/* c */d.name AS name FROM Ds AS d WHERE d.age < 20/**/",
        ) == ["compiled", "cache", "cache"]

    def test_a_literal_is_keyed_as_written(self):
        # Whitespace, tabs and comment markers inside a quoted literal are
        # part of the bound constant: sharing a plan would return wrong rows.
        dataset = _dataset("Ds")
        texts = ["SELECT VALUE d.id FROM Ds AS d WHERE d.name = 'x  y'",
                 "SELECT VALUE d.id FROM Ds AS d WHERE d.name = 'x y'",
                 "SELECT VALUE d.id FROM Ds AS d WHERE d.name = 'x\ty'",
                 "SELECT VALUE d.id FROM Ds AS d WHERE d.name = '--x y'",
                 "SELECT VALUE d.id FROM Ds AS d WHERE d.name = '/* x y */'",
                 "SELECT VALUE d.id FROM Ds AS d WHERE d.name = 'x y  '"]
        assert self._sources(dataset, *texts) == ["compiled"] * len(texts)
        assert self._sources(dataset, *texts) == ["cache"] * len(texts)

    def test_escaped_quotes_are_keyed_as_written(self):
        # An escaped quote does not end its literal, so what follows it is
        # still the literal's; and two spellings of one value are two keys.
        dataset = _dataset("Ds")
        texts = ["SELECT VALUE d.id FROM Ds AS d WHERE d.name = 'don\\'t  stop'",
                 "SELECT VALUE d.id FROM Ds AS d WHERE d.name = 'don\\'t stop'",
                 'SELECT VALUE d.id FROM Ds AS d WHERE d.name = "don\'t stop"',
                 'SELECT VALUE d.id FROM Ds AS d WHERE d.name = "a \\" b"',
                 'SELECT VALUE d.id FROM Ds AS d WHERE d.name = "a \\"  b"']
        assert self._sources(dataset, *texts) == ["compiled"] * len(texts)
        assert self._sources(dataset, texts[0], texts[3]) == ["cache", "cache"]

    def test_keyword_spelling_is_part_of_the_key(self):
        dataset = _dataset("Ds")
        assert self._sources(dataset,
                             "SELECT VALUE d.name FROM Ds AS d WHERE d.age < 2",
                             "select value d.name from Ds as d where d.age < 2",
                             "SELECT VALUE d.name FROM Ds AS d WHERE d.age < 2",
                             ) == ["compiled", "compiled", "cache"]

    def test_a_text_the_lexer_refuses_never_runs_a_cached_plan(self):
        # The key of a text with an unterminated comment holds the comment,
        # so the cached plan of the text before it cannot match.
        dataset = _dataset("Ds")
        text = "SELECT VALUE d.id FROM Ds AS d"
        assert self._sources(dataset, text, text) == ["compiled", "cache"]
        for broken in (text + " /* never closed", text + " 'never closed",
                       text + " WHERE d.name = 'a\\q'", text + " @"):
            with pytest.raises(SqlppError) as raised:
                dataset.query(broken)
            with pytest.raises(SqlppError) as fresh:
                _dataset("Ds").query(broken)
            assert (raised.value.line, raised.value.column, str(raised.value)) == \
                (fresh.value.line, fresh.value.column, str(fresh.value))


# ---------------------------------------------------------------------------
# column-slice cache: unit behavior
# ---------------------------------------------------------------------------

def _chunk(keys, values, last=False, encoded_bytes=0):
    """A one-column chunk of live rows."""
    return SliceChunk(list(keys), [], [list(values)], encoded_bytes, last=last)


class TestColumnCacheUnit:
    def test_store_get_roundtrip_and_accounting(self):
        cache = ColumnSliceCache(capacity_bytes=1 << 20, metrics=MetricsRegistry())
        pkey = paths_cache_key((("user", "name"),))
        values = ["v%d" % k for k in range(4)]
        cache.store_chunk("comp_1", pkey, 0, _chunk(range(4), values, last=True))
        chunk = cache.get_chunk("comp_1", pkey, 0)
        assert chunk is not None and chunk.keys == [0, 1, 2, 3] and chunk.last
        assert chunk.columns == [values]
        assert cache.bytes_used > 0
        assert cache.entry_count("comp_1") == 1
        assert cache.get_chunk("comp_1", pkey, 1) is None

    def test_byte_budget_evicts_lru(self):
        registry = MetricsRegistry()
        cache = ColumnSliceCache(capacity_bytes=700, metrics=registry)
        pkey = paths_cache_key((("name",),))
        for index in range(6):
            cache.store_chunk("comp_1", pkey, index,
                              _chunk([index], ["x" * 50], encoded_bytes=50))
        assert cache.bytes_used <= 700
        assert cache.entry_count() < 6
        assert registry.counter("column_cache_evictions").value > 0
        # Oldest chunks went first.
        assert cache.get_chunk("comp_1", pkey, 0) is None

    def test_chunk_size_counts_encoded_bytes(self):
        small = _chunk([0, 1], ["a", "b"], encoded_bytes=10)
        large = _chunk([0, 1], ["a", "b"], encoded_bytes=510)
        assert large.nbytes - small.nbytes == 500
        filling = SliceChunk.empty(1)
        filling.extend(small)
        filling.extend(SliceChunk([2, 3], [1], [["c", None]], 510))
        assert filling.nbytes == small.nbytes + large.nbytes - SliceChunk.empty(1).nbytes
        assert (filling.keys, filling.antimatter, filling.columns) == (
            [0, 1, 2, 3], [3], [["a", "b", "c", None]])

    def test_oversized_chunk_is_not_cached(self):
        cache = ColumnSliceCache(capacity_bytes=64, metrics=MetricsRegistry())
        pkey = paths_cache_key((("name",),))
        cache.store_chunk("comp_1", pkey, 0, _chunk([0], ["y" * 500], last=True, encoded_bytes=500))
        assert cache.entry_count() == 0 and cache.bytes_used == 0

    def test_invalidate_component_drops_only_its_chunks(self):
        cache = ColumnSliceCache(capacity_bytes=1 << 20, metrics=MetricsRegistry())
        pkey = paths_cache_key((("name",),))
        cache.store_chunk("comp_1", pkey, 0, _chunk([0], ["a"], last=True))
        cache.store_chunk("comp_2", pkey, 0, _chunk([0], ["b"], last=True))
        cache.invalidate_component("comp_1")
        assert cache.entry_count("comp_1") == 0
        assert cache.get_chunk("comp_2", pkey, 0) is not None

    def test_zero_budget_disables(self):
        cache = ColumnSliceCache(capacity_bytes=0, metrics=MetricsRegistry())
        assert not cache.enabled
        pkey = paths_cache_key((("name",),))
        cache.store_chunk("comp_1", pkey, 0, _chunk([0], ["a"], last=True))
        assert cache.get_chunk("comp_1", pkey, 0) is None

    @staticmethod
    def _fake_component(rows):
        """Minimal stand-in for an on-disk component: one leaf per row."""
        class Entry:
            def __init__(self, key, value, is_antimatter):
                self.key = key
                self.value = value
                self.is_antimatter = is_antimatter

        class Leaf:
            def __init__(self, row):
                self.keys = [row[0]]
                self.row = row

            def entries(self, start=0):
                return iter([Entry(*self.row)][start:])

        class Component:
            file_name = "comp_fake"
            schema = None

            def leaves(self):
                return iter(Leaf(row) for row in rows)

        return Component()

    class _IdentityExtractor:
        @staticmethod
        def extract(record):
            return (record,)

    def test_slice_stats_symmetric_with_antimatter(self):
        # Cold and warm scans of the same rows must report the same totals:
        # anti-matter rows count in *both* counters, so EXPLAIN ANALYZE's
        # hit-rate denominator matches across the two scan paths.
        cache = ColumnSliceCache(capacity_bytes=1 << 20,
                                 metrics=MetricsRegistry(), chunk_rows=2)
        component = self._fake_component(
            [(0, b"v0", False), (1, b"", True), (2, b"v2", False)])
        pkey = paths_cache_key((("v",),))
        cold = SliceScanStats()
        cold_runs = list(cached_component_scan(cache, component, lambda v: v,
                                               self._IdentityExtractor, pkey, cold))
        warm = SliceScanStats()
        warm_runs = list(cached_component_scan(cache, component, lambda v: v,
                                               self._IdentityExtractor, pkey, warm))
        assert (cold.hits, cold.misses) == (0, 3)
        assert (warm.hits, warm.misses) == (3, 0)
        # Cold: a run per leaf; warm: a chunk per two rows, anti-matter kept.
        assert [run.keys for run in cold_runs] == [[0], [1], [2]]
        assert [(run.keys, run.antimatter, run.columns) for run in warm_runs] == [
            ([0, 1], [1], [[b"v0", None]]), ([2], [], [[b"v2"]])]

    def test_a_missing_chunk_resumes_after_the_rows_served(self):
        cache = ColumnSliceCache(capacity_bytes=1 << 20,
                                 metrics=MetricsRegistry(), chunk_rows=2)
        component = self._fake_component([(key, b"v%d" % key, False) for key in range(5)])
        pkey = paths_cache_key((("v",),))
        list(cached_component_scan(cache, component, lambda v: v,
                                   self._IdentityExtractor, pkey))
        assert cache.entry_count() == 3  # rows 0-1, 2-3 and 4
        get_injector().add_rule("cache.lookup", nth=2, times=1)  # chunk 1 misses
        stats = SliceScanStats()
        runs = list(cached_component_scan(cache, component, lambda v: v,
                                          self._IdentityExtractor, pkey, stats))
        assert [(run.keys, run.columns) for run in runs] == [
            ([0, 1], [[b"v0", b"v1"]]), ([2], [[b"v2"]]), ([3], [[b"v3"]]), ([4], [[b"v4"]])]
        assert (stats.hits, stats.misses) == (2, 3)

    def test_warm_hit_hands_out_the_cached_chunk(self):
        """No copy on either side: the cold run's values are the cached ones,
        and a warm hit yields the cached chunk itself."""
        cache = ColumnSliceCache(capacity_bytes=1 << 20, metrics=MetricsRegistry())
        value = {"k": [1]}
        component = self._fake_component([(0, value, False)])
        pkey = paths_cache_key((("v",),))
        (cold,) = cached_component_scan(cache, component, lambda v: v,
                                        self._IdentityExtractor, pkey)
        (warm,) = cached_component_scan(cache, component, lambda v: v,
                                        self._IdentityExtractor, pkey)
        assert cold.columns[0][0] is value and warm.columns[0][0] is value
        assert warm is cache.get_chunk("comp_fake", pkey, 0)

    def test_query_rows_shielded_from_caller_mutation(self):
        """End to end: scribbling inside a multiset column of one result must
        not show up in the next run of the same statement, cold or warm."""
        dataset = Dataset.create("ShieldMs", storage_format=StorageFormat.INFERRED)
        dataset.insert({"id": 0, "ms": AMultiset([{"k": 0}])})
        dataset.flush_all()
        statement = "SELECT t.ms AS ms FROM ShieldMs AS t"
        for _ in range(3):  # the first run fills the cache, the others read it
            rows = dataset.query(statement).rows
            assert rows[0]["ms"].items[0]["k"] == 0
            rows[0]["ms"].items[0]["k"] = 999
        dataset.close()


# ---------------------------------------------------------------------------
# plan cache + prepared statements: end to end
# ---------------------------------------------------------------------------

class TestPlanCacheIntegration:
    def test_repeat_query_hits_and_rows_match(self):
        dataset = _dataset("PcRepeat")
        first = dataset.query(QUERY)
        second = dataset.query(QUERY)
        assert first.stats.plan_source == "compiled"
        assert second.stats.plan_source == "cache"
        assert _rows(first) == _rows(second)
        dataset.close()

    def test_whitespace_variants_share_one_entry(self):
        dataset = _dataset("PcWs")
        dataset.query(QUERY)
        variant = dataset.query("SELECT   d.name AS name\n  FROM Ds AS d\n"
                                "  WHERE d.age < 20")
        assert variant.stats.plan_source == "cache"
        assert len(dataset.plan_cache) == 1
        dataset.close()

    def test_string_literal_whitespace_not_conflated(self):
        # The REVIEW.md high-severity repro: two queries differing only by
        # whitespace inside a quoted literal must get distinct plans (and
        # distinct, correct rows) — never the other's cached constant.
        dataset = _dataset("PcLit", rows=5)
        dataset.insert({"id": 100, "name": "n100", "age": 1, "city": "x y"})
        dataset.insert({"id": 101, "name": "n101", "age": 1, "city": "x  y"})
        dataset.flush_all()
        single = dataset.query(
            "SELECT d.id AS id FROM Ds AS d WHERE d.city = 'x y'")
        double = dataset.query(
            "SELECT d.id AS id FROM Ds AS d WHERE d.city = 'x  y'")
        assert [row["id"] for row in single.rows] == [100]
        assert [row["id"] for row in double.rows] == [101]
        assert double.stats.plan_source == "compiled"  # its own cache entry
        assert dataset.query(
            "SELECT d.id AS id FROM Ds AS d WHERE d.city = 'x  y'"
        ).stats.plan_source == "cache"
        dataset.close()

    def test_prepared_statement_preserves_literal_whitespace(self):
        # Preparing must compile the *original* text: a literal with
        # consecutive spaces has to survive even with the plan cache off.
        dataset = _dataset("PsLit", rows=5)
        dataset.plan_cache = PlanCache(capacity=0, metrics=MetricsRegistry())
        dataset.insert({"id": 100, "name": "n100", "age": 1, "city": "x  y"})
        dataset.flush_all()
        statement = dataset.prepare(
            "SELECT d.id AS id FROM Ds AS d WHERE d.city = 'x  y'")
        assert [row["id"] for row in statement.execute().rows] == [100]
        dataset.close()

    def test_create_index_moves_epoch(self):
        dataset = _dataset("PcIdx")
        dataset.query(QUERY)
        assert dataset.query(QUERY).stats.plan_source == "cache"
        epoch_before = dataset.reuse_epoch()
        dataset.query("CREATE INDEX iAge ON Ds (age)")
        assert dataset.reuse_epoch() != epoch_before
        replanned = dataset.query(QUERY)
        assert replanned.stats.plan_source == "compiled"
        assert _rows(replanned) == _rows(dataset.query(QUERY))
        dataset.close()

    def test_flush_and_merge_move_epoch(self):
        dataset = _dataset("PcFlush")
        dataset.query(QUERY)
        dataset.insert({"id": 1000, "name": "user1000", "age": 1})
        dataset.flush_all()
        after_flush = dataset.query(QUERY)
        assert after_flush.stats.plan_source == "compiled"
        assert "user1000" in _rows(after_flush)
        index = dataset.partitions[0].index
        if index.component_count() >= 2:
            dataset.query(QUERY)
            index.merge(list(index.components))
            assert dataset.query(QUERY).stats.plan_source == "compiled"
        dataset.close()

    def test_stale_plans_leave_the_cache(self):
        dataset = _dataset("PcRetire")
        dataset.query(QUERY)
        dataset.flush_all()  # nothing to flush: the epoch and the plan stay
        assert len(dataset.plan_cache) == 1
        dataset.insert({"id": 1000, "name": "user1000", "age": 1})
        dataset.flush_all()
        assert len(dataset.plan_cache) == 0
        # A flush the LSM tree makes on its own is seen at the next put.
        dataset.query(QUERY)
        dataset.insert({"id": 1001, "name": "user1001", "age": 1})
        dataset.partitions[0].flush()
        dataset.query("SELECT d.name AS name FROM Ds AS d WHERE d.age < 30")
        assert len(dataset.plan_cache) == 1
        assert dataset.query(QUERY).stats.plan_source == "compiled"
        dataset.close()

    def test_invalidate_plans_forces_recompile(self):
        dataset = _dataset("PcInval")
        dataset.query(QUERY)
        dataset.invalidate_plans()
        assert len(dataset.plan_cache) == 0
        assert dataset.query(QUERY).stats.plan_source == "compiled"
        dataset.close()

    def test_executor_signature_partitions_entries(self):
        dataset = _dataset("PcSig")
        dataset.query(QUERY)  # default-executor entry
        forced_scan = dataset.query(QUERY, access_path="scan")
        assert forced_scan.stats.plan_source == "compiled"
        assert _rows(forced_scan) == _reference_names(_records())
        assert dataset.query(QUERY, access_path="scan").stats.plan_source == "cache"
        dataset.close()

    def test_prepared_statement_reuses_plan(self):
        dataset = _dataset("PsBasic")
        statement = dataset.prepare(QUERY)
        assert isinstance(statement, PreparedStatement)
        oracle = _reference_names(_records())
        first = statement.execute()
        assert first.stats.plan_source == "cache"
        assert _rows(first) == oracle
        # Epoch move (CREATE INDEX) re-prepares transparently.
        dataset.query("CREATE INDEX iAge2 ON Ds (age)")
        replanned = statement.execute()
        assert replanned.stats.plan_source == "compiled"
        assert _rows(replanned) == oracle
        assert statement.execute().stats.plan_source == "cache"
        dataset.close()

    def test_prepared_statement_works_with_cache_disabled(self):
        dataset = _dataset("PsOff")
        dataset.plan_cache = PlanCache(capacity=0, metrics=MetricsRegistry())
        statement = dataset.prepare(QUERY)
        assert statement.execute().stats.plan_source == "cache"
        dataset.close()

    def test_prepare_rejects_create_index_and_arg_conflicts(self):
        dataset = _dataset("PsReject", rows=5)
        with pytest.raises(DatasetError):
            dataset.prepare("CREATE INDEX iX ON Ds (age)")
        from repro.query import QueryExecutor
        with pytest.raises(DatasetError):
            dataset.prepare(QUERY, executor=QueryExecutor(), parallelism=1)
        with pytest.raises(DatasetError):
            dataset.query(QUERY, executor=QueryExecutor(), parallelism=1)
        dataset.close()

    def test_explain_analyze_reports_plan_source(self):
        dataset = _dataset("PcExplain")
        first = dataset.explain(QUERY, analyze=True)
        assert "plan: compiled" in first
        second = dataset.explain(QUERY, analyze=True)
        assert "plan: cached" in second
        assert "column-slice cache" in second
        dataset.close()


# ---------------------------------------------------------------------------
# column-slice cache: end to end
# ---------------------------------------------------------------------------

class TestColumnCacheIntegration:
    def test_warm_scan_served_from_slices(self):
        dataset = _dataset("CcWarm")
        # Empty both caches so the cold run pays real device reads; the warm
        # run must then read strictly fewer (zero) device bytes.
        dataset.environments[0].drop_caches()
        cold = dataset.query(QUERY)
        warm = dataset.query(QUERY)
        assert cold.stats.slice_cache_misses > 0
        assert warm.stats.slice_cache_hits > 0
        assert warm.stats.bytes_read < cold.stats.bytes_read
        assert _rows(cold) == _rows(warm)
        dataset.close()

    def test_slice_stats_symmetric_across_cold_and_warm(self):
        dataset = _dataset("CcSym")
        dataset.delete(0)  # flushed deletes put anti-matter rows in a
        dataset.delete(1)  # component; both scans must count them alike
        dataset.flush_all()
        dataset.environments[0].drop_caches()
        cold = dataset.query(QUERY)
        warm = dataset.query(QUERY)
        assert cold.stats.slice_cache_misses > 0
        assert warm.stats.slice_cache_hits == cold.stats.slice_cache_misses
        assert warm.stats.slice_cache_misses == 0
        assert _rows(cold) == _rows(warm)
        dataset.close()

    def test_memtable_rows_never_served_stale(self):
        dataset = _dataset("CcMem")
        dataset.query(QUERY)  # warm the slices
        dataset.insert({"id": 2000, "name": "fresh", "age": 0})
        dataset.upsert({"id": 0, "name": "updated0", "age": 0})
        warm = dataset.query(QUERY)
        names = _rows(warm)
        assert "fresh" in names
        assert "updated0" in names and "user0" not in names
        dataset.close()

    def test_dropped_component_evicts_slices(self):
        dataset = _dataset("CcDrop")
        dataset.query(QUERY)
        environment = dataset.environments[0]
        assert environment.column_cache.entry_count() > 0
        index = dataset.partitions[0].index
        dataset.insert({"id": 3000, "name": "m", "age": 1})
        dataset.flush_all()
        old_files = [component.file_name for component in index.components]
        index.merge(list(index.components))
        for file_name in old_files:
            assert environment.column_cache.entry_count(file_name) == 0
        warm = dataset.query(QUERY)
        assert "m" in _rows(warm)
        dataset.close()

    def test_quarantine_evicts_slices_and_reraises(self):
        dataset = _dataset("CcQuar")
        environment = dataset.environments[0]
        dataset.query(QUERY)  # warm: slices of the flushed component cached
        index = dataset.partitions[0].index
        component_file = index.components[0].file_name
        assert environment.column_cache.entry_count(component_file) > 0
        # Force a disk read to trip the checksum: cold buffer cache + point
        # lookup (the slice cache serves scans, not point lookups).
        environment.buffer_cache.clear()
        get_injector().add_rule("file.read_page", nth=1, error="corrupt", times=1)
        with pytest.raises(QuarantinedComponentError):
            dataset.get(7)
        # The poisoned component's decoded slices are gone...
        assert environment.column_cache.entry_count(component_file) == 0
        # ...and a warm query re-raises instead of serving cached values.
        with pytest.raises(QuarantinedComponentError):
            dataset.query(QUERY)
        dataset.close()


    def test_a_limit_decodes_within_one_leaf(self):
        dataset = _dataset("CcLimit", rows=2000)
        (component,) = dataset.partitions[0].index.components
        first_leaf = next(component.leaves())
        result = dataset.query("SELECT d.name AS name FROM Ds AS d LIMIT 3")
        assert len(result.rows) == 3
        assert result.stats.slice_cache_misses == len(first_leaf.keys) < 2000
        dataset.close()

    def test_recreated_dataset_is_not_served_the_old_files_slices(self):
        """A dataset re-created under the same name writes the same
        component file names again: the old files' slices must go."""
        environment = StorageEnvironment()
        statement = "SELECT VALUE sum(t.v) FROM Again AS t"
        for base, total in ((0, 45), (100, 1045)):
            dataset = Dataset.create("Again", StorageFormat.INFERRED, environment=environment)
            dataset.insert_all([{"id": key, "v": base + key} for key in range(10)])
            dataset.flush_all()
            assert dataset.query(statement).rows == [{"sum": total}]
            assert dataset.query(statement, cold_cache=True).rows == [{"sum": total}]
            assert dataset.get(3) == {"id": 3, "v": base + 3}
            dataset.close()


# ---------------------------------------------------------------------------
# ownership: cached values travel by reference, results leave as copies
# ---------------------------------------------------------------------------

#: (value of field ``v`` of record ``i``, a mutation inside such a value).
_SHAPES = {
    "dict": (lambda i: {"name": "u%d" % i},
             lambda value: value.__setitem__("name", "scribbled")),
    "multiset-of-objects": (lambda i: AMultiset([{"k": i}]),
                            lambda value: value.items[0].__setitem__("k", 999)),
    # a multiset holds its items as a tuple: here, a tuple of lists
    "tuple-of-lists": (lambda i: AMultiset([[i], [i + 1]]),
                       lambda value: value.items[0].append(999)),
}


class TestResultsOwnTheirValues:
    """A plan that reads the column-slice cache gets the cached values
    themselves; the coordinator copies its result once on the way out, so
    mutating a result never reaches the cache (or a memtable record)."""

    @pytest.mark.parametrize("served", ["cold", "warm"])
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_scribbled_rows_never_reach_the_next_run(self, shape, served):
        make, scribble = _SHAPES[shape]
        dataset = Dataset.create("OwnShape", StorageFormat.INFERRED)
        dataset.insert_all([{"id": key, "v": make(key)} for key in range(3)])
        dataset.flush_all()
        statement = "SELECT t.v AS v FROM OwnShape AS t"
        expected = [{"v": make(key)} for key in range(3)]
        if served == "warm":
            dataset.query(statement)  # fills the cache: the next run hits it
        result = dataset.query(statement, cold_cache=served == "cold")
        assert (result.stats.slice_cache_hits > 0) == (served == "warm")
        assert result.rows == expected
        for row in result.rows:
            scribble(row["v"])
        warm = dataset.query(statement)
        assert warm.stats.slice_cache_hits > 0 and warm.rows == expected
        dataset.close()

    @pytest.mark.parametrize("statement, expected, scribble", [
        ("SELECT t.tags AS tags, COUNT(*) AS n FROM OwnExit AS t GROUP BY t.tags",
         [{"tags": [key, key + 1], "n": 1} for key in range(3)],
         lambda rows: rows[0]["tags"].append(999)),
        ("SELECT MIN(t.tags) AS lo, MAX(t.tags) AS hi FROM OwnExit AS t",
         [{"lo": [0, 1], "hi": [2, 3]}],
         lambda rows: (rows[0]["lo"].append(999), rows[0]["hi"].append(999))),
        ("SELECT listify(t.tags) AS every FROM OwnExit AS t",  # SQL++'s ARRAY_AGG
         [{"every": [[key, key + 1] for key in range(3)]}],
         lambda rows: rows[0]["every"][0].append(999)),
        ("SELECT to_array(t.tags) AS a FROM OwnExit AS t",
         [{"a": [key, key + 1]} for key in range(3)],
         lambda rows: rows[0]["a"].append(999)),
    ], ids=["group-by-list-key", "min-max-of-lists", "array-agg", "to-array"])
    def test_every_exit_copies(self, statement, expected, scribble):
        dataset = Dataset.create("OwnExit", StorageFormat.INFERRED)
        dataset.insert_all([{"id": key, "tags": [key, key + 1]} for key in range(3)])
        dataset.flush_all()
        for run in range(3):  # the first run fills the cache, the others read it
            result = dataset.query(statement)
            assert (result.stats.slice_cache_hits > 0) == (run > 0)
            assert result.rows == expected
            scribble(result.rows)
        dataset.close()

    def test_an_unflushed_row_is_copied_too(self):
        dataset = Dataset.create("OwnMem", StorageFormat.INFERRED)
        dataset.insert({"id": 0, "tags": [0]})
        dataset.flush_all()
        dataset.insert({"id": 1, "tags": [1]})  # stays in the memtable
        statement = "SELECT t.tags AS tags FROM OwnMem AS t"
        for _ in range(3):
            result = dataset.query(statement)
            assert result.stats.slice_cache_hits + result.stats.slice_cache_misses > 0
            assert result.rows == [{"tags": [0]}, {"tags": [1]}]
            for row in result.rows:
                row["tags"].append(999)
        assert dataset.get(1) == {"id": 1, "tags": [1]}
        dataset.close()


# ---------------------------------------------------------------------------
# fault degrade: cache faults cost latency, never correctness
# ---------------------------------------------------------------------------

class TestCacheFaultDegrade:
    def test_lookup_faults_degrade_to_miss(self):
        dataset = _dataset("CfLookup")
        oracle = _rows(dataset.query(QUERY))
        get_injector().add_rule("cache.lookup", nth=1)  # every lookup faults
        for _ in range(3):
            result = dataset.query(QUERY)
            assert _rows(result) == oracle
            assert result.stats.plan_source == "compiled"  # forced re-plan
        dataset.close()

    def test_store_faults_skip_the_store(self):
        dataset = _dataset("CfStore")
        get_injector().add_rule("cache.store", nth=1)  # every store faults
        first = dataset.query(QUERY)
        second = dataset.query(QUERY)
        assert len(dataset.plan_cache) == 0
        assert dataset.environments[0].column_cache.entry_count() == 0
        assert second.stats.plan_source == "compiled"
        assert _rows(first) == _rows(second)
        dataset.close()
