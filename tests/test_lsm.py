"""Unit tests for the LSM engine: components, flush, merge, policies, recovery."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ColumnSliceCache, SliceChunk
from repro.config import LSMConfig, StorageFormat
from repro.core import Dataset, StorageEnvironment
from repro.errors import (ComponentStateError, DecodingError, DuplicateKeyError,
                          EncodingError, KeyNotFoundError)
from repro.lsm import (
    ComponentId,
    ComponentWriter,
    FlushCallback,
    LSMBTree,
    NoMergePolicy,
    PrefixMergePolicy,
    SecondaryIndexDef,
    make_merge_policy,
    read_component_metadata,
    recover_index,
)
from repro.btree import LeafEntry, encode_key
from repro.lsm.component import InMemoryComponent, MemEntry
from repro.lsm.lsm_index import SearchResult, _reconcile
from repro.storage import BufferCache, FileManager, SimulatedStorageDevice, WriteAheadLog
from repro.types import index_key, index_key_range

from reference import reference_memtable_live, reference_record_count

PAGE_SIZE = 2048


def _cache(capacity=512):
    device = SimulatedStorageDevice()
    manager = FileManager(device, PAGE_SIZE)
    return device, BufferCache(manager, capacity)


def _scan_keys(index):
    """The keys of a full scan, in scan order."""
    return [key for _, run, start, stop in index.scan() for key in run.keys[start:stop]]


def _index(memory_budget=4096, merge_policy=None, wal=None, cache=None):
    if cache is None:
        _, cache = _cache()
    return LSMBTree(
        name="ds", partition=0, buffer_cache=cache, memory_budget=memory_budget,
        merge_policy=merge_policy or NoMergePolicy(), wal=wal,
    )


def _payload(key: int, size: int = 64) -> bytes:
    return (str(key).encode() + b"-") * (size // (len(str(key)) + 1) + 1)


class TestComponentId:
    def test_flushed_and_merged_ids(self):
        c0, c1, c2 = ComponentId.flushed(0), ComponentId.flushed(1), ComponentId.flushed(2)
        merged = ComponentId.merged([c1, c0])
        assert merged.min_seq == 0 and merged.max_seq == 1
        assert str(merged) == "C0-1"
        assert c2.is_newer_than(merged)
        assert ComponentId.merged([merged, c2]).max_seq == 2

    def test_non_adjacent_merge_rejected(self):
        with pytest.raises(ComponentStateError):
            ComponentId.merged([ComponentId.flushed(0), ComponentId.flushed(2)])

    def test_ordering_by_recency(self):
        ids = [ComponentId.flushed(3), ComponentId(0, 2), ComponentId.flushed(4)]
        assert sorted(ids)[-1] == ComponentId.flushed(4)


class TestComponentWriterAndMetadata:
    def test_metadata_roundtrip(self):
        _, cache = _cache()
        writer = ComponentWriter(cache, "comp")
        entries = [LeafEntry(i, _payload(i)) for i in range(50)]
        metadata = writer.write(ComponentId.flushed(0), entries, schema_bytes=b"schema-blob")
        loaded = read_component_metadata(cache, "comp")
        assert loaded is not None
        assert loaded.component_id == ComponentId.flushed(0)
        assert loaded.entry_count == 50
        assert loaded.min_key == 0 and loaded.max_key == 49
        assert loaded.schema_bytes == b"schema-blob"
        assert loaded.btree_info.entry_count == metadata.btree_info.entry_count

    def test_invalid_component_detected(self):
        _, cache = _cache()
        writer = ComponentWriter(cache, "halfdone")
        entries = [LeafEntry(i, _payload(i)) for i in range(10)]
        with pytest.raises(ComponentStateError):
            writer.write(ComponentId.flushed(0), entries, fail_before_footer=True)
        assert read_component_metadata(cache, "halfdone") is None

    def test_missing_file_is_invalid(self):
        _, cache = _cache()
        assert read_component_metadata(cache, "never-created") is None


class TestFlushAndSearch:
    def test_insert_search_before_and_after_flush(self):
        index = _index()
        for key in range(20):
            index.insert(key, _payload(key))
        assert index.search(5) == SearchResult(5, _payload(5))  # a memtable hit: no schema
        index.flush()
        assert index.component_count() == 1
        result = index.search(5)
        assert result is not None and result.payload == _payload(5)
        assert index.search(99) is None

    def test_automatic_flush_on_budget(self):
        index = _index(memory_budget=1500)
        for key in range(40):
            index.insert(key, _payload(key))
        assert index.stats.flushes >= 1
        assert index.component_count() >= 1

    def test_flush_empty_memtable_is_noop(self):
        index = _index()
        assert index.flush() is None

    def test_delete_creates_antimatter_and_hides_record(self):
        index = _index()
        index.insert(1, _payload(1))
        index.flush()
        index.delete(1)
        assert index.search(1) is None
        index.flush()
        assert index.search(1) is None

    def test_upsert_overwrites(self):
        index = _index()
        index.insert(1, b"version-a")
        index.flush()
        index.upsert(1, b"version-b")
        assert index.search(1).payload == b"version-b"
        index.flush()
        assert index.search(1).payload == b"version-b"

    def test_scan_reconciles_recency_and_antimatter(self):
        index = _index()
        for key in range(10):
            index.insert(key, _payload(key))
        index.flush()
        index.delete(3)
        index.upsert(4, b"new-4")
        index.insert(100, _payload(100))
        assert _scan_keys(index) == [0, 1, 2, 4, 5, 6, 7, 8, 9, 100]
        in_memory = {run.keys[row]: run.entries[row].encoded
                     for component, run, start, stop in index.scan() if component is None
                     for row in range(start, stop)}
        assert in_memory == {4: b"new-4", 100: _payload(100)}

    def test_storage_size_grows_with_flushes(self):
        index = _index()
        assert index.storage_size() == 0
        for key in range(50):
            index.insert(key, _payload(key))
        index.flush()
        assert index.storage_size() > 0


class TestBulkLoad:
    def test_load_builds_single_component(self):
        index = _index()
        rows = [(key, _payload(key)) for key in range(200)]
        index.load(rows)
        assert index.component_count() == 1
        assert index.search(150) is not None
        assert index.record_count() == 200

    def test_load_sorts_input(self):
        index = _index()
        rows = [(key, _payload(key)) for key in reversed(range(50))]
        index.load(rows)
        assert _scan_keys(index) == list(range(50))

    def test_load_requires_empty_index(self):
        index = _index()
        index.insert(1, _payload(1))
        with pytest.raises(ComponentStateError):
            index.load([(2, _payload(2))])

    def test_load_rejects_duplicates(self):
        index = _index()
        with pytest.raises(DuplicateKeyError):
            index.load([(1, b"a"), (1, b"b")])


class TestMergePolicies:
    def test_no_merge_policy(self):
        assert NoMergePolicy().select_merge([object(), object()]) == []

    def test_prefix_policy_threshold(self):
        index = _index(merge_policy=PrefixMergePolicy(max_tolerable_component_count=3))
        for batch in range(3):
            for key in range(batch * 10, batch * 10 + 10):
                index.insert(key, _payload(key))
            index.flush()
        # third flush triggers a merge of all three components
        assert index.component_count() == 1
        assert index.stats.merges == 1
        assert index.components[0].component_id.is_merged

    def test_prefix_policy_respects_max_size(self):
        policy = PrefixMergePolicy(max_mergable_component_size=10_000,
                                   max_tolerable_component_count=2)

        class FakeComponent:
            def __init__(self, size):
                self._size = size

            def size_bytes(self):
                return self._size

        small = [FakeComponent(1000), FakeComponent(1000)]
        assert len(policy.select_merge(small)) == 2
        with_large_old = small + [FakeComponent(50_000)]
        assert len(policy.select_merge(with_large_old)) == 2
        large_first = [FakeComponent(50_000)] + small
        assert policy.select_merge(large_first) == []

    def test_make_merge_policy(self):
        policy = make_merge_policy("prefix", 2)
        assert isinstance(policy, PrefixMergePolicy)
        assert policy.max_tolerable_component_count == 2
        assert isinstance(make_merge_policy("none", 2), NoMergePolicy)
        for retired in ("constant", "bogus"):
            with pytest.raises(Exception):
                make_merge_policy(retired, 2)


class TestMergeSemantics:
    def test_merge_garbage_collects_annihilated_pairs(self):
        """Figure 4b: a record and its anti-matter annihilate during the merge."""
        index = _index()
        index.insert(0, _payload(0))
        index.insert(1, _payload(1))
        index.flush()
        index.delete(0)
        index.insert(2, _payload(2))
        index.flush()
        assert index.component_count() == 2
        merged = index.merge(list(index.components))
        assert index.component_count() == 1
        keys = [entry.key for entry in merged.scan()]
        assert keys == [1, 2]
        assert all(not entry.is_antimatter for entry in merged.scan())

    def test_merge_keeps_antimatter_when_older_components_remain(self):
        index = _index()
        index.insert(0, _payload(0))
        index.flush()
        index.delete(0)
        index.flush()
        index.insert(5, _payload(5))
        index.flush()
        assert index.component_count() == 3
        # merge only the two newest components (C1: antimatter for 0, C2: insert 5)
        merged = index.merge(index.components[:2])
        assert index.component_count() == 2
        entries = list(merged.scan())
        assert any(entry.is_antimatter and entry.key == 0 for entry in entries)
        # the deleted record must remain invisible
        assert index.search(0) is None

    def test_merged_component_files_replace_old_ones(self):
        index = _index()
        manager = index.buffer_cache.file_manager
        for batch in range(2):
            for key in range(batch * 5, batch * 5 + 5):
                index.insert(key, _payload(key))
            index.flush()
        old_files = set(manager.list_files())
        index.merge(list(index.components))
        new_files = set(manager.list_files())
        assert len(new_files) == 1
        assert not old_files & new_files

    def test_merge_preserves_all_live_records(self):
        index = _index(merge_policy=PrefixMergePolicy(max_tolerable_component_count=4))
        for key in range(400):
            index.insert(key, _payload(key))
            if key % 100 == 99:
                index.flush()
        index.flush()
        assert _scan_keys(index) == list(range(400))


class _Run:
    """A reconcile run: sorted keys, each row tagged with its source."""

    def __init__(self, keys, rank):
        self.keys = keys
        self.ranks = [rank] * len(keys)


def _runs_of(rng, keys, rank):
    """``keys`` cut into runs at random points, empty runs mixed in."""
    runs, start = [], 0
    while start < len(keys):
        if rng.random() < 0.2:
            runs.append(_Run([], rank))
        stop = start + rng.choice([1, 1, 2, 5, 50])
        runs.append(_Run(keys[start:stop], rank))
        start = stop
    if rng.random() < 0.3:
        runs.append(_Run([], rank))
    return runs


def _scan_rows(index):
    """``{key: payload}`` of a full scan, memtable and component rows alike."""
    rows = {}
    for component, run, start, stop in index.scan():
        if component is None:
            rows.update((run.keys[row], run.entries[row].encoded) for row in range(start, stop))
        else:
            rows.update((entry.key, entry.value) for entry in run.entries(start, stop))
    return rows


class TestRunReconcile:
    """The run-at-a-time reconcile against a plain newest-wins dict."""

    @pytest.mark.parametrize("layout", ["disjoint", "interleaved", "equal"])
    @pytest.mark.parametrize("seed", range(15))
    def test_reconcile_matches_a_newest_wins_dict(self, layout, seed):
        rng = random.Random(seed)
        shared = sorted(rng.sample(range(100), rng.randint(0, 30)))
        sources, reference = [], {}
        for rank in range(rng.randint(0, 5)):
            if layout == "disjoint":
                keys = list(range(100 * rank, 100 * rank + rng.randint(0, 40)))
            elif layout == "interleaved":
                keys = sorted(rng.sample(range(100), rng.randint(0, 40)))
            else:
                keys = shared
            sources.append(_runs_of(rng, keys, rank))
            for key in keys:
                reference.setdefault(key, rank)  # ranks run newest first
        emitted = []
        for rank, run, start, stop in _reconcile(sources):
            assert 0 <= start < stop <= len(run.keys)
            assert run.ranks[start:stop] == [rank] * (stop - start)
            emitted.extend((key, rank) for key in run.keys[start:stop])
        assert emitted == sorted(reference.items())

    @pytest.mark.parametrize("seed", range(12))
    def test_scan_count_and_merges_match_a_newest_wins_dict(self, seed):
        """Anti-matter that wins (a newer delete) and loses (a newer
        re-insert), through scans, ``exact_count`` and merges that keep
        their anti-matter (older components remain) or drop it (none do)."""
        rng = random.Random(seed)
        index = _index(memory_budget=1 << 20)
        reference = {}

        def write(count):
            for _ in range(count):
                key = rng.randrange(60)
                if rng.random() < 0.3:
                    index.delete(key)
                    reference.pop(key, None)
                else:
                    payload = _payload(key, size=rng.choice([8, 64, 300]))
                    index.upsert(key, payload)
                    reference[key] = payload

        def check():
            assert _scan_keys(index) == sorted(reference)
            assert _scan_rows(index) == reference
            assert index.exact_count() == len(reference)

        for _ in range(rng.randint(3, 6)):
            write(rng.randint(0, 40))
            index.flush()
        write(rng.randint(0, 15))  # left in the memtable
        check()
        newest = index.components[:2]
        kept = index.merge(newest)  # older components remain: anti-matter stays
        assert kept.metadata.antimatter_count == sum(
            1 for entry in kept.scan() if entry.is_antimatter)
        check()
        merged = index.merge(list(index.components))  # nothing older: it goes
        assert merged.metadata.antimatter_count == 0
        check()


class _RecordingCallback(FlushCallback):
    """Asks for anti-schemas, marks what a flush stores, records removals."""

    needs_antischema = True

    def __init__(self):
        self.removed = []

    def transform_record(self, key, encoded):
        return b"stored:" + encoded

    def process_antischema(self, payload):
        self.removed.append(payload)


class TestAntischemaPayload:
    """A delete/upsert carries the superseded version's stored bytes."""

    def _index(self):
        _, cache = _cache()
        callback = _RecordingCallback()
        return LSMBTree(name="ds", partition=0, buffer_cache=cache, memory_budget=1 << 20,
                        merge_policy=NoMergePolicy(), flush_callback=callback), callback

    def test_disk_version_is_its_stored_payload(self):
        index, callback = self._index()
        index.insert(1, b"v1")
        index.insert(2, b"w1")
        index.flush()
        index.delete(1)
        index.upsert(2, b"w2")
        index.upsert(3, b"x1")  # fresh key: nothing to decrement
        with pytest.raises(KeyNotFoundError):
            index.delete(4)
        assert [index.memory_component.get(key).antischema for key in (1, 2, 3)] == [
            b"stored:v1", b"stored:w1", None]
        assert index.stats.maintenance_point_lookups == 2
        index.flush()
        assert callback.removed == [b"stored:v1", b"stored:w1"]

    def test_sealed_version_is_its_encoded_bytes(self):
        index, callback = self._index()
        index.insert(1, b"v1")
        with index._rotation_cond:
            index._seal()
        index.upsert(1, b"v2")  # sealed: counted by the flush before this one
        assert index.memory_component.get(1).antischema == b"v1"
        index.upsert(1, b"v3")  # v2 was never counted: carry v1 forward
        assert index.memory_component.get(1).antischema == b"v1"
        assert index.stats.maintenance_point_lookups == 0
        index.flush()
        assert callback.removed == [b"v1"]


#: Keys of every primary-key kind the key codec accepts, with the awkward
#: hashes: ``hash(-1) == hash(-2)``, ``hash(2**61 - 1) == hash(0)``, the
#: int64 extremes, non-ASCII strings, and floats hashing like those ints.
_FENCE_POOLS = {
    "int": [-2**63, 2**63 - 1, -1, -2, 0, 1, 2**61 - 1, 2**61, -(2**61), 7, -7],
    "str": ["", "a", "é", "e\u0301", "ß", "日本語", "Ωμέγα", "😀", "naïve", "-1", "-2"],
    "float": [-1.0, -2.0, 0.0, 0.5, -0.5, 2.0**61, float("inf"), float("-inf"), 1e300, -1e-300],
}
#: Looked up but never written; ``1.0`` and ``-2.0`` equal ints of the pool,
#: ``-2`` and ``-0.0`` floats of it.
_FENCE_EXTRA = {
    "int": [1.0, -2.0, 0.5, 2**63 - 2, 2**62 + 1],
    "str": ["zz", "日本", "😀😀"],
    "float": [-2, -0.0, 0.25, 2**61 + 1, 2.0**53 + 2],
}


def _fence_pool(kind, rng):
    draw = {"int": lambda: rng.randint(-2**40, 2**40),
            "str": lambda: "".join(rng.choice("aéz日😀-1") for _ in range(rng.randint(1, 5))),
            "float": lambda: rng.randint(-400, 400) / 8}[kind]
    return list(dict.fromkeys(_FENCE_POOLS[kind] + [draw() for _ in range(150)]))


def _check_fences(index, model, lookups):
    """Each component's fence holds its primary tree's keys, one hash per
    entry, and a lookup through it agrees with the tree and with ``model``."""
    for component in index.components:
        stored = {entry.key: entry for entry in component.scan()}
        fence = component.key_hashes
        assert list(fence) == sorted(fence) and len(fence) == len(stored)
        assert {hash(key) for key in stored} <= set(fence)
        for key in lookups:
            found, expected = component.search(key), stored.get(key)
            assert (found is None) == (expected is None), key
            if found is not None:
                assert (found.value, found.is_antimatter) == (expected.value, expected.is_antimatter)
    for key in lookups:
        result = index.search(key)
        assert (None if result is None else result.payload) == model.get(key), key


class TestKeyHashFence:
    @pytest.mark.parametrize("kind", sorted(_FENCE_POOLS))
    def test_fence_agrees_with_the_tree(self, kind):
        """Components built by flush, merge (anti-matter kept, then dropped),
        crash-recovery re-open (from the primary leaves) and bulk load,
        against a dict."""
        rng = random.Random(f"fence-{kind}")
        pool = _fence_pool(kind, rng)
        lookups = pool + _FENCE_EXTRA[kind]
        _, cache = _cache()
        index = _index(cache=cache)
        model = {}
        for _ in range(4):
            for key in rng.sample(pool, 60):
                if key in model and rng.random() < 0.4:
                    index.delete(key)
                    del model[key]
                else:
                    model[key] = b"v%d" % rng.randrange(10**6)
                    index.upsert(key, model[key])
            index.flush()
        doomed = next(iter(model))  # an anti-matter entry in the newest component
        index.delete(doomed)
        del model[doomed]
        index.flush()
        assert len(index.components) >= 3
        _check_fences(index, model, lookups)

        kept = index.merge(index.components[:2])
        assert kept.metadata.antimatter_count > 0
        _check_fences(index, model, lookups)
        dropped = index.merge(list(index.components))
        assert dropped.metadata.antimatter_count == 0
        _check_fences(index, model, lookups)

        revived = _index(cache=cache)
        recover_index(revived)
        _check_fences(revived, model, lookups)

        loaded = _index()
        loaded.load(list(model.items()))
        _check_fences(loaded, model, lookups)

    @pytest.mark.parametrize("storage_format", [StorageFormat.OPEN, StorageFormat.INFERRED],
                             ids=lambda storage_format: storage_format.value)
    def test_reopened_fence_equals_the_built_one(self, storage_format):
        """A re-opened component hashes its primary leaves into exactly the
        fence its flush or merge built, anti-matter keys included; and no
        flush, merge or CREATE INDEX backfill writes a ``.pk`` file."""
        environment = StorageEnvironment()
        manager = environment.buffer_cache.file_manager
        lsm = LSMConfig(merge_policy="none")

        def no_pk_files():
            assert manager.list_files() and not any(
                name.endswith(".pk") for name in manager.list_files())

        dataset = Dataset.create("fenced", storage_format, environment=environment, lsm=lsm)
        dataset.insert_all({"id": key, "v": key % 7} for key in range(120))
        dataset.flush_all()
        for key in range(0, 120, 3):
            dataset.delete(key)
        dataset.upsert({"id": 500, "v": 1})
        dataset.flush_all()
        no_pk_files()
        dataset.create_index("by_v", "v")
        no_pk_files()
        dataset.upsert({"id": 1, "v": 6})
        dataset.delete(2)
        dataset.flush_all()
        index = dataset.partitions[0].index
        kept = index.merge(index.components[:2])  # the oldest survives: anti-matter stays
        assert kept.metadata.antimatter_count > 0
        no_pk_files()
        built = {component.file_name: component.key_hashes for component in index.components}
        assert len(built) == 2

        revived = Dataset.create("fenced", storage_format, environment=environment, lsm=lsm)
        revived.create_index("by_v", "v")
        environment.drop_caches()
        revived.partitions[0].recover()
        reopened = {component.file_name: component.key_hashes
                    for component in revived.partitions[0].index.components}
        assert reopened == built
        assert revived.get(2) is None and revived.get(1)["v"] == 6
        revived.close()

    def test_absent_get_reads_no_page(self):
        index = _index()
        for keys in (range(-1, 25), range(25, 50), range(50, 75), range(75, 100)):
            for key in keys:
                index.insert(key, _payload(key))
            index.flush()
        assert len(index.components) == 4
        cache = index.buffer_cache
        before = cache.stats_snapshot()
        assert index.search(10_000) is None
        assert index.search(12.5) is None
        after = cache.stats_snapshot()
        assert (after.hits, after.misses) == (before.hits, before.misses)
        # hash(-2) == hash(-1): the fence admits -2 and one descent says no.
        assert index.search(-2) is None
        after_collision = cache.stats_snapshot()
        assert after_collision.hits + after_collision.misses > after.hits + after.misses
        assert index.search(60).key == 60

    def test_reopened_component_rules_out_absent_keys_without_a_page_read(self):
        """The fence a re-open hashes from the primary leaves answers a miss
        on its own, as the one a flush built does."""
        _, cache = _cache()
        index = _index(cache=cache)
        for key in range(30):
            index.insert(key, _payload(key))
        index.flush()
        revived = _index(cache=cache)
        recover_index(revived)
        component = revived.components[0]
        assert component.search(7).key == 7
        before = cache.stats_snapshot()
        assert component.search(999) is None
        after = cache.stats_snapshot()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_component_size_is_its_primary_tree_file(self):
        """A flushed or merged component writes one file, its primary tree,
        and that file is all its size counts."""
        index = _index()
        for batch in range(2):
            for key in range(batch * 100, batch * 100 + 100):
                index.insert(key, _payload(key, size=256))
            index.flush()
        index.merge(list(index.components))
        manager = index.buffer_cache.file_manager
        (component,) = index.components
        assert manager.list_files() == [component.file_name]
        assert component.size_bytes() == manager.file_size(component.file_name)
        assert index.storage_size() == component.size_bytes()


# ---------------------------------------------------------------------------
# memtable counters and columns, against the snapshot walks they replace
# ---------------------------------------------------------------------------

def _valued(key, value):
    """A payload carrying ``value`` (``None``: the index skips the record)."""
    return f"{key}:{'' if value is None else value}".encode()


def _value_of(payload, schema):
    text = payload.decode().split(":", 1)[1]
    if not text:
        return None
    return text if text.startswith("s") else int(text)


_WRITES = st.lists(st.one_of(
    st.tuples(st.just("write"), st.integers(0, 7), st.one_of(st.none(), st.integers(0, 20))),
    st.tuples(st.just("delete"), st.integers(0, 7), st.none()),
    st.tuples(st.just("rotate"), st.none(), st.none()),
    st.tuples(st.just("flush"), st.none(), st.none()),
), max_size=40)


class TestMemtableCounters:
    @pytest.mark.parametrize("background", [False, True], ids=["sync", "background"])
    @settings(max_examples=60, deadline=None)
    @given(operations=_WRITES)
    def test_live_counts_and_record_count_match_the_snapshot_walk(self, background, operations):
        """Inserts, upserts, deletes (of live and of unknown keys) and
        re-inserts over a delete, rotations and flushes.  In the background
        lifecycle a rotation leaves its memtable sealed, as a flush worker
        finds it, and a flush persists the oldest sealed one, as the worker
        does; synchronously, both seal and flush everything at once."""
        _, cache = _cache()
        index = LSMBTree(name="ds", partition=0, buffer_cache=cache, memory_budget=1 << 20,
                         merge_policy=NoMergePolicy(), max_sealed_memtables=64)
        index.add_secondary_index(SecondaryIndexDef("by_v", _value_of))
        live = set()
        for operation, key, value in operations:
            if operation == "write":
                write = index.upsert if key in live else index.insert
                write(key, _valued(key, value))
                live.add(key)
            elif operation == "delete":
                index.delete(key)
                live.discard(key)
            elif not background:
                index.flush()
            elif operation == "rotate":
                with index._rotation_cond:
                    index._seal()
            else:
                index._background_flush()
            memtables = [index.memory_component] + [
                sealed.memtable for sealed in index.sealed_memtables]
            assert [memtable.live for memtable in memtables] == [
                reference_memtable_live(memtable) for memtable in memtables]
            assert index.record_count() == reference_record_count(index)

    def test_statistics_are_derived_once_per_component_list(self):
        _, cache = _cache()
        index = LSMBTree(name="ds", partition=0, buffer_cache=cache, memory_budget=1 << 20)
        index.add_secondary_index(SecondaryIndexDef("by_v", _value_of))
        for key in range(5):
            index.insert(key, _valued(key, key))
        index.flush()
        first = index.secondary_statistics("by_v")
        assert index.secondary_statistics("by_v") is first
        assert (first.count, first.min_key, first.max_key) == (5, index_key(0), index_key(4))
        index.insert(9, _valued(9, 90))  # a memtable write: no new list
        assert index.secondary_statistics("by_v") is first
        index.flush()
        second = index.secondary_statistics("by_v")
        assert (second.count, second.max_key) == (6, index_key(90))
        index.merge(list(index.components))
        assert index.secondary_statistics("by_v").count == 6
        assert index.secondary_statistics("unknown") is None


def _walked_keys(memtable, definition, low, high, low_inclusive, high_inclusive):
    """The keys a per-entry walk of a memtable snapshot places in the range."""
    keys = set()
    for entry in memtable.snapshot():
        value = None if entry.is_antimatter else definition.extractor(entry.encoded, None)
        if value is None:
            continue
        try:
            if low is not None and (value < low or (not low_inclusive and value == low)):
                continue
            if high is not None and (value > high or (not high_inclusive and value == high)):
                continue
        except TypeError:
            continue
        keys.add(entry.key)
    return keys


def _column_keys(memtable, definition, low, high, low_inclusive, high_inclusive):
    """The memtable's keys for a probe's bounds, encoded as the LSM index
    encodes them; bounds of two ranks hold no key."""
    bounds = index_key_range(low, high, low_inclusive, high_inclusive)
    if bounds is None:
        return []
    return memtable.secondary_keys(definition, *bounds)


_BOUND = st.one_of(st.none(), st.integers(-1, 21), st.sampled_from(["s", "s5", "t"]))
_COLUMN_OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("put"), st.integers(0, 9),
              st.one_of(st.none(), st.integers(0, 20), st.sampled_from(["s1", "s7"]))),
    st.tuples(st.just("delete"), st.integers(0, 9), st.none()),
    st.tuples(st.just("probe"), st.tuples(_BOUND, _BOUND, st.booleans(), st.booleans()),
              st.sampled_from([0, 1])),
), max_size=40)


class TestMemtableColumns:
    @settings(max_examples=80, deadline=None)
    @given(operations=_COLUMN_OPERATIONS)
    def test_a_probe_sees_every_put_before_it(self, operations):
        """Writes interleaved with probes of two indexes — ints, strings,
        values the index skips, deletes, every kind of bound: each probe's
        keys are the walk's over the entries as they are then."""
        memtable = InMemoryComponent()
        definitions = [SecondaryIndexDef("by_v", _value_of),
                       SecondaryIndexDef("by_neg", lambda payload, schema: (
                           None if isinstance(_value_of(payload, schema), str)
                           else -(_value_of(payload, schema) or 0)))]
        for operation, argument, value in operations:
            if operation == "put":
                memtable.put(MemEntry(argument, False, _valued(argument, value)))
            elif operation == "delete":
                memtable.put(MemEntry(argument, True))
            else:
                definition = definitions[value]
                keys = _column_keys(memtable, definition, *argument)
                assert len(keys) == len(set(keys))
                assert set(keys) == _walked_keys(memtable, definition, *argument)

    def test_the_log_stays_within_the_memtable_under_hot_key_upserts(self):
        """Upserts of one key between probes do not grow the memtable, so
        they must not grow the log past its entries either; a probe after
        the log was dropped still sees the newest version."""
        memtable = InMemoryComponent()
        definition = SecondaryIndexDef("by_v", _value_of)
        for key in range(3):
            memtable.put(MemEntry(key, False, _valued(key, key)))
        assert _column_keys(memtable, definition, 0, 2, True, True) == [0, 1, 2]
        for _ in range(4):
            for value in range(100):
                memtable.put(MemEntry(1, False, _valued(1, 10 + value)))
                assert len(memtable._columns[1]) <= len(memtable)
            assert _column_keys(memtable, definition, 109, 109, True, True) == [1]
            assert _column_keys(memtable, definition, 0, 2, True, True) == [0, 2]


class TestAuxiliaryFileLifecycle:
    @pytest.mark.parametrize("reader_held", [False, True])
    def test_only_live_components_keep_files_and_slices(self, reader_held):
        """A component's primary and ``.ix.*`` files and its cached
        slices all go with it — right away, or when the last reader leaves —
        and a failed CREATE INDEX backfill leaves nothing behind."""
        _, cache = _cache()
        manager = cache.file_manager
        slices = ColumnSliceCache(capacity_bytes=1 << 20)
        index = LSMBTree(name="ds", partition=0, buffer_cache=cache, memory_budget=1 << 20,
                         column_cache=slices)

        def key_of(payload):
            return int(payload.split(b"-", 1)[0])

        for name, modulus in (("by_mod3", 3), ("by_mod7", 7)):
            index.add_secondary_index(SecondaryIndexDef(
                name, lambda payload, schema, modulus=modulus: key_of(payload) % modulus))
        for first in (0, 20, 40):
            for key in range(first, first + 20):
                index.insert(key, _payload(key))
            index.flush()
        flushed = list(index.components)
        for component in flushed:
            slices.store_chunk(component.file_name, ("p",), 0,
                               SliceChunk([0], [], [[0]], 0, last=True))
        files = manager.list_files()
        assert len(files) == 3 * 3

        # Payloads the extractor cannot read, in the component the backfill
        # reaches last: the trees already built are taken back.
        def unreadable(payload, schema):
            key = key_of(payload)
            if key < 20 and key % 2:
                raise DecodingError(f"cannot read payload {payload!r}")
            return key

        with pytest.raises(DecodingError, match="cannot read"):
            index.add_secondary_index(SecondaryIndexDef("bad", unreadable))
        assert manager.list_files() == files
        assert index.secondary_statistics("bad") is None
        assert not any("bad" in component.secondary_trees or "bad" in component.secondary_stats
                       for component in flushed)

        if reader_held:
            with index.read_guard():
                index.merge(flushed)
                assert set(files) < set(manager.list_files())  # drops deferred
        else:
            index.merge(flushed)
        index.drain_maintenance()
        (merged,) = index.components
        assert manager.list_files() == sorted(
            merged.file_name + suffix for suffix in ("", ".ix.by_mod3", ".ix.by_mod7"))
        assert [slices.entry_count(component.file_name) for component in flushed] == [0, 0, 0]
        assert index.secondary_statistics("by_mod7").count == 60


class TestWALAndRecovery:
    def test_wal_truncated_after_flush(self):
        wal = WriteAheadLog()
        index = _index(wal=wal)
        for key in range(10):
            index.insert(key, _payload(key))
        assert len(wal) > 0
        index.flush()
        assert list(wal.replay(dataset="ds", partition=0)) == []

    @pytest.mark.parametrize("key", [b"\x11abc", index_key(5) + encode_key(1), b""],
                             ids=["torn", "index-key", "empty"])
    def test_bytes_primary_key_refused_before_the_log(self, key):
        """The leaf codec writes ``bytes`` verbatim as a secondary index key;
        as a primary key they were logged, flushed and then misread from the
        leaf.  Every write path refuses them before the WAL append."""
        wal = WriteAheadLog()
        index = _index(wal=wal)
        index.insert(1, _payload(1))
        logged = len(wal)
        for write in (lambda: index.insert(key, _payload(1)),
                      lambda: index.upsert(key, _payload(1)),
                      lambda: index.delete(key)):
            with pytest.raises(EncodingError, match="primary key"):
                write()
        assert len(wal) == logged
        with pytest.raises(EncodingError, match="primary key"):
            _index().load([(key, _payload(1))])
        index.flush()
        assert _scan_keys(index) == [1]

    def test_recovery_replays_unflushed_records(self):
        _, cache = _cache()
        wal = WriteAheadLog()
        index = _index(wal=wal, cache=cache)
        for key in range(10):
            index.insert(key, _payload(key))
        index.flush()
        for key in range(10, 16):
            index.insert(key, _payload(key))
        # crash: lose the memtable, keep files + WAL
        fresh = _index(wal=wal, cache=cache)
        report = recover_index(fresh, wal=wal)
        assert report.valid_components == 1
        assert report.replayed_log_records == 6
        assert report.flushed_after_replay
        assert _scan_keys(fresh) == list(range(16))

    def test_recovery_removes_invalid_component(self):
        _, cache = _cache()
        wal = WriteAheadLog()
        index = _index(wal=wal, cache=cache)
        for key in range(8):
            index.insert(key, _payload(key))
        with pytest.raises(ComponentStateError):
            index.flush(fail_before_footer=True)  # crash mid-flush
        fresh = _index(wal=wal, cache=cache)
        report = recover_index(fresh, wal=wal)
        assert report.invalid_components_removed == 1
        assert report.valid_components == 0      # nothing valid survived the crash
        assert report.flushed_after_replay       # ...but the WAL replay re-flushed it
        assert fresh.component_count() == 1
        assert _scan_keys(fresh) == list(range(8))

    def test_recovery_without_wal_only_discovers_components(self):
        _, cache = _cache()
        index = _index(cache=cache)
        for key in range(5):
            index.insert(key, _payload(key))
        index.flush()
        fresh = _index(cache=cache)
        report = recover_index(fresh)
        assert report.valid_components == 1
        assert report.replayed_log_records == 0
        assert _scan_keys(fresh) == list(range(5))
