"""Unit tests for the page-based B+-tree (bulk load + reads)."""

import random

import pytest

from repro.btree import BTree, BulkLoader, LeafEntry, decode_key, encode_key
from repro.errors import EncodingError, StorageError
from repro.storage import BufferCache, FileManager, SimulatedStorageDevice

PAGE_SIZE = 512


def _cache(page_size=PAGE_SIZE, capacity=256):
    device = SimulatedStorageDevice()
    manager = FileManager(device, page_size)
    return device, BufferCache(manager, capacity)


def _build(entries, page_size=PAGE_SIZE):
    device, cache = _cache(page_size)
    cache.file_manager.create_file("tree")
    info = BulkLoader(cache, "tree").build(entries)
    return BTree(cache, "tree", info), device


class TestKeyCodec:
    @pytest.mark.parametrize("key", [0, -5, 2**40, 3.25, "abc", ("a", 1), (1, 2.5, "x")])
    def test_roundtrip(self, key):
        payload = encode_key(key)
        decoded, consumed = decode_key(payload)
        assert decoded == key
        assert consumed == len(payload)

    def test_bool_rejected(self):
        with pytest.raises(EncodingError):
            encode_key(True)

    def test_unsupported_type_rejected(self):
        with pytest.raises(EncodingError):
            encode_key({"not": "a key"})


class TestBulkLoadAndSearch:
    def test_point_lookup_small(self):
        entries = [LeafEntry(i, f"value-{i}".encode()) for i in range(10)]
        tree, _ = _build(entries)
        assert tree.search(3).value == b"value-3"
        assert tree.search(99) is None

    def test_point_lookup_multi_level(self):
        entries = [LeafEntry(i, bytes(20)) for i in range(2000)]
        tree, _ = _build(entries)
        assert tree.info.page_count > tree.info.leaf_count > 1
        for key in (0, 1, 999, 1500, 1999):
            assert tree.search(key) is not None
        assert tree.search(2000) is None
        assert tree.search(-1) is None

    def test_string_keys(self):
        entries = [LeafEntry(f"k{i:04d}", str(i).encode()) for i in range(300)]
        tree, _ = _build(entries)
        assert tree.search("k0123").value == b"123"
        assert tree.search("nope") is None

    def test_empty_tree(self):
        tree, _ = _build([])
        assert tree.info.is_empty
        assert tree.search(1) is None
        assert list(tree.scan_all()) == []
        assert list(tree.range_scan(0, 10)) == []

    def test_unsorted_input_rejected(self):
        device, cache = _cache()
        cache.file_manager.create_file("tree")
        loader = BulkLoader(cache, "tree")
        with pytest.raises(StorageError):
            loader.build([LeafEntry(2, b"a"), LeafEntry(1, b"b")])

    def test_duplicate_keys_rejected(self):
        device, cache = _cache()
        cache.file_manager.create_file("tree")
        loader = BulkLoader(cache, "tree")
        with pytest.raises(StorageError):
            loader.build([LeafEntry(1, b"a"), LeafEntry(1, b"b")])

    def test_oversized_record_rejected(self):
        device, cache = _cache()
        cache.file_manager.create_file("tree")
        loader = BulkLoader(cache, "tree")
        with pytest.raises(StorageError):
            loader.build([LeafEntry(1, bytes(PAGE_SIZE))])

    def test_antimatter_flag_roundtrip(self):
        entries = [LeafEntry(1, b"", is_antimatter=True), LeafEntry(2, b"live")]
        tree, _ = _build(entries)
        assert tree.search(1).is_antimatter
        assert not tree.search(2).is_antimatter


class TestScans:
    def test_scan_all_in_order(self):
        keys = list(range(0, 1000, 3))
        entries = [LeafEntry(key, bytes(10)) for key in keys]
        tree, _ = _build(entries)
        assert [entry.key for entry in tree.scan_all()] == keys

    def test_range_scan_inclusive(self):
        entries = [LeafEntry(i, bytes(8)) for i in range(500)]
        tree, _ = _build(entries)
        assert [e.key for e in tree.range_scan(100, 110)] == list(range(100, 111))

    def test_range_scan_exclusive_bounds(self):
        entries = [LeafEntry(i, bytes(8)) for i in range(50)]
        tree, _ = _build(entries)
        result = [e.key for e in tree.range_scan(10, 20, include_low=False, include_high=False)]
        assert result == list(range(11, 20))

    def test_range_scan_open_ended(self):
        entries = [LeafEntry(i, bytes(8)) for i in range(100)]
        tree, _ = _build(entries)
        assert [e.key for e in tree.range_scan(None, 5)] == list(range(0, 6))
        assert [e.key for e in tree.range_scan(95, None)] == list(range(95, 100))

    def test_range_scan_between_keys(self):
        entries = [LeafEntry(i * 10, bytes(8)) for i in range(20)]
        tree, _ = _build(entries)
        assert [e.key for e in tree.range_scan(15, 35)] == [20, 30]

    def test_range_scan_selectivity_reads_fewer_pages(self):
        """A selective range query should read far fewer pages than a full scan."""
        entries = [LeafEntry(i, bytes(40)) for i in range(5000)]

        tree, device = _build(entries)
        tree.buffer_cache.clear()
        before = device.stats
        list(tree.range_scan(100, 120))
        selective = device.stats.diff(before).bytes_read

        tree.buffer_cache.clear()
        before = device.stats
        list(tree.scan_all())
        full = device.stats.diff(before).bytes_read
        assert selective < full / 5

    def test_one_leaf_range_scan_reads_each_page_once(self):
        """A range inside one leaf costs the descent and nothing more: the
        leaf the descent ends on is not fetched again for its next pointer."""
        entries = [LeafEntry(i, bytes(40)) for i in range(5000)]
        tree, _ = _build(entries)
        cache = tree.buffer_cache
        before = cache.stats_snapshot()
        found = tree.search(100)
        descent = cache.stats_snapshot().diff(before)
        assert found is not None and descent.hits + descent.misses > 1  # interior + leaf

        before = cache.stats_snapshot()
        assert [e.key for e in tree.range_scan(100, 101)] == [100, 101]
        scan = cache.stats_snapshot().diff(before)
        assert scan.hits + scan.misses == descent.hits + descent.misses

    def test_random_workload_against_dict_oracle(self):
        rng = random.Random(42)
        keys = sorted(rng.sample(range(100000), 800))
        oracle = {key: str(key).encode() for key in keys}
        entries = [LeafEntry(key, oracle[key]) for key in keys]
        tree, _ = _build(entries, page_size=1024)
        for probe in rng.sample(range(100000), 200):
            expected = oracle.get(probe)
            found = tree.search(probe)
            assert (found.value if found else None) == expected
        low, high = sorted(rng.sample(range(100000), 2))
        assert [e.key for e in tree.range_scan(low, high)] == [k for k in keys if low <= k <= high]
