"""Unit tests for the page-based B+-tree (bulk load + reads)."""

import random
import struct
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import BTree, BulkLoader, LeafEntry, decode_key, encode_key, leaf_head, pages
from repro.errors import CorruptPageError, EncodingError, StorageError
from repro.storage import BufferCache, FileManager, SimulatedStorageDevice
from repro.types import ADate, ADateTime, ATime, index_key

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


def _ix(value, primary_key):
    """A secondary tree's key: ``value``'s index key, then the primary key."""
    return index_key(value) + encode_key(primary_key)


#: Every page a component writes starts from these bytes: ``encode_key`` as it
#: was before its exact-type dispatch, captured as hex; then secondary keys,
#: ``index_key`` bytes and a primary key's, as they became order-preserving.
GOLDEN_KEYS = [
    (0, "000000000000000000"),
    (-1, "00ffffffffffffffff"),
    (2**63 - 1, "00ffffffffffffff7f"),
    (-2**63, "000000000000000080"),
    (0.0, "010000000000000000"),
    (-0.0, "010000000000000080"),
    (1.5, "01000000000000f83f"),
    (float("inf"), "01000000000000f07f"),
    (float("-inf"), "01000000000000f0ff"),
    ("", "020000"),
    ("abc", "020300616263"),
    ("hütter 日本", "020e0068c3bc7474657220e697a5e69cac"),
    (_ix(5, 7), "11c014000000000000000700000000000000"),
    (_ix(-1.5, 7), "114007ffffffffffff000700000000000000"),
    (_ix(-0.0, 1), "118000000000000000000100000000000000"),
    (_ix("ab", 7), "12626300000700000000000000"),
    (_ix(ADateTime(-1), 3), "157fffffffffffffff000300000000000000"),
    (_ix(2**53 + 1, -1), "11c34000000000000000ffffffffffffffff"),
    (_ix("a\x00ÿ", "k"), "126201c4c0000201006b"),
]


class TestKeyCodec:
    @pytest.mark.parametrize("key", [0, -5, 2**40, 3.25, "abc", _ix("a", 1), _ix(2.5, "x")])
    def test_roundtrip(self, key):
        payload = encode_key(key)
        decoded, consumed = decode_key(payload)
        assert decoded == key
        assert consumed == len(payload)

    @pytest.mark.parametrize("key, golden", GOLDEN_KEYS, ids=[repr(key) for key, _ in GOLDEN_KEYS])
    def test_golden_bytes(self, key, golden):
        assert encode_key(key).hex() == golden
        decoded, consumed = decode_key(bytes.fromhex(golden))
        assert (repr(decoded), consumed) == (repr(key), len(golden) // 2)

    def test_bool_rejected(self):
        with pytest.raises(EncodingError):
            encode_key(True)

    @pytest.mark.parametrize("key", [2**63, -2**63 - 1, 2**70, 2**64, -2**70])
    def test_int_outside_int64_rejected(self, key):
        with pytest.raises(EncodingError, match="INT64"):
            encode_key(key)
        with pytest.raises(EncodingError):
            leaf_head(key, False, 0)

    def test_head_is_what_pack_leaf_writes_per_entry(self):
        entries = [LeafEntry(-3, b"neg"), LeafEntry(5, b"", is_antimatter=True),
                   LeafEntry(2**63 - 1, bytes(17))]
        entries += [LeafEntry(key, value) for key, value in
                    ((2.5, b"f"), ("k", b"str"), (_ix(1, 2), encode_key(2)), (_ix("a", 1.5), b""))]
        for group in (entries[:3], entries[3:4], entries[4:5], entries[5:]):
            heads = [leaf_head(e.key, e.is_antimatter, len(e.value)) for e in group]
            page = pages.pack_leaf(heads, [e.value for e in group], None, PAGE_SIZE)
            node = pages.unpack_leaf(page)
            start = pages.LEAF_HEADER_SIZE
            for index, (entry, head) in enumerate(zip(group, heads)):
                end = node.value_ends[index]
                assert end - start == len(head) + len(entry.value)
                assert page[start:end] == head + entry.value
                assert head[:-pages.HEAD_TAIL_SIZE] == encode_key(entry.key)
                assert node.entry(index) == entry
                start = end
            assert page[start:] == bytes(PAGE_SIZE - start)

    @pytest.mark.parametrize("key", [{"not": "a key"}, (1, 2), b"", encode_key(5)])
    def test_unsupported_type_rejected(self, key):
        """Neither a tuple nor bytes that do not start like an index key."""
        with pytest.raises(EncodingError):
            encode_key(key)


def _pack(entries, page_size=PAGE_SIZE):
    heads = [leaf_head(entry.key, entry.is_antimatter, len(entry.value)) for entry in entries]
    return pages.pack_leaf(heads, [entry.value for entry in entries], None, page_size)


def _walk(page):
    """A leaf's ``(keys, flags, values)``, one ``decode_key`` per entry."""
    (count,) = struct.unpack_from("<H", page, 1)
    cursor = pages.LEAF_HEADER_SIZE
    keys, flags, values = [], [], []
    for _ in range(count):
        key, cursor = decode_key(page, cursor)
        flag, length = struct.unpack_from("<BI", page, cursor)
        keys.append(key)
        flags.append(flag)
        values.append(page[cursor + 5:cursor + 5 + length])
        cursor += 5 + length
    return keys, flags, values


_INT64 = st.integers(-2**63, 2**63 - 1)
_INT32 = st.integers(-2**31, 2**31 - 1)
_SCALAR = st.one_of(_INT64, st.floats(allow_nan=False), st.text(max_size=4))
#: Values of an 8-byte index key: numbers, dates, times, datetimes.
_FIXED_VALUE = st.one_of(_INT64, st.floats(allow_nan=False), st.builds(ADate, _INT32),
                         st.builds(ATime, _INT32), st.builds(ADateTime, _INT64))
#: The table shapes, and keys that share some of their bytes: other widths,
#: string index keys, 8-byte index keys with a float or string primary key.
_KEYS = [_INT64, st.builds(_ix, _FIXED_VALUE, _INT64),
         st.one_of(_SCALAR, st.builds(_ix, _FIXED_VALUE, _SCALAR),
                   st.builds(_ix, st.text(max_size=4), _SCALAR))]


@st.composite
def _leaves(draw):
    """A page ``pack_leaf`` writes, and its entries: empty values, some
    valued, or key-only but for one later entry; as many as fit the page."""
    page_size = draw(st.sampled_from([64, 256]))
    keys = draw(st.lists(draw(st.sampled_from(_KEYS)), max_size=40))
    mode = draw(st.sampled_from(["key-only", "valued", "one later valued"]))
    if mode == "valued":
        values = draw(st.lists(st.binary(max_size=12), min_size=len(keys), max_size=len(keys)))
    else:
        values = [b""] * len(keys)
        if mode == "one later valued" and len(keys) > 1:
            values[draw(st.integers(1, len(keys) - 1))] = draw(st.binary(min_size=1, max_size=12))
    flags = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
    entries, size = [], pages.LEAF_HEADER_SIZE
    for key, value, is_antimatter in zip(keys, values, flags):
        size += len(leaf_head(key, is_antimatter, len(value))) + len(value)
        if size > page_size:
            break
        entries.append(LeafEntry(key, value, is_antimatter))
    return _pack(entries, page_size), entries


def _table_shape(key):
    """The table a key fits — ``int``, or the rank byte of an 18-byte index
    key with an ``int`` primary key — or None."""
    if type(key) is int:
        return int
    if type(key) is bytes and len(key) == 18 and key[0] != index_key("")[0] and key[9] == 0:
        return key[0]
    return None


@settings(max_examples=300, deadline=None)
@given(_leaves())
def test_unpack_leaf_equals_a_per_entry_walk(leaf):
    """Whichever way ``unpack_leaf`` decodes a leaf — one struct table for a
    key-only leaf of ``int`` keys or of 18-byte index keys (an 8-byte value,
    an ``int`` primary key) of one rank, else the walk — it gives the keys,
    flags and values a per-entry ``decode_key`` walk does."""
    page, entries = leaf
    node = pages.unpack_leaf(page)
    shapes = {_table_shape(entry.key) for entry in entries}
    key_only = all(entry.value == b"" for entry in entries)
    # The table (its offsets are ranges) serves exactly the leaves it fits.
    assert isinstance(node.flag_offsets, range) == (
        key_only and len(shapes) == 1 and None not in shapes)
    keys, flags, values = _walk(page)
    assert repr(list(node.keys)) == repr(keys) == repr([entry.key for entry in entries])
    decoded = list(node.entries())
    assert decoded == [node.entry(index) for index in range(len(keys))] == entries
    assert [entry.is_antimatter for entry in decoded] == [bool(flag) for flag in flags]
    assert [entry.value for entry in decoded] == values


class TestMalformedPages:
    """A page whose entries run past its end raises ``StorageError`` naming
    the offset, on the walk and on the table path alike — not a bare
    ``struct.error``, and not a value cut short at the page end."""

    SHAPES = {"valued": [LeafEntry(key, b"v" * 9) for key in range(3)],
              "int key-only": [LeafEntry(key, b"") for key in range(3)],
              "string key-only": [LeafEntry(_ix(f"s{key}", key), b"") for key in range(3)],
              "secondary key-only": [LeafEntry(_ix(key, -key), b"") for key in range(3)]}

    @pytest.mark.parametrize("shape", SHAPES)
    def test_leaf_entry_count_past_the_page(self, shape):
        page = bytearray(_pack(self.SHAPES[shape]))
        struct.pack_into("<H", page, 1, 1000)
        with pytest.raises(StorageError, match="offset"):
            pages.unpack_leaf(bytes(page))

    @pytest.mark.parametrize("index", [0, 2])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_leaf_value_length_past_the_page(self, shape, index):
        page = bytearray(_pack(self.SHAPES[shape]))
        at = pages.unpack_leaf(bytes(page)).flag_offsets[index]
        struct.pack_into("<I", page, at + 1, PAGE_SIZE)
        with pytest.raises(StorageError, match="offset"):
            pages.unpack_leaf(bytes(page))

    @pytest.mark.parametrize("count", [100, 1000])
    def test_interior_entry_count_past_the_page(self, count):
        page = bytearray(pages.pack_interior([encode_key(10)], [0, 1], PAGE_SIZE))
        struct.pack_into("<H", page, 1, count)
        with pytest.raises(StorageError, match="offset"):
            pages.unpack_interior(bytes(page))


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


@pytest.fixture
def decodes(monkeypatch):
    """Calls of ``unpack_leaf`` / ``unpack_interior``, counted by kind (the
    cache's decoder looks both up in ``pages`` on every call)."""
    counts = {"leaf": 0, "interior": 0}

    def counting(kind, original):
        def wrapper(page):
            counts[kind] += 1
            return original(page)
        return wrapper

    monkeypatch.setattr(pages, "unpack_leaf", counting("leaf", pages.unpack_leaf))
    monkeypatch.setattr(pages, "unpack_interior", counting("interior", pages.unpack_interior))
    return counts


class TestDecodedFrames:
    """A page is decoded once per buffer-cache residency; hits parse nothing."""

    def _tree(self):
        tree, _ = _build([LeafEntry(i, bytes(20)) for i in range(2000)])
        tree.buffer_cache.clear()
        return tree

    def test_warm_search_and_range_scan_decode_nothing(self, decodes):
        tree = self._tree()
        for key in (0, 999, 1999):
            assert tree.search(key).key == key
        assert [e.key for e in tree.range_scan(500, 700)] == list(range(500, 701))
        cold = dict(decodes)
        assert cold["leaf"] > 0 and cold["interior"] > 0
        for key in (0, 999, 1999):
            assert tree.search(key).key == key
        assert [e.key for e in tree.range_scan(500, 700)] == list(range(500, 701))
        assert decodes == cold

    def test_scan_all_after_clear_decodes_each_leaf_once(self, decodes):
        tree = self._tree()
        assert [e.key for e in tree.scan_all()] == list(range(2000))
        assert decodes == {"leaf": tree.info.leaf_count, "interior": 0}
        assert sum(1 for _ in tree.scan_all()) == 2000
        assert decodes == {"leaf": tree.info.leaf_count, "interior": 0}

    def test_written_page_decoded_on_first_hit_only(self, decodes):
        tree, _ = _build([LeafEntry(i, b"v") for i in range(10)])
        assert tree.info.page_count == 1
        before = tree.buffer_cache.stats_snapshot()
        assert tree.search(3).value == b"v"
        assert tree.search(4).value == b"v"
        assert len(list(tree.scan_all())) == 10
        assert decodes == {"leaf": 1, "interior": 0}
        delta = tree.buffer_cache.stats_snapshot().diff(before)
        assert (delta.hits, delta.misses) == (3, 0)

    def test_corrupt_page_is_never_installed(self, decodes, isolated_injector):
        tree = self._tree()
        isolated_injector.add_rule("file.read_page", nth=1, error="corrupt", times=1)
        with pytest.raises(CorruptPageError):
            tree.search(1500)
        assert tree.buffer_cache.resident_pages == 0
        assert decodes == {"leaf": 0, "interior": 0}
        isolated_injector.clear()
        found = tree.search(1500)
        assert (found.key, found.value, found.is_antimatter) == (1500, bytes(20), False)
        assert [e.key for e in tree.range_scan(1498, 1502)] == list(range(1498, 1503))

    def test_concurrent_readers_share_frames_under_eviction(self):
        # More readers than cores on a cache far smaller than the tree: frames
        # are decoded, installed, evicted and re-decoded under every reader.
        tree, _ = _build([LeafEntry(i, i.to_bytes(4, "little") * 5) for i in range(2000)])
        cache = BufferCache(tree.buffer_cache.file_manager, capacity_pages=8)
        tree = BTree(cache, tree.file_name, tree.info)
        errors = []

        def reader(seed):
            rng = random.Random(seed)
            try:
                for _ in range(200):
                    key = rng.randrange(2000)
                    assert tree.search(key).value == key.to_bytes(4, "little") * 5
                    assert [e.key for e in tree.range_scan(key, key + 40)] == \
                        list(range(key, min(key + 41, 2000)))
            except Exception as exc:  # a thread's failure is reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.resident_pages <= 8 and cache.stats.evictions > 0

    def test_mutating_a_returned_entry_does_not_reach_the_frame(self):
        tree, _ = _build([LeafEntry(i, f"value-{i}".encode()) for i in range(10)])
        found = tree.search(3)
        found.key, found.value, found.is_antimatter = 99, b"changed", True
        assert tree.search(3) == LeafEntry(3, b"value-3")
        scanned = next(tree.range_scan(3, 3))
        scanned.value = b"changed"
        assert [e.value for e in tree.range_scan(3, 4)] == [b"value-3", b"value-4"]
        assert tree.search(99) is None
