"""Unit tests for the storage substrate: devices, files, cache, compression, WAL."""

import pytest

from repro.config import DeviceKind
from repro.errors import PageNotFoundError, StorageError
from repro.obs import MetricsRegistry
from repro.storage import (
    LAF_ENTRY_SIZE,
    BufferCache,
    FileManager,
    LogRecordType,
    SimulatedStorageDevice,
    WriteAheadLog,
    ZlibCodec,
    compress_page,
    get_codec,
)

PAGE_SIZE = 1024


def _make_cache(codec=None, capacity=8, device_kind=DeviceKind.NVME_SSD):
    device = SimulatedStorageDevice(device_kind)
    manager = FileManager(device, PAGE_SIZE, codec)
    return device, manager, BufferCache(manager, capacity)


def _page(fill: int) -> bytes:
    return bytes([fill % 256]) * PAGE_SIZE


class TestSimulatedDevice:
    def test_bandwidth_profiles_differ(self):
        sata = SimulatedStorageDevice(DeviceKind.SATA_SSD)
        nvme = SimulatedStorageDevice(DeviceKind.NVME_SSD)
        sata.record_read(100 * 1024 * 1024)
        nvme.record_read(100 * 1024 * 1024)
        assert sata.simulated_seconds() > nvme.simulated_seconds()

    def test_per_class_accounting(self):
        device = SimulatedStorageDevice()
        device.record_write(100, io_class="log")
        device.record_write(50, io_class="data")
        assert device.per_class["log"].bytes_written == 100
        assert device.per_class["data"].bytes_written == 50
        assert device.stats.bytes_written == 150

    def test_snapshot_diff(self):
        device = SimulatedStorageDevice()
        device.record_read(10)
        before = device.stats
        device.record_read(30)
        delta = device.stats.diff(before)
        assert delta.bytes_read == 30
        assert delta.read_ops == 1

    def test_simulated_seconds_monotonic_in_bytes(self):
        device = SimulatedStorageDevice(DeviceKind.SATA_SSD)
        device.record_write(10 * 1024 * 1024)
        small = device.simulated_seconds()
        device.record_write(100 * 1024 * 1024)
        assert device.simulated_seconds() > small


class TestCompression:
    def test_zlib_roundtrip(self):
        codec = ZlibCodec()
        original = b"abc" * 500
        compressed = codec.compress(original)
        assert len(compressed) < len(original)
        assert codec.decompress(compressed, len(original)) == original

    def test_compress_page_keeps_incompressible_data(self):
        import os

        codec = ZlibCodec()
        payload = os.urandom(PAGE_SIZE)
        assert compress_page(codec, payload) is payload

    def test_get_codec_names(self):
        assert get_codec(None) is None
        assert isinstance(get_codec("zlib"), ZlibCodec)
        assert isinstance(get_codec("snappy"), ZlibCodec)  # offline stand-in
        with pytest.raises(StorageError):
            get_codec("lz77-madeup")


class TestFileManager:
    def test_write_read_roundtrip(self):
        _, manager, _ = _make_cache()
        manager.create_file("component_1")
        manager.write_page("component_1", 0, _page(1))
        manager.write_page("component_1", 1, _page(2))
        assert manager.read_page("component_1", 0) == _page(1)
        assert manager.read_page("component_1", 1) == _page(2)
        assert manager.num_pages("component_1") == 2

    def test_wrong_page_size_rejected(self):
        _, manager, _ = _make_cache()
        manager.create_file("f")
        with pytest.raises(StorageError):
            manager.write_page("f", 0, b"short")

    def test_nonsequential_write_rejected(self):
        _, manager, _ = _make_cache()
        manager.create_file("f")
        with pytest.raises(StorageError):
            manager.write_page("f", 3, _page(0))

    def test_pages_are_write_once(self):
        _, manager, _ = _make_cache()
        manager.create_file("f")
        manager.write_page("f", 0, _page(1))
        with pytest.raises(StorageError):
            manager.write_page("f", 0, _page(2))
        assert manager.read_page("f", 0) == _page(1)

    def test_entry_size_matches_paper(self):
        """The paper quotes 12-byte LAF entries (so 128KB holds 10,922); a
        compressed file's size is its stored pages plus that look-aside file,
        and every page I/O on it charges one entry to the "laf" class."""
        assert LAF_ENTRY_SIZE == 12
        assert (128 * 1024) // LAF_ENTRY_SIZE == 10922
        device, manager, _ = _make_cache(codec=ZlibCodec())
        manager.create_file("f")
        stored = 0
        for page_no in range(3):
            manager.write_page("f", page_no, _page(page_no))
            stored += len(ZlibCodec().compress(_page(page_no)))
        assert manager.file_size("f") == stored + 4 + 12 * 3
        manager.read_page("f", 1)
        assert device.per_class["laf"].to_dict() == {
            "bytes_read": 12, "bytes_written": 36, "read_ops": 1, "write_ops": 3}

    def test_missing_page_raises(self):
        _, manager, _ = _make_cache()
        manager.create_file("f")
        with pytest.raises(PageNotFoundError):
            manager.read_page("f", 0)

    def test_duplicate_create_rejected(self):
        _, manager, _ = _make_cache()
        manager.create_file("f")
        with pytest.raises(StorageError):
            manager.create_file("f")

    def test_delete_file(self):
        _, manager, _ = _make_cache()
        manager.create_file("f")
        manager.write_page("f", 0, _page(0))
        manager.delete_file("f")
        assert not manager.exists("f")
        with pytest.raises(StorageError):
            manager.read_page("f", 0)

    def test_compressed_file_is_smaller(self):
        _, plain_manager, _ = _make_cache(codec=None)
        _, zipped_manager, _ = _make_cache(codec=ZlibCodec())
        for manager in (plain_manager, zipped_manager):
            manager.create_file("f")
            for page_no in range(10):
                manager.write_page("f", page_no, b"A" * PAGE_SIZE)
        assert zipped_manager.file_size("f") < plain_manager.file_size("f")

    def test_compressed_read_roundtrip(self):
        _, manager, _ = _make_cache(codec=ZlibCodec())
        manager.create_file("f")
        pages = [bytes([i]) * PAGE_SIZE for i in range(5)]
        for page_no, page in enumerate(pages):
            manager.write_page("f", page_no, page)
        for page_no, page in enumerate(pages):
            assert manager.read_page("f", page_no) == page

    def test_device_accounting(self):
        device, manager, _ = _make_cache()
        manager.create_file("f")
        manager.write_page("f", 0, _page(7))
        manager.read_page("f", 0)
        assert device.stats.bytes_written == PAGE_SIZE
        assert device.stats.bytes_read == PAGE_SIZE


class TestBufferCache:
    def test_hits_and_misses(self):
        _, manager, cache = _make_cache()
        manager.create_file("f")
        cache.write_page("f", 0, _page(1))
        cache.read_page("f", 0)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 0
        cache.clear()
        cache.read_page("f", 0)
        assert cache.stats.misses == 1

    def test_eviction_lru_order(self):
        device, manager, cache = _make_cache(capacity=2)
        manager.create_file("f")
        for page_no in range(3):
            cache.write_page("f", page_no, _page(page_no))
        assert cache.resident_pages == 2
        assert cache.stats.evictions == 1
        before = device.stats.bytes_read
        cache.read_page("f", 2)  # most recent: still cached
        assert device.stats.bytes_read == before

    def test_invalidate_file(self):
        _, manager, cache = _make_cache()
        manager.create_file("f")
        cache.write_page("f", 0, _page(0))
        cache.invalidate_file("f")
        assert cache.resident_pages == 0

    def test_decoded_frame_built_once_per_residency(self):
        _, manager, cache = _make_cache()
        manager.create_file("f")
        cache.write_page("f", 0, _page(1))
        decoded = []

        def decode(page):
            decoded.append(page)
            return ("node", page[0])

        # write_page installed bytes: the first decoding hit replaces them.
        assert cache.read_page("f", 0, decode) == ("node", 1)
        assert cache.read_page("f", 0, decode) == ("node", 1)
        assert len(decoded) == 1
        assert (cache.stats.hits, cache.stats.misses) == (2, 0)
        cache.clear()
        assert cache.read_page("f", 0, decode) == ("node", 1)
        assert cache.read_page("f", 0, decode) == ("node", 1)
        assert len(decoded) == 2
        assert (cache.stats.hits, cache.stats.misses, cache.resident_pages) == (3, 1, 1)

    def test_compressed_pages_decompressed_in_cache(self):
        _, manager, cache = _make_cache(codec=ZlibCodec())
        manager.create_file("f")
        page = b"B" * PAGE_SIZE
        cache.write_page("f", 0, page)
        cache.clear()
        assert cache.read_page("f", 0) == page


class TestWriteAheadLog:
    def test_append_and_replay(self):
        wal = WriteAheadLog()
        wal.append(LogRecordType.INSERT, "ds", 0, key=1, payload=b"x")
        wal.append(LogRecordType.DELETE, "ds", 0, key=2)
        wal.append(LogRecordType.INSERT, "other", 1, key=3, payload=b"y")
        replayed = list(wal.replay(dataset="ds", partition=0))
        assert [record.key for record in replayed] == [1, 2]

    def test_flush_markers_excluded_from_replay(self):
        wal = WriteAheadLog()
        wal.append(LogRecordType.FLUSH_START, "ds", 0)
        wal.append(LogRecordType.INSERT, "ds", 0, key=1)
        wal.append(LogRecordType.FLUSH_END, "ds", 0)
        assert [record.key for record in wal.replay()] == [1]

    def test_device_accounting(self):
        device = SimulatedStorageDevice()
        wal = WriteAheadLog(device)
        wal.append(LogRecordType.INSERT, "ds", 0, key=1, payload=b"abc")
        assert device.per_class["log"].bytes_written > 0

    def test_key_is_charged_its_utf8_bytes(self):
        registry = MetricsRegistry()
        device = SimulatedStorageDevice(metrics=registry)
        wal = WriteAheadLog(device, registry)
        wal.append(LogRecordType.INSERT, "ds", 0, key="ééé", payload=b"ab")
        # 28 header bytes + 6 UTF-8 bytes of key + 2 of payload (not 3 chars).
        assert device.per_class["log"].bytes_written == 36
        wal.append(LogRecordType.INSERT, "ds", 0, key=12345, payload=b"ab")
        assert device.per_class["log"].bytes_written == 36 + 35
        counters = registry.snapshot()["counters"]
        assert counters["wal_bytes_written"] == 71
        assert counters["wal_records_appended"] == 2 == wal.last_lsn

    @pytest.mark.parametrize("field, torn", [
        ("record_type", LogRecordType.UPSERT), ("dataset", "dt"), ("partition", 1),
        ("key", 7), ("key", "k7"), ("payload", b"p7"), ("payload", None)])
    def test_crc_covers_every_field(self, field, torn):
        wal = WriteAheadLog()
        for key in range(5):
            wal.append(LogRecordType.INSERT, "ds", 0,
                       key=key if key != 2 else "k2", payload=b"p%d" % key)
        assert wal.drop_torn_tail() == 0
        setattr(wal._records[2], field, torn)
        assert wal.drop_torn_tail() == 3
        assert [record.key for record in wal.replay()] == [0, 1]

    def test_datasets_sharing_partitions_keep_distinct_seeds(self):
        wal = WriteAheadLog()
        first = wal.append(LogRecordType.INSERT, "a", 0, key=1, payload=b"row")
        second = wal.append(LogRecordType.INSERT, "b", 0, key=1, payload=b"row")
        assert first.crc != second.crc and len(wal._crc_seeds) == 2
        assert [record.crc for record in wal.replay()] == [
            record.content_crc() for record in wal.replay()]
        first.dataset = "b"
        assert wal.drop_torn_tail() == 2

    def test_one_fault_point_hit_per_record(self, isolated_injector):
        for point in ("wal.append", "device.write"):
            isolated_injector.add_rule(point, nth=10 ** 9)
        registry = MetricsRegistry()
        wal = WriteAheadLog(SimulatedStorageDevice(metrics=registry), registry)
        wal.append(LogRecordType.INSERT, "ds", 0, key=1, payload=b"row")
        wal.append(LogRecordType.DELETE, "ds", 0, key=1, payload=b"")
        wal.append(LogRecordType.FLUSH_START, "ds", 0)
        wal.append(LogRecordType.UPSERT, "ds", 1, key="k", payload=b"row")
        assert isolated_injector.hit_counts() == {"wal.append": 4, "device.write": 4}

    def test_drop_after_simulates_crash(self):
        wal = WriteAheadLog()
        record = wal.append(LogRecordType.INSERT, "ds", 0, key=1)
        wal.append(LogRecordType.INSERT, "ds", 0, key=2)
        wal.drop_after(record.lsn)
        assert [r.key for r in wal.replay()] == [1]
