"""Golden ledger: the bytes and operations the storage substrate charges.

The paper's storage-size (fig16) and write-volume (fig17) results are sums the
page store, the device and the buffer cache produce.  This test pins those
sums as literals for one fixed workload, so a change below the LSM tree that
moves a single byte or operation between classes — or counts one twice — shows
up as a diff here and not as a drifting figure.  The literals were captured at
the commit before the page store was rewritten; the zlib ones are the output
of the reference zlib deflate at level 1.  The read-side literals (device
reads, cache hits, misses and evictions) were re-pinned when point lookups
started skipping components by their key-hash fence.  Every literal moved
again when components stopped writing a key-only primary-key tree: 40 fewer
page writes, and — because those writes no longer evict pages from the
12-page cache — 2 fewer misses and 2 more hits (no read ever touched that
tree).  The log's counters (``wal_``) were pinned at the commit before
they became readings of the log's own totals rather than counters of their
own: 740 records are the 720 writes and one start and one end marker per
flush.
"""

import random

import pytest

from repro import Dataset, StorageFormat
from repro.config import LSMConfig, StorageConfig
from repro.core import StorageEnvironment
from repro.obs import MetricsRegistry
from repro.storage import IOStats

_WORDS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel")


def _record(rng: random.Random, key: int) -> dict:
    record = {"id": key, "text": " ".join(rng.choice(_WORDS) for _ in range(rng.randint(3, 12))),
              "score": rng.randint(0, 10_000)}
    if rng.random() < 0.5:
        record["tags"] = [rng.choice(_WORDS) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.3:
        record["geo"] = {"lat": rng.randint(-90, 90), "lon": rng.randint(-180, 180)}
    return record


def _assert_total_is_sum_of_classes(device) -> None:
    total = IOStats()
    for cell in device.per_class.values():
        total.bytes_read += cell.bytes_read
        total.bytes_written += cell.bytes_written
        total.read_ops += cell.read_ops
        total.write_ops += cell.write_ops
    assert device.stats == total


def _run_ledger(compression):
    """Seeded ingest -> flush -> merge -> cold scan; returns every count."""
    rng = random.Random(20)
    registry = MetricsRegistry()
    environment = StorageEnvironment(
        StorageConfig(page_size=2048, buffer_cache_pages=12, compression=compression),
        metrics=registry)
    dataset = Dataset.create(
        "ledger", StorageFormat.INFERRED, environment=environment, partitions=2,
        lsm=LSMConfig(memory_component_budget=16 * 1024, merge_policy="none",
                      background_maintenance=False))
    device = environment.device
    for key in range(600):
        dataset.insert(_record(rng, key))
        _assert_total_is_sum_of_classes(device)
    for key in rng.sample(range(600), 80):
        dataset.upsert(_record(rng, key))
    for key in rng.sample(range(600), 40):
        dataset.delete(key)
    _assert_total_is_sum_of_classes(device)
    dataset.flush_all()
    _assert_total_is_sum_of_classes(device)
    for partition in dataset.partitions:
        assert len(partition.index.components) > 2
        partition.index.merge(partition.index.components)
        assert len(partition.index.components) == 1
    _assert_total_is_sum_of_classes(device)
    environment.drop_caches()
    live = sum(1 for _ in dataset.scan())
    _assert_total_is_sum_of_classes(device)
    counters = registry.snapshot()["counters"]
    return {
        "live": live,
        "per_class": {name: cell.to_dict() for name, cell in sorted(device.per_class.items())},
        "stats": device.stats.to_dict(),
        "cache": {name: value for name, value in environment.buffer_cache.stats.to_dict().items()
                  if name != "hit_ratio"},
        "storage_size": environment.storage_size(),
        "dataset_storage_size": dataset.storage_size(),
        "registry": {key: int(value) for key, value in sorted(counters.items())
                     if key.startswith(("device_", "cache_", "wal_"))},
    }


GOLDEN = {
    None: {
        "live": 560,
        "per_class": {
            "data": {"bytes_read": 493568, "bytes_written": 274432,
                     "read_ops": 241, "write_ops": 134},
            "log": {"bytes_read": 0, "bytes_written": 124404, "read_ops": 0, "write_ops": 740},
        },
        "stats": {"bytes_read": 493568, "bytes_written": 398836,
                  "read_ops": 241, "write_ops": 874},
        "cache": {"hits": 85, "misses": 241, "evictions": 351, "writes": 134},
        "storage_size": 102400,
        "dataset_storage_size": 102400,
        "registry": {
            "cache_evictions": 351, "cache_hits": 85, "cache_misses": 241, "cache_writes": 134,
            "device_bytes_read{io_class=data}": 493568,
            "device_bytes_read{io_class=log}": 0,
            "device_bytes_written{io_class=data}": 274432,
            "device_bytes_written{io_class=log}": 124404,
            "device_read_ops{io_class=data}": 241,
            "device_read_ops{io_class=log}": 0,
            "device_write_ops{io_class=data}": 134,
            "device_write_ops{io_class=log}": 740,
            "wal_bytes_written": 124404, "wal_records_appended": 740,
        },
    },
    "zlib": {
        "live": 560,
        "per_class": {
            "data": {"bytes_read": 138717, "bytes_written": 70420,
                     "read_ops": 241, "write_ops": 134},
            # One 12-byte look-aside entry beside every page I/O (paper 2.4).
            "laf": {"bytes_read": 2892, "bytes_written": 1608, "read_ops": 241, "write_ops": 134},
            "log": {"bytes_read": 0, "bytes_written": 124404, "read_ops": 0, "write_ops": 740},
        },
        "stats": {"bytes_read": 141609, "bytes_written": 196432,
                  "read_ops": 482, "write_ops": 1008},
        "cache": {"hits": 85, "misses": 241, "evictions": 351, "writes": 134},
        # 70 420 stored + per file (4 + 12 per page) of look-aside file.
        "storage_size": 31642,
        "dataset_storage_size": 31642,
        "registry": {
            "cache_evictions": 351, "cache_hits": 85, "cache_misses": 241, "cache_writes": 134,
            "device_bytes_read{io_class=data}": 138717,
            "device_bytes_read{io_class=laf}": 2892,
            "device_bytes_read{io_class=log}": 0,
            "device_bytes_written{io_class=data}": 70420,
            "device_bytes_written{io_class=laf}": 1608,
            "device_bytes_written{io_class=log}": 124404,
            "device_read_ops{io_class=data}": 241,
            "device_read_ops{io_class=laf}": 241,
            "device_read_ops{io_class=log}": 0,
            "device_write_ops{io_class=data}": 134,
            "device_write_ops{io_class=laf}": 134,
            "device_write_ops{io_class=log}": 740,
            "wal_bytes_written": 124404, "wal_records_appended": 740,
        },
    },
}


@pytest.mark.parametrize("compression", [None, "zlib"])
def test_golden_ledger(compression):
    assert _run_ledger(compression) == GOLDEN[compression]
