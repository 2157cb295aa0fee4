"""Golden ledger: the bytes and operations the storage substrate charges.

The paper's storage-size (fig16) and write-volume (fig17) results are sums the
page store, the device and the buffer cache produce.  This test pins those
sums as literals for one fixed workload, so a change below the LSM tree that
moves a single byte or operation between classes — or counts one twice — shows
up as a diff here and not as a drifting figure.  The literals were captured at
the commit before the page store was rewritten; the zlib ones are the output
of the reference zlib deflate at level 1.  The read-side literals (device
reads, cache hits, misses and evictions) were re-pinned when point lookups
started skipping components by their key-hash fence; every write-side literal
is the original.
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
                     if key.startswith(("device_", "cache_"))},
    }


GOLDEN = {
    None: {
        "live": 560,
        "per_class": {
            "data": {"bytes_read": 497664, "bytes_written": 356352,
                     "read_ops": 243, "write_ops": 174},
            "log": {"bytes_read": 0, "bytes_written": 124404, "read_ops": 0, "write_ops": 740},
        },
        "stats": {"bytes_read": 497664, "bytes_written": 480756,
                  "read_ops": 243, "write_ops": 914},
        "cache": {"hits": 83, "misses": 243, "evictions": 393, "writes": 174},
        "storage_size": 122880,
        "dataset_storage_size": 122880,
        "registry": {
            "cache_evictions": 393, "cache_hits": 83, "cache_misses": 243, "cache_writes": 174,
            "device_bytes_read{io_class=data}": 497664,
            "device_bytes_read{io_class=log}": 0,
            "device_bytes_written{io_class=data}": 356352,
            "device_bytes_written{io_class=log}": 124404,
            "device_read_ops{io_class=data}": 243,
            "device_read_ops{io_class=log}": 0,
            "device_write_ops{io_class=data}": 174,
            "device_write_ops{io_class=log}": 740,
        },
    },
    "zlib": {
        "live": 560,
        "per_class": {
            "data": {"bytes_read": 140125, "bytes_written": 74959,
                     "read_ops": 243, "write_ops": 174},
            # One 12-byte look-aside entry beside every page I/O (paper 2.4).
            "laf": {"bytes_read": 2916, "bytes_written": 2088, "read_ops": 243, "write_ops": 174},
            "log": {"bytes_read": 0, "bytes_written": 124404, "read_ops": 0, "write_ops": 740},
        },
        "stats": {"bytes_read": 143041, "bytes_written": 201451,
                  "read_ops": 486, "write_ops": 1088},
        "cache": {"hits": 83, "misses": 243, "evictions": 393, "writes": 174},
        # 74 959 stored + per file (4 + 12 per page) of look-aside file.
        "storage_size": 33325,
        "dataset_storage_size": 33325,
        "registry": {
            "cache_evictions": 393, "cache_hits": 83, "cache_misses": 243, "cache_writes": 174,
            "device_bytes_read{io_class=data}": 140125,
            "device_bytes_read{io_class=laf}": 2916,
            "device_bytes_read{io_class=log}": 0,
            "device_bytes_written{io_class=data}": 74959,
            "device_bytes_written{io_class=laf}": 2088,
            "device_bytes_written{io_class=log}": 124404,
            "device_read_ops{io_class=data}": 243,
            "device_read_ops{io_class=laf}": 243,
            "device_read_ops{io_class=log}": 0,
            "device_write_ops{io_class=data}": 174,
            "device_write_ops{io_class=laf}": 174,
            "device_write_ops{io_class=log}": 740,
        },
    },
}


@pytest.mark.parametrize("compression", [None, "zlib"])
def test_golden_ledger(compression):
    assert _run_ledger(compression) == GOLDEN[compression]
