"""Cost of a full scan served by the column-slice cache against a cold one
(ROADMAP item 7(e)), and what a cached chunk leaves for the cyclic
collector to walk (item 6).

A plain script, not a pytest module, like ``micro_btree.py``:

    PYTHONPATH=src python benchmarks/micro_scan.py [records] [rounds]

Ingests ``records`` (default 1 646) generated tweets into a one-partition
INFERRED dataset and flushes them into one component, then drives the
query engine's scan operator (``BatchScanOperator``, as a plan that reads
the slice cache builds it) over three paths a Twitter query reads —
``user.name``, ``text`` and ``entities.hashtags`` — two ways, and prints CPU
µs per row, the median over ``rounds`` (default 15):

* cold — the buffer cache and the slice cache are dropped before each
  scan, so every leaf is read, decoded and extracted;
* warm — every chunk is cached, so the scan only moves what the cache
  holds into column batches.

Then it prints, per cached chunk, the rows it holds and the objects
reachable from it that ``gc.is_tracked`` reports after a full collection.

The gate: warm must cost under 0.05x cold.  A scan that moves rows one at a
time (a generator frame, a heap step and a result object per row, and a
copy of every cached value) lands near 0.15x; one that moves key runs and
hands the cached columns out by reference lands near 0.01x.  All numbers
come from this process, so the box's speed cancels; the exit status is 1
when the gate fails.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from typing import List

from repro import Dataset, StorageFormat
from repro.datasets import twitter
from repro.query.operators import BatchScanOperator
from repro.vector import BatchExtractor

PATHS = [("user", "name"), ("text",), ("entities", "hashtags")]
GATE = 0.05


def _us_per_row(dataset: Dataset, rounds: int, cold: bool) -> float:
    partition = dataset.partitions[0]
    environment = partition.environment
    extractor = BatchExtractor(PATHS)
    samples: List[float] = []
    rows = 0
    for _ in range(rounds):
        if cold:
            environment.drop_caches()
        scan = BatchScanOperator(partition, "t", PATHS, 1024, extractor, use_slice_cache=True)
        started = time.process_time()
        rows = sum(len(batch) for batch in scan)
        samples.append(time.process_time() - started)
    return 1e6 * statistics.median(samples) / rows


def _tracked_per_chunk(cache) -> List[tuple]:
    """``(rows, tracked objects reachable)`` of every cached chunk."""
    gc.collect()
    counts = []
    for chunk in list(cache._entries.values()):
        seen = set()
        pending = [chunk]
        while pending:
            item = pending.pop()
            if id(item) in seen or not gc.is_tracked(item) or isinstance(item, type):
                continue  # a chunk's class is shared, not walked per chunk
            seen.add(id(item))
            pending.extend(gc.get_referents(item))
        counts.append((len(chunk.keys), len(seen)))
    return counts


def main(records: int = 1646, rounds: int = 15) -> int:
    dataset = Dataset.create("MicroScan", StorageFormat.INFERRED)
    dataset.insert_all(list(twitter.generate(records, seed=1)))
    dataset.flush_all()
    print(f"{records} records in {dataset.partitions[0].index.component_count()} component, "
          f"{len(PATHS)} paths, median of {rounds} rounds, CPU µs per row")
    cold = _us_per_row(dataset, rounds, cold=True)
    warm = _us_per_row(dataset, rounds, cold=False)
    ratio = warm / cold
    print(f"  cold scan {cold:8.2f}")
    print(f"  warm scan {warm:8.2f}   ({ratio:.3f}x cold, gate < {GATE}x)")
    for rows, tracked in _tracked_per_chunk(dataset.environments[0].column_cache):
        print(f"  cached chunk of {rows} rows: {tracked} collector-tracked objects")
    dataset.close()
    if ratio >= GATE:
        print(f"FAIL: a warm scan costs {ratio:.3f}x a cold one, gate < {GATE}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(*(int(argument) for argument in sys.argv[1:])))
