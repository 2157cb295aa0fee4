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

Last, it feeds the warm scan's batches to the partial GROUP BY
(``group_partials``) the way Twitter Q2 does — ``avg(length(text))``, the
length column computed up front — keyed once by ``user.name`` (about 20
rows per group) and once by a distinct key per row, and prints CPU µs per
row of each, timed round-robin.

The gates: warm must cost under 0.05x cold.  A scan that moves rows one at
a time (a generator frame, a heap step and a result object per row, and a
copy of every cached value) lands near 0.15x; one that moves key runs and
hands the cached columns out by reference lands near 0.01x.  Grouped by
name must cost under 0.5x grouped by a distinct key: a kernel that folds
each group's values in one call per aggregate lands near 0.25x, one that
folds row by row near 0.8x.  All numbers come from this process, so the
box's speed cancels; the exit status is 1 when a gate fails.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from typing import Dict, List, Tuple

from repro import Dataset, StorageFormat
from repro.datasets import twitter
from repro.query.operators import BatchScanOperator, group_partials
from repro.sqlpp import compile as compile_sqlpp
from repro.vector import BatchExtractor, ColumnBatch

PATHS = [("user", "name"), ("text",), ("entities", "hashtags")]
GATE = 0.05
GROUP_GATE = 0.5


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


def _group_us_per_row(dataset: Dataset, rounds: int) -> Tuple[float, float, int]:
    """CPU µs per row of Q2's partial GROUP BY over the warm scan's batches,
    keyed by ``user.name`` and by a distinct key per row, and the number of
    names."""
    partition = dataset.partitions[0]
    scan = BatchScanOperator(partition, "t", PATHS, 1024, BatchExtractor(PATHS),
                             use_slice_cache=True)
    batches, rows = [], 0
    for batch in scan:
        names = batch.columns[("t", ("user", "name"))]
        columns = {"name": names,
                   "distinct": [f"row_{rows + row}" for row in range(len(names))],
                   "length": [len(text) for text in batch.columns[("t", ("text",))]]}
        batches.append(ColumnBatch(None, columns, len(names)))
        rows += len(names)
    aggregates = compile_sqlpp(twitter.SQLPP["Q2"]).spec.aggregates  # avg(length(t.text))
    length = [lambda batch: batch.columns["length"]]
    samples: Dict[str, List[float]] = {"name": [], "distinct": []}
    for _ in range(rounds):
        for key in samples:
            group_keys = [(key, lambda batch, key=key: batch.columns[key])]
            started = time.process_time()
            groups = group_partials(iter(batches), group_keys, aggregates, length)
            samples[key].append(time.process_time() - started)
            if key == "name":
                names = len(groups)
    grouped, distinct = (1e6 * statistics.median(samples[key]) / rows for key in samples)
    return grouped, distinct, names


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
    grouped, distinct, names = _group_us_per_row(dataset, rounds)
    group_ratio = grouped / distinct
    print(f"  GROUP BY distinct key {distinct:8.2f}")
    print(f"  GROUP BY user.name    {grouped:8.2f}   ({names} groups, "
          f"{group_ratio:.3f}x distinct, gate < {GROUP_GATE}x)")
    dataset.close()
    status = 0
    if ratio >= GATE:
        print(f"FAIL: a warm scan costs {ratio:.3f}x a cold one, gate < {GATE}x")
        status = 1
    if group_ratio >= GROUP_GATE:
        print(f"FAIL: grouping by name costs {group_ratio:.3f}x a distinct key per row, "
              f"gate < {GROUP_GATE}x")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(*(int(argument) for argument in sys.argv[1:])))
