"""Cost of a B+-tree point lookup, cold and warm (ROADMAP item 2(b)).

A plain script, not a pytest module, like ``micro_vector.py``:

    PYTHONPATH=src python benchmarks/micro_btree.py [entries] [lookups] [rounds]

Bulk-loads one tree of ``entries`` (default 20 000) integer keys with
200-byte values on 8 KB pages, then times ``lookups`` (default 500) random
``BTree.search`` calls two ways and prints CPU µs per lookup, the median
over the rounds:

* cold — the buffer cache is cleared before each lookup, so every page of
  the descent is read from the file manager and decoded;
* warm — every page is resident, so a lookup is one cache hit and one
  bisect per level.

The gate, run by CI with the defaults: warm must cost under 0.25x cold.  A
hit that re-parses its page (the cost a decoded frame exists to remove)
lands near 0.9x.  Both numbers come from this process, so the box's speed
cancels; the exit status is 1 when the gate fails.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from typing import List

from repro.btree import BTree, BulkLoader, LeafEntry
from repro.storage import BufferCache, FileManager, SimulatedStorageDevice

PAGE_SIZE = 8 * 1024
VALUE_SIZE = 200


def _build(entries: int) -> BTree:
    manager = FileManager(SimulatedStorageDevice(), PAGE_SIZE)
    # Room for every page of the tree: the warm pass never evicts.
    cache = BufferCache(manager, capacity_pages=2 * entries * VALUE_SIZE // PAGE_SIZE + 64)
    manager.create_file("tree")
    info = BulkLoader(cache, "tree").build(
        LeafEntry(key, key.to_bytes(4, "little") * (VALUE_SIZE // 4)) for key in range(entries))
    return BTree(cache, "tree", info)


def _us_per_lookup(tree: BTree, keys: List[int], rounds: int, cold: bool) -> float:
    cache = tree.buffer_cache
    search = tree.search
    samples: List[float] = []
    for _ in range(rounds):
        spent = 0.0
        for key in keys:
            if cold:
                cache.clear()
            started = time.process_time()
            search(key)
            spent += time.process_time() - started
        samples.append(spent / len(keys))
    return 1e6 * statistics.median(samples)


def main(entries: int = 20000, lookups: int = 500, rounds: int = 5) -> int:
    tree = _build(entries)
    keys = random.Random(7).sample(range(entries), lookups)
    for key in keys:  # the lookups find what they look for
        assert tree.search(key).key == key
    print(f"{entries} entries on {tree.info.page_count} pages, {lookups} lookups, "
          f"median of {rounds} rounds, CPU µs per lookup")
    cold = _us_per_lookup(tree, keys, rounds, cold=True)
    print(f"  cold search {cold:8.1f}")
    for key in keys:  # makes every page the lookups touch resident
        tree.search(key)
    warm = _us_per_lookup(tree, keys, rounds, cold=False)
    print(f"  warm search {warm:8.1f}")
    ratio = warm / cold
    print(f"  warm / cold = {ratio:.3f} (gate: < 0.25)")
    return 0 if ratio < 0.25 else 1


if __name__ == "__main__":
    sys.exit(main(*(int(argument) for argument in sys.argv[1:4])))
