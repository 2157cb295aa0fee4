"""Byte-bounded LRU cache of decoded column slices, LSM-lifecycle aware.

The paper's columnar layout makes repeated analytical scans decode-bound:
the pages may already sit in the buffer cache, but every scan still walks
each record's vectors and re-decodes the requested columns.  This cache
memoizes the *decoded* slices instead.  Entries are chunks of an on-disk
component's scan stream — for one path set, chunk ``i`` holds rows
``i*chunk_rows .. (i+1)*chunk_rows - 1`` of the component in key order,
each row as ``(key, is_antimatter, values)`` with ``values`` aligned to the
extractor's request paths (``None`` for anti-matter rows, which must keep
shadowing older components during the merge-scan).  A warm scan serves
whole chunks without touching the B+-tree, the buffer cache, or the
simulated device: device bytes read drop to zero.

Lifecycle safety comes from two facts.  Components are immutable and their
file names are never reused (sequence numbers only grow, across recovery
too), so an entry can never describe different data than it was built
from.  And the LSM index evicts eagerly anyway — component drops (the
merge/`read_guard` deferred-deletion path) and quarantine events both call
:meth:`ColumnSliceCache.invalidate_component` — so a merged-away or corrupt
component's slices leave the cache as soon as the component leaves the
tree, and memory is not held hostage by dead files.

The cache owns what it holds.  A cold scan hands each freshly decoded value
tuple to its caller and files its own copy, made by :func:`sized_copy` in the
one walk that also sizes it; a warm scan yields a copy from the same copier.
So a caller that mutates a result row — a dict, a list, an object inside a
multiset — can never reach a cached slice.

The byte budget is 32 MiB unless the cache is built with another
``capacity_bytes``; ``0`` disables the cache.  Sizes are estimates (Python
object overheads approximated per value), which is fine for an eviction
budget.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import CorruptPageError, PermanentIOError, TransientIOError
from ..faults import fire_fault
from ..obs import MetricsRegistry, get_registry
from ..types import AMultiset, Missing

#: Cache budget (shared by all datasets of one storage environment): 32 MiB.
DEFAULT_COLUMN_CACHE_BYTES = 32 * 1024 * 1024

#: Component-scan rows per cached chunk (the "batch range" of the key).
CHUNK_ROWS = 1024


class SliceScanStats:
    """Per-scan hit/miss row counts (threaded into EXPLAIN ANALYZE).

    Both counters measure the same population — every component-scan row,
    anti-matter included — so warm and cold scans of the same data report
    the same ``hits + misses`` total and hit rates are comparable.
    """

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0


#: Base size of a str or bytes; its length is added.
_STRING_BYTES = 49
#: Rough resident bytes of the immutable scalars a decoded row holds, by
#: exact type; any other leaf counts 64.
_SCALAR_BYTES = {type(None): 8, bool: 8, Missing: 8, int: 28, float: 28,
                 str: _STRING_BYTES, bytes: _STRING_BYTES}


def sized_copy(value: Any) -> Tuple[Any, int]:
    """``(copy, rough resident bytes)`` of one decoded value, in one walk.

    The copy shares nothing mutable with ``value``: dicts, lists, tuples and
    multisets are rebuilt all the way down, immutable leaves are shared.
    """
    kind = type(value)
    if kind is list or kind is tuple:
        total = 56
        items = []
        for item in value:
            size = _SCALAR_BYTES.get(type(item))
            if size is None:
                item, size = sized_copy(item)
            elif size == _STRING_BYTES:
                size += len(item)
            total += size
            items.append(item)
        return (items if kind is list else tuple(items)), total
    if kind is dict:  # field names are strings, sized like any other
        items, total = sized_copy(list(value.values()))
        return dict(zip(value, items)), total + 8 + sum(map(len, value)) + _STRING_BYTES * len(value)
    if kind is AMultiset:
        items, total = sized_copy(value.items)
        return AMultiset(items), total
    size = _SCALAR_BYTES.get(kind, 64)
    return value, size + len(value) if size == _STRING_BYTES else size


class SliceChunk:
    """One cached slice: the cache's own copy of a run of component-scan
    rows, ``(key, is_antimatter, values)`` each, plus its byte size."""

    __slots__ = ("rows", "last", "nbytes")

    def __init__(self, rows: Sequence[Tuple[Any, bool, Optional[Tuple[Any, ...]]]] = (),
                 last: bool = False) -> None:
        self.rows: List[Tuple[Any, bool, Optional[Tuple[Any, ...]]]] = []
        self.last = last
        self.nbytes = 96
        for row in rows:
            self.append(*row)

    def append(self, key: Any, is_antimatter: bool, values: Optional[Tuple[Any, ...]]) -> None:
        """File a copy of one row, sized in the walk that copies it."""
        size = _SCALAR_BYTES.get(type(key), 64)
        if values is not None:
            values, nbytes = sized_copy(values)
            size += nbytes
        self.rows.append((key, is_antimatter, values))
        self.nbytes += 80 + size


class ColumnSliceCache:
    """Thread-safe byte-accounted LRU over decoded component-scan chunks."""

    def __init__(self, capacity_bytes: int = DEFAULT_COLUMN_CACHE_BYTES,
                 metrics: Optional[MetricsRegistry] = None,
                 chunk_rows: int = CHUNK_ROWS) -> None:
        self.capacity_bytes = max(0, capacity_bytes)
        self.chunk_rows = max(1, chunk_rows)
        self._lock = threading.Lock()
        #: (component file, paths key, chunk index) -> SliceChunk, LRU order.
        self._entries: "OrderedDict[Tuple[str, Tuple, int], SliceChunk]" = OrderedDict()  # guarded-by: _lock
        self._bytes = 0  # guarded-by: _lock
        metrics = metrics if metrics is not None else get_registry()
        self._hits = metrics.counter("column_cache_hits")
        self._misses = metrics.counter("column_cache_misses")
        self._evictions = metrics.counter("column_cache_evictions")
        self._stores = metrics.counter("column_cache_stores")
        self._bytes_gauge = metrics.gauge("column_cache_bytes")

    @property
    def enabled(self) -> bool:
        return self.capacity_bytes > 0

    @property
    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes

    def entry_count(self, file_name: Optional[str] = None) -> int:
        """Cached chunk count, optionally restricted to one component file."""
        with self._lock:
            if file_name is None:
                return len(self._entries)
            return sum(1 for key in self._entries if key[0] == file_name)

    # ------------------------------------------------------------------ chunk API

    def get_chunk(self, file_name: str, paths_key: Tuple,
                  chunk_index: int) -> Optional[SliceChunk]:
        if not self.enabled:
            return None
        try:
            fire_fault("cache.lookup")
        except (TransientIOError, PermanentIOError, CorruptPageError):
            # Degrade to a miss: the scan falls back to pages + decode, so
            # an injected lookup fault never changes query results.
            self._misses.inc()
            return None
        with self._lock:
            chunk = self._entries.get((file_name, paths_key, chunk_index))
            if chunk is not None:
                self._entries.move_to_end((file_name, paths_key, chunk_index))
        if chunk is None:
            self._misses.inc()
        else:
            self._hits.inc()
        return chunk

    def store_chunk(self, file_name: str, paths_key: Tuple, chunk_index: int,
                    chunk: SliceChunk) -> None:
        if not self.enabled:
            return
        try:
            fire_fault("cache.store")
        except (TransientIOError, PermanentIOError, CorruptPageError):
            return  # skipped store: the next scan decodes (and retries) again
        if chunk.nbytes > self.capacity_bytes:
            return  # one oversized chunk must not wipe the whole cache
        evicted = 0
        with self._lock:
            key = (file_name, paths_key, chunk_index)
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[key] = chunk
            self._bytes += chunk.nbytes
            while self._bytes > self.capacity_bytes and self._entries:
                _, dropped = self._entries.popitem(last=False)
                self._bytes -= dropped.nbytes
                evicted += 1
            size = self._bytes
        self._stores.inc()
        if evicted:
            self._evictions.inc(evicted)
        self._bytes_gauge.set(size)

    # ------------------------------------------------------------------ lifecycle

    def invalidate_component(self, file_name: str) -> None:
        """Drop every chunk of one component (drop/merge/quarantine hook)."""
        with self._lock:
            stale = [key for key in self._entries if key[0] == file_name]
            for key in stale:
                self._bytes -= self._entries.pop(key).nbytes
            size = self._bytes
        if stale:
            self._evictions.inc(len(stale))
            self._bytes_gauge.set(size)

    def clear(self) -> None:
        """Drop everything (the ``cold_cache`` / ``drop_caches`` path)."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self._bytes = 0
        if count:
            self._evictions.inc(count)
        self._bytes_gauge.set(0)


def paths_cache_key(paths: Sequence[Sequence[Any]]) -> Tuple:
    """Hashable identity of a scan's requested path set."""
    return tuple(tuple(path) for path in paths)


def cached_component_scan(cache: ColumnSliceCache, component: Any, decode,
                          extractor, paths_key: Tuple,
                          stats: Optional[SliceScanStats] = None) -> Iterator[Tuple]:
    """Scan one on-disk component through the slice cache.

    Yields the LSM merge-scan's source items extended with decoded values:
    ``(key, is_antimatter, payload, record, schema, values)``.  Cached
    chunks are served without any page access (``payload`` is empty — the
    values already carry everything the batch pipeline asked for), each row
    as a copy of the cached one; on the first missing chunk the scan falls
    back to ``component.scan()``, skips the rows already served, decodes the
    remainder through ``decode`` + ``extractor`` — the caller gets the fresh
    values, the chunk being filled its own copy — and repopulates chunks as
    it goes.  Anti-matter rows are cached with ``values=None`` so key
    shadowing survives a warm scan.

    A ``CorruptPageError`` from the fallback propagates to the caller (the
    LSM index quarantines the component, which evicts its chunks); chunks
    stored before the corruption was hit are evicted with the rest.
    """
    file_name = component.file_name
    schema = component.schema
    served = 0
    chunk_index = 0
    while True:
        chunk = cache.get_chunk(file_name, paths_key, chunk_index)
        if chunk is None:
            break
        for key, is_antimatter, values in chunk.rows:
            if values is not None:
                values = sized_copy(values)[0]
            yield key, is_antimatter, b"", None, schema, values
        served += len(chunk.rows)
        if stats is not None:
            stats.hits += len(chunk.rows)
        if chunk.last:
            return
        chunk_index += 1

    filling = SliceChunk()
    position = 0
    for entry in component.scan():
        position += 1
        if position <= served:
            continue  # replay past the rows the cached prefix already served
        if entry.is_antimatter:
            values: Optional[Tuple[Any, ...]] = None
        else:
            values = tuple(extractor.extract(decode(entry.value)))
        if stats is not None:
            stats.misses += 1
        filling.append(entry.key, entry.is_antimatter, values)
        yield entry.key, entry.is_antimatter, entry.value, None, schema, values
        if len(filling.rows) >= cache.chunk_rows:
            cache.store_chunk(file_name, paths_key, chunk_index, filling)
            chunk_index += 1
            filling = SliceChunk()
    filling.last = True
    cache.store_chunk(file_name, paths_key, chunk_index, filling)
