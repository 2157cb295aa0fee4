"""Byte-bounded LRU cache of decoded column slices, LSM-lifecycle aware.

The paper's columnar layout makes repeated analytical scans decode-bound:
the pages may already sit in the buffer cache, but every scan still walks
each record's vectors and re-decodes the requested columns.  This cache
memoizes the *decoded* slices instead.  Entries are chunks of an on-disk
component's scan stream — for one path set, consecutive whole leaves of the
component in key order, at least ``chunk_rows`` rows each (the last chunk
may hold fewer) — stored column-major: the keys, the positions of the
anti-matter rows (which must keep shadowing older components during the
LSM reconcile), and one list of decoded values per requested path.  A
chunk is one *run* of the LSM scan (``LSMBTree.scan``), so a warm scan
serves whole chunks without touching the B+-tree, the buffer cache, or the
simulated device: device bytes read drop to zero.

Lifecycle safety comes from the LSM index, which calls
:meth:`ColumnSliceCache.invalidate_component` whenever a component file's
slices could go stale or dead.  Component files are immutable once
written, but a file name is written again when a dataset is re-created
under the same name, so the index evicts a file's slices before it writes
a component file: an entry never describes other data than it was built
from.  Component drops (the merge/`read_guard` deferred-deletion path) and
quarantine events evict too, so a merged-away or corrupt component's
slices leave the cache as soon as the component leaves the tree, and
memory is not held hostage by dead files.

Chunks are handed out by reference: neither a warm hit nor a cold miss
copies a value, so nothing downstream may mutate what a scan yields.  The
query executor copies a result once on its way out of a plan that read
this cache, so a caller mutating its rows never reaches a cached slice.

The byte budget is 32 MiB unless the cache is built with another
``capacity_bytes``; ``0`` disables the cache.  A chunk's size counts the
encoded payload bytes its rows were decoded from plus a fixed overhead per
row, an estimate that needs no walk over the decoded values.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from ..errors import CorruptPageError, PermanentIOError, TransientIOError
from ..faults import fire_fault
from ..obs import MetricsRegistry, get_registry

#: Cache budget (shared by all datasets of one storage environment): 32 MiB.
DEFAULT_COLUMN_CACHE_BYTES = 32 * 1024 * 1024

#: Component-scan rows a cached chunk holds at least (the "batch range" of
#: the key): it closes at the first leaf boundary past them.
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


#: Estimated resident bytes of a chunk, and of each row on top of the
#: encoded payload bytes it was decoded from.
_CHUNK_BYTES = 96
_ROW_BYTES = 80


class SliceChunk:
    """A run of one component's scan rows, column-major: ``keys`` in key
    order, the ascending ``antimatter`` positions, and ``columns`` — one
    list of decoded values per requested path, ``None`` at anti-matter rows.

    ``nbytes`` is the size the cache's byte budget charges (see the module
    docstring).  Nothing mutates a chunk once a scan has yielded it.
    """

    __slots__ = ("keys", "antimatter", "columns", "nbytes", "last")

    def __init__(self, keys: Sequence[Any], antimatter: List[int], columns: List[List[Any]],
                 encoded_bytes: int, last: bool = False) -> None:
        self.keys = keys
        self.antimatter = antimatter
        self.columns = columns
        self.nbytes = _CHUNK_BYTES + _ROW_BYTES * len(keys) + encoded_bytes
        self.last = last

    @classmethod
    def empty(cls, width: int) -> "SliceChunk":
        """A chunk with no rows and ``width`` columns, to :meth:`extend`."""
        return cls([], [], [[] for _ in range(width)], 0)

    def extend(self, run: "SliceChunk") -> None:
        """Append another chunk's rows (references only, no value copied)."""
        offset = len(self.keys)
        self.keys.extend(run.keys)
        self.antimatter.extend(position + offset for position in run.antimatter)
        for column, values in zip(self.columns, run.columns):
            column.extend(values)
        self.nbytes += run.nbytes - _CHUNK_BYTES


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
        """Drop every chunk of one component file (the LSM lifecycle hook)."""
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
                          stats: Optional[SliceScanStats] = None) -> Iterator[SliceChunk]:
    """Scan one on-disk component through the slice cache, as runs.

    Yields :class:`SliceChunk` runs covering the component's rows in key
    order (``component_source`` of ``LSMBTree.scan``).  Cached chunks are
    served as they are, without any page access; on the first missing chunk
    the scan falls back to ``component.leaves()``, skips the rows already
    served, and decodes each remaining leaf through ``decode`` +
    ``extractor`` into a run of its own, which it yields and appends to the
    chunk being filled — the caller and the cache share the decoded values.
    Anti-matter rows are kept (with ``None`` values) so key shadowing
    survives a warm scan.

    A ``CorruptPageError`` from the fallback propagates to the caller (the
    LSM index quarantines the component, which evicts its chunks); chunks
    stored before the corruption was hit are evicted with the rest.
    """
    file_name = component.file_name
    served = 0
    chunk_index = 0
    while True:
        chunk = cache.get_chunk(file_name, paths_key, chunk_index)
        if chunk is None:
            break
        served += len(chunk.keys)
        if stats is not None:
            stats.hits += len(chunk.keys)
        yield chunk
        if chunk.last:
            return
        chunk_index += 1

    width = len(paths_key)
    blank = (None,) * width
    extract = extractor.extract
    filling = SliceChunk.empty(width)
    position = 0
    for leaf in component.leaves():
        keys = leaf.keys
        skip = min(len(keys), max(0, served - position))  # rows a cached chunk served
        position += len(keys)
        if skip == len(keys):
            continue
        rows: List[Sequence[Any]] = []
        antimatter: List[int] = []
        encoded = 0
        for entry in leaf.entries(skip):
            if entry.is_antimatter:
                antimatter.append(len(rows))
                rows.append(blank)
            else:
                rows.append(extract(decode(entry.value)))
            encoded += len(entry.value)
        if stats is not None:
            stats.misses += len(rows)
        run = SliceChunk(keys[skip:] if skip else keys, antimatter,
                         [list(column) for column in zip(*rows)] if width else [], encoded)
        yield run
        filling.extend(run)
        if len(filling.keys) >= cache.chunk_rows:
            cache.store_chunk(file_name, paths_key, chunk_index, filling)
            chunk_index += 1
            filling = SliceChunk.empty(width)
    filling.last = True
    cache.store_chunk(file_name, paths_key, chunk_index, filling)
