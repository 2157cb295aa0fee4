"""LRU buffer cache sitting between the engine and the file manager.

AsterixDB's buffer cache holds fixed-size, *uncompressed* pages; compression
and the look-aside files live below it (paper §2.4: "pages are compressed and
then persisted to disk; on read, pages are decompressed to their original
configured fixed-size and stored in memory in AsterixDB's buffer cache").
This class reproduces that split:

* :meth:`read_page` returns the uncompressed page, serving repeated reads
  from memory (hits) and charging misses to the device through the file
  manager;
* :meth:`write_page` pushes a page straight through to the file manager
  (LSM components are write-once, so a write-back policy would only add
  complexity) while also installing it in the cache so immediately
  following queries do not pay a read.

"Ready to use" goes one step further for B-tree pages: a reader may pass a
``decode`` function, and the frame then holds what it returned — the
decoded node, built once when the page became resident — so a hit does no
parsing.  A frame is charged as one page whatever it holds; the bytes on
the device, the CRC check on a miss and the hit/miss counts do not change.
Frames are shared by every reader and never mutated once installed.

The cache is shared by every partition of a storage environment, so with
the parallel query executor it is hit from multiple worker threads at once.
Bookkeeping (lookup, LRU order, install, evict, counters) is guarded
by a lock; the underlying file-manager fetch on a miss, and the decode,
deliberately happen *outside* the lock so that misses against different
component files overlap
— holding the lock across the fetch would serialize exactly the I/O the
parallel executor is supposed to overlap.  Two threads missing the same
page concurrently may both fetch it (the first install wins; the loser
returns the installed page and discards its own copy); component files are
partition-private, so in practice concurrent same-page misses do not occur.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Tuple

from ..faults import fire_fault
from ..obs import MetricsRegistry, StatsDictMixin, get_registry
from .file_manager import FileManager

PageKey = Tuple[str, int]


@dataclass
class CacheStats(StatsDictMixin):
    """Hit/miss counters exposed to benchmarks and tests."""

    _DERIVED = ("hit_ratio",)

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writes: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BufferCache:
    """Fixed-capacity LRU cache of uncompressed pages or their decoded nodes."""

    def __init__(self, file_manager: FileManager, capacity_pages: int,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if capacity_pages <= 0:
            raise ValueError("capacity_pages must be positive")
        self.file_manager = file_manager
        self.capacity_pages = capacity_pages
        self.page_size = file_manager.page_size
        self.stats = CacheStats()
        #: Resident frames (page bytes or decoded nodes) in LRU order, least
        #: recently used first.
        self._frames: "OrderedDict[PageKey, Any]" = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()
        metrics = metrics if metrics is not None else get_registry()
        for field in ("hits", "misses", "evictions", "writes"):
            metrics.counter(f"cache_{field}").follow(self, self.stats, field)

    def stats_snapshot(self) -> CacheStats:
        """Copy of the counters (use with :meth:`CacheStats.diff`)."""
        with self._lock:
            return replace(self.stats)

    # -- reads --------------------------------------------------------------------

    def read_page(self, file_name: str, page_no: int,
                  decode: Optional[Callable[[bytes], Any]] = None) -> Any:
        """Return a logical page's frame: its uncompressed bytes, or with
        ``decode`` the node ``decode(bytes)``, built once per residency.

        A page is read with ``decode`` always or never.  A ``bytes`` frame a
        decoding reader meets — one :meth:`write_page` installed — counts as
        the hit it is, is decoded and replaced by its node.
        """
        key = (file_name, page_no)
        with self._lock:
            frame = self._frames.get(key)
            if frame is not None:
                self.stats.hits += 1
                self._frames.move_to_end(key)
                if decode is None or type(frame) is not bytes:
                    return frame
            else:
                self.stats.misses += 1
        if frame is None:
            fire_fault("buffercache.miss")
            # A page failing its CRC raises here, before anything is installed.
            frame = self.file_manager.read_page(file_name, page_no)
        node = frame if decode is None else decode(frame)
        with self._lock:
            resident = self._frames.get(key)
            if resident is not None and resident is not frame:
                # Another reader installed this page first: its frame wins.
                self._frames.move_to_end(key)
                return resident
            self._install(key, node)
            return node

    # -- writes ---------------------------------------------------------------------

    def write_page(self, file_name: str, page_no: int, data: bytes) -> None:
        """Write-through a page and keep it resident."""
        self.file_manager.write_page(file_name, page_no, data)
        with self._lock:
            self.stats.writes += 1
            self._install((file_name, page_no), data)

    # -- file-level helpers -------------------------------------------------------------

    def invalidate_file(self, file_name: str) -> None:
        """Drop every cached page of a file (after delete/merge cleanup)."""
        with self._lock:
            stale = [key for key in self._frames if key[0] == file_name]
            for key in stale:
                del self._frames[key]

    def clear(self) -> None:
        """Empty the cache (used to make query benchmarks cold-start)."""
        with self._lock:
            self._frames.clear()

    @property
    def resident_pages(self) -> int:
        with self._lock:
            return len(self._frames)

    # -- internals ----------------------------------------------------------------------

    # requires-lock: _lock
    def _install(self, key: PageKey, frame: Any) -> None:
        """Make ``frame`` the most recently used page, evicting from the LRU end."""
        self._frames[key] = frame
        self._frames.move_to_end(key)
        while len(self._frames) > self.capacity_pages:
            self._frames.popitem(last=False)
            self.stats.evictions += 1
