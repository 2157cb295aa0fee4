"""Read path of the immutable, page-based B+-tree.

A :class:`BTree` wraps a page file that was produced by the
:class:`~repro.btree.bulk_loader.BulkLoader`.  It offers exactly the three
access patterns the LSM engine needs:

* point lookup (primary-key existence checks, upsert anti-schema fetches);
* ascending range scans (secondary-index range queries, Figure 24);
* full sequential scans of the leaf level (dataset scans and LSM merges).

All page reads go through the buffer cache, so hot interior pages are
served from memory and every miss is charged to the simulated device.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Optional

from ..storage.buffer_cache import BufferCache
from .bulk_loader import BTreeInfo
from .keycodec import Key
from .pages import LEAF_KIND, LeafEntry, unpack_interior, unpack_leaf


class BTree:
    """Reader over one immutable B+-tree page file."""

    def __init__(self, buffer_cache: BufferCache, file_name: str, info: BTreeInfo) -> None:
        self.buffer_cache = buffer_cache
        self.file_name = file_name
        self.info = info

    # -- point lookup ---------------------------------------------------------------

    def search(self, key: Key) -> Optional[LeafEntry]:
        """Return the entry for ``key`` or ``None`` (anti-matter entries included)."""
        if self.info.is_empty:
            return None
        leaf_entries, _ = self._descend_to_leaf(key)
        index = self._position(leaf_entries, key)
        if index < len(leaf_entries) and leaf_entries[index].key == key:
            return leaf_entries[index]
        return None

    # -- scans -------------------------------------------------------------------------

    def scan_all(self) -> Iterator[LeafEntry]:
        """Yield every entry in key order by walking the leaf level."""
        for leaf_no in range(self.info.leaf_count):
            yield from self._read_leaf(leaf_no)[0]

    def range_scan(self, low: Optional[Key] = None, high: Optional[Key] = None,
                   include_low: bool = True, include_high: bool = True) -> Iterator[LeafEntry]:
        """Yield entries with ``low <= key <= high`` (bounds optional)."""
        if self.info.is_empty:
            return
        if low is None:
            entries, next_leaf = self._read_leaf(0)
            index = 0
        else:
            entries, next_leaf = self._descend_to_leaf(low)
            index = self._position(entries, low)
            if not include_low:
                while index < len(entries) and entries[index].key == low:
                    index += 1
        while True:
            while index < len(entries):
                entry = entries[index]
                if high is not None:
                    if entry.key > high or (not include_high and entry.key == high):
                        return
                yield entry
                index += 1
            if next_leaf is None:
                return
            entries, next_leaf = self._read_leaf(next_leaf)
            index = 0

    # -- helpers ---------------------------------------------------------------------------

    def _read_leaf(self, leaf_no: int):
        page = self.buffer_cache.read_page(self.file_name, leaf_no)
        return unpack_leaf(page)

    def _descend_to_leaf(self, key: Key):
        """Follow interior separators down to the leaf that may hold ``key``;
        returns that leaf's ``(entries, next_leaf)``."""
        page_no = self.info.root_page
        while True:
            page = self.buffer_cache.read_page(self.file_name, page_no)
            if page[0] == LEAF_KIND:
                return unpack_leaf(page)
            separators, children = unpack_interior(page)
            # child i covers keys < separators[i]; the last child covers the rest.
            index = bisect.bisect_right(separators, key)
            page_no = children[index]

    @staticmethod
    def _position(entries, key: Key) -> int:
        keys = [entry.key for entry in entries]
        return bisect.bisect_left(keys, key)
