"""Read path of the immutable, page-based B+-tree.

A :class:`BTree` wraps a page file that was produced by the
:class:`~repro.btree.bulk_loader.BulkLoader`.  It offers exactly the three
access patterns the LSM engine needs:

* point lookup (gets, upsert anti-schema fetches, index-probe candidates);
* ascending range scans (secondary-index range queries, Figure 24);
* full sequential scans of the leaf level, entry by entry or leaf by leaf
  (dataset scans and LSM merges).

All page reads go through the buffer cache with :func:`~.pages.unpack_node`
as the decoder, so a page is parsed once per cache residency: a hit hands
back the decoded node and a lookup is a bisect per level.  Every miss is
charged to the simulated device.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, Optional

from ..storage.buffer_cache import BufferCache
from .bulk_loader import BTreeInfo
from .keycodec import Key
from .pages import LeafEntry, LeafNode, unpack_node


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
        leaf = self._descend_to_leaf(key)
        keys = leaf.keys
        index = bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            return leaf.entry(index)
        return None

    # -- scans -------------------------------------------------------------------------

    def scan_all(self) -> Iterator[LeafEntry]:
        """Yield every entry in key order by walking the leaf level."""
        for leaf in self.leaves():
            yield from leaf.entries()

    def leaves(self) -> Iterator[LeafNode]:
        """Yield the leaf level's decoded nodes in key order."""
        for leaf_no in range(self.info.leaf_count):
            yield self._read_leaf(leaf_no)

    def range_scan(self, low: Optional[Key] = None, high: Optional[Key] = None,
                   include_low: bool = True, include_high: bool = True) -> Iterator[LeafEntry]:
        """Yield entries with ``low <= key <= high`` (bounds optional)."""
        if self.info.is_empty:
            return
        if low is None:
            leaf = self._read_leaf(0)
            start = 0
        else:
            leaf = self._descend_to_leaf(low)
            start = (bisect_left if include_low else bisect_right)(leaf.keys, low)
        while True:
            keys = leaf.keys
            stop = len(keys)
            if high is not None:
                stop = (bisect_right if include_high else bisect_left)(keys, high)
            yield from leaf.entries(start, stop)
            if stop < len(keys) or leaf.next_leaf is None:
                return
            leaf = self._read_leaf(leaf.next_leaf)
            start = 0

    # -- helpers ---------------------------------------------------------------------------

    def _read_leaf(self, leaf_no: int) -> LeafNode:
        return self.buffer_cache.read_page(self.file_name, leaf_no, unpack_node)

    def _descend_to_leaf(self, key: Key) -> LeafNode:
        """Follow interior separators down to the leaf that may hold ``key``."""
        read_page, file_name = self.buffer_cache.read_page, self.file_name
        node = read_page(file_name, self.info.root_page, unpack_node)
        while type(node) is not LeafNode:
            separators, children = node
            # child i covers keys < separators[i]; the last child covers the rest.
            node = read_page(file_name, children[bisect_right(separators, key)], unpack_node)
        return node
