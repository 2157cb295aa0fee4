"""Bottom-up B+-tree bulk loading.

Every on-disk structure in the LSM engine — flushed components, merged
components, bulk-loaded datasets, and per-component secondary/primary-key
indexes — is an *immutable* B+-tree built in one pass from already-sorted
entries, exactly the "builds a single on-disk component of the B+-tree in a
bottom-up fashion" path the paper describes for bulk loads (§4.3).

The loader writes leaf pages sequentially (page 0, 1, ...), remembers the
first key of each, then builds interior levels above them until a single
root remains.  The root page number is returned so the component's metadata
page can record it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..errors import StorageError
from ..storage.buffer_cache import BufferCache
from .keycodec import Key, key_size
from .pages import (
    INTERIOR_HEADER_SIZE,
    LEAF_HEADER_SIZE,
    LeafEntry,
    pack_interior,
    pack_leaf,
)


@dataclass
class BTreeInfo:
    """Shape of a freshly built tree (persisted in the component metadata)."""

    root_page: int
    leaf_count: int
    page_count: int
    entry_count: int

    @property
    def is_empty(self) -> bool:
        return self.entry_count == 0


class BulkLoader:
    """Builds one immutable B+-tree inside an already-created page file."""

    def __init__(self, buffer_cache: BufferCache, file_name: str) -> None:
        self.buffer_cache = buffer_cache
        self.file_name = file_name
        self.page_size = buffer_cache.page_size

    def build(self, entries: Iterable[LeafEntry]) -> BTreeInfo:
        """Write all pages of the tree; ``entries`` must be sorted by key.

        Duplicate keys are allowed only in the sense that the *last* entry
        wins upstream (LSM flush already reconciles duplicates inside one
        component), so this loader treats consecutive equal keys as a caller
        bug and rejects them.
        """
        leaf_first_keys, leaf_count, entry_count = self._write_leaves(entries)
        if entry_count == 0:
            # An empty component still gets one empty leaf so readers have a
            # well-formed tree to descend into.
            empty = pack_leaf([], None, self.page_size)
            self.buffer_cache.write_page(self.file_name, 0, empty)
            return BTreeInfo(root_page=0, leaf_count=1, page_count=1, entry_count=0)

        next_page = leaf_count
        level = list(enumerate(leaf_first_keys))  # (page_no, first_key)
        while len(level) > 1:
            level, next_page = self._write_interior_level(level, next_page)
        root_page = level[0][0]
        return BTreeInfo(
            root_page=root_page,
            leaf_count=leaf_count,
            page_count=next_page,
            entry_count=entry_count,
        )

    # -- leaves ----------------------------------------------------------------------

    def _write_leaves(self, entries: Iterable[LeafEntry]) -> Tuple[List[Key], int, int]:
        leaf_first_keys: List[Key] = []
        pending: List[LeafEntry] = []
        pending_bytes = LEAF_HEADER_SIZE
        page_no = 0
        entry_count = 0
        previous_key = None

        def flush_pending(next_leaf: Optional[int]) -> None:
            nonlocal page_no, pending, pending_bytes
            page = pack_leaf(pending, next_leaf, self.page_size)
            self.buffer_cache.write_page(self.file_name, page_no, page)
            leaf_first_keys.append(pending[0].key)
            page_no += 1
            pending = []
            pending_bytes = LEAF_HEADER_SIZE

        for entry in entries:
            if previous_key is not None and not entry.key > previous_key:
                raise StorageError(
                    f"bulk load requires strictly increasing keys ({entry.key!r} after {previous_key!r})"
                )
            previous_key = entry.key
            entry_size = entry.size_on_page
            if LEAF_HEADER_SIZE + entry_size > self.page_size:
                raise StorageError(
                    f"record for key {entry.key!r} ({entry_size} bytes) exceeds the page size"
                )
            if pending and pending_bytes + entry_size > self.page_size:
                flush_pending(next_leaf=page_no + 1)
            pending.append(entry)
            pending_bytes += entry_size
            entry_count += 1
        if pending:
            flush_pending(next_leaf=None)
        return leaf_first_keys, page_no, entry_count

    # -- interior levels ----------------------------------------------------------------

    def _write_interior_level(self, level: List[Tuple[int, Key]],
                              next_page: int) -> Tuple[List[Tuple[int, Key]], int]:
        """Group ``level`` nodes under new interior pages; return the new level."""
        new_level: List[Tuple[int, Key]] = []
        index = 0
        while index < len(level):
            children: List[int] = []
            separators: List[Key] = []
            used = INTERIOR_HEADER_SIZE + 4  # header + first child pointer
            first_key = level[index][1]
            children.append(level[index][0])
            index += 1
            while index < len(level):
                child_page, child_key = level[index]
                extra = 4 + key_size(child_key)
                if used + extra > self.page_size:
                    break
                children.append(child_page)
                separators.append(child_key)
                used += extra
                index += 1
            page = pack_interior(separators, children, self.page_size)
            self.buffer_cache.write_page(self.file_name, next_page, page)
            new_level.append((next_page, first_key))
            next_page += 1
        return new_level, next_page
