"""Bottom-up B+-tree bulk loading.

Every on-disk structure in the LSM engine — flushed components, merged
components, bulk-loaded datasets, and per-component secondary indexes —
is an *immutable* B+-tree built in one pass from already-sorted
entries, exactly the "builds a single on-disk component of the B+-tree in a
bottom-up fashion" path the paper describes for bulk loads (§4.3).

The loader writes leaf pages sequentially (page 0, 1, ...), then builds
interior levels above them until a single root remains.  The root page
number is returned so the component's metadata page can record it.

Each key is encoded once.  An entry's head (:func:`~.pages.leaf_head`: key
bytes, flags, value length) is built when the entry arrives; its length plus
the value's decides whether the entry still fits the current leaf, and
:func:`~.pages.pack_leaf` joins the pending heads and values into the page.
A leaf's first key goes up to the interior level as the bytes its head
starts with, so separators are never re-encoded either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..errors import StorageError
from ..storage.buffer_cache import BufferCache
from .pages import (
    HEAD_TAIL_SIZE,
    INTERIOR_HEADER_SIZE,
    LEAF_HEADER_SIZE,
    LeafEntry,
    leaf_head,
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
        leaf_first_keys, entry_count = self._write_leaves(entries)
        if entry_count == 0:
            # An empty component still gets one empty leaf so readers have a
            # well-formed tree to descend into.
            empty = pack_leaf([], [], None, self.page_size)
            self.buffer_cache.write_page(self.file_name, 0, empty)
            return BTreeInfo(root_page=0, leaf_count=1, page_count=1, entry_count=0)

        leaf_count = len(leaf_first_keys)
        next_page = leaf_count
        level = list(enumerate(leaf_first_keys))  # (page_no, first key's bytes)
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

    def _write_leaves(self, entries: Iterable[LeafEntry]) -> Tuple[List[bytes], int]:
        """Write the leaf level; returns each leaf's encoded first key and
        the number of entries."""
        page_size = self.page_size
        write_page, file_name = self.buffer_cache.write_page, self.file_name
        leaf_first_keys: List[bytes] = []
        heads: List[bytes] = []
        values: List[bytes] = []
        add_head, add_value, head_of = heads.append, values.append, leaf_head
        used = LEAF_HEADER_SIZE
        entry_count = 0
        previous_key = None

        def write_leaf(next_leaf: Optional[int]) -> None:
            nonlocal entry_count
            write_page(file_name, len(leaf_first_keys), pack_leaf(heads, values, next_leaf, page_size))
            leaf_first_keys.append(heads[0][:-HEAD_TAIL_SIZE])
            entry_count += len(heads)
            heads.clear()
            values.clear()

        for entry in entries:
            key, value = entry.key, entry.value
            if previous_key is not None and not key > previous_key:
                raise StorageError(
                    f"bulk load requires strictly increasing keys ({key!r} after {previous_key!r})"
                )
            previous_key = key
            head = head_of(key, entry.is_antimatter, len(value))
            size = len(head) + len(value)
            if used + size > page_size:
                if LEAF_HEADER_SIZE + size > page_size:
                    raise StorageError(
                        f"record for key {key!r} ({size} bytes) exceeds the page size"
                    )
                write_leaf(next_leaf=len(leaf_first_keys) + 1)
                used = LEAF_HEADER_SIZE
            add_head(head)
            add_value(value)
            used += size
        if heads:
            write_leaf(next_leaf=None)
        return leaf_first_keys, entry_count

    # -- interior levels ----------------------------------------------------------------

    def _write_interior_level(self, level: List[Tuple[int, bytes]],
                              next_page: int) -> Tuple[List[Tuple[int, bytes]], int]:
        """Group ``level`` nodes — ``(page, encoded first key)`` — under new
        interior pages; return the new level."""
        new_level: List[Tuple[int, bytes]] = []
        index = 0
        while index < len(level):
            children: List[int] = []
            separators: List[bytes] = []
            used = INTERIOR_HEADER_SIZE + 4  # header + first child pointer
            first_key = level[index][1]
            children.append(level[index][0])
            index += 1
            while index < len(level):
                child_page, child_key = level[index]
                extra = 4 + len(child_key)
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
