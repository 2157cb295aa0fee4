"""Look-Aside Files (LAFs) for variable-size compressed pages (paper §2.4).

AsterixDB's storage layer works with fixed-size pages, but compressed pages
have arbitrary sizes.  Rather than changing the physical layout, the paper
stores compressed pages back-to-back in the data file and keeps, for every
logical page, an ``(offset, length)`` entry in a side file — the Look-Aside
File.  Each entry is 12 bytes (8-byte offset + 4-byte length), matching the
entry size quoted in the paper, so a 128 KB LAF page holds 10 922 entries
and LAF pages cache extremely well.

The LAF for a file is small and is kept fully in memory while the file is
open; its byte size still participates in storage-size accounting and its
reads/writes are charged to the device under the ``"laf"`` I/O class so the
"extra IO to read a data page" the paper mentions is visible in the stats.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from ..errors import StorageError

_ENTRY = struct.Struct("<QI")  # offset: u64, length: u32  -> 12 bytes
ENTRY_SIZE = _ENTRY.size


class LookAsideFile:
    """In-memory representation of one file's LAF."""

    def __init__(self) -> None:
        self._entries: List[Tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def add_entry(self, page_no: int, offset: int, length: int) -> None:
        """Record the location of logical page ``page_no``.

        LSM components are written strictly sequentially, so entries are
        appended in page order; rewriting an existing entry is allowed (the
        metadata page of a component is rewritten when it is validated).
        """
        if page_no < 0:
            raise StorageError("page_no must be non-negative")
        if page_no == len(self._entries):
            self._entries.append((offset, length))
        elif page_no < len(self._entries):
            self._entries[page_no] = (offset, length)
        else:
            raise StorageError(
                f"LAF entries must be appended in order (page {page_no}, have {len(self._entries)})"
            )

    def entry(self, page_no: int) -> Tuple[int, int]:
        """Return ``(offset, length)`` of a logical page."""
        if page_no < 0 or page_no >= len(self._entries):
            raise StorageError(f"LAF has no entry for page {page_no}")
        return self._entries[page_no]

    @property
    def size_bytes(self) -> int:
        """Serialized size of the LAF (counted toward on-disk storage size)."""
        return 4 + ENTRY_SIZE * len(self._entries)

    def end_offset(self) -> int:
        """Offset one past the last stored page (append position)."""
        if not self._entries:
            return 0
        offset, length = self._entries[-1]
        return offset + length
