"""On-page layouts of B+-tree leaf and interior pages.

Pages are fixed-size byte buffers (padded to the configured page size before
they reach the file manager).  Two kinds exist:

Leaf page::

    u8 kind (=1) | u16 n_entries | u32 next_leaf (+1; 0 = none)
    per entry: key | u8 flags | u32 value_length | value bytes

Interior page::

    u8 kind (=0) | u16 n_keys | u32 child_0 ... child_n
    then n_keys separator keys (child_i holds keys < separator_i;
    child_{i} .. child_{i+1} bracket separator_i in the usual way)

Entry flags currently carry a single bit: ``ANTIMATTER`` — the entry is an
LSM anti-matter (delete) marker whose value bytes hold the serialized
anti-schema (possibly empty for non-compacting datasets).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import StorageError
from .keycodec import Key, decode_key, encode_key

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

LEAF_KIND = 1
INTERIOR_KIND = 0

FLAG_ANTIMATTER = 0x01

#: Fixed bytes of a leaf header (kind + count + next pointer).
LEAF_HEADER_SIZE = 1 + 2 + 4
#: Fixed bytes of an interior header (kind + count).
INTERIOR_HEADER_SIZE = 1 + 2


@dataclass
class LeafEntry:
    """One (key, flags, value) entry of a leaf page."""

    key: Key
    value: bytes
    is_antimatter: bool = False

    @property
    def size_on_page(self) -> int:
        return len(encode_key(self.key)) + 1 + 4 + len(self.value)


def pack_leaf(entries: List[LeafEntry], next_leaf: Optional[int], page_size: int) -> bytes:
    """Serialize a leaf page and pad it to ``page_size``."""
    parts = [bytes([LEAF_KIND]), _U16.pack(len(entries)),
             _U32.pack(0 if next_leaf is None else next_leaf + 1)]
    for entry in entries:
        flags = FLAG_ANTIMATTER if entry.is_antimatter else 0
        parts.append(encode_key(entry.key))
        parts.append(bytes([flags]))
        parts.append(_U32.pack(len(entry.value)))
        parts.append(entry.value)
    payload = b"".join(parts)
    if len(payload) > page_size:
        raise StorageError(
            f"leaf page overflow: {len(payload)} bytes > page size {page_size}"
        )
    return payload + b"\x00" * (page_size - len(payload))


def unpack_leaf(page: bytes) -> Tuple[List[LeafEntry], Optional[int]]:
    """Deserialize a leaf page into its entries and next-leaf pointer."""
    if page[0] != LEAF_KIND:
        raise StorageError("page is not a leaf page")
    (count,) = _U16.unpack_from(page, 1)
    (next_raw,) = _U32.unpack_from(page, 3)
    next_leaf = None if next_raw == 0 else next_raw - 1
    entries: List[LeafEntry] = []
    cursor = LEAF_HEADER_SIZE
    for _ in range(count):
        key, cursor = decode_key(page, cursor)
        flags = page[cursor]
        (value_length,) = _U32.unpack_from(page, cursor + 1)
        start = cursor + 5
        value = bytes(page[start:start + value_length])
        cursor = start + value_length
        entries.append(LeafEntry(key, value, bool(flags & FLAG_ANTIMATTER)))
    return entries, next_leaf


def pack_interior(separators: List[Key], children: List[int], page_size: int) -> bytes:
    """Serialize an interior page (``len(children) == len(separators) + 1``)."""
    if len(children) != len(separators) + 1:
        raise StorageError("interior page needs exactly one more child than separators")
    parts = [bytes([INTERIOR_KIND]), _U16.pack(len(separators))]
    parts.extend(_U32.pack(child) for child in children)
    parts.extend(encode_key(separator) for separator in separators)
    payload = b"".join(parts)
    if len(payload) > page_size:
        raise StorageError(
            f"interior page overflow: {len(payload)} bytes > page size {page_size}"
        )
    return payload + b"\x00" * (page_size - len(payload))


def unpack_interior(page: bytes) -> Tuple[List[Key], List[int]]:
    """Deserialize an interior page into separators and child page numbers."""
    if page[0] != INTERIOR_KIND:
        raise StorageError("page is not an interior page")
    (count,) = _U16.unpack_from(page, 1)
    children: List[int] = []
    cursor = INTERIOR_HEADER_SIZE
    for _ in range(count + 1):
        (child,) = _U32.unpack_from(page, cursor)
        children.append(child)
        cursor += 4
    separators: List[Key] = []
    for _ in range(count):
        separator, cursor = decode_key(page, cursor)
        separators.append(separator)
    return separators, children
