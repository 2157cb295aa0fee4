"""On-page layouts of B+-tree leaf and interior pages.

Pages are fixed-size byte buffers (padded to the configured page size before
they reach the file manager).  Two kinds exist:

Leaf page::

    u8 kind (=1) | u16 n_entries | u32 next_leaf (+1; 0 = none)
    per entry: key | u8 flags | u32 value_length | value bytes

An entry's *head* is everything before its value bytes; :func:`leaf_head`
is the one place it is built, so its length is both what the bulk loader
packs a leaf by and what a write is checked against on arrival.

Interior page::

    u8 kind (=0) | u16 n_keys | u32 child_0 ... child_n
    then n_keys separator keys (child_i holds keys < separator_i;
    child_{i} .. child_{i+1} bracket separator_i in the usual way)

Entry flags currently carry a single bit: ``ANTIMATTER`` — the entry is an
LSM anti-matter (delete) marker whose value bytes hold the serialized
anti-schema (possibly empty for non-compacting datasets).

A page is decoded once per buffer-cache residency: :func:`unpack_node` is
the decoder the B-tree hands to ``BufferCache.read_page``, and what it
returns *is* the cache frame, so a hit does no parsing.  An interior frame
is ``(separators, children)``; a leaf frame is a :class:`LeafNode` — the
page bytes plus each entry's key, flags offset and value end — whose values
are sliced off the page only for the entries a reader asks for.  Frames are
shared between readers and never mutated.

A *key-only* leaf (a secondary tree: every value empty) of
one fixed-width key shape in ``keycodec.FIXED_WIDTH_KEYS`` — ``int`` keys
in 14-byte entries, 18-byte secondary keys (a number's, date's, time's or
datetime's index key, then an ``int`` primary key) in 23-byte ones —
decodes as one precompiled ``Struct.unpack_from`` over its entry table,
with ``range`` offsets.  A shape is found by its first byte; it is kept
only when every entry has its fixed bytes and a zero length.  Any other
leaf — a secondary key over a string field, say — is walked, one
``decode_key`` per entry.  Entries that run past the page end raise
:class:`StorageError` naming the offset, on either path.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import StorageError
from .keycodec import FIXED_WIDTH_KEYS, Key, decode_key, encode_key

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
#: A leaf header after its kind byte: entry count, next leaf (+1).
_LEAF_HEADER = struct.Struct("<HI")
_LEAF_START = struct.Struct("<BHI")
#: An entry head's tail (flags, value length); and a whole head for an
#: ``int`` key: ``encode_key``'s int layout (kind 0, int64), then the tail.
_FLAGS_LENGTH = struct.Struct("<BI")
_INT_HEAD = struct.Struct("<BqBI")
#: Bytes of a head after its key.
HEAD_TAIL_SIZE = _FLAGS_LENGTH.size
#: The value length of an entry with no value.
_NO_VALUE = _U32.pack(0)

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


def leaf_head(key: Key, is_antimatter: bool, value_length: int) -> bytes:
    """An entry's on-page head: encoded key, flags byte, u32 value length.

    Raises :class:`~repro.errors.EncodingError` for a key no leaf can hold."""
    flags = FLAG_ANTIMATTER if is_antimatter else 0
    if type(key) is int and -0x8000000000000000 <= key <= 0x7FFFFFFFFFFFFFFF:
        return _INT_HEAD.pack(0, key, flags, value_length)
    return encode_key(key) + _FLAGS_LENGTH.pack(flags, value_length)


def pack_leaf(heads: List[bytes], values: List[bytes], next_leaf: Optional[int],
              page_size: int) -> bytes:
    """Serialize a leaf page from its entries' heads (:func:`leaf_head`) and
    values, and pad it to ``page_size``."""
    parts = [b""] * (2 * len(heads))
    parts[0::2] = heads
    parts[1::2] = values
    payload = b"".join(parts)
    size = LEAF_HEADER_SIZE + len(payload)
    if size > page_size:
        raise StorageError(f"leaf page overflow: {size} bytes > page size {page_size}")
    header = _LEAF_START.pack(LEAF_KIND, len(heads), 0 if next_leaf is None else next_leaf + 1)
    return header + payload + bytes(page_size - size)


class LeafNode:
    """A decoded leaf page: the buffer-cache frame of a leaf.

    ``keys[i]`` is entry ``i``'s key, ``flag_offsets[i]`` where its flags
    byte sits on ``page`` (the value starts 5 bytes later, after the length)
    and ``value_ends[i]`` where its value stops.  It holds no per-entry
    objects beyond the keys: :meth:`entry` / :meth:`entries` build a fresh
    :class:`LeafEntry`, value sliced off the page, for each entry returned.
    A leaf is also one key-sorted *run* of the LSM reconcile: ``keys`` plus
    :attr:`antimatter`.
    """

    __slots__ = ("page", "keys", "flag_offsets", "value_ends", "next_leaf", "_antimatter")

    def __init__(self, page: bytes, keys: Sequence[Key], flag_offsets: Sequence[int],
                 value_ends: Sequence[int], next_leaf: Optional[int]) -> None:
        self.page = page
        self.keys = keys
        self.flag_offsets = flag_offsets
        self.value_ends = value_ends
        self.next_leaf = next_leaf
        self._antimatter: Optional[Tuple[int, ...]] = None

    @property
    def antimatter(self) -> Tuple[int, ...]:
        """Positions of the anti-matter entries, ascending (found on first use)."""
        if self._antimatter is None:
            page = self.page
            self._antimatter = tuple(index for index, at in enumerate(self.flag_offsets)
                                     if page[at] & FLAG_ANTIMATTER)
        return self._antimatter

    def entry(self, index: int) -> LeafEntry:
        at = self.flag_offsets[index]
        page = self.page
        return LeafEntry(self.keys[index], page[at + 5:self.value_ends[index]],
                         bool(page[at] & FLAG_ANTIMATTER))

    def value_bytes(self, start: int = 0) -> int:
        """Total length of the values of entries ``start`` .. the last."""
        count = len(self.keys) - start
        return sum(self.value_ends[start:]) - sum(self.flag_offsets[start:]) - 5 * count

    def entries(self, start: int = 0, stop: Optional[int] = None) -> Iterator[LeafEntry]:
        """Entries ``start`` .. ``stop - 1`` in key order."""
        page, keys, flag_offsets, value_ends = self.page, self.keys, self.flag_offsets, self.value_ends
        for index in range(start, len(keys) if stop is None else stop):
            at = flag_offsets[index]
            yield LeafEntry(keys[index], page[at + 5:value_ends[index]],
                            bool(page[at] & FLAG_ANTIMATTER))


class _KeyTable:
    """The table decode of a key-only leaf of one fixed-width key shape."""

    def __init__(self, key: struct.Struct, fixed: Tuple[Tuple[int, int], ...]) -> None:
        #: ``(offset in an entry, byte)`` every entry must hold: the key's
        #: fixed bytes, then the four bytes of a zero value length.
        self.checks = fixed + tuple((key.size + 1 + at, 0) for at in range(_U32.size))
        #: One entry as Struct fields: the key's one field; the head's flags
        #: and length are skipped.
        self.entry = key.format.lstrip("<") + f"{HEAD_TAIL_SIZE}x"
        self.key_size = key.size
        self.stride = key.size + HEAD_TAIL_SIZE
        #: Where the first entry's value length sits on the page.
        self.first_length = slice(LEAF_HEADER_SIZE + key.size + 1, LEAF_HEADER_SIZE + self.stride)
        #: Entry-count bucket -> the Struct of that many entries.
        self.structs: Dict[int, struct.Struct] = {}

    def decode(self, page: bytes, count: int, next_leaf: Optional[int]) -> Optional[LeafNode]:
        """The leaf's node, or ``None`` when an entry is not of this shape
        with an empty value (the walk decodes it instead)."""
        start, stride, checks = LEAF_HEADER_SIZE, self.stride, self.checks
        capacity = (len(page) - start) // stride
        end = start + count * stride
        # The first entry alone, then every entry, each byte check in C.
        if count > capacity or any(page[start + at] != byte for at, byte in checks) or any(
                page[start + at:end:stride].count(byte) != count for at, byte in checks):
            return None
        # A Struct per power of two up to the page's capacity: entries past
        # ``count`` are unpacked and never read.
        bucket = min(1 << (count - 1).bit_length(), capacity)
        table = self.structs.get(bucket) or self.structs.setdefault(
            bucket, struct.Struct("<" + self.entry * bucket))
        keys = table.unpack_from(page, start)[:count]
        return LeafNode(page, keys, range(start + self.key_size, end, stride),
                        range(start + stride, end + stride, stride), next_leaf)


#: Byte a leaf's first entry starts with -> the table of that key shape.
_KEY_TABLES = {fixed[0][1]: _KeyTable(key, fixed) for key, fixed in FIXED_WIDTH_KEYS}


def unpack_leaf(page: bytes) -> LeafNode:
    """Decode a leaf page into its :class:`LeafNode` (keys and offsets only)."""
    if page[0] != LEAF_KIND:
        raise StorageError("page is not a leaf page")
    count, next_raw = _LEAF_HEADER.unpack_from(page, 1)
    next_leaf = None if next_raw == 0 else next_raw - 1
    table = _KEY_TABLES.get(page[LEAF_HEADER_SIZE]) if count else None
    # A valued leaf costs one slice compare more than the walk.
    if table is not None and page[table.first_length] == _NO_VALUE:
        node = table.decode(page, count, next_leaf)
        if node is not None:
            return node
    keys: List[Key] = []
    flag_offsets: List[int] = []
    value_ends: List[int] = []
    cursor = LEAF_HEADER_SIZE
    unpack_length = _U32.unpack_from
    try:
        for _ in range(count):
            key, at = decode_key(page, cursor)
            keys.append(key)
            flag_offsets.append(at)
            cursor = at + 5 + unpack_length(page, at + 1)[0]
            value_ends.append(cursor)
    except (struct.error, IndexError, ValueError):
        raise StorageError(f"leaf entry at offset {cursor} runs past the page end") from None
    if cursor > len(page):
        raise StorageError(f"leaf value ending at offset {cursor} runs past the page end")
    return LeafNode(page, keys, flag_offsets, value_ends, next_leaf)


def pack_interior(separators: List[bytes], children: List[int], page_size: int) -> bytes:
    """Serialize an interior page from its encoded separator keys
    (``len(children) == len(separators) + 1``)."""
    if len(children) != len(separators) + 1:
        raise StorageError("interior page needs exactly one more child than separators")
    payload = b"".join([bytes([INTERIOR_KIND]), _U16.pack(len(separators)),
                        struct.pack(f"<{len(children)}I", *children), *separators])
    if len(payload) > page_size:
        raise StorageError(
            f"interior page overflow: {len(payload)} bytes > page size {page_size}"
        )
    return payload + bytes(page_size - len(payload))


def unpack_interior(page: bytes) -> Tuple[List[Key], Tuple[int, ...]]:
    """Decode an interior page into separators and child page numbers."""
    if page[0] != INTERIOR_KIND:
        raise StorageError("page is not an interior page")
    (count,) = _U16.unpack_from(page, 1)
    cursor = INTERIOR_HEADER_SIZE
    separators: List[Key] = []
    try:
        children = struct.unpack_from(f"<{count + 1}I", page, cursor)
        cursor += 4 * (count + 1)
        for _ in range(count):
            separator, cursor = decode_key(page, cursor)
            separators.append(separator)
    except (struct.error, IndexError, ValueError):
        raise StorageError(f"interior entry at offset {cursor} runs past the page end") from None
    return separators, children


#: A page's buffer-cache frame: a leaf node, or an interior ``(separators, children)``.
Node = Union[LeafNode, Tuple[List[Key], Tuple[int, ...]]]


def unpack_node(page: bytes) -> Node:
    """Decode any B+-tree page: the decoder the B-tree passes to the cache."""
    if page[0] == LEAF_KIND:
        return unpack_leaf(page)
    return unpack_interior(page)
