"""Byte layout constants shared by the vector-based encoder and decoder.

The vector-based format (paper §3.3.1, Figures 12–13) separates a record's
*metadata* (value type tags and field names) from its *values* so that the
tuple compactor can infer schemas and compact records by touching only the
metadata vectors.  A record consists of a fixed header followed by four
vectors, laid out contiguously::

    +--------+----------------+---------------------+---------------------+----------------+
    | header | values' tags   | fixed-length values | variable-length vals| field names    |
    +--------+----------------+---------------------+---------------------+----------------+

Header (28 bytes)::

    u32 total_length      -- bytes of the whole record
    u32 tag_count         -- entries in the tags vector (incl. control tags)
    u8  flags             -- bit 0: record is compacted (names -> ids)
    u8  reserved x3
    u32 offset_tags
    u32 offset_fixed
    u32 offset_varlen
    u32 offset_names      -- 0 when the names *values* were stripped, i.e.
                             the record is compacted and the section holds
                             only FieldNameID entries (paper Figure 14)

Tags vector — one byte per entry.  A plain byte is a
:class:`~repro.types.TypeTag`.  Control entries are:

* ``EOV`` — end of the record's values;
* ``0x80 | parent_tag`` — "pop" marker emitted when a *nested* value ends,
  encoding the parent nesting type exactly as the paper describes ("a
  control tag *object* to indicate the end of the array ... and a return to
  the parent nesting type"); the high bit removes the ambiguity between a
  pop marker and a genuine child of that type.

Variable-length values vector:: ``u32 count | u32 length * count | bytes``.

Field names vector:: ``u32 count | u16 entry * count | name bytes``.  Each
entry corresponds, in tag order, to one value that is a direct child of an
object.  If bit 15 of the entry is set the low 15 bits are the *index of a
declared field* (the paper's trick of storing the metadata-node-provided
index instead of the name); otherwise the low 15 bits are either the length
of the inline name (uncompacted records — the name bytes follow in order)
or the ``FieldNameID`` assigned by the inferred schema (compacted records,
which store no name bytes at all).
"""

from __future__ import annotations

import struct

from ..types import SCALAR_DECODERS, TypeTag

HEADER = struct.Struct("<IIBBBBIIII")
HEADER_SIZE = HEADER.size  # 28 bytes

U32 = struct.Struct("<I")

FLAG_COMPACTED = 0x01

#: High bit of a tags-vector byte marking a "pop back to parent" control entry.
POP_MARKER_BIT = 0x80

#: High bit of a field-name entry marking "this is a declared field index".
DECLARED_FIELD_BIT = 0x8000

#: Maximum value storable in the low 15 bits of a field-name entry.
NAME_ENTRY_MAX = 0x7FFF

#: Deepest nesting a record of either format may have: the record itself is
#: depth 1 and every object or collection one deeper than its parent.  Both
#: encoders refuse a deeper record on arrival (``EncodingError``), because
#: every recursive walk that meets it later — flush-time inference, decode,
#: ``SELECT *`` — must finish inside Python's default recursion limit.
MAX_NESTING_DEPTH = 128

# Raw tag bytes and per-byte tables for the hot loops, which compare the ints
# they read from the tags vector instead of building TypeTag members.
RAW_EOV = TypeTag.EOV.value
RAW_OBJECT = TypeTag.OBJECT.value
RAW_MULTISET = TypeTag.MULTISET.value
RAW_NESTED = frozenset((TypeTag.OBJECT.value, TypeTag.ARRAY.value, TypeTag.MULTISET.value))
TAG_OF_RAW = {tag.value: tag for tag in TypeTag}

#: Width classes of a tags-vector byte that is not a scalar (scalars carry
#: their class in :data:`~repro.types.SCALAR_DECODERS`: a width ``>= 0`` or
#: ``VARLEN``).  ``CLOSE`` is a pop marker or ``EOV``; ``BAD`` is every byte
#: the format never writes — an explicit entry, so no walker reads a corrupt
#: tag as a zero-width value.
NESTED, CLOSE, BAD = -2, -3, -4


def _tag_entry(raw: int):
    if raw in RAW_NESTED:
        return (NESTED, None, None)
    if raw == RAW_EOV or (raw & POP_MARKER_BIT and raw ^ POP_MARKER_BIT in RAW_NESTED):
        return (CLOSE, None, None)
    return SCALAR_DECODERS.get(raw, (BAD, None, None))


#: ``raw tag byte -> (width class, read, wrap)``: the scalar-decode table
#: extended to all 256 bytes — what a walk that builds values indexes.
TAG_TABLE = tuple(_tag_entry(raw) for raw in range(256))
#: The width classes alone — what a walk that only skips values indexes.
WIDTHS = tuple(entry[0] for entry in TAG_TABLE)
#: The pop marker that returns to an enclosing object.
POP_TO_OBJECT = POP_MARKER_BIT | RAW_OBJECT
