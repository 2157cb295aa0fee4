"""Decoder and lazy navigation for the ADM physical record format.

:class:`ADMRecordView` provides two access styles:

* :meth:`~ADMRecordView.materialize` — decode the whole record back into
  Python objects (dicts, lists, :class:`~repro.types.AMultiset`, value
  wrappers).
* :meth:`~ADMRecordView.get_field` — lazy field access that follows the
  embedded offset tables without materializing siblings.  This is the
  "logarithmic/direct time" access the paper contrasts with the
  vector-based format's linear scan (§3.3.1), and it is what the query
  engine's ``get_field`` uses for open/closed datasets.

Declared (closed-part) fields do not carry names or nested declarations in
the payload, so decoding them correctly requires the dataset's
:class:`~repro.types.Datatype`; nested object and collection-item
declarations are threaded through the walk via a small *type context*:
``None`` (self-describing), a ``Datatype`` (object context), or
``("items", Datatype)`` (collection whose object items are declared).

The read kernel
---------------
Every walk dispatches a value on its raw tag byte through
:data:`repro.vector.layout.TAG_TABLE`, the 256-entry extension of
``SCALAR_DECODERS`` the vector decoder indexes too: a scalar decodes from
its entry, ``NESTED`` splits on the byte into an object or a collection, and
a byte ADM never writes (the vector format's ``CLOSE`` markers, ``BAD``)
raises ``DecodingError`` naming its offset.  An object's ``total_length,
n_closed`` header is one unpack, and each closed, open and item offset
table one unpack through a ``Struct`` kept per entry count.

*One flat walk.*  ``materialize`` is ``_object`` and ``_collection``: each
loop decodes its fixed-width, varlen, NULL and MISSING values inline and
calls a walk again only for a nested value.  The open-part header comes
from the ends the closed values returned.

*Compiled paths.*  What a path alone decides is resolved once and kept in a
table keyed on the path (at most ``PATH_CAPACITY`` entries; a full one drops
its oldest quarter): where its first ``"*"`` is, each index, and each name's
open-field entry — its ``u16`` UTF-8 length, then its bytes.  A call then
walks only the record.  A declared name reads its closed offset; an open
one is found by one byte search for its entry over the object's open part,
taken only at an offset the open-offset table lists (a value may hold the
same bytes), so no name is decoded or compared entry by entry in Python.
``get_field`` finds the open part from the largest closed offset and the
extent of the value there.  From the first ``"*"`` on, the value found by
offset is handed to :func:`~repro.types.navigate`.

The public entries catch a read past the payload's end (``struct.error``,
``IndexError``) or a name that is not UTF-8 once, around the whole walk, and
raise ``DecodingError``; an object or collection whose length runs past the
payload is refused at its header, naming its offset, and so is a string or
binary whose length does.

``benchmarks/micro_vector.py`` at ``500 5`` (generated tweets, CPU µs per
record, median of 5 rounds, runs alternating with the walk this replaced on
one 2-core x86-64 box, CPython 3.11) measures "adm materialize" 36.3–38.7
(43.6–44.1 with a ``_value`` call per scalar; at 2 000 tweets, 111.7–114.2
for the recursive ``TypeTag``-constructing walk before that) and "adm
get_field, 4 paths" 18.0–21.9 (27.8–31.1 when every call re-derived its path
and compared open names entry by entry; 63.7–68.6 at 2 000 tweets before
that).  It gates the
second below 0.5x "adm encode", which walks the same tweets.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from ..errors import DecodingError
from ..types import AMultiset, Datatype, MISSING, TypeTag, VARLEN, WILDCARD, navigate
from ..vector.layout import CLOSE, NESTED, RAW_MULTISET, RAW_OBJECT, TAG_TABLE, WIDTHS

_RAW_COLLECTIONS = frozenset((TypeTag.ARRAY.value, TypeTag.MULTISET.value))

_U16 = struct.Struct("<H").unpack_from
_U32 = struct.Struct("<I").unpack_from
#: What follows an object's tag: ``total_length, n_closed``.
_OBJECT_HEAD = struct.Struct("<IH").unpack_from
#: What follows a collection's tag: ``total_length, n_items``.
_COLLECTION_HEAD = struct.Struct("<II").unpack_from

#: Paths :meth:`ADMRecordView.get_field` keeps compiled, and offset-table
#: ``Struct``s kept per entry count; a full path table drops its oldest
#: quarter.
PATH_CAPACITY = 1024


@lru_cache(maxsize=PATH_CAPACITY)
def _table(count: int):
    """``unpack_from`` of an offset table of ``count`` ``u32``s."""
    return struct.Struct("<%dI" % count).unpack_from


#: Type context threaded through decoding (see module docstring).
TypeContext = Union[None, Datatype, Tuple[str, Optional[Datatype]]]


def _context_for_declaration(declaration) -> TypeContext:
    """Type context of a declared field's value."""
    if declaration.type_tag is TypeTag.OBJECT and declaration.nested is not None:
        return declaration.nested
    if declaration.item_nested is not None:
        return ("items", declaration.item_nested)
    return None


def _bad_tag(raw: int, offset: int) -> DecodingError:
    return DecodingError(f"unexpected tag {raw} at offset {offset}")


def _overrun(offset: int, length: int, buffer: bytes) -> DecodingError:
    return DecodingError(f"value at offset {offset} claims {length} bytes, "
                         f"past the end of the {len(buffer)}-byte payload")


def _corrupt(buffer: bytes, exc: Exception) -> DecodingError:
    """The error for a walk that read past the payload's end or met a name
    that is not UTF-8.  A ``struct`` read names the offset it failed at; an
    indexed read (a tag byte, a name length) fails only past the last byte."""
    detail = "a tag or name length read past its last byte" if isinstance(exc, IndexError) else exc
    return DecodingError(f"corrupt ADM payload of {len(buffer)} bytes: {detail}")


def _closed_mismatch(n_closed: int, declared: Datatype) -> DecodingError:
    return DecodingError(f"record declares {n_closed} closed fields but datatype "
                         f"{declared.name!r} declares {len(declared.fields)}")


# -- the flat walk ----------------------------------------------------------------
#
# Each loop decodes its scalars inline — fixed-width, varlen, NULL and
# MISSING — and calls itself only for a nested value.

def _value(buffer: bytes, offset: int, context: TypeContext) -> Tuple[Any, int]:
    """``(value, end)`` of the tagged value at ``offset``."""
    raw = buffer[offset]
    width, read, wrap = TAG_TABLE[raw]
    if width > 0:
        if wrap is None:
            return read(buffer, offset + 1)[0], offset + 1 + width
        return wrap(*read(buffer, offset + 1)), offset + 1 + width
    if width == VARLEN:
        start = offset + 5
        end = start + _U32(buffer, offset + 1)[0]
        if end > len(buffer):
            raise _overrun(offset, end - offset, buffer)
        return read(buffer[start:end]), end
    if width == NESTED:
        if raw == RAW_OBJECT:
            return _object(buffer, offset, context if type(context) is Datatype else None)
        return _collection(buffer, offset, raw, context[1] if type(context) is tuple else None)
    if not width:
        return wrap, offset + 1  # NULL or MISSING
    raise _bad_tag(raw, offset)


def _object(buffer: bytes, offset: int, declared: Optional[Datatype]) -> Tuple[Dict[str, Any], int]:
    """Object layout (see ``ADMEncoder._encode_object``)::

        tag | total_length(4) | n_closed(2) | closed_offsets(4*n) | closed_values...
            | n_open(2) | open_offsets(4*n) | (name_len(2) | name | value)...
    """
    total_length, n_closed = _OBJECT_HEAD(buffer, offset + 1)
    size = len(buffer)
    if offset + total_length > size:
        raise _overrun(offset, total_length, buffer)
    if declared is not None and n_closed != len(declared.fields):
        raise _closed_mismatch(n_closed, declared)
    record: Dict[str, Any] = {}
    # The open part starts where the closed values end: contiguous, in
    # declaration order, so at the largest end among the present ones.
    open_header = offset + 7 + 4 * n_closed
    if n_closed:
        for index, value_offset in enumerate(_table(n_closed)(buffer, offset + 7)):
            if not value_offset:
                continue  # an absent optional field
            if declared is None:
                name, context = f"_closed_{index}", None
            else:
                declaration = declared.fields[index]
                name, context = declaration.name, _context_for_declaration(declaration)
            at = offset + value_offset
            raw = buffer[at]
            width, read, wrap = TAG_TABLE[raw]
            if width > 0:
                end = at + 1 + width
                record[name] = read(buffer, at + 1)[0] if wrap is None else wrap(*read(buffer, at + 1))
            elif width == VARLEN:
                end = at + 5 + _U32(buffer, at + 1)[0]
                if end > size:
                    raise _overrun(at, end - at, buffer)
                record[name] = read(buffer[at + 5:end])
            elif width == NESTED:
                if raw == RAW_OBJECT:
                    record[name], end = _object(
                        buffer, at, context if type(context) is Datatype else None)
                else:
                    record[name], end = _collection(
                        buffer, at, raw, context[1] if type(context) is tuple else None)
            elif not width:
                end = at + 1
                record[name] = wrap
            else:
                raise _bad_tag(raw, at)
            if end > open_header:
                open_header = end
    (n_open,) = _U16(buffer, open_header)
    if n_open:
        for entry_offset in _table(n_open)(buffer, open_header + 2):
            name_start = offset + entry_offset + 2
            at = name_start + (buffer[name_start - 2] | buffer[name_start - 1] << 8)
            raw = buffer[at]
            width, read, wrap = TAG_TABLE[raw]
            if width > 0:
                value = read(buffer, at + 1)[0] if wrap is None else wrap(*read(buffer, at + 1))
            elif width == VARLEN:
                end = at + 5 + _U32(buffer, at + 1)[0]
                if end > size:
                    raise _overrun(at, end - at, buffer)
                value = read(buffer[at + 5:end])
            elif width == NESTED:
                value = (_object(buffer, at, None) if raw == RAW_OBJECT
                         else _collection(buffer, at, raw, None))[0]
            elif not width:
                value = wrap
            else:
                raise _bad_tag(raw, at)
            record[str(buffer[name_start:at], "utf-8")] = value
    return record, offset + total_length


def _collection(buffer: bytes, offset: int, raw: int,
                item_nested: Optional[Datatype]) -> Tuple[Any, int]:
    """Collection layout::

        tag | total_length(4) | n_items(4) | item_offsets(4*n) | items...
    """
    total_length, n_items = _COLLECTION_HEAD(buffer, offset + 1)
    size = len(buffer)
    if offset + total_length > size:
        raise _overrun(offset, total_length, buffer)
    items = []
    append = items.append
    if n_items:
        for item_offset in _table(n_items)(buffer, offset + 9):
            at = offset + item_offset
            item_raw = buffer[at]
            width, read, wrap = TAG_TABLE[item_raw]
            if width > 0:
                append(read(buffer, at + 1)[0] if wrap is None else wrap(*read(buffer, at + 1)))
            elif width == VARLEN:
                end = at + 5 + _U32(buffer, at + 1)[0]
                if end > size:
                    raise _overrun(at, end - at, buffer)
                append(read(buffer[at + 5:end]))
            elif width == NESTED:
                append((_object(buffer, at, item_nested) if item_raw == RAW_OBJECT
                        else _collection(buffer, at, item_raw, None))[0])
            elif not width:
                append(wrap)
            else:
                raise _bad_tag(item_raw, at)
    if raw == RAW_MULTISET:
        return AMultiset(items), offset + total_length
    return items, offset + total_length


def _extent(buffer: bytes, offset: int) -> int:
    """Encoded length of the value at ``offset``, read from its tag and header."""
    raw = buffer[offset]
    width = WIDTHS[raw]
    if width >= 0:
        return 1 + width
    if width == VARLEN:
        return 5 + _U32(buffer, offset + 1)[0]
    if width == NESTED:
        return _U32(buffer, offset + 1)[0]
    raise _bad_tag(raw, offset)


# -- compiled paths ---------------------------------------------------------------

#: path -> ``(steps, rest)``: ``steps`` is one ``(step, entry)`` per step
#: followed by offset — ``entry`` is a name's open-field entry (its ``u16``
#: length, then its UTF-8 bytes), ``None`` for an index — and ``rest`` is
#: ``None``, or the path from the first step not followed by offset on:
#: a ``"*"`` or a name too long for an entry, whose value ``navigate``
#: reads (``steps`` is ``None`` when a ``"*"`` is the first step), or a
#: step that is neither a name nor an index, refused when reached.  Keyed
#: on the path tuple itself, so a name and an index never share an entry
#: ("1" != 1); ``True`` is the index 1 either way.
_paths: Dict[Tuple[Any, ...], Tuple[Any, Any]] = {}


def _compile(path: Tuple[Any, ...]) -> Tuple[Any, Any]:
    """Resolve what ``path`` alone decides, once, and keep it."""
    steps = []
    rest = None
    for at, step in enumerate(path):
        # (a name no encoder could write still compiles: it matches nothing)
        name = step.encode("utf-8", "surrogatepass") if isinstance(step, str) else None
        if step == WILDCARD or not isinstance(step, (str, int)) \
                or name is not None and len(name) > 0xFFFF:
            rest = path[at:]
            break
        steps.append((step, None if name is None else len(name).to_bytes(2, "little") + name))
    compiled = (None if rest is not None and rest[0] == WILDCARD and not steps
                else tuple(steps), rest)
    if len(_paths) >= PATH_CAPACITY:
        # ``list(table)`` is one C call, so no other thread's insert can
        # interleave with it.
        for old in list(_paths)[:PATH_CAPACITY // 4]:
            _paths.pop(old, None)
    _paths[path] = compiled
    return compiled


class ADMRecordView:
    """Lazy field access over an encoded ADM record.

    ``get_field`` navigates one path without materializing unrelated values;
    this models AsterixDB's ``getField()`` runtime function whose cost does
    not depend on the position of the requested field within the record.
    """

    def __init__(self, payload: bytes, datatype: Optional[Datatype] = None) -> None:
        self.payload = payload
        self.datatype = datatype

    def materialize(self) -> Dict[str, Any]:
        """Decode the full record."""
        payload = self.payload
        try:
            record, end = _value(payload, 0, self.datatype)
        except (struct.error, IndexError, UnicodeDecodeError) as exc:
            raise _corrupt(payload, exc) from None
        if end > len(payload):
            raise _overrun(0, end, payload)
        if type(record) is not dict:
            raise DecodingError("top-level ADM payload is not an object")
        return record

    def get_field(self, *path: Any) -> Any:
        """Follow ``path`` (field names and array indexes) and return the value.

        Returns :data:`~repro.types.MISSING` when any step is absent, which
        matches SQL++ MISSING propagation.  Up to the first ``"*"`` the path
        is followed by offset; the decoded value found there is handed to
        :func:`~repro.types.navigate`, which defines what wildcards return.
        """
        steps, rest = _paths.get(path) or _compile(path)
        if steps is None:
            return navigate(self.materialize(), rest)
        buffer = self.payload
        size = len(buffer)
        offset, context = 0, self.datatype
        try:
            for step, entry in steps:
                raw = buffer[offset]
                if raw == RAW_OBJECT and entry is not None:
                    total_length, n_closed = _OBJECT_HEAD(buffer, offset + 1)
                    if offset + total_length > size:
                        raise _overrun(offset, total_length, buffer)
                    open_header = offset + 7
                    if n_closed:
                        if type(context) is Datatype:
                            if n_closed != len(context.fields):
                                raise _closed_mismatch(n_closed, context)
                            index = context.index_of(step)
                            if index is not None:
                                value_offset = _U32(buffer, open_header + 4 * index)[0]
                                if not value_offset:
                                    break
                                offset += value_offset
                                context = _context_for_declaration(context.fields[index])
                                continue
                        last = max(_table(n_closed)(buffer, open_header))
                        if last:
                            open_header = offset + last + _extent(buffer, offset + last)
                        else:
                            open_header += 4 * n_closed
                    elif type(context) is Datatype and context.fields:
                        raise _closed_mismatch(n_closed, context)
                    # The open part's entries sit after its offset table: find
                    # the name's entry bytes there, and take a match only at
                    # an offset the table lists (a value may hold them too).
                    (n_open,) = _U16(buffer, open_header)
                    if not n_open:
                        break
                    starts = _table(n_open)(buffer, open_header + 2)
                    end = offset + total_length
                    found = buffer.find(entry, open_header + 2 + 4 * n_open, end)
                    while found >= 0 and found - offset not in starts:
                        found = buffer.find(entry, found + 1, end)
                    if found < 0:
                        break
                    offset, context = found + len(entry), None
                elif raw in _RAW_COLLECTIONS and entry is None:
                    total_length, n_items = _COLLECTION_HEAD(buffer, offset + 1)
                    if offset + total_length > size:
                        raise _overrun(offset, total_length, buffer)
                    if not 0 <= step < n_items:
                        break
                    offset += _U32(buffer, offset + 9 + 4 * step)[0]
                    context = context[1] if type(context) is tuple else None
                elif WIDTHS[raw] <= CLOSE:
                    raise _bad_tag(raw, offset)
                else:
                    break
            else:
                if rest is not None:
                    if not isinstance(rest[0], str):
                        raise DecodingError(f"unsupported path step {rest[0]!r}")
                    return navigate(_value(buffer, offset, context)[0], rest)
                raw = buffer[offset]
                width, read, wrap = TAG_TABLE[raw]
                if width > 0:
                    return read(buffer, offset + 1)[0] if wrap is None \
                        else wrap(*read(buffer, offset + 1))
                if width == VARLEN:
                    end = offset + 5 + _U32(buffer, offset + 1)[0]
                    if end > size:
                        raise _overrun(offset, end - offset, buffer)
                    return read(buffer[offset + 5:end])
                if not width:
                    return wrap  # NULL or MISSING
                return _value(buffer, offset, context)[0]
        except (struct.error, IndexError, UnicodeDecodeError) as exc:
            raise _corrupt(buffer, exc) from None
        # A step was absent: the value is MISSING, and so is what a "*" after
        # it reads from there.
        return MISSING if rest is None else navigate(MISSING, rest)

    def get_items(self, *path: Any) -> Sequence[Any]:
        """Return all items of the collection found at ``path`` (for UNNEST)."""
        value = self.get_field(*path)
        if isinstance(value, AMultiset):
            return list(value.items)
        if isinstance(value, list):
            return value
        if value is MISSING or value is None:
            return []
        return [value]
