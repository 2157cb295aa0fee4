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
table one ``struct.unpack_from("<nI")``.  A full decode takes the open-part
header from the ends its closed values returned; ``get_field`` finds it from
the largest closed offset and the extent of the value there, and matches an
open field's name as bytes — UTF-8 length first, then the bytes — so it
never decodes a name it was not asked for.  The public entries catch a read
past the payload's end (``struct.error``, ``IndexError``) or a name that is
not UTF-8 once, around the whole walk, and raise ``DecodingError``; an
object or collection whose length runs past the payload is refused at its
header, naming its offset, and so is a string or binary whose length does.

``benchmarks/micro_vector.py`` (2 000 generated tweets, CPU µs per record,
median of 7 rounds, two runs, one core of an x86-64 Xeon, CPython 3.11)
measures "adm materialize" 46.0–54.9 (111.7–114.2 for the recursive
``TypeTag``-constructing walk this replaced), 2.2–2.5x vector
"materialize" (4.6–5.1x before), and "adm get_field, 4 paths" 28.7–31.5
(63.7–68.6).
"""

from __future__ import annotations

import struct
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


# -- the walk ---------------------------------------------------------------------

def _head(unpack, buffer: bytes, offset: int) -> Tuple[int, int]:
    """``(total_length, count)`` of the object or collection at ``offset``,
    ``unpack`` being its header layout; one that claims more bytes than the
    payload has left is refused."""
    total_length, count = unpack(buffer, offset + 1)
    if offset + total_length > len(buffer):
        raise _overrun(offset, total_length, buffer)
    return total_length, count


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
    total_length, n_closed = _head(_OBJECT_HEAD, buffer, offset)
    if declared is not None and n_closed != len(declared.fields):
        raise _closed_mismatch(n_closed, declared)
    record: Dict[str, Any] = {}
    # The open part starts where the closed values end: contiguous, in
    # declaration order, so at the largest end among the present ones.
    open_header = offset + 7 + 4 * n_closed
    if n_closed:
        closed = struct.unpack_from("<%dI" % n_closed, buffer, offset + 7)
        for index, value_offset in enumerate(closed):
            if not value_offset:
                continue  # an absent optional field
            if declared is None:
                name, context = f"_closed_{index}", None
            else:
                declaration = declared.fields[index]
                name, context = declaration.name, _context_for_declaration(declaration)
            record[name], end = _value(buffer, offset + value_offset, context)
            if end > open_header:
                open_header = end
    (n_open,) = _U16(buffer, open_header)
    for entry_offset in struct.unpack_from("<%dI" % n_open, buffer, open_header + 2):
        name_start = offset + entry_offset + 2
        name_end = name_start + (buffer[name_start - 2] | buffer[name_start - 1] << 8)
        record[str(buffer[name_start:name_end], "utf-8")] = _value(buffer, name_end, None)[0]
    return record, offset + total_length


def _collection(buffer: bytes, offset: int, raw: int,
                item_nested: Optional[Datatype]) -> Tuple[Any, int]:
    """Collection layout::

        tag | total_length(4) | n_items(4) | item_offsets(4*n) | items...
    """
    total_length, n_items = _head(_COLLECTION_HEAD, buffer, offset)
    items = [_value(buffer, offset + item_offset, item_nested)[0]
             for item_offset in struct.unpack_from("<%dI" % n_items, buffer, offset + 9)]
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


def _open_value(buffer: bytes, offset: int, closed: Tuple[int, ...], name: str) -> Optional[int]:
    """Offset of the value of the object at ``offset``'s open field ``name``,
    or ``None``; ``closed`` is the object's closed-offsets table."""
    last = max(closed, default=0)
    if last:
        open_header = offset + last + _extent(buffer, offset + last)
    else:
        open_header = offset + 7 + 4 * len(closed)
    (n_open,) = _U16(buffer, open_header)
    key = name.encode("utf-8")
    length = len(key)
    for entry_offset in struct.unpack_from("<%dI" % n_open, buffer, open_header + 2):
        name_start = offset + entry_offset + 2
        if buffer[name_start - 2] | buffer[name_start - 1] << 8 == length \
                and buffer[name_start:name_start + length] == key:
            return name_start + length
    return None


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
        if WILDCARD in path:
            at = path.index(WILDCARD)
            prefix = self.get_field(*path[:at]) if at else self.materialize()
            return navigate(prefix, path[at:])
        buffer = self.payload
        offset, context = 0, self.datatype
        try:
            for step in path:
                raw = buffer[offset]
                if raw == RAW_OBJECT and isinstance(step, str):
                    _, n_closed = _head(_OBJECT_HEAD, buffer, offset)
                    closed = struct.unpack_from("<%dI" % n_closed, buffer, offset + 7)
                    if type(context) is Datatype:
                        if n_closed != len(context.fields):
                            raise _closed_mismatch(n_closed, context)
                        index = context.index_of(step)
                        if index is not None:
                            if not closed[index]:
                                return MISSING
                            offset += closed[index]
                            context = _context_for_declaration(context.fields[index])
                            continue
                    found = _open_value(buffer, offset, closed, step)
                    if found is None:
                        return MISSING
                    offset, context = found, None
                elif raw in _RAW_COLLECTIONS and isinstance(step, int):
                    _, n_items = _head(_COLLECTION_HEAD, buffer, offset)
                    if not 0 <= step < n_items:
                        return MISSING
                    offset += _U32(buffer, offset + 9 + 4 * step)[0]
                    context = context[1] if type(context) is tuple else None
                elif not isinstance(step, (str, int)):
                    raise DecodingError(f"unsupported path step {step!r}")
                elif WIDTHS[raw] <= CLOSE:
                    raise _bad_tag(raw, offset)
                else:
                    return MISSING
            return _value(buffer, offset, context)[0]
        except (struct.error, IndexError, UnicodeDecodeError) as exc:
            raise _corrupt(buffer, exc) from None

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
