"""Decoder and lazy navigation for the ADM physical record format.

Two access styles are provided:

* :func:`ADMDecoder.decode` — materialize the whole record back into Python
  objects (dicts, lists, :class:`~repro.types.AMultiset`, value wrappers).
* :class:`ADMRecordView` — lazy field access that follows the embedded
  offset tables without materializing siblings.  This is the
  "logarithmic/direct time" access the paper contrasts with the
  vector-based format's linear scan (§3.3.1), and it is what the query
  engine's ``get_field`` uses for open/closed datasets.

Declared (closed-part) fields do not carry names or nested declarations in
the payload, so decoding them correctly requires the dataset's
:class:`~repro.types.Datatype`; nested object and collection-item
declarations are threaded through the recursion via a small *type context*:
``None`` (self-describing), a ``Datatype`` (object context), or
``("items", Datatype)`` (collection whose object items are declared).
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import DecodingError
from ..types import (AMultiset, Datatype, MISSING, SCALAR_DECODERS, TypeTag, VARLEN, WILDCARD,
                     navigate)

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

#: Type context threaded through decoding (see module docstring).
TypeContext = Union[None, Datatype, Tuple[str, Optional[Datatype]]]


def _read_u16(buffer: bytes, offset: int) -> int:
    return _U16.unpack_from(buffer, offset)[0]


def _read_u32(buffer: bytes, offset: int) -> int:
    return _U32.unpack_from(buffer, offset)[0]


def _context_for_declaration(declaration) -> TypeContext:
    """Type context of a declared field's value."""
    if declaration.type_tag is TypeTag.OBJECT and declaration.nested is not None:
        return declaration.nested
    if declaration.item_nested is not None:
        return ("items", declaration.item_nested)
    return None


class ADMDecoder:
    """Decodes ADM physical bytes back into Python values."""

    def __init__(self, datatype: Optional[Datatype] = None) -> None:
        self.datatype = datatype

    def decode(self, payload: bytes) -> Dict[str, Any]:
        """Materialize a full record."""
        value, _ = self._decode_value(payload, 0, self.datatype)
        if not isinstance(value, dict):
            raise DecodingError("top-level ADM payload is not an object")
        return value

    def decode_value(self, payload: bytes) -> Any:
        """Materialize an arbitrary tagged value."""
        value, _ = self._decode_value(payload, 0, None)
        return value

    # -- recursive decoding ---------------------------------------------------

    def _decode_value(self, buffer: bytes, offset: int, context: TypeContext) -> Tuple[Any, int]:
        try:
            tag = TypeTag(buffer[offset])
        except (ValueError, IndexError) as exc:
            raise DecodingError(f"bad type tag at offset {offset}") from exc
        if tag is TypeTag.OBJECT:
            declared = context if isinstance(context, Datatype) else None
            return self._decode_object(buffer, offset, declared)
        if tag in (TypeTag.ARRAY, TypeTag.MULTISET):
            item_nested = context[1] if isinstance(context, tuple) else None
            return self._decode_collection(buffer, offset, tag, item_nested)
        width, read, wrap = SCALAR_DECODERS.get(tag, (None, None, None))
        if width is None:
            raise DecodingError(f"unexpected tag {tag.name} at offset {offset}")
        if width == VARLEN:
            start = offset + 5
            end = start + _read_u32(buffer, offset + 1)
            return read(bytes(buffer[start:end])), end
        if not width:
            return wrap, offset + 1  # NULL or MISSING
        fields = read(buffer, offset + 1)
        return (fields[0] if wrap is None else wrap(*fields)), offset + 1 + width

    def _decode_object(self, buffer: bytes, offset: int,
                       declared: Optional[Datatype]) -> Tuple[Dict[str, Any], int]:
        total_length = _read_u32(buffer, offset + 1)
        n_closed = _read_u16(buffer, offset + 5)
        declared_fields = list(declared.fields) if declared is not None else []
        if declared is not None and n_closed != len(declared_fields):
            raise DecodingError(
                f"record declares {n_closed} closed fields but datatype "
                f"{declared.name!r} declares {len(declared_fields)}"
            )
        record: Dict[str, Any] = {}
        cursor = offset + 7
        for index in range(n_closed):
            value_offset = _read_u32(buffer, cursor)
            cursor += 4
            if value_offset == 0:
                continue
            if index < len(declared_fields):
                declaration = declared_fields[index]
                context = _context_for_declaration(declaration)
                name = declaration.name
            else:
                context, name = None, f"_closed_{index}"
            value, _ = self._decode_value(buffer, offset + value_offset, context)
            record[name] = value
        open_header = self._open_part_offset(buffer, offset, n_closed)
        n_open = _read_u16(buffer, open_header)
        cursor = open_header + 2
        for _ in range(n_open):
            entry_offset = _read_u32(buffer, cursor)
            cursor += 4
            name, value = self._decode_open_entry(buffer, offset + entry_offset)
            record[name] = value
        return record, offset + total_length

    def _open_part_offset(self, buffer: bytes, object_offset: int, n_closed: int) -> int:
        """Locate the open-part header of an object.

        The open part starts right after the last closed value.  Closed
        payloads are written contiguously in declaration order, so the open
        header sits at the maximum (offset + encoded length) among present
        closed fields, or directly after the offsets table when all declared
        fields are absent.
        """
        header_end = object_offset + 7 + 4 * n_closed
        end = header_end
        cursor = object_offset + 7
        for _ in range(n_closed):
            value_offset = _read_u32(buffer, cursor)
            cursor += 4
            if value_offset == 0:
                continue
            value_end = self._value_end(buffer, object_offset + value_offset)
            end = max(end, value_end)
        return end

    def _value_end(self, buffer: bytes, offset: int) -> int:
        tag = TypeTag(buffer[offset])
        if tag in (TypeTag.OBJECT, TypeTag.ARRAY, TypeTag.MULTISET):
            return offset + _read_u32(buffer, offset + 1)
        if tag in (TypeTag.NULL, TypeTag.MISSING):
            return offset + 1
        if tag.is_fixed_length:
            return offset + 1 + tag.fixed_length
        if tag.is_variable_length:
            return offset + 5 + _read_u32(buffer, offset + 1)
        raise DecodingError(f"unexpected tag {tag.name} at offset {offset}")

    def _decode_open_entry(self, buffer: bytes, offset: int) -> Tuple[str, Any]:
        name_length = _read_u16(buffer, offset)
        name_start = offset + 2
        name = bytes(buffer[name_start:name_start + name_length]).decode("utf-8")
        value, _ = self._decode_value(buffer, name_start + name_length, None)
        return name, value

    def _decode_collection(self, buffer: bytes, offset: int, tag: TypeTag,
                           item_nested: Optional[Datatype] = None):
        n_items = _read_u32(buffer, offset + 5)
        cursor = offset + 9
        items: List[Any] = []
        for _ in range(n_items):
            item_offset = _read_u32(buffer, cursor)
            cursor += 4
            value, _ = self._decode_value(buffer, offset + item_offset, item_nested)
            items.append(value)
        end = offset + _read_u32(buffer, offset + 1)
        if tag is TypeTag.MULTISET:
            return AMultiset(items), end
        return items, end


class ADMRecordView:
    """Lazy field access over an encoded ADM record.

    ``get_field`` navigates one path without materializing unrelated values;
    this models AsterixDB's ``getField()`` runtime function whose cost does
    not depend on the position of the requested field within the record.
    """

    def __init__(self, payload: bytes, datatype: Optional[Datatype] = None) -> None:
        self.payload = payload
        self.datatype = datatype
        self._decoder = ADMDecoder(datatype)

    def materialize(self) -> Dict[str, Any]:
        """Decode the full record."""
        return self._decoder.decode(self.payload)

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
        return self._get(0, self.datatype, list(path))

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

    # -- internal navigation --------------------------------------------------

    def _get(self, offset: int, context: TypeContext, path: List[Any]) -> Any:
        if not path:
            value, _ = self._decoder._decode_value(self.payload, offset, context)
            return value
        step, rest = path[0], path[1:]
        tag = TypeTag(self.payload[offset])
        if isinstance(step, str):
            if tag is not TypeTag.OBJECT:
                return MISSING
            declared = context if isinstance(context, Datatype) else None
            return self._get_object_field(offset, declared, step, rest)
        if isinstance(step, int):
            if tag not in (TypeTag.ARRAY, TypeTag.MULTISET):
                return MISSING
            item_nested = context[1] if isinstance(context, tuple) else None
            return self._get_collection_item(offset, item_nested, step, rest)
        raise DecodingError(f"unsupported path step {step!r}")

    def _get_object_field(self, offset: int, declared: Optional[Datatype],
                          name: str, rest: List[Any]) -> Any:
        buffer = self.payload
        n_closed = _read_u16(buffer, offset + 5)
        declared_fields = list(declared.fields) if declared is not None else []
        if declared is not None:
            index = declared.index_of(name)
            if index is not None and index < n_closed:
                value_offset = _read_u32(buffer, offset + 7 + 4 * index)
                if value_offset == 0:
                    return MISSING
                context = _context_for_declaration(declared_fields[index])
                return self._get(offset + value_offset, context, rest)
        open_header = self._decoder._open_part_offset(buffer, offset, n_closed)
        n_open = _read_u16(buffer, open_header)
        cursor = open_header + 2
        for _ in range(n_open):
            entry_offset = _read_u32(buffer, cursor)
            cursor += 4
            entry = offset + entry_offset
            name_length = _read_u16(buffer, entry)
            entry_name = bytes(buffer[entry + 2:entry + 2 + name_length]).decode("utf-8")
            if entry_name == name:
                return self._get(entry + 2 + name_length, None, rest)
        return MISSING

    def _get_collection_item(self, offset: int, item_nested: Optional[Datatype],
                             index: int, rest: List[Any]) -> Any:
        buffer = self.payload
        n_items = _read_u32(buffer, offset + 5)
        if index < 0 or index >= n_items:
            return MISSING
        item_offset = _read_u32(buffer, offset + 9 + 4 * index)
        return self._get(offset + item_offset, item_nested, rest)
