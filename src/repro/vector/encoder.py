"""Encoder for the vector-based physical record format (paper §3.3.1).

The encoder performs a single depth-first traversal of the record, appending
to four flat buffers (tags, fixed-length values, variable-length values,
field names) and finally concatenating them behind a header.  Each value
indexes :data:`~repro.types.VALUE_ENCODERS` once for its tag and packer, a
scalar is written inline in its parent's loop (only objects and collections
recurse), and each count-plus-entries section is one ``struct.pack``.  Unlike
the recursive ADM encoder there is no child-buffer-into-parent-buffer
copying, which is where the paper's construction advantage for this format
comes from.  ``benchmarks/micro_vector.py`` (2 000 generated tweets, CPU µs
per record, median of 7 rounds) measures vector encode 22.2 against ADM
encode 45.6 (0.49x; 99.7 and 123.7 before the shared table), and CI fails
the build when the ratio reaches 0.7.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Optional

from ..errors import EncodingError
from ..types import (
    KIND_COLLECTION,
    KIND_FIXED,
    KIND_OBJECT,
    KIND_VAR,
    VALUE_ENCODERS,
    Datatype,
    TypeTag,
    encoder_of,
    unencodable,
)
from .layout import (
    DECLARED_FIELD_BIT,
    FLAG_COMPACTED,
    HEADER,
    HEADER_SIZE,
    MAX_NESTING_DEPTH,
    NAME_ENTRY_MAX,
    POP_MARKER_BIT,
    POP_TO_OBJECT,
    RAW_EOV,
    RAW_OBJECT,
)

_MISSING = TypeTag.MISSING


def _too_deep() -> EncodingError:
    return EncodingError(f"record nests deeper than {MAX_NESTING_DEPTH} levels")


class VectorEncoder:
    """Encodes Python records into (uncompacted) vector-based bytes.

    Parameters
    ----------
    datatype:
        Declared datatype of the dataset.  Root-level declared fields store
        their declared index (high-bit entry) instead of their name, exactly
        as the paper's Figure 13 stores the index of ``id``.
    validate:
        Validate records against the datatype before encoding.
    """

    def __init__(self, datatype: Optional[Datatype] = None, validate: bool = False) -> None:
        self.datatype = datatype
        self.validate = validate and datatype is not None
        fields = datatype.fields if datatype is not None else ()
        if len(fields) > NAME_ENTRY_MAX + 1:
            raise EncodingError(f"datatype declares {len(fields)} fields; a field-name entry "
                                f"holds a declared index up to {NAME_ENTRY_MAX}")
        #: Root field name -> its field-name entry, for the declared fields.
        self._declared: Dict[str, int] = {
            declaration.name: DECLARED_FIELD_BIT | index for index, declaration in enumerate(fields)}

    def encode(self, record: Dict[str, Any]) -> bytes:
        """Encode a top-level object record."""
        if not isinstance(record, dict):
            raise EncodingError("top-level vector-based records must be objects")
        if self.validate:
            self.datatype.validate(record)
        tags = bytearray((RAW_OBJECT,))
        fixed = bytearray()
        var_lengths = []
        var_values = bytearray()
        entries = []
        names = bytearray()
        encoders = VALUE_ENCODERS

        def walk_object(value: Dict[str, Any], declared: Optional[Dict[str, int]], close: int,
                        depth: int) -> None:
            for name, child in value.items():
                tag, kind, pack = encoders.get(type(child)) or encoder_of(child)
                if tag is _MISSING:
                    continue
                entry = declared.get(name) if declared else None
                if entry is None:
                    raw = name.encode()
                    entry = len(raw)
                    if entry > NAME_ENTRY_MAX:
                        raise EncodingError(
                            f"field name longer than {NAME_ENTRY_MAX} bytes: {name[:32]!r}...")
                    names.extend(raw)
                entries.append(entry)
                tags.append(tag)
                if kind == KIND_FIXED:
                    fixed.extend(pack(child))
                elif kind == KIND_VAR:
                    payload = pack(child)
                    var_lengths.append(len(payload))
                    var_values.extend(payload)
                elif kind == KIND_OBJECT:
                    if depth == MAX_NESTING_DEPTH:
                        raise _too_deep()
                    walk_object(child, None, POP_TO_OBJECT, depth + 1)
                elif kind == KIND_COLLECTION:
                    if depth == MAX_NESTING_DEPTH:
                        raise _too_deep()
                    walk_items(child, POP_MARKER_BIT | tag, POP_TO_OBJECT, depth + 1)
            tags.append(close)

        def walk_items(value: Any, inner: int, close: int, depth: int) -> None:
            for child in value:
                tag, kind, pack = encoders.get(type(child)) or encoder_of(child)
                tags.append(tag)
                if kind == KIND_FIXED:
                    fixed.extend(pack(child))
                elif kind == KIND_VAR:
                    payload = pack(child)
                    var_lengths.append(len(payload))
                    var_values.extend(payload)
                elif kind == KIND_OBJECT:
                    if depth == MAX_NESTING_DEPTH:
                        raise _too_deep()
                    walk_object(child, None, inner, depth + 1)
                elif kind == KIND_COLLECTION:
                    if depth == MAX_NESTING_DEPTH:
                        raise _too_deep()
                    walk_items(child, POP_MARKER_BIT | tag, inner, depth + 1)
            tags.append(close)

        try:
            walk_object(record, self._declared, RAW_EOV, 1)
        except (struct.error, UnicodeEncodeError) as exc:
            raise unencodable(record, exc) from exc
        return _finish(tags, fixed, var_lengths, var_values, entries, names)


def _finish(tags: bytearray, fixed: bytearray, var_lengths: list, var_values: bytearray,
            entries: list, names: bytearray) -> bytes:
    """Header + the four vectors; each count-plus-entries run is one pack."""
    varlen_head = struct.pack(f"<{len(var_lengths) + 1}I", len(var_lengths), *var_lengths)
    names_head = struct.pack(f"<I{len(entries)}H", len(entries), *entries)
    offset_fixed = HEADER_SIZE + len(tags)
    offset_varlen = offset_fixed + len(fixed)
    offset_names = offset_varlen + len(varlen_head) + len(var_values)
    total_length = offset_names + len(names_head) + len(names)
    header = HEADER.pack(total_length, len(tags), 0,  # flags: not compacted
                         0, 0, 0, HEADER_SIZE, offset_fixed, offset_varlen, offset_names)
    return b"".join((header, tags, fixed, varlen_head, var_values, names_head, names))


def is_compacted(payload: bytes) -> bool:
    """True when a vector-based payload has been compacted against a schema."""
    fields = HEADER.unpack_from(payload, 0)
    return bool(fields[2] & FLAG_COMPACTED)


def record_total_length(payload: bytes) -> int:
    """Total length recorded in a vector-based payload's header."""
    return HEADER.unpack_from(payload, 0)[0]
