"""Binary encoder for the ADM physical record format.

This is the paper's *baseline* physical format (paper §2.2 and [3]): a
recursive, self-describing layout in which

* every value carries a one-byte type tag;
* every **object** stores a 4-byte offset per declared ("closed part")
  field, followed by the undeclared ("open part") fields each of which
  stores its field name inline;
* every **array/multiset** stores a 4-byte offset per item.

Those per-nested-value offsets and inline names are exactly the overheads
the tuple compactor and the vector-based format remove, so this encoder
deliberately reproduces them byte-for-concept (if not byte-for-byte with
AsterixDB's Java implementation).

The encoder is recursive: children are encoded into their own buffers and
then copied into the parent, mirroring the repeated memory-copy behaviour
that makes this format the costlier one to construct in the paper.  Each
value indexes :data:`~repro.types.VALUE_ENCODERS` once for its tag and
packer.  ``benchmarks/micro_vector.py`` (2 000 generated tweets, CPU µs per
record, median of 7 rounds) measures ADM encode 45.6 against vector encode
22.2 (0.49x; 123.7 and 99.7 before the shared table).
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Optional

from ..errors import EncodingError
from ..types import (
    KIND_COLLECTION,
    KIND_EMPTY,
    KIND_FIXED,
    KIND_OBJECT,
    KIND_VAR,
    MISSING,
    VALUE_ENCODERS,
    Datatype,
    Missing,
    TypeTag,
    encoder_of,
    unencodable,
)
from ..vector.layout import MAX_NESTING_DEPTH

#: struct formats used throughout the format.
_U16 = struct.Struct("<H").pack
_U32 = struct.Struct("<I").pack

#: The one-byte prefix of a value, by tag.
_TAG_BYTES = tuple(bytes((raw,)) for raw in range(256))

#: Longest field name, in UTF-8 bytes, an open-part ``name_len(2)`` can hold.
NAME_LENGTH_MAX = 0xFFFF


def _too_deep() -> EncodingError:
    return EncodingError(f"record nests deeper than {MAX_NESTING_DEPTH} levels")


class ADMEncoder:
    """Encodes Python records into ADM physical bytes.

    Parameters
    ----------
    datatype:
        The declared datatype of the dataset.  Fields present in the
        declaration are written to the closed part (no inline names); all
        other fields go to the open part with their names inline.  Pass a
        datatype declaring only the primary key to model the paper's
        *open* configuration, or a fully declared one for *closed*.
    validate:
        When true, records are validated against the datatype before
        encoding (AsterixDB always enforces declared constraints; the paper
        attributes part of the closed configuration's ingest cost to it).
    """

    def __init__(self, datatype: Optional[Datatype] = None, validate: bool = True) -> None:
        self.datatype = datatype
        self.validate = validate and datatype is not None

    # -- public API ---------------------------------------------------------

    def encode(self, record: Dict[str, Any]) -> bytes:
        """Encode a top-level record (must be an object)."""
        if not isinstance(record, dict):
            raise EncodingError("top-level ADM records must be objects")
        if self.validate:
            self.datatype.validate(record)
        try:
            return self._encode_object(record, self.datatype, 1)
        except (struct.error, UnicodeEncodeError) as exc:
            raise unencodable(record, exc) from exc

    def encode_value(self, value: Any) -> bytes:
        """Encode an arbitrary tagged value (used by secondary indexes)."""
        try:
            return self._encode_value(value, 0)
        except (struct.error, UnicodeEncodeError) as exc:
            raise unencodable(value, exc) from exc

    # -- recursive encoding ---------------------------------------------------

    def _encode_value(self, value: Any, depth: int) -> bytes:
        """Encode one value whose enclosing object or collection is at ``depth``."""
        tag, kind, pack = VALUE_ENCODERS.get(type(value)) or encoder_of(value)
        if kind == KIND_FIXED:
            return _TAG_BYTES[tag] + pack(value)
        if kind == KIND_VAR:
            payload = pack(value)
            return _TAG_BYTES[tag] + _U32(len(payload)) + payload
        if kind == KIND_EMPTY:
            return _TAG_BYTES[tag]
        if kind == KIND_OBJECT:
            return self._encode_object(value, None, depth + 1)
        return self._encode_collection(tag, value, None, depth + 1)

    def _encode_declared_field(self, declaration, value: Any, depth: int) -> bytes:
        """Encode a declared field, threading nested/item declarations."""
        tag, kind, _ = VALUE_ENCODERS.get(type(value)) or encoder_of(value)
        if kind == KIND_OBJECT and declaration.nested is not None:
            return self._encode_object(value, declaration.nested, depth + 1)
        if kind == KIND_COLLECTION and declaration.item_nested is not None:
            return self._encode_collection(tag, value, declaration.item_nested, depth + 1)
        return self._encode_value(value, depth)

    def _encode_object(self, record: Dict[str, Any], declared: Optional[Datatype],
                       depth: int) -> bytes:
        """Object layout::

            tag(1) | total_length(4) | n_closed(2) | closed_offsets(4*n)
                   | closed_values...
                   | n_open(2) | open_offsets(4*n)
                   | (name_len(2) | name | value)...

        Offsets are relative to the start of the object and 0 means "field
        absent" (optional declared field not present in this record).
        """
        if depth > MAX_NESTING_DEPTH:
            raise _too_deep()
        closed_payloads = []
        declared_names = ()
        if declared is not None:
            declared_names = declared.name_set
            for declaration in declared.fields:
                value = record.get(declaration.name, MISSING)
                closed_payloads.append(b"" if isinstance(value, Missing)
                                       else self._encode_declared_field(declaration, value, depth))

        open_payloads = []
        for name, value in record.items():
            if name in declared_names or isinstance(value, Missing):
                continue
            name_bytes = name.encode()
            if len(name_bytes) > NAME_LENGTH_MAX:
                raise EncodingError(
                    f"field name longer than {NAME_LENGTH_MAX} bytes: {name[:32]!r}...")
            open_payloads.append(_U16(len(name_bytes)) + name_bytes
                                 + self._encode_value(value, depth))

        closed_offsets = []
        cursor = 1 + 4 + 2 + 4 * len(closed_payloads)
        for payload in closed_payloads:
            closed_offsets.append(cursor if payload else 0)
            cursor += len(payload)
        open_offsets = []
        cursor += 2 + 4 * len(open_payloads)
        for payload in open_payloads:
            open_offsets.append(cursor)
            cursor += len(payload)
        total_length = cursor

        encoded = b"".join((
            struct.pack(f"<BIH{len(closed_offsets)}I", TypeTag.OBJECT, total_length,
                        len(closed_offsets), *closed_offsets),
            *closed_payloads,
            struct.pack(f"<H{len(open_offsets)}I", len(open_offsets), *open_offsets),
            *open_payloads,
        ))
        if len(encoded) != total_length:
            raise EncodingError(
                f"internal error: object length mismatch ({len(encoded)} != {total_length})"
            )
        return encoded

    def _encode_collection(self, tag: TypeTag, items, item_nested: Optional[Datatype],
                           depth: int) -> bytes:
        """Collection layout::

            tag(1) | total_length(4) | n_items(4) | item_offsets(4*n) | items...

        ``item_nested`` is the declared datatype of object items (if any); it
        lets closed datasets omit item field names from storage, which is the
        dominant saving for the Sensors dataset's ``readings`` arrays.
        """
        if depth > MAX_NESTING_DEPTH:
            raise _too_deep()
        payloads = []
        for item in items:
            if item_nested is not None and isinstance(item, dict):
                payloads.append(self._encode_object(item, item_nested, depth + 1))
            else:
                payloads.append(self._encode_value(item, depth))
        offsets = []
        cursor = 1 + 4 + 4 + 4 * len(payloads)
        for payload in payloads:
            offsets.append(cursor)
            cursor += len(payload)
        return b"".join((struct.pack(f"<BII{len(offsets)}I", tag, cursor, len(offsets), *offsets),
                         *payloads))
