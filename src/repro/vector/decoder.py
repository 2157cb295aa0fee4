"""Decoder and value access for the vector-based record format.

Access to values in this format is a *linear* scan over the values' type
tags (paper §3.3.1), in contrast with the ADM format's offset-guided
navigation.  The paper mitigates the linear cost by consolidating all of a
query's field accesses into a single ``getValues()`` call (§3.4.2); the
:meth:`VectorRecordView.get_values` method implements exactly that: one
walk, many paths, early exit once every requested path has been resolved.

Compacted records store field-name ids instead of names, so resolving them
requires the dataset's declared datatype (for declared-index entries) and
the inferred schema's field-name dictionary (for FieldNameID entries);
uncompacted records are fully self-describing.

The cursor discipline
---------------------
Every reader of a record is the same walk: one pass over the tags vector,
with up to three more cursors advancing in lockstep.

* **tags** — one byte per entry, the first being the root ``OBJECT``.  A
  byte with ``POP_MARKER_BIT`` closes the innermost open nested value,
  ``EOV`` closes the record, any other byte is a value: a nested tag opens a
  container, a scalar tag is a leaf.
* **names** — a value whose parent is an object consumes one u16 name entry
  (plus, for an inline name of an uncompacted record, that many bytes of
  the name-bytes tail); items of arrays and multisets consume none.
* **fixed** — a fixed-length scalar consumes its type's width.
* **varlen** — a string or binary consumes one u32 length and that many
  value bytes.  ``NULL`` and ``MISSING`` consume nothing but their tag.

Three loops specialise that walk by the cursors they touch:

* metadata only (tags + names): :func:`~repro.vector.compaction.infer_and_compact`
  at flush time and :meth:`VectorRecordView.structure`;
* every value (all four): :meth:`VectorRecordView.materialize`;
* trie-guided (all four, decoding only what was asked for and stopping
  early): :class:`~repro.vector.batch.BatchExtractor`, which also serves
  :meth:`VectorRecordView.get_values`.
"""

from __future__ import annotations

import struct
import uuid
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import DecodingError
from ..types import (
    ADate,
    ADateTime,
    AMultiset,
    APoint,
    ATime,
    Datatype,
    MISSING,
    TypeTag,
    WILDCARD,
    unpack_fixed,
    unpack_variable,
)
from .layout import (
    DECLARED_FIELD_BIT,
    FIXED_WIDTH,
    FLAG_COMPACTED,
    HEADER,
    NAME_ENTRY_MAX,
    POP_MARKER_BIT,
    RAW_EOV,
    RAW_MISSING,
    RAW_MULTISET,
    RAW_NESTED,
    RAW_NULL,
    RAW_OBJECT,
    RAW_VARLEN,
    TAG_OF_RAW,
    U32,
)

#: A path step: an object field name, a collection index, or "*" (all items).
PathStep = Union[str, int]
Path = Tuple[PathStep, ...]

#: Scalar placeholders of :meth:`VectorRecordView.structure` (an IntEnum key
#: is found by the raw tag byte).  Each has the type its tag decodes to, so
#: the skeleton of a stored record infers (and, as an anti-schema, removes)
#: the node types the record's own tags would.
_STRUCTURE_PLACEHOLDERS = {
    TypeTag.MISSING: MISSING,
    TypeTag.NULL: None,
    TypeTag.BOOLEAN: False,
    TypeTag.INT8: 0,
    TypeTag.INT16: 0,
    TypeTag.INT32: 0,
    TypeTag.INT64: 0,
    TypeTag.FLOAT: 0.0,
    TypeTag.DOUBLE: 0.0,
    TypeTag.STRING: "",
    TypeTag.BINARY: b"",
    TypeTag.DATE: ADate(0),
    TypeTag.TIME: ATime(0),
    TypeTag.DATETIME: ADateTime(0),
    TypeTag.POINT: APoint(0.0, 0.0),
    TypeTag.UUID: uuid.UUID(int=0),
}


@lru_cache(maxsize=256)
def _extractor_for(paths: Tuple[Path, ...]):
    """The compiled extractor serving ``get_values`` for one path set."""
    from .batch import BatchExtractor  # batch imports this module

    return BatchExtractor(paths)


class VectorRecordView:
    """Read-only access to one encoded vector-based record.

    Parameters
    ----------
    payload:
        The encoded record bytes (compacted or not).
    datatype:
        Declared datatype; needed to resolve declared-index name entries.
    dictionary:
        Field-name dictionary of the inferred schema; needed to resolve
        FieldNameID entries of compacted records.
    """

    def __init__(self, payload: bytes, datatype: Optional[Datatype] = None,
                 dictionary=None) -> None:
        self.payload = payload
        self.datatype = datatype
        self.dictionary = dictionary
        (self.total_length, self.tag_count, self.flags, _, _, _,
         self.offset_tags, self.offset_fixed, self.offset_varlen,
         self.offset_names) = HEADER.unpack_from(payload, 0)

    # -- basic properties -------------------------------------------------------

    @property
    def is_compacted(self) -> bool:
        return bool(self.flags & FLAG_COMPACTED)

    def __len__(self) -> int:
        return self.total_length

    # -- full materialization ---------------------------------------------------

    def materialize(self) -> Dict[str, Any]:
        """Decode the record back into Python objects."""
        return self._build(decode_values=True)

    def structure(self) -> Dict[str, Any]:
        """Return the record's structural skeleton with placeholder scalars.

        This touches only the type tags and field names vectors — the
        information the tuple compactor scans when inferring a schema
        (paper §3.3.2) — leaving fixed- and variable-length values unread.
        """
        return self._build(decode_values=False)

    # -- consolidated field access (the getValues() function) --------------------

    def get_values(self, *paths: Sequence[PathStep]) -> List[Any]:
        """Resolve several access paths in one linear scan (paper §3.4.2).

        Each path is a sequence of field names, collection indexes, and the
        ``"*"`` wildcard; each result is what :func:`~repro.types.navigate`
        returns for that path over the materialized record — exact paths a
        value or ``MISSING``, one wildcard an aligned list (or ``[]`` / the
        scalar or object found at its prefix), several wildcards the
        flattened present values.

        The scan stops as soon as every exact path has been resolved and
        every wildcard collection has been closed, so access cost grows with
        the position of the requested values within the record (Figure 22).
        """
        return _extractor_for(tuple(map(tuple, paths))).extract(self)

    def get_field(self, *path: PathStep) -> Any:
        """Single-path access (the un-consolidated ``getField()``)."""
        return self.get_values(path)[0]

    # -- the full-record walks -------------------------------------------------------

    def _field_names(self) -> List[str]:
        """Every name entry resolved to its string, in tag order."""
        payload = self.payload
        (count,) = U32.unpack_from(payload, self.offset_names)
        entries = struct.unpack_from("<%dH" % count, payload, self.offset_names + 4)
        cursor = self.offset_names + 4 + 2 * count
        compacted = self.flags & FLAG_COMPACTED
        dictionary = self.dictionary
        declared = self.datatype.fields if self.datatype is not None else ()
        names = []
        for entry in entries:
            if entry & DECLARED_FIELD_BIT:
                index = entry & NAME_ENTRY_MAX
                if index >= len(declared):
                    raise DecodingError(
                        f"declared field index {index} cannot be resolved without a datatype")
                names.append(declared[index].name)
            elif compacted:
                if dictionary is None:
                    raise DecodingError(
                        "compacted record requires a field-name dictionary to decode")
                names.append(dictionary.decode(entry))
            else:
                names.append(payload[cursor:cursor + entry].decode("utf-8"))
                cursor += entry
        return names

    def _build(self, decode_values: bool) -> Dict[str, Any]:
        """Build the record in one pass, each value appended straight into its parent.

        With ``decode_values`` off the fixed and varlen cursors are never
        touched: scalars become the placeholder of their tag.
        """
        payload = self.payload
        tags = payload[self.offset_tags:self.offset_tags + self.tag_count]
        if not tags or tags[0] != RAW_OBJECT:
            raise DecodingError("vector-based payload does not hold an object record")
        names = self._field_names()
        name_index = 0
        if decode_values:
            fixed_cursor = self.offset_fixed
            (var_count,) = U32.unpack_from(payload, self.offset_varlen)
            var_lengths = struct.unpack_from("<%dI" % var_count, payload, self.offset_varlen + 4)
            var_index = 0
            var_cursor = self.offset_varlen + 4 + 4 * var_count

        root: Dict[str, Any] = {}
        container: Any = root
        kind = RAW_OBJECT
        key: Any = None
        # One frame per open nested value: its parent container, the parent's
        # kind, and the key it sits under when the parent is an object.
        stack: List[Tuple[Any, int, Any]] = []
        for raw in tags[1:]:
            if raw & POP_MARKER_BIT:
                finished, finished_kind = container, kind
                container, kind, key = stack.pop()
                if finished_kind == RAW_MULTISET:  # immutable: wrap once complete
                    if kind == RAW_OBJECT:
                        container[key] = AMultiset(finished)
                    else:
                        container[-1] = AMultiset(finished)
                continue
            if raw == RAW_EOV:
                break
            if kind == RAW_OBJECT:
                key = names[name_index]
                name_index += 1
            if raw in RAW_NESTED:
                child: Any = {} if raw == RAW_OBJECT else []
                if kind == RAW_OBJECT:
                    container[key] = child
                else:
                    container.append(child)
                stack.append((container, kind, key))
                container, kind = child, raw
                continue
            if not decode_values:
                try:
                    value = _STRUCTURE_PLACEHOLDERS[raw]
                except KeyError:
                    raise DecodingError(f"unexpected tag {raw} in tags vector") from None
            elif raw == RAW_NULL:
                value = None
            elif raw == RAW_MISSING:
                value = MISSING
            elif raw in RAW_VARLEN:
                length = var_lengths[var_index]
                var_index += 1
                value = unpack_variable(TAG_OF_RAW[raw], payload[var_cursor:var_cursor + length])
                var_cursor += length
            elif raw in FIXED_WIDTH:
                value = unpack_fixed(TAG_OF_RAW[raw], payload, fixed_cursor)
                fixed_cursor += FIXED_WIDTH[raw]
            else:
                raise DecodingError(f"unexpected tag {raw} in tags vector")
            if kind == RAW_OBJECT:
                container[key] = value
            else:
                container.append(value)
        return root
