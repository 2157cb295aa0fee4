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
  byte with ``POP_MARKER_BIT`` closes the innermost open nested value (and
  names the kind of the container it returns to), ``EOV`` closes the record,
  any other byte is a value: a nested tag opens a container, a scalar tag is
  a leaf.  ``layout.TAG_TABLE`` gives each of the 256 bytes its class; a byte
  the format never writes is an explicit ``BAD`` entry and every walk raises
  ``DecodingError`` on it.
* **names** — a value whose parent is an object consumes one u16 name entry
  (plus, for an inline name of an uncompacted record, that many bytes of
  the name-bytes tail); items of arrays and multisets consume none.
* **fixed** — a fixed-length scalar consumes its type's width.
* **varlen** — a string or binary consumes one u32 length and that many
  value bytes.  ``NULL`` and ``MISSING`` consume nothing but their tag.

A read slices the tags vector once and unpacks every name entry and every
varlen length with one ``struct.unpack_from`` each
(:meth:`VectorRecordView._vectors`); the tags cursor is then one iterator
over the slice, handed from walk to walk.  Two query-side walks share it:

* the **builder**, :func:`build_value`, turns the nested value whose opening
  tag was just read into Python objects, resolving every name and decoding
  every scalar on the way (or, for :meth:`VectorRecordView.structure`,
  substituting placeholders and leaving both value cursors untouched).
  ``materialize()`` is the builder applied to the root;
* the **skipper**, the inner loop of :class:`~repro.vector.batch.BatchExtractor`'s
  plan compiler, passes over a value nobody asked for by only counting:
  widths from ``layout.WIDTHS``, varlen entries, name entries — no name is
  resolved and no value decoded.  The compiler steers with its request trie,
  records where each requested value starts, and stops at the first tag
  after which nothing requested can follow; the plan it makes reads those
  values straight from the cursors it recorded, for every record that
  starts with the tags and names it read.

The flush side has its own metadata-only loop (tags + names),
:func:`~repro.vector.compaction.infer_and_compact`.
"""

from __future__ import annotations

import struct
import uuid
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import DecodingError, SchemaError
from ..types import (
    ADate,
    ADateTime,
    AMultiset,
    APoint,
    ATime,
    Datatype,
    MISSING,
    TypeTag,
    VARLEN,
    WILDCARD,
)
from .layout import (
    CLOSE,
    DECLARED_FIELD_BIT,
    FLAG_COMPACTED,
    HEADER,
    HEADER_SIZE,
    NAME_ENTRY_MAX,
    NESTED,
    RAW_MULTISET,
    RAW_OBJECT,
    TAG_TABLE,
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
def extractor_for(paths: Tuple[Path, ...]):
    """The one compiled extractor of a path set, so every reader of the same
    paths — ``get_values``, a query's scan, a secondary index's flushes and
    probes — shares its table of plans."""
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

    __slots__ = ("payload", "datatype", "dictionary", "total_length", "tag_count", "flags",
                 "offset_tags", "offset_fixed", "offset_varlen", "offset_names")

    def __init__(self, payload: bytes, datatype: Optional[Datatype] = None,
                 dictionary=None) -> None:
        self.payload = payload
        self.datatype = datatype
        self.dictionary = dictionary
        try:
            (self.total_length, self.tag_count, self.flags, _, _, _,
             self.offset_tags, self.offset_fixed, self.offset_varlen,
             self.offset_names) = HEADER.unpack_from(payload, 0)
        except struct.error:
            raise DecodingError(f"vector-based payload of {len(payload)} bytes is shorter "
                                f"than its {HEADER_SIZE}-byte header") from None
        # A payload cut anywhere past its header (inside the values, too) is
        # shorter than the length the header records.
        if len(payload) < self.total_length:
            raise DecodingError(f"vector-based payload truncated: {len(payload)} of "
                                f"{self.total_length} bytes")

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
        the position of the requested values within the record (Figure 22)
        — once per prefix a scan read: the extractor keeps what the scan
        found as a plan that reads the values by offset.
        """
        return extractor_for(tuple(map(tuple, paths))).extract(self)

    def get_field(self, *path: PathStep) -> Any:
        """Single-path access (the un-consolidated ``getField()``)."""
        return self.get_values(path)[0]

    # -- the record's vectors, opened once per walk ------------------------------

    def _vectors(self, values: bool = True) -> Tuple[Any, ...]:
        """What a walk reads, sliced and bulk-unpacked once: ``(tags, vectors,
        name_bytes, fixed, var_bytes)`` — the tags vector; ``vectors =
        (payload, entries, lengths, declared, id_names)`` with the name
        entries and varlen lengths as tuples; and the three byte cursors at
        their starts.  ``id_names`` is the dictionary's id -> name list
        (``None`` for an uncompacted record, whose names are inline);
        ``values=False`` leaves the varlen vector unread.
        """
        payload = self.payload
        tags = payload[self.offset_tags:self.offset_tags + self.tag_count]
        if not tags or tags[0] != RAW_OBJECT:
            raise DecodingError("vector-based payload does not hold an object record")
        (count,) = U32.unpack_from(payload, self.offset_names)
        entries = struct.unpack_from("<%dH" % count, payload, self.offset_names + 4)
        lengths: Tuple[int, ...] = ()
        var_bytes = 0
        if values:
            (var_count,) = U32.unpack_from(payload, self.offset_varlen)
            lengths = struct.unpack_from("<%dI" % var_count, payload, self.offset_varlen + 4)
            var_bytes = self.offset_varlen + 4 + 4 * var_count
        id_names, declared = self._resolvers()
        return (tags, (payload, entries, lengths, declared, id_names),
                self.offset_names + 4 + 2 * count, self.offset_fixed, var_bytes)

    def _resolvers(self) -> Tuple[Optional[List[str]], Tuple[Any, ...]]:
        """What the name entries resolve against: ``(id_names, declared)`` —
        the dictionary's id -> name list (``None`` for an uncompacted record,
        whose names are inline) and the datatype's declared fields."""
        id_names = None
        if self.flags & FLAG_COMPACTED:
            id_names = self.dictionary.names if self.dictionary is not None else ()
        return id_names, self.datatype.fields if self.datatype is not None else ()

    def _unresolved(self, entry: int) -> Exception:
        """The error for a name entry that does not lead to a name."""
        if entry & DECLARED_FIELD_BIT:
            return DecodingError(f"declared field index {entry & NAME_ENTRY_MAX} "
                                 f"cannot be resolved without a datatype")
        if self.dictionary is None:
            return DecodingError("compacted record requires a field-name dictionary to decode")
        return SchemaError(f"unknown FieldNameID {entry}")

    def _build(self, decode_values: bool) -> Dict[str, Any]:
        """The builder applied to the root object."""
        tags, vectors, name_bytes, fixed, var_bytes = self._vectors(decode_values)
        cursor = iter(tags)
        return build_value(self, cursor, next(cursor), vectors, 0, name_bytes, fixed, 0, var_bytes,
                           None if decode_values else _STRUCTURE_PLACEHOLDERS)[0]


def torn_record() -> DecodingError:
    """The error of a walk whose tags need a name entry, a varlen length or
    an open value that the record does not hold."""
    return DecodingError("vector-based record is torn: its tags vector needs more name "
                         "entries, value lengths or open values than it holds")


def build_value(view: VectorRecordView, tags: Any, raw: int, vectors: Tuple[Any, ...],
                name_index: int, name_bytes: int, fixed: int, var_index: int, var_bytes: int,
                placeholders: Optional[Dict[int, Any]] = None) -> Tuple[Any, ...]:
    """Build the nested value whose opening tag ``raw`` was just read from ``tags``.

    ``tags`` is the iterator over the record's tags vector and ``vectors``
    what :meth:`VectorRecordView._vectors` returned with it; the builder
    consumes ``tags`` up to and including the marker that closes the value,
    each child appended straight into its parent.  Returns ``(value,
    name_index, name_bytes, fixed, var_index, var_bytes)`` — the value and
    the five cursors where the caller resumes.  With ``placeholders`` the
    value cursors are never touched: a scalar becomes the placeholder of its
    tag.
    """
    payload, entries, lengths, declared, id_names = vectors
    id_count = len(id_names) if id_names is not None else 0
    top_kind = kind = raw
    top: Any = {} if raw == RAW_OBJECT else []
    container = top
    key: Any = None
    # One frame per open nested value: its parent container, the parent's
    # kind, and the key it sits under when the parent is an object.
    stack: List[Tuple[Any, int, Any]] = []
    try:
        for raw in tags:
            width, read, wrap = TAG_TABLE[raw]
            if width == CLOSE:
                if not stack:
                    break
                finished, finished_kind = container, kind
                container, kind, key = stack.pop()
                if finished_kind == RAW_MULTISET:  # immutable: wrap once complete
                    if kind == RAW_OBJECT:
                        container[key] = AMultiset(finished)
                    else:
                        container[-1] = AMultiset(finished)
                continue
            if kind == RAW_OBJECT:
                entry = entries[name_index]
                name_index += 1
                if entry & DECLARED_FIELD_BIT:
                    if entry & NAME_ENTRY_MAX >= len(declared):
                        raise view._unresolved(entry)
                    key = declared[entry & NAME_ENTRY_MAX].name
                elif id_names is None:
                    key = payload[name_bytes:name_bytes + entry].decode()
                    name_bytes += entry
                elif 0 < entry <= id_count:
                    key = id_names[entry - 1]
                else:
                    raise view._unresolved(entry)
            if width == NESTED:
                value: Any = {} if raw == RAW_OBJECT else []
                stack.append((container, kind, key))
            elif placeholders is not None:
                try:
                    value = placeholders[raw]
                except KeyError:
                    raise DecodingError(f"unexpected tag {raw} in tags vector") from None
            elif width > 0:
                if wrap is None:
                    (value,) = read(payload, fixed)
                else:
                    value = wrap(*read(payload, fixed))
                fixed += width
            elif width == VARLEN:
                length = lengths[var_index]
                var_index += 1
                value = read(payload[var_bytes:var_bytes + length])
                var_bytes += length
            elif not width:
                value = wrap  # NULL or MISSING
            else:
                raise DecodingError(f"unexpected tag {raw} in tags vector")
            if kind == RAW_OBJECT:
                container[key] = value
            else:
                container.append(value)
            if width == NESTED:
                container, kind = value, raw
    except IndexError:  # a name entry or a varlen length the record lacks
        raise torn_record() from None
    if top_kind == RAW_MULTISET:
        top = AMultiset(top)
    return top, name_index, name_bytes, fixed, var_index, var_bytes
