"""Anti-schema extraction for delete and upsert maintenance (paper §3.2.2).

When a record is deleted (or overwritten by an upsert), AsterixDB performs a
point lookup to fetch the old record and extracts its *anti-schema*: the
structural skeleton of that record, without values.  The anti-schema rides
on the anti-matter entry into the in-memory component and is replayed
against the inferred schema during the next flush, decrementing counters so
the schema can shrink again.

In this reproduction the anti-schema is represented as a plain structural
record — the original record with every scalar value replaced by a cheap
placeholder of the *same type* — because schema maintenance only needs the
shape and the types, never the values.  Keeping it a regular dict lets
:class:`~repro.schema.schema.InferredSchema.remove` share the traversal code
with inference.
"""

from __future__ import annotations

from typing import Any, Dict

from ..types import (
    ADate,
    ADateTime,
    AMultiset,
    APoint,
    ATime,
    MISSING,
    Missing,
    TypeTag,
    type_tag_of,
)

#: Placeholder scalar per type tag; values are irrelevant, the type matters.
_PLACEHOLDERS = {
    TypeTag.BOOLEAN: False,
    TypeTag.INT64: 0,
    TypeTag.DOUBLE: 0.0,
    TypeTag.STRING: "",
    TypeTag.BINARY: b"",
    TypeTag.DATE: ADate(0),
    TypeTag.TIME: ATime(0),
    TypeTag.DATETIME: ADateTime(0),
    TypeTag.POINT: APoint(0.0, 0.0),
}


def extract_antischema(record: Dict[str, Any]) -> Dict[str, Any]:
    """Build the anti-schema of ``record``.

    The result has the same field names, nesting, and value *types* as the
    input but all scalar payloads are replaced with zero-sized placeholders,
    so anti-matter entries stay small even for large records.
    """
    return {name: _strip(value) for name, value in record.items() if not isinstance(value, Missing)}


def _strip(value: Any) -> Any:
    if value is None or isinstance(value, Missing):
        return value
    if isinstance(value, dict):
        return {name: _strip(child) for name, child in value.items() if not isinstance(child, Missing)}
    if isinstance(value, AMultiset):
        return AMultiset(_strip(item) for item in value.items)
    if isinstance(value, (list, tuple)):
        return [_strip(item) for item in value]
    tag = type_tag_of(value)
    if tag in _PLACEHOLDERS:
        return _PLACEHOLDERS[tag]
    # Unmapped scalars (UUID etc.) keep their value: still correct, just larger.
    return value
