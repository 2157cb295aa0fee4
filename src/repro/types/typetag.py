"""Type tags of the ADM-like data model.

AsterixDB's data model (ADM) extends JSON with temporal and spatial types
and with collection constructors (ordered ``array`` and unordered
``multiset``).  Every value carried through the storage engine and the
query engine is tagged with one of the :class:`TypeTag` members below; the
same tags are what the vector-based format serializes into its values'
type-tag vector (paper §3.3.1).

Two members are *control* tags rather than value types:

* ``EOV`` terminates a record's tag vector, and
* nested tags re-appear as "pop" markers inside the tag vector (an
  ``OBJECT`` tag emitted while inside an array means "the array ended,
  return to the enclosing object") — see :mod:`repro.vector.encoder`.
"""

from __future__ import annotations

import enum
from typing import Optional


class TypeTag(enum.IntEnum):
    """One-byte tags identifying every value type in the data model."""

    # -- special / control ------------------------------------------------
    MISSING = 0
    NULL = 1
    EOV = 2  # end-of-values control tag (vector-based format only)

    # -- scalar, fixed-length ---------------------------------------------
    BOOLEAN = 10
    INT8 = 11
    INT16 = 12
    INT32 = 13
    INT64 = 14
    FLOAT = 15
    DOUBLE = 16
    DATE = 17       # days since epoch, 4 bytes
    TIME = 18       # milliseconds since midnight, 4 bytes
    DATETIME = 19   # milliseconds since epoch, 8 bytes
    DURATION = 20   # months (4 bytes) + milliseconds (8 bytes)
    POINT = 21      # two doubles
    UUID = 22       # 16 bytes

    # -- scalar, variable-length ------------------------------------------
    STRING = 30
    BINARY = 31

    # -- nested -------------------------------------------------------------
    OBJECT = 40
    ARRAY = 41
    MULTISET = 42

    # -- schema-only --------------------------------------------------------
    UNION = 50  # appears in inferred schemas, never in record payloads
    ANY = 51    # wildcard used by declared open datatypes

    @property
    def is_control(self) -> bool:
        return self is TypeTag.EOV

    @property
    def is_nested(self) -> bool:
        return self in _NESTED_TAGS

    @property
    def is_collection(self) -> bool:
        return self in (TypeTag.ARRAY, TypeTag.MULTISET)

    @property
    def is_fixed_length(self) -> bool:
        return self in _FIXED_LENGTH_SIZES

    @property
    def is_variable_length(self) -> bool:
        return self in _VARIABLE_LENGTH_TAGS

    @property
    def fixed_length(self) -> Optional[int]:
        """Byte width of a fixed-length scalar, or ``None`` otherwise."""
        return _FIXED_LENGTH_SIZES.get(self)


_NESTED_TAGS = frozenset({TypeTag.OBJECT, TypeTag.ARRAY, TypeTag.MULTISET})

_VARIABLE_LENGTH_TAGS = frozenset({TypeTag.STRING, TypeTag.BINARY})

#: Byte widths of the fixed-length scalar types.
_FIXED_LENGTH_SIZES = {
    TypeTag.BOOLEAN: 1,
    TypeTag.INT8: 1,
    TypeTag.INT16: 2,
    TypeTag.INT32: 4,
    TypeTag.INT64: 8,
    TypeTag.FLOAT: 4,
    TypeTag.DOUBLE: 8,
    TypeTag.DATE: 4,
    TypeTag.TIME: 4,
    TypeTag.DATETIME: 8,
    TypeTag.DURATION: 12,
    TypeTag.POINT: 16,
    TypeTag.UUID: 16,
}


def tag_name(tag: TypeTag) -> str:
    """Lower-case display name used in schema dumps and error messages."""
    return tag.name.lower()
