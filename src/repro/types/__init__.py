"""ADM-like type system: type tags, value wrappers, declared datatypes."""

from .typetag import TypeTag, VALUE_TYPE_COUNT, tag_name
from .values import (
    ADate,
    ADateTime,
    AMultiset,
    APoint,
    ATime,
    MISSING,
    Missing,
    SCALAR_DECODERS,
    VARLEN,
    WILDCARD,
    collection_items,
    deep_equals,
    navigate,
    pack_fixed,
    pack_variable,
    type_tag_of,
    unpack_fixed,
)
from .datatype import Datatype, FieldDeclaration, open_only_primary_key

__all__ = [
    "TypeTag",
    "VALUE_TYPE_COUNT",
    "tag_name",
    "ADate",
    "ADateTime",
    "ATime",
    "APoint",
    "AMultiset",
    "MISSING",
    "Missing",
    "WILDCARD",
    "collection_items",
    "navigate",
    "deep_equals",
    "type_tag_of",
    "pack_fixed",
    "unpack_fixed",
    "pack_variable",
    "SCALAR_DECODERS",
    "VARLEN",
    "Datatype",
    "FieldDeclaration",
    "open_only_primary_key",
]
