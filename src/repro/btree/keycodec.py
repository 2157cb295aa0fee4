"""Serialization of B+-tree keys.

A primary key is an integer, a float or a string: a kind byte, then the
value (a little-endian int64 or double, or a u16 length and UTF-8 bytes).
A primary tree compares decoded keys of one kind, so these bytes only
round-trip.  A secondary key is ``bytes`` already: the indexed value's
order-preserving :func:`~repro.types.index_key` (first byte
``INDEX_KEY_BASE`` + rank, above every kind byte) with the primary key's
bytes appended for uniqueness.  Leaves bisect, merges union and probes
bound it as it is, and the codec writes it verbatim; reading it back needs
only its end: a string value ends at its 0x00 terminator, any other after
8 bytes, and the primary key follows.

:func:`encode_key` dispatches on the key's exact type; a subclass (an
``IntEnum`` member, a ``str`` subclass) falls back to ``isinstance``, with
``bool`` refused first.  :data:`FIXED_WIDTH_KEYS` states the two shapes
components write by the thousand, from which ``pages`` builds its table
decode of key-only leaves.
"""

from __future__ import annotations

import struct
from typing import Tuple, Union

from ..errors import EncodingError
from ..types.values import (FIXED_INDEX_KEY_RANKS, FIXED_INDEX_KEY_SIZE, INDEX_KEY_BASE,
                            index_value_end)

#: A primary key, or a secondary index key's bytes.
Key = Union[int, float, str, bytes]

_KIND_INT, _KIND_FLOAT, _KIND_STR = range(3)

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U16 = struct.Struct("<H")
#: Whole encodings of the fixed-width kinds.
_INT_KEY = struct.Struct("<Bq")
_FLOAT_KEY = struct.Struct("<Bd")
_STR_HEAD = struct.Struct("<BH")
#: The fixed-width shapes, ``(struct of the key's bytes, ((offset, byte)
#: every such key holds, ...))``: an ``int``, and an index key of an 8-byte
#: value (one shape per rank) followed by an ``int`` primary key.
FIXED_WIDTH_KEYS = ((struct.Struct("<xq"), ((0, _KIND_INT),)),) + tuple(
    (struct.Struct(f"{FIXED_INDEX_KEY_SIZE + _INT_KEY.size}s"),
     ((0, INDEX_KEY_BASE + rank), (FIXED_INDEX_KEY_SIZE, _KIND_INT)))
    for rank in FIXED_INDEX_KEY_RANKS)


def _encode_int(key: int) -> bytes:
    try:
        return _INT_KEY.pack(_KIND_INT, key)
    except struct.error:
        raise EncodingError(f"cannot encode index key {key} as INT64: out of range") from None


def _encode_float(key: float) -> bytes:
    return _FLOAT_KEY.pack(_KIND_FLOAT, key)


def _encode_str(key: str) -> bytes:
    try:
        payload = key.encode("utf-8")
    except UnicodeEncodeError:
        raise EncodingError(f"index key {key!r} cannot be encoded as UTF-8") from None
    if len(payload) > 0xFFFF:
        raise EncodingError("string keys longer than 65535 bytes are not supported")
    return _STR_HEAD.pack(_KIND_STR, len(payload)) + payload


def _encode_index_key(key: bytes) -> bytes:
    if not key or key[0] < INDEX_KEY_BASE:
        raise EncodingError(f"{key[:16]!r} is not a secondary index key")
    return key


#: Exact key type -> encoder.
_ENCODERS = {int: _encode_int, float: _encode_float, str: _encode_str, bytes: _encode_index_key}


def encode_key(key: Key) -> bytes:
    """Encode a key into bytes (type byte + payload; an index key as it is).

    Raises :class:`EncodingError` for a boolean, an integer outside the
    signed 64-bit range, and any other value no leaf can hold."""
    encoder = _ENCODERS.get(type(key))
    if encoder is not None:
        return encoder(key)
    if isinstance(key, bool):
        raise EncodingError("boolean values cannot be index keys")
    for kind, encoder in _ENCODERS.items():
        if isinstance(key, kind):
            return encoder(kind(key))
    raise EncodingError(f"unsupported key type {type(key).__name__}")


def index_primary_key(key: bytes) -> Key:
    """The primary key an index key ends with."""
    return decode_key(key, index_value_end(key))[0]


def decode_key(payload: bytes, offset: int = 0) -> Tuple[Key, int]:
    """Decode one key starting at ``offset``; returns ``(key, next_offset)``."""
    kind = payload[offset]
    if kind == _KIND_INT:
        return _I64.unpack_from(payload, offset + 1)[0], offset + 9
    if kind == _KIND_FLOAT:
        return _F64.unpack_from(payload, offset + 1)[0], offset + 9
    if kind == _KIND_STR:
        (length,) = _U16.unpack_from(payload, offset + 1)
        start = offset + 3
        return payload[start:start + length].decode("utf-8"), start + length
    if kind >= INDEX_KEY_BASE:
        end = decode_key(payload, index_value_end(payload, offset))[1]
        return payload[offset:end], end
    raise EncodingError(f"unknown key kind {kind}")
