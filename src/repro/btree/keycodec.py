"""Serialization of B+-tree keys.

Primary keys in the paper's datasets are integers.  A secondary-index key
is a ``(rank, value, primary key)`` triple: the indexed value's
:func:`~repro.types.index_key` — its type rank, then the value (a number, a
string, or a date's, time's or datetime's integer count) — with the primary key
appended for uniqueness (the Figure 24 experiment indexes a bigint
timestamp).  The codec therefore supports integers, floats, strings, and
tuples of those.  Keys are compared as Python values after decoding, so the
encoding only needs to round-trip, not to be order-preserving at the byte
level; the rank is what makes any two secondary keys comparable.

A *ranked* key — a 3-tuple whose first part is an ``int`` in 0..255, as
every secondary key is — has a kind of its own: the rank takes the byte a
tuple's part count would, so ranking a secondary key costs no byte.  Any
other tuple is its part count, then its parts.

:func:`encode_key` dispatches on the key's exact type; the two shapes every
component writes by the thousand — an ``int`` (a primary key) and a ranked
``(int, int, int)`` (a secondary key over an integer field) — are one
precompiled ``struct.pack`` each.  A subclass (an ``IntEnum``
member, a ``str`` subclass) misses the table and falls back to
``isinstance``, with ``bool`` refused first.  The same two structs state
those shapes' bytes for the read side too (:data:`FIXED_WIDTH_KEYS`, from
which ``pages`` builds its table decode of key-only leaves).
"""

from __future__ import annotations

import struct
from typing import Any, Tuple, Union

from ..errors import EncodingError

KeyScalar = Union[int, float, str]
Key = Union[KeyScalar, Tuple[KeyScalar, ...]]

_KIND_INT = 0
_KIND_FLOAT = 1
_KIND_STR = 2
_KIND_TUPLE = 3
_KIND_RANKED = 4

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U16 = struct.Struct("<H")
#: Whole encodings of the scalar kinds and of the hot ranked ``(int, int, int)``.
_INT_KEY = struct.Struct("<Bq")
_FLOAT_KEY = struct.Struct("<Bd")
_RANKED_INT_KEY = struct.Struct("<BBBqBq")
_STR_HEAD = struct.Struct("<BH")
#: The fixed-width shapes, ``(struct, (field position, value) of each kind
#: byte)``; the struct's other fields are the key's integer parts.
FIXED_WIDTH_KEYS = ((_INT_KEY, ((0, _KIND_INT),)),
                    (_RANKED_INT_KEY, ((0, _KIND_RANKED), (2, _KIND_INT), (4, _KIND_INT))))


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


def _encode_tuple(key: tuple) -> bytes:
    if len(key) == 3 and type(key[0]) is int and 0 <= key[0] <= 0xFF:
        if type(key[1]) is int and type(key[2]) is int:
            try:
                return _RANKED_INT_KEY.pack(_KIND_RANKED, key[0], _KIND_INT, key[1],
                                            _KIND_INT, key[2])
            except struct.error:
                pass  # the part out of range is named below
        return bytes((_KIND_RANKED, key[0])) + encode_key(key[1]) + encode_key(key[2])
    if len(key) > 0xFF:
        raise EncodingError("tuple keys of more than 255 parts are not supported")
    return bytes((_KIND_TUPLE, len(key))) + b"".join(map(encode_key, key))


#: Exact key type -> encoder.
_ENCODERS = {int: _encode_int, float: _encode_float, str: _encode_str, tuple: _encode_tuple}


def encode_key(key: Key) -> bytes:
    """Encode a key into bytes (type byte + payload).

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
    if kind == _KIND_RANKED:
        value, cursor = decode_key(payload, offset + 2)
        primary_key, cursor = decode_key(payload, cursor)
        return (payload[offset + 1], value, primary_key), cursor
    if kind == _KIND_TUPLE:
        count = payload[offset + 1]
        cursor = offset + 2
        parts = []
        for _ in range(count):
            part, cursor = decode_key(payload, cursor)
            parts.append(part)
        return tuple(parts), cursor
    raise EncodingError(f"unknown key kind {kind}")
