"""Varint / zig-zag primitives shared by the Avro-, Thrift- and Protobuf-like
encoders used in the Table 2 comparison."""

from __future__ import annotations


def encode_varint(value: int) -> bytes:
    """Unsigned LEB128 varint."""
    if value < 0:
        raise ValueError("encode_varint expects a non-negative integer")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def zigzag(value: int) -> int:
    """Map a signed integer onto an unsigned one (Avro/Thrift-CP/Protobuf sint)."""
    return (value << 1) ^ (value >> 63)


def encode_zigzag_varint(value: int) -> bytes:
    return encode_varint(zigzag(value))
