"""Golden bytes: what both record encoders write for a fixed corpus.

Stored bytes are the paper's storage-size (fig16) and write-volume (fig17)
results, so an encoder rewrite must not move one.  The corpus covers every
Python type the write-side table maps (bool, int, float, str, bytes,
bytearray, None, MISSING, dict, list, tuple, ``AMultiset``, ``ADate``,
``ATime``, ``ADateTime``, ``APoint``, UUID), subclasses that miss the
exact-type lookup (an ``IntEnum`` member, ``OrderedDict``, a ``str``
subclass), declared root fields, empty containers and objects inside arrays.
The hex literals were captured at the commit before the encode kernel was
rewritten (PR 21's parent).
"""

import enum
import uuid
from collections import OrderedDict

import pytest

from repro.adm import ADMDecoder, ADMEncoder
from repro.errors import TypeError_
from repro.types import (
    ADate,
    ADateTime,
    AMultiset,
    APoint,
    ATime,
    Datatype,
    MISSING,
    deep_equals,
    open_only_primary_key,
)
from repro.vector import VectorEncoder


class _Level(enum.IntEnum):
    HIGH = 3


class _Label(str):
    pass


_UUID = uuid.UUID("12345678-1234-5678-1234-567812345678")

CORPUS = {
    "scalars": {"id": 1, "yes": True, "no": False, "n": -42, "big": 2**62, "x": 2.5,
                "s": "héllo", "b": b"\x00\xff", "ba": bytearray(b"ab"), "nil": None,
                "gone": MISSING},
    "nested": {"id": 2, "obj": {"a": 1, "b": {"c": "deep", "gone": MISSING}},
               "arr": [1, "two", 3.0, None, MISSING], "tup": (True, 7),
               "bag": AMultiset([1, 1, "x"]), "nest": [[1, [2]], AMultiset([[3]])]},
    "extensions": {"id": 3, "date": ADate(17794), "time": ATime(456),
                   "dt": ADateTime(1556496000000), "pt": APoint(24.0, -56.12), "uuid": _UUID},
    "subclasses": {"id": 4, "level": _Level.HIGH, "label": _Label("sub"),
                   "od": OrderedDict([("z", 1), ("a", _Label("in"))]),
                   "levels": [_Level.HIGH, True, 0]},
    "empties": {"id": 5, "eo": {}, "ea": [], "et": (), "em": AMultiset([]), "es": "", "eb": b"",
                "objs": [{"a": 1}, {"b": [{"c": None}]}, {}], "bagobjs": AMultiset([{"k": "v"}])},
}

_DECLARED_EXAMPLE = {"id": 0, "name": "n", "geo": {"lat": 1.0, "lon": 2.0},
                     "readings": [{"t": 1, "v": 2.0}], "tags": ["a"]}

RECORDS = dict(CORPUS, declared={"id": 6, "name": "Ann", "geo": {"lat": 33.6, "lon": -117.8},
                                 "readings": [{"t": 1, "v": 0.5}, {"t": 2, "v": 1.5}],
                                 "tags": ["x", "y"], "extra": {"open": [1]}})


def _datatype(name):
    if name == "declared":
        return Datatype.from_example("Declared", _DECLARED_EXAMPLE, is_open=True, primary_key="id")
    return open_only_primary_key("Golden")


def _encode(encoder_class, name):
    return encoder_class(_datatype(name)).encode(RECORDS[name]).hex()


GOLDEN = {
    ('vector', 'declared'):
        'bd0000001b000000000000001c00000037000000770000008c000000280e1e281010a829'
        '280e10a9280e10a9a8291e1ea828290ea8a8020600000000000000cdcccccccccc404033'
        '33333333735dc00100000000000000000000000000e03f02000000000000000000000000'
        '00f83f010000000000000003000000030000000100000001000000416e6e78790d000000'
        '00800180028003000300038001000100010001000480050004006c61746c6f6e74767476'
        '65787472616f70656e',
    ('vector', 'empties'):
        '9600000020000000000000001c0000003c0000004c0000005d000000280e28a829a829a8'
        '2aa81e1f29280ea928292801a9a8a928a9a82a281eaaa802050000000000000001000000'
        '0000000003000000000000000000000001000000760d0000000080020002000200020002'
        '000200040001000100010007000100656f65616574656d657365626f626a736162636261'
        '676f626a736b',
    ('vector', 'extensions'):
        '8000000008000000000000001c000000240000005c00000060000000280e111213151602'
        '030000000000000082450000c8010000002464666a01000000000000000038408fc2f528'
        '5c0f4cc01234567812345678123456781234567800000000060000000080040004000200'
        '020004006461746574696d656474707475756964',
    ('vector', 'nested'):
        'd400000026000000000000001c0000004200000093000000ab000000280e280e281ea8a8'
        '290e1e100100a8290a0ea82a0e0e1ea829290e290ea9a92a290eaaa9a802020000000000'
        '000001000000000000000100000000000000000000000000084001070000000000000001'
        '000000000000000100000000000000010000000000000002000000000000000300000000'
        '000000030000000400000003000000010000006465657074776f78090000000080030001'
        '000100010003000300030004006f626a6162636172727475706261676e657374',
    ('vector', 'scalars'):
        '8d0000000c000000000000001c000000280000004a00000064000000280e0a0a0e0e101e'
        '1f1f010201000000000000000100d6ffffffffffffff0000000000000040000000000000'
        '04400300000006000000020000000200000068c3a96c6c6f00ff61620a00000000800300'
        '020001000300010001000100020003007965736e6f6e62696778736262616e696c',
    ('vector', 'subclasses'):
        '8a0000000e000000000000001c0000002a0000005300000064000000280e0e1e280e1ea8'
        '290e0a0ea802040000000000000003000000000000000100000000000000030000000000'
        '0000010000000000000000020000000300000002000000737562696e0700000000800500'
        '050002000100010006006c6576656c6c6162656c6f647a616c6576656c73',
    ('adm', 'declared'):
        '28f900000005001b000000240000002c0000004f000000a60000000e0600000000000000'
        '1e03000000416e6e282300000002000f0000001800000010cdcccccccccc404010333333'
        '3333735dc000002957000000020000001100000034000000282300000002000f00000018'
        '0000000e010000000000000010000000000000e03f0000282300000002000f0000001800'
        '00000e020000000000000010000000000000f83f0000291d000000020000001100000017'
        '0000001e01000000781e01000000790100c9000000050065787472612829000000000001'
        '000d00000004006f70656e2916000000010000000d0000000e0100000000000000',
    ('adm', 'empties'):
        '281301000001000b0000000e050000000000000008003600000043000000500000005d00'
        '00006a000000730000007c000000e70000000200656f2809000000000000000200656129'
        '0900000000000000020065742909000000000000000200656d2a09000000000000000200'
        '65731e00000000020065621f0000000004006f626a73296500000003000000150000002e'
        '0000005c0000002819000000000001000d0000000100610e0100000000000000282e0000'
        '00000001000d000000010062291e000000010000000d0000002811000000000001000d00'
        '00000100630128090000000000000007006261676f626a732a23000000010000000d0000'
        '002816000000000001000d00000001006b1e0100000076',
    ('adm', 'extensions'):
        '287900000001000b0000000e030000000000000005002a00000035000000400000004d00'
        '0000620000000400646174651182450000040074696d6512c80100000200647413002464'
        '666a010000020070741500000000000038408fc2f5285c0f4cc004007575696416123456'
        '78123456781234567812345678',
    ('adm', 'nested'):
        '286301000001000b0000000e020000000000000005002a00000068000000a6000000c700'
        '0000f900000003006f626a283900000000000200110000001d0000000100610e01000000'
        '000000000100622819000000000001000d0000000100631e040000006465657003006172'
        '722939000000050000001d000000260000002e00000037000000380000000e0100000000'
        '0000001e0300000074776f10000000000000084001000300747570291c00000002000000'
        '11000000130000000a010e070000000000000003006261672a2d00000003000000150000'
        '001e000000270000000e01000000000000000e01000000000000001e010000007804006e'
        '6573742964000000020000001100000041000000293000000002000000110000001a0000'
        '000e01000000000000002916000000010000000d0000000e02000000000000002a230000'
        '00010000000d0000002916000000010000000d0000000e0300000000000000',
    ('adm', 'scalars'):
        '289600000001000b0000000e010000000000000009003a00000041000000470000005300'
        '0000610000006d0000007b000000850000009000000003007965730a0102006e6f0a0001'
        '006e0ed6ffffffffffffff03006269670e00000000000000400100781000000000000004'
        '400100731e0600000068c3a96c6c6f0100621f0200000000ff020062611f020000006162'
        '03006e696c01',
    ('adm', 'subclasses'):
        '28a100000001000b0000000e040000000000000004002600000036000000450000007000'
        '000005006c6576656c0e030000000000000005006c6162656c1e0300000073756202006f'
        '64282700000000000200110000001d00000001007a0e01000000000000000100611e0200'
        '0000696e06006c6576656c73292900000003000000150000001e000000200000000e0300'
        '0000000000000a010e0000000000000000',
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_vector_encoder_bytes(name):
    assert _encode(VectorEncoder, name) == GOLDEN["vector", name]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_adm_encoder_bytes(name):
    assert _encode(ADMEncoder, name) == GOLDEN["adm", name]


def _stored(value):
    """What ``value`` reads back as: a MISSING field dropped, a tuple a list,
    a bytearray bytes, a subclass its base type (MISSING items stay)."""
    if isinstance(value, dict):
        return {name: _stored(child) for name, child in value.items() if child is not MISSING}
    if isinstance(value, AMultiset):
        return AMultiset([_stored(item) for item in value.items])
    if isinstance(value, (list, tuple)):
        return [_stored(item) for item in value]
    if isinstance(value, bytearray):
        return bytes(value)
    for base in (bool, int, str):
        if isinstance(value, base):
            return base(value)
    return value


def _assert_same_types(decoded, expected, where="record"):
    assert type(decoded) is type(expected), where
    if isinstance(expected, dict):
        assert list(decoded) == list(expected), where
        for name in expected:
            _assert_same_types(decoded[name], expected[name], f"{where}.{name}")
    elif isinstance(expected, (list, AMultiset)):
        items = expected.items if isinstance(expected, AMultiset) else expected
        decoded_items = decoded.items if isinstance(decoded, AMultiset) else decoded
        assert len(decoded_items) == len(items), where
        for index, (left, right) in enumerate(zip(decoded_items, items)):
            _assert_same_types(left, right, f"{where}[{index}]")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_adm_decoder_reads_golden_bytes(name):
    """The decoder reads the pinned bytes back into the corpus record, with
    the Python type each value is stored as."""
    decoded = ADMDecoder(_datatype(name)).decode(bytes.fromhex(GOLDEN["adm", name]))
    expected = _stored(RECORDS[name])
    assert deep_equals(decoded, expected)
    _assert_same_types(decoded, expected)


@pytest.mark.parametrize("encoder_class", [VectorEncoder, ADMEncoder])
@pytest.mark.parametrize("value", [set(), object()], ids=["set", "object"])
def test_unmapped_type_is_rejected(encoder_class, value):
    with pytest.raises(TypeError_) as raised:
        encoder_class(open_only_primary_key("Golden")).encode({"id": 1, "odd": value})
    assert str(raised.value) == (
        f"value of Python type {type(value).__name__!r} has no ADM mapping: {value!r}")

