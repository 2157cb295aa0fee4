"""Unit tests for the type system (tags, value wrappers, declared datatypes)."""

import uuid

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import encode_key
from repro.btree.keycodec import index_primary_key
from repro.errors import SchemaViolationError, TypeError_
from repro.query.expressions import Comparison
from repro.types import (
    ADate,
    ADateTime,
    AMultiset,
    APoint,
    ATime,
    Datatype,
    FieldDeclaration,
    KIND_FIXED,
    MISSING,
    Missing,
    SCALAR_DECODERS,
    TypeTag,
    VALUE_ENCODERS,
    deep_equals,
    encoder_of,
    index_key,
    index_key_range,
    open_only_primary_key,
    sort_key,
    type_tag_of,
)


class TestTypeTag:
    def test_fixed_lengths_are_positive(self):
        for tag in TypeTag:
            if tag.is_fixed_length:
                assert tag.fixed_length > 0

    def test_nested_tags(self):
        assert TypeTag.OBJECT.is_nested
        assert TypeTag.ARRAY.is_collection
        assert TypeTag.MULTISET.is_collection
        assert not TypeTag.STRING.is_nested

    def test_string_is_variable_length(self):
        assert TypeTag.STRING.is_variable_length
        assert not TypeTag.STRING.is_fixed_length
        assert TypeTag.STRING.fixed_length is None

    def test_eov_is_control(self):
        assert TypeTag.EOV.is_control
        assert not TypeTag.INT64.is_control


class TestTypeTagOf:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (True, TypeTag.BOOLEAN),
            (7, TypeTag.INT64),
            (3.5, TypeTag.DOUBLE),
            ("hi", TypeTag.STRING),
            (b"\x00", TypeTag.BINARY),
            (None, TypeTag.NULL),
            ({}, TypeTag.OBJECT),
            ([], TypeTag.ARRAY),
            (AMultiset([1]), TypeTag.MULTISET),
            (ADate.from_iso("2018-09-20"), TypeTag.DATE),
            (ATime(12), TypeTag.TIME),
            (ADateTime(1556496000000), TypeTag.DATETIME),
            (APoint(24.0, -56.12), TypeTag.POINT),
            (uuid.uuid4(), TypeTag.UUID),
            (MISSING, TypeTag.MISSING),
        ],
    )
    def test_mapping(self, value, expected):
        assert type_tag_of(value) is expected

    def test_bool_is_not_int(self):
        assert type_tag_of(True) is TypeTag.BOOLEAN
        assert type_tag_of(1) is TypeTag.INT64

    def test_unmappable_value_raises(self):
        with pytest.raises(TypeError_):
            type_tag_of(object())


class TestScalarTables:
    @pytest.mark.parametrize(
        "value",
        [True, False, -12345, 2**40, -1.25, ADate.from_iso("2018-09-20"), ADateTime(1556496000000),
         ATime(456), APoint(24.0, -56.12), uuid.uuid4()],
    )
    def test_roundtrip(self, value):
        """A fixed-length scalar packed by VALUE_ENCODERS reads back through SCALAR_DECODERS."""
        tag, kind, pack = VALUE_ENCODERS[type(value)]
        assert kind == KIND_FIXED
        packed = pack(value)
        width, read, wrap = SCALAR_DECODERS[tag]
        assert len(packed) == width == tag.fixed_length
        fields = read(packed, 0)
        assert (fields[0] if wrap is None else wrap(*fields)) == value

    def test_every_encoded_scalar_tag_decodes(self):
        for tag, _, _ in VALUE_ENCODERS.values():
            assert tag in SCALAR_DECODERS or tag.is_nested

    def test_subclass_falls_back_to_its_base_entry(self):
        class Flag(int):
            pass

        assert Flag not in VALUE_ENCODERS
        assert encoder_of(Flag(3)) is VALUE_ENCODERS[int]


class TestValueWrappers:
    def test_adate_iso_roundtrip(self):
        date = ADate.from_iso("2018-09-20")
        assert date.to_date().isoformat() == "2018-09-20"

    def test_missing_is_singleton_and_falsey(self):
        assert Missing() is MISSING
        assert not MISSING

    def test_multiset_iteration_and_len(self):
        bag = AMultiset([1, 2, 2])
        assert len(bag) == 3
        assert sorted(bag) == [1, 2, 2]


class TestDeepEquals:
    def test_multiset_order_insensitive(self):
        assert deep_equals(AMultiset([1, 2, 3]), AMultiset([3, 1, 2]))
        assert not deep_equals(AMultiset([1, 2]), AMultiset([1, 1]))

    def test_nested_structures(self):
        left = {"a": [1, {"b": 2.0}], "c": "x"}
        right = {"a": [1, {"b": 2.0}], "c": "x"}
        assert deep_equals(left, right)
        right["a"][1]["b"] = 3.0
        assert not deep_equals(left, right)

    def test_list_length_mismatch(self):
        assert not deep_equals([1, 2], [1, 2, 3])


class TestDatatype:
    def _employee_type(self):
        dependent = Datatype.closed_type(
            "DependentType",
            [
                FieldDeclaration("name", TypeTag.STRING),
                FieldDeclaration("age", TypeTag.INT64),
            ],
        )
        return Datatype.open_type(
            "EmployeeType",
            [
                FieldDeclaration("id", TypeTag.INT64),
                FieldDeclaration("name", TypeTag.STRING),
                FieldDeclaration("dependents", TypeTag.MULTISET, optional=True,
                                 item_type=TypeTag.OBJECT, item_nested=dependent),
            ],
        )

    def test_duplicate_field_names_rejected(self):
        with pytest.raises(TypeError_):
            Datatype.open_type("T", [
                FieldDeclaration("a", TypeTag.INT64),
                FieldDeclaration("a", TypeTag.STRING),
            ])

    def test_index_and_lookup(self):
        datatype = self._employee_type()
        assert datatype.index_of("name") == 1
        assert datatype.index_of("unknown") is None
        assert datatype.is_declared("dependents")
        assert datatype.declaration_of("id").type_tag is TypeTag.INT64

    def test_open_type_allows_undeclared_fields(self):
        datatype = self._employee_type()
        datatype.validate({"id": 1, "name": "Ann", "age": 26})

    def test_closed_type_rejects_undeclared_fields(self):
        closed = Datatype.closed_type("T", [FieldDeclaration("id", TypeTag.INT64)])
        with pytest.raises(SchemaViolationError):
            closed.validate({"id": 1, "extra": True})

    def test_missing_required_field_rejected(self):
        datatype = self._employee_type()
        with pytest.raises(SchemaViolationError):
            datatype.validate({"name": "Ann"})

    def test_wrong_type_rejected(self):
        datatype = self._employee_type()
        with pytest.raises(SchemaViolationError):
            datatype.validate({"id": "not-an-int", "name": "Ann"})

    def test_nested_item_validation(self):
        datatype = self._employee_type()
        datatype.validate({
            "id": 1,
            "name": "Ann",
            "dependents": AMultiset([{"name": "Bob", "age": 6}]),
        })
        with pytest.raises(SchemaViolationError):
            datatype.validate({
                "id": 1,
                "name": "Ann",
                "dependents": AMultiset([{"name": "Bob", "age": "six"}]),
            })

    def test_optional_field_may_be_absent(self):
        datatype = self._employee_type()
        datatype.validate({"id": 2, "name": "Sam"})

    def test_numeric_widening_allowed(self):
        datatype = Datatype.closed_type("T", [FieldDeclaration("v", TypeTag.DOUBLE)])
        datatype.validate({"v": 3})

    def test_from_example_builds_declarations(self):
        record = {
            "id": 1,
            "name": "Ann",
            "score": 3.5,
            "tags": ["a", "b"],
            "address": {"city": "Irvine", "zip": 92697},
        }
        datatype = Datatype.from_example("TweetType", record, primary_key="id")
        assert datatype.index_of("id") == 0
        assert datatype.declaration_of("address").nested is not None
        assert datatype.declaration_of("tags").item_type is TypeTag.STRING
        datatype.validate(record)

    def test_open_only_primary_key(self):
        datatype = open_only_primary_key("EmployeeType")
        assert datatype.declared_names == ["id"]
        assert datatype.is_open
        datatype.validate({"id": 3, "anything": {"nested": True}})


#: Values an order-preserving index key has to get right: signed zeros,
#: infinities, ints around 2**53 (where doubles stop being exact) and the
#: int64 edges, booleans, NUL and astral strings, pre-epoch dates.
HARD_VALUES = [
    -0.0, 0.0, 0, 0.5, -1.5, 1e-300, float("inf"), float("-inf"),
    2**53 - 1, 2**53, 2**53 + 1, float(2**53), -(2**53) - 1, 2**63 - 1, -(2**63 - 1), 2**64,
    True, False, "", "\x00", "\x01", "a", "a\x00", "a\x00b", "ab", "ÿ", "\x7f", "日本", "😀",
    "\U0010ffff", ADate(-1), ADate(0), ADate(-2**31), ATime(0), ATime(5), ADateTime(-5),
    ADateTime(-2**63), ADateTime(2**63 - 1),
]
_VALUES = st.one_of(
    st.sampled_from(HARD_VALUES), st.integers(-2**64, 2**64), st.floats(allow_nan=False),
    st.text(max_size=6), st.booleans(), st.builds(ADate, st.integers(-2**31, 2**31 - 1)),
    st.builds(ATime, st.integers(-2**31, 2**31 - 1)),
    st.builds(ADateTime, st.integers(-2**63, 2**63 - 1)))
_PRIMARY_KEYS = st.one_of(st.integers(-2**63, 2**63 - 1), st.floats(allow_nan=False),
                          st.text(max_size=4))
_OPERATORS = ("=", "<", "<=", ">", ">=")


def _filed(value):
    """What an index orders ``value`` as: a boolean as its int."""
    return int(value) if isinstance(value, bool) else value


def _is_number(value):
    return isinstance(value, (int, float))


def _check_order(a, b):
    """``index_key`` orders ``a`` and ``b`` as ``sort_key`` does, and ties
    only equal values or numbers with one double."""
    key_a, key_b = index_key(a), index_key(b)
    order_a, order_b = sort_key(_filed(a)), sort_key(_filed(b))
    if order_a < order_b:
        assert key_a <= key_b, (a, b)
    if order_a == order_b:
        assert key_a == key_b, (a, b)
    if key_a == key_b:
        assert order_a == order_b or (
            _is_number(a) and _is_number(b) and float(a) == float(b)), (a, b)


def _check_suffixes(a, b, pk_a, pk_b):
    """Appending any primary keys keeps the order, and each reads back."""
    entry_a, entry_b = index_key(a) + encode_key(pk_a), index_key(b) + encode_key(pk_b)
    if index_key(a) < index_key(b):
        assert entry_a < entry_b, (a, b, pk_a, pk_b)
    assert (index_primary_key(entry_a), index_primary_key(entry_b)) == (pk_a, pk_b)


def _check_membership(value, op, bound, pk):
    """``[lo, hi)`` for ``field op bound`` holds ``value``, bare or with a
    primary key, whenever the evaluator says the comparison is true; and
    only then when the bound is exact (not a number of magnitude 2**53 or
    more, which may share its key with a neighbouring int)."""
    if op == "=":
        bounds = index_key_range(bound, bound)
    elif op in (">", ">="):
        bounds = index_key_range(bound, None, low_inclusive=op == ">=")
    else:
        bounds = index_key_range(None, bound, high_inclusive=op == "<=")
    key = index_key(value)
    inside = bounds is not None and bounds[0] <= key < bounds[1]
    assert inside == (bounds is not None and bounds[0] <= key + encode_key(pk) < bounds[1])
    try:
        holds = Comparison._OPS[op](value, bound) is True
    except TypeError:
        holds = False
    if holds:
        assert inside, (value, op, bound)
    if not _is_number(bound) or abs(float(bound)) < 2**53:
        assert inside == holds, (value, op, bound)


class TestIndexKeyOrder:
    """``index_key`` is order-preserving bytes: byte order is ``sort_key``
    order, so leaves, merges, memtable columns and probe bounds compare
    secondary keys as bytes."""

    def test_hard_values_pairwise(self):
        for a in HARD_VALUES:
            for b in HARD_VALUES:
                _check_order(a, b)
                _check_suffixes(a, b, 7, -1)
                for op in _OPERATORS:
                    _check_membership(a, op, b, "k")

    @settings(max_examples=400, deadline=None)
    @given(_VALUES, _VALUES, _PRIMARY_KEYS, _PRIMARY_KEYS, st.sampled_from(_OPERATORS))
    def test_order_suffixes_and_ranges(self, a, b, pk_a, pk_b, op):
        _check_order(a, b)
        _check_suffixes(a, b, pk_a, pk_b)
        _check_membership(a, op, b, pk_a)

    def test_edges(self):
        assert index_key(-0.0) == index_key(0.0) == index_key(0)
        assert index_key(True) == index_key(1) == index_key(1.0)
        assert index_key(2**53 + 1) == index_key(float(2**53))
        assert index_key("a") < index_key("a\x00") < index_key("a\x00b") < index_key("a\x01")
        assert len(index_key(0)) == 9 and len(index_key("x" * 70000)) == 70002
        # Nothing an index cannot hold: NaN, absent, non-scalar, points, no double.
        assert {index_key(value) for value in (float("nan"), None, MISSING, [1], {"a": 1},
                                               APoint(1.0, 2.0), 10**400)} == {None}
        # Bounds of two ranks, or crossed ones, hold no key; none at all, every key.
        assert index_key_range(5, "a") is None and index_key_range(5, 3) is None
        assert index_key_range(5, 5, low_inclusive=False) is None
        assert index_key_range(None, None) == (b"", b"\xff")
        # Exclusive bounds of magnitude 2**53 are widened to inclusive.
        low, _ = index_key_range(2**53, None, low_inclusive=False)
        assert low == index_key(2**53) <= index_key(2**53 + 1)
