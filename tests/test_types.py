"""Unit tests for the type system (tags, value wrappers, declared datatypes)."""

import uuid

import pytest

from repro.errors import SchemaViolationError, TypeError_
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
    open_only_primary_key,
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
