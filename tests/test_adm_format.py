"""Unit tests for the ADM physical format (encoder, decoder, lazy view)."""

import pytest

from repro.adm import ADMEncoder, ADMRecordView
from repro.adm.encoder import NAME_LENGTH_MAX
from repro.errors import DecodingError, EncodingError, SchemaViolationError
from repro.types import (
    ADate,
    AMultiset,
    APoint,
    Datatype,
    FieldDeclaration,
    MISSING,
    TypeTag,
    deep_equals,
    open_only_primary_key,
)


EMPLOYEE_RECORD = {
    "id": 1,
    "name": "Ann",
    "dependents": AMultiset([
        {"name": "Bob", "age": 6},
        {"name": "Carol", "age": 10},
    ]),
    "employment_date": ADate.from_iso("2018-09-20"),
    "branch_location": APoint(24.0, -56.12),
    "working_shifts": [[8, 16], [9, 17], [10, 18], "on_call"],
}


def _open_datatype():
    return open_only_primary_key("EmployeeType")


def _closed_datatype():
    dependent = Datatype.closed_type("DependentType", [
        FieldDeclaration("name", TypeTag.STRING),
        FieldDeclaration("age", TypeTag.INT64),
    ])
    return Datatype.closed_type("EmployeeClosed", [
        FieldDeclaration("id", TypeTag.INT64),
        FieldDeclaration("name", TypeTag.STRING),
        FieldDeclaration("dependents", TypeTag.MULTISET, optional=True,
                         item_type=TypeTag.OBJECT, item_nested=dependent),
        FieldDeclaration("employment_date", TypeTag.DATE, optional=True),
        FieldDeclaration("branch_location", TypeTag.POINT, optional=True),
        FieldDeclaration("working_shifts", TypeTag.ARRAY, optional=True, item_type=TypeTag.ANY),
    ])


class TestRoundTrip:
    def test_open_roundtrip(self):
        datatype = _open_datatype()
        payload = ADMEncoder(datatype).encode(EMPLOYEE_RECORD)
        decoded = ADMRecordView(payload, datatype).materialize()
        assert deep_equals(decoded, EMPLOYEE_RECORD)

    def test_closed_roundtrip(self):
        datatype = _closed_datatype()
        payload = ADMEncoder(datatype).encode(EMPLOYEE_RECORD)
        decoded = ADMRecordView(payload, datatype).materialize()
        assert deep_equals(decoded, EMPLOYEE_RECORD)

    def test_no_datatype_roundtrip(self):
        record = {"a": 1, "b": [True, None, "x"], "c": {"d": 2.5}}
        payload = ADMEncoder(None).encode(record)
        decoded = ADMRecordView(payload).materialize()
        assert deep_equals(decoded, record)

    def test_empty_record(self):
        payload = ADMEncoder(None).encode({})
        assert ADMRecordView(payload).materialize() == {}

    def test_optional_declared_field_absent(self):
        datatype = _closed_datatype()
        record = {"id": 9, "name": "Sam"}
        payload = ADMEncoder(datatype).encode(record)
        decoded = ADMRecordView(payload, datatype).materialize()
        assert decoded == record

    def test_nulls_and_missing(self):
        record = {"id": 1, "maybe": None}
        datatype = _open_datatype()
        payload = ADMEncoder(datatype).encode(record)
        assert ADMRecordView(payload, datatype).materialize() == {"id": 1, "maybe": None}

    def test_top_level_must_be_object(self):
        with pytest.raises(EncodingError):
            ADMEncoder(None).encode([1, 2, 3])

    def test_validation_enforced(self):
        datatype = _closed_datatype()
        with pytest.raises(SchemaViolationError):
            ADMEncoder(datatype).encode({"id": 1, "name": "Ann", "unexpected": 5})

    def test_validation_can_be_disabled(self):
        datatype = _closed_datatype()
        payload = ADMEncoder(datatype, validate=False).encode(
            {"id": 1, "name": "Ann", "unexpected": 5})
        decoded = ADMRecordView(payload, datatype).materialize()
        assert decoded["unexpected"] == 5

    def test_field_name_up_to_the_u16_length(self):
        """An open field's name length is a u16: the longest name round-trips,
        one byte more is an ``EncodingError`` (it used to be a bare
        ``struct.error``)."""
        datatype = _open_datatype()
        longest = "é" * (NAME_LENGTH_MAX // 2) + "x"
        payload = ADMEncoder(datatype).encode({"id": 1, longest: True})
        assert ADMRecordView(payload, datatype).materialize() == {"id": 1, longest: True}
        with pytest.raises(EncodingError, match=f"longer than {NAME_LENGTH_MAX} bytes"):
            ADMEncoder(datatype).encode({"id": 1, longest + "x": True})


class TestSizes:
    def test_open_is_larger_than_closed(self):
        """Open records carry field names + offsets inline -> more bytes."""
        open_payload = ADMEncoder(_open_datatype()).encode(EMPLOYEE_RECORD)
        closed_payload = ADMEncoder(_closed_datatype()).encode(EMPLOYEE_RECORD)
        assert len(open_payload) > len(closed_payload)

    def test_value_encoding_scalar(self):
        encoder = ADMEncoder(None)
        payload = encoder.encode_value(42)
        assert ADMRecordView(payload).get_field() == 42

    @pytest.mark.parametrize("value", ["hello world", b"\x00\x01\x02", 42, [1, 2, "x"],
                                       {"a": "bcdef"}],
                             ids=["string", "binary", "int", "array", "object"])
    def test_truncated_value_raises(self, value):
        """A value payload cut anywhere is a ``DecodingError`` from the
        whole-value read, never a shortened string."""
        payload = ADMEncoder(None).encode_value(value)
        for cut in range(len(payload)):
            with pytest.raises(DecodingError):
                ADMRecordView(payload[:cut]).get_field()


class TestRecordView:
    def test_declared_field_access(self):
        datatype = _closed_datatype()
        view = ADMRecordView(ADMEncoder(datatype).encode(EMPLOYEE_RECORD), datatype)
        assert view.get_field("name") == "Ann"
        assert view.get_field("id") == 1

    def test_open_field_access(self):
        datatype = _open_datatype()
        view = ADMRecordView(ADMEncoder(datatype).encode(EMPLOYEE_RECORD), datatype)
        assert view.get_field("name") == "Ann"
        assert view.get_field("employment_date") == ADate.from_iso("2018-09-20")

    def test_nested_path_access(self):
        datatype = _open_datatype()
        view = ADMRecordView(ADMEncoder(datatype).encode(EMPLOYEE_RECORD), datatype)
        assert view.get_field("dependents", 0, "name") == "Bob"
        assert view.get_field("dependents", 1, "age") == 10
        assert view.get_field("working_shifts", 3) == "on_call"
        assert view.get_field("working_shifts", 0, 1) == 16

    def test_nested_path_access_closed(self):
        datatype = _closed_datatype()
        view = ADMRecordView(ADMEncoder(datatype).encode(EMPLOYEE_RECORD), datatype)
        assert view.get_field("dependents", 0, "name") == "Bob"
        assert view.get_field("dependents", 1, "age") == 10

    def test_missing_propagation(self):
        datatype = _open_datatype()
        view = ADMRecordView(ADMEncoder(datatype).encode(EMPLOYEE_RECORD), datatype)
        assert view.get_field("nonexistent") is MISSING
        assert view.get_field("name", "nested") is MISSING
        assert view.get_field("dependents", 99) is MISSING
        assert view.get_field("dependents", 0, "unknown") is MISSING

    def test_get_items_for_unnest(self):
        datatype = _open_datatype()
        view = ADMRecordView(ADMEncoder(datatype).encode(EMPLOYEE_RECORD), datatype)
        items = view.get_items("dependents")
        assert len(items) == 2
        assert view.get_items("name") == ["Ann"]
        assert view.get_items("nonexistent") == []

    def test_materialize_matches_decode(self):
        datatype = _open_datatype()
        payload = ADMEncoder(datatype).encode(EMPLOYEE_RECORD)
        assert deep_equals(ADMRecordView(payload, datatype).materialize(), EMPLOYEE_RECORD)

    def test_string_length_past_the_end_raises(self):
        """A string whose length runs past the payload is refused at its
        header by both reads, not returned as the bytes that are there."""
        datatype = _open_datatype()
        payload = ADMEncoder(datatype).encode({"id": 1, "name": "Annabel"})
        at = payload.index(ADMEncoder(None).encode_value("Annabel"))
        corrupt = bytearray(payload)
        corrupt[at + 1:at + 5] = (1000).to_bytes(4, "little")
        view = ADMRecordView(bytes(corrupt), datatype)
        with pytest.raises(DecodingError, match=f"value at offset {at} claims 1005 bytes"):
            view.get_field("name")
        with pytest.raises(DecodingError, match=f"value at offset {at} claims 1005 bytes"):
            view.materialize()

    def test_bad_payload_raises(self):
        with pytest.raises(DecodingError):
            ADMRecordView(bytes([255, 0, 0, 0])).materialize()


#: The public ADM read entries, each given a payload, its datatype and a path
#: to the damaged value (the path reaches it, or needs its extent).  "value"
#: is ``get_field`` with no path: the whole-value read of a tagged value.
_ENTRIES = {
    "value": lambda payload, datatype, path: ADMRecordView(payload, datatype).get_field(),
    "materialize": lambda payload, datatype, path: ADMRecordView(payload, datatype).materialize(),
    "get_field": lambda payload, datatype, path: ADMRecordView(payload, datatype).get_field(*path),
    "get_items": lambda payload, datatype, path: ADMRecordView(payload, datatype).get_items(*path),
}


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
def test_every_adm_walker_raises_decoding_error(entry):
    """A tag byte ADM never writes — at an open value, at the last closed
    value (whose extent locates the open part), inside an array — and a
    truncated payload are a ``DecodingError`` from every entry, never a bare
    ``ValueError``, ``struct.error`` or ``IndexError``."""
    read = _ENTRIES[entry]
    datatype = Datatype.open_type("Corruptible", [FieldDeclaration("id", TypeTag.INT64),
                                                  FieldDeclaration("name", TypeTag.STRING)])
    payload = ADMEncoder(datatype).encode({"id": 1, "name": "Ann", "tags": ["a", "b"], "n": 5})
    value_bytes = ADMEncoder(None).encode_value
    for damaged, path in ((5, ("n",)), ("Ann", ("tags",)), ("b", ("tags",))):
        at = payload.index(value_bytes(damaged))
        corrupt = bytearray(payload)
        corrupt[at] = 126
        with pytest.raises(DecodingError, match=f"unexpected tag 126 at offset {at}$"):
            read(bytes(corrupt), datatype, path)
    for cut in range(len(payload)):
        with pytest.raises(DecodingError):
            read(payload[:cut], datatype, ("tags",))
