"""Unit tests for the vector-based format: encode/decode, access, compaction."""

import pytest

from repro.errors import DecodingError, SchemaError
from repro.schema import InferredSchema
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
from repro.vector import (
    BatchExtractor,
    VectorEncoder,
    VectorRecordView,
    compact_record,
    expand_record,
    infer_and_compact,
    is_compacted,
    record_total_length,
)

PAPER_RECORD = {
    "id": 6,
    "name": "Ann",
    "salaries": [70000, 90000],
    "age": 26,
}

APPENDIX_RECORD = {
    "id": 1,
    "name": "Ann",
    "dependents": AMultiset([
        {"name": "Bob", "age": 6},
        {"name": "Carol", "age": 10},
        "Not_Available",
    ]),
    "employment_date": ADate.from_iso("2018-09-20"),
    "branch_location": APoint(24.0, -56.12),
}


def _datatype():
    return open_only_primary_key("EmployeeType")


class TestRoundTrip:
    def test_paper_record_roundtrip(self):
        datatype = _datatype()
        payload = VectorEncoder(datatype).encode(PAPER_RECORD)
        view = VectorRecordView(payload, datatype)
        assert deep_equals(view.materialize(), PAPER_RECORD)

    def test_appendix_record_roundtrip(self):
        datatype = _datatype()
        payload = VectorEncoder(datatype).encode(APPENDIX_RECORD)
        view = VectorRecordView(payload, datatype)
        assert deep_equals(view.materialize(), APPENDIX_RECORD)

    def test_no_datatype_roundtrip(self):
        record = {"a": 1, "b": {"c": [1, 2, {"d": "x"}]}, "e": None}
        payload = VectorEncoder(None).encode(record)
        assert deep_equals(VectorRecordView(payload).materialize(), record)

    def test_empty_record(self):
        payload = VectorEncoder(None).encode({})
        assert VectorRecordView(payload).materialize() == {}

    def test_deeply_nested(self):
        record = {"l1": {"l2": {"l3": {"l4": [{"l5": 1}]}}}}
        payload = VectorEncoder(None).encode(record)
        assert deep_equals(VectorRecordView(payload).materialize(), record)

    def test_header_total_length_matches(self):
        payload = VectorEncoder(_datatype()).encode(PAPER_RECORD)
        assert record_total_length(payload) == len(payload)

    def test_structure_skeleton(self):
        datatype = _datatype()
        payload = VectorEncoder(datatype).encode(PAPER_RECORD)
        skeleton = VectorRecordView(payload, datatype).structure()
        assert set(skeleton) == {"id", "name", "salaries", "age"}
        assert skeleton["name"] == ""          # placeholder, not the value
        assert skeleton["salaries"] == [0, 0]  # same shape, placeholder items


class TestGetValues:
    def test_single_field(self):
        datatype = _datatype()
        view = VectorRecordView(VectorEncoder(datatype).encode(PAPER_RECORD), datatype)
        assert view.get_field("name") == "Ann"
        assert view.get_field("age") == 26

    def test_consolidated_access(self):
        datatype = _datatype()
        view = VectorRecordView(VectorEncoder(datatype).encode(PAPER_RECORD), datatype)
        age, name = view.get_values(("age",), ("name",))
        assert age == 26
        assert name == "Ann"

    def test_nested_and_indexed_access(self):
        datatype = _datatype()
        view = VectorRecordView(VectorEncoder(datatype).encode(APPENDIX_RECORD), datatype)
        assert view.get_field("dependents", 0, "name") == "Bob"
        assert view.get_field("dependents", 2) == "Not_Available"
        assert view.get_field("salaries", 0) is MISSING

    def test_wildcard_access_is_aligned(self):
        # One entry per collection item: the scalar "Not_Available" dependent
        # has no .name, so it contributes a MISSING hole rather than silently
        # shrinking the result (keeps wildcard extraction aligned with the
        # collection's cardinality, as ``navigate`` over the record does).
        datatype = _datatype()
        view = VectorRecordView(VectorEncoder(datatype).encode(APPENDIX_RECORD), datatype)
        (names,) = view.get_values(("dependents", "*", "name"))
        assert names == ["Bob", "Carol", MISSING]

    def test_wildcard_over_scalar_collection_passes_value_through(self):
        # A non-collection value at the wildcard prefix is returned as-is so
        # callers can apply SQL++ singleton-collection semantics; absent
        # prefixes stay [].
        datatype = _datatype()
        view = VectorRecordView(VectorEncoder(datatype).encode(PAPER_RECORD), datatype)
        (name_items,) = view.get_values(("name", "*"))
        assert name_items == "Ann"
        (missing_items,) = view.get_values(("nope", "*"))
        assert missing_items == []

    def test_wildcard_collects_items(self):
        datatype = _datatype()
        view = VectorRecordView(VectorEncoder(datatype).encode(PAPER_RECORD), datatype)
        (salaries,) = view.get_values(("salaries", "*"))
        assert salaries == [70000, 90000]

    def test_several_wildcards_flatten_present_values(self):
        record = {"id": 1, "rows": [[{"v": 1}, {"w": 2}], [], [{"v": None}], "scalar"]}
        view = VectorRecordView(VectorEncoder(None).encode(record))
        flattened, rows = view.get_values(("rows", "*", "*", "v"), ("rows", "*"))
        assert flattened == [1, None]  # document order, no holes for absent paths
        assert rows == record["rows"]

    def test_nested_value_materialized_by_exact_path(self):
        datatype = _datatype()
        view = VectorRecordView(VectorEncoder(datatype).encode(APPENDIX_RECORD), datatype)
        (first_dependent,) = view.get_values(("dependents", 0))
        assert first_dependent == {"name": "Bob", "age": 6}

    def test_missing_path(self):
        datatype = _datatype()
        view = VectorRecordView(VectorEncoder(datatype).encode(PAPER_RECORD), datatype)
        assert view.get_field("does_not_exist") is MISSING
        assert view.get_field("name", "oops") is MISSING


class TestCompaction:
    def _schema_for(self, records, datatype):
        schema = InferredSchema(datatype)
        for record in records:
            schema.observe(record)
        return schema

    def test_compaction_shrinks_record(self):
        datatype = _datatype()
        schema = self._schema_for([PAPER_RECORD], datatype)
        payload = VectorEncoder(datatype).encode(PAPER_RECORD)
        compacted = compact_record(payload, schema.dictionary)
        assert is_compacted(compacted)
        assert not is_compacted(payload)
        assert len(compacted) < len(payload)

    def test_compacted_roundtrip_with_dictionary(self):
        datatype = _datatype()
        schema = self._schema_for([APPENDIX_RECORD], datatype)
        payload = VectorEncoder(datatype).encode(APPENDIX_RECORD)
        compacted = compact_record(payload, schema.dictionary)
        view = VectorRecordView(compacted, datatype, schema.dictionary)
        assert deep_equals(view.materialize(), APPENDIX_RECORD)
        assert view.get_field("dependents", 1, "name") == "Carol"

    def test_compaction_is_idempotent(self):
        datatype = _datatype()
        schema = self._schema_for([PAPER_RECORD], datatype)
        payload = VectorEncoder(datatype).encode(PAPER_RECORD)
        compacted = compact_record(payload, schema.dictionary)
        assert compact_record(compacted, schema.dictionary) == compacted

    def test_expand_restores_original(self):
        datatype = _datatype()
        schema = self._schema_for([PAPER_RECORD], datatype)
        payload = VectorEncoder(datatype).encode(PAPER_RECORD)
        compacted = compact_record(payload, schema.dictionary)
        expanded = expand_record(compacted, schema.dictionary)
        assert expanded == payload

    def test_compaction_requires_known_names(self):
        datatype = _datatype()
        schema = InferredSchema(datatype)  # empty: no names registered
        payload = VectorEncoder(datatype).encode(PAPER_RECORD)
        with pytest.raises(SchemaError):
            compact_record(payload, schema.dictionary)

    def test_compacted_without_dictionary_fails_to_decode(self):
        datatype = _datatype()
        schema = self._schema_for([PAPER_RECORD], datatype)
        payload = compact_record(VectorEncoder(datatype).encode(PAPER_RECORD), schema.dictionary)
        with pytest.raises(DecodingError):
            VectorRecordView(payload, datatype).materialize()

    def test_compacted_smaller_than_adm_closed_for_nested_data(self):
        """Vector-based compacted records avoid per-nested-value offsets.

        The advantage shows on records with many nested values (the paper's
        Sensors dataset, whose readings are arrays of small objects); tiny
        flat records can be below the vector format's fixed header overhead.
        """
        from repro.adm import ADMEncoder

        record = {
            "id": 9,
            "readings": [{"value": float(i), "timestamp": 1556496000000 + i} for i in range(20)],
        }
        datatype = _datatype()
        closed = Datatype.from_example("T", record, primary_key="id")
        adm_closed = ADMEncoder(closed).encode(record)
        schema = self._schema_for([record], datatype)
        compacted = compact_record(VectorEncoder(datatype).encode(record), schema.dictionary)
        assert len(compacted) < len(adm_closed)


class TestDeclaredFields:
    def test_declared_index_used_for_primary_key(self):
        datatype = _datatype()
        payload = VectorEncoder(datatype).encode(PAPER_RECORD)
        open_payload = VectorEncoder(None).encode(PAPER_RECORD)
        # Declaring "id" removes its name bytes from the record.
        assert len(payload) < len(open_payload)

    def test_declared_field_access_needs_datatype(self):
        datatype = _datatype()
        payload = VectorEncoder(datatype).encode(PAPER_RECORD)
        with pytest.raises(DecodingError):
            VectorRecordView(payload).materialize()


# ---------------------------------------------------------------------------
# undecodable payloads: one typed error from every walker
# ---------------------------------------------------------------------------

def _undecodable_views():
    datatype = _datatype()
    payload = VectorEncoder(datatype).encode(PAPER_RECORD)
    schema = InferredSchema(datatype)
    schema.observe(PAPER_RECORD)
    compacted = compact_record(payload, schema.dictionary)
    unknown_tag = bytearray(compacted)
    offset_tags = VectorRecordView(compacted, datatype, schema.dictionary).offset_tags
    unknown_tag[offset_tags + 2] = 126  # the tag of "name", the second root field
    return {
        "declared-index-without-datatype": VectorRecordView(payload),
        "compacted-without-dictionary": VectorRecordView(compacted, datatype),
        "unknown-tag-byte": VectorRecordView(bytes(unknown_tag), datatype, schema.dictionary),
    }


class TestUndecodablePayloads:
    """``materialize`` used to raise ``DecodingError`` where ``get_values``
    raised ``AttributeError`` or ``KeyError: 126`` for the same bytes."""

    @pytest.mark.parametrize("case", sorted(_undecodable_views()))
    @pytest.mark.parametrize("read", [
        lambda view: view.materialize(),
        lambda view: view.structure(),
        lambda view: view.get_values(("age",), ("salaries", 1)),
        lambda view: view.get_values(("no_such_field",)),
    ], ids=["materialize", "structure", "get_values", "get_values-absent"])
    def test_every_walker_raises_decoding_error(self, case, read):
        with pytest.raises(DecodingError):
            read(_undecodable_views()[case])

    @staticmethod
    def _one_name_entry_short(compacted):
        """``{"a": 1, "b": 2}`` with its name-entry count set to 1, and the
        schema that compacted it."""
        schema = InferredSchema()
        payload = VectorEncoder(None).encode({"a": 1, "b": 2})
        if compacted:
            payload = infer_and_compact(payload, schema)
        patched = bytearray(payload)
        names_at = VectorRecordView(payload).offset_names
        patched[names_at:names_at + 4] = (1).to_bytes(4, "little")
        return bytes(patched), schema

    def test_materialize_of_a_record_short_of_name_entries(self):
        payload, schema = self._one_name_entry_short(compacted=True)
        with pytest.raises(DecodingError):
            VectorRecordView(payload, None, schema.dictionary).materialize()

    def test_extract_of_a_record_short_of_name_entries(self):
        payload, schema = self._one_name_entry_short(compacted=True)
        with pytest.raises(DecodingError):
            BatchExtractor([("b",)]).extract(VectorRecordView(payload, None, schema.dictionary))

    def test_infer_and_compact_of_a_record_short_of_name_entries(self):
        payload, _ = self._one_name_entry_short(compacted=False)
        with pytest.raises(DecodingError):
            infer_and_compact(payload, InferredSchema())

    def test_remove_of_a_record_short_of_name_entries(self):
        payload, schema = self._one_name_entry_short(compacted=True)
        with pytest.raises(DecodingError):
            schema.remove(payload)

    @pytest.mark.parametrize("cut", [3, 40, 200])
    def test_truncated_payload_is_refused(self, cut):
        # Cut inside its values, a tweet used to decode silently to wrong values.
        from repro.datasets import twitter

        payload = VectorEncoder(None).encode(next(twitter.generate(1)))
        assert len(payload) > cut + 28
        with pytest.raises(DecodingError, match="truncated"):
            VectorRecordView(payload[:-cut])

    @pytest.mark.parametrize("length", [0, 1, 27])
    def test_payload_shorter_than_its_header_is_refused(self, length):
        payload = VectorEncoder(None).encode(PAPER_RECORD)
        with pytest.raises(DecodingError, match="header"):
            VectorRecordView(payload[:length])

    def test_unknown_field_name_id_is_a_schema_error_not_a_wraparound(self):
        datatype = _datatype()
        schema = InferredSchema(datatype)
        schema.observe(PAPER_RECORD)
        compacted = compact_record(VectorEncoder(datatype).encode(PAPER_RECORD),
                                   schema.dictionary)
        view = VectorRecordView(compacted, datatype, schema.dictionary)
        names_at = view.offset_names + 4
        for bad_id in (0, len(schema.dictionary) + 1):
            patched = bytearray(compacted)
            patched[names_at + 2:names_at + 4] = bad_id.to_bytes(2, "little")  # "name"'s entry
            for read in (lambda v: v.materialize(), lambda v: v.structure(),
                         lambda v: v.get_values(("age",))):
                with pytest.raises(SchemaError):
                    read(VectorRecordView(bytes(patched), datatype, schema.dictionary))
