"""Property-based tests (hypothesis) for the core data structures.

Invariants covered:

* both physical record formats round-trip arbitrary JSON-like records;
* vector-based compaction is lossless and never grows a record;
* the flush-time fused infer-and-compact pass equals its reference
  ``observe(structure()) + compact_record`` byte for byte and counter for
  counter on heterogeneous nested records, the one-pass anti-schema removal
  over stored bytes (compacted or not) equals the dict walk in
  ``reference.py`` counter for counter, and the one-pass builders and the
  removal equal the dict side on the three dataset generators and a
  DBLP-shaped corpus;
* over the same corpora, one ``BatchExtractor`` — whose plans records share
  up to where their walks stopped — reads ``navigate``'s value for every
  path, uncompacted and compacted;
* schema inference is insensitive to record order, monotone under
  observation, and returns to the empty schema after removing everything it
  observed;
* the B+-tree bulk loader + reader agree with a plain dict/sorted-list
  oracle for random key sets;
* the SQL++ front-end round-trips: parse → unparse → parse is the identity
  on randomly generated ASTs (expressions and whole queries).
"""

import string
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adm import ADMEncoder, ADMRecordView
from repro.adm import decoder as adm_decoder
from repro.sqlpp import ast as sqlast
from repro.sqlpp import parse, parse_expression, unparse, unparse_expr
from repro.sqlpp.lexer import KEYWORDS
from repro.btree import BTree, BulkLoader, LeafEntry
from repro.schema import InferredSchema
from repro.storage import BufferCache, FileManager, SimulatedStorageDevice
from repro.datasets import sensors, twitter, wos
from repro.errors import DecodingError, EncodingError
from repro.types import (
    ADate, AMultiset, Datatype, FieldDeclaration, MISSING, TypeTag, deep_equals, navigate,
    open_only_primary_key,
)
from repro.vector import (
    BatchExtractor, VectorEncoder, VectorRecordView, compact_record, expand_record,
    infer_and_compact, is_compacted,
)

from reference import WalkedSchema, assert_same_schema, extract_antischema, remove_antischema

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_field_names = st.text(alphabet=string.ascii_lowercase + "_", min_size=1, max_size=12)

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=24),
)


def _values(depth: int = 2):
    if depth == 0:
        return _scalars
    children = _values(depth - 1)
    return st.one_of(
        _scalars,
        st.lists(children, max_size=4),
        st.dictionaries(_field_names, children, max_size=4),
    )


_records = st.dictionaries(_field_names, _values(2), max_size=6)

_slow_settings = settings(max_examples=40, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# format round-trips
# ---------------------------------------------------------------------------

class TestFormatRoundTrips:
    @_slow_settings
    @given(record=_records)
    def test_adm_roundtrip(self, record):
        payload = ADMEncoder(None).encode(record)
        assert deep_equals(ADMRecordView(payload).materialize(), record)

    @_slow_settings
    @given(record=_records)
    def test_vector_roundtrip(self, record):
        payload = VectorEncoder(None).encode(record)
        assert deep_equals(VectorRecordView(payload).materialize(), record)

    @_slow_settings
    @given(record=_records)
    def test_compaction_is_lossless_and_never_grows(self, record):
        datatype = open_only_primary_key("T")
        record = dict(record)
        record.setdefault("id", 1)
        schema = InferredSchema(datatype)
        schema.observe(record)
        payload = VectorEncoder(datatype).encode(record)
        compacted = compact_record(payload, schema.dictionary)
        assert len(compacted) <= len(payload)
        view = VectorRecordView(compacted, datatype, schema.dictionary)
        assert deep_equals(view.materialize(), record)
        assert expand_record(compacted, schema.dictionary) == payload


# ---------------------------------------------------------------------------
# the fused flush-time pass against its reference
# ---------------------------------------------------------------------------

# Few names and many types: the same name turns up at several depths and
# with conflicting types, so unions form and a third type joins them.
_few_names = st.sampled_from(["a", "b", "c", "d", "name", "é"])

_typed_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=8),
    st.binary(max_size=4),
    st.builds(ADate, st.integers(min_value=0, max_value=20000)),
    st.uuids(),
)


def _typed_values(depth: int = 3):
    if depth == 0:
        return _typed_scalars
    children = _typed_values(depth - 1)
    items = st.lists(st.one_of(children, st.just(MISSING)), max_size=3)  # empty, nested, MISSING items
    return st.one_of(
        _typed_scalars,
        items,
        items.map(AMultiset),
        st.dictionaries(_few_names, children, max_size=3),  # empty objects
    )


_typed_records = st.lists(st.dictionaries(_few_names, _typed_values(), max_size=5),
                          min_size=1, max_size=6)

#: ``id`` and ``d`` are declared; ``d`` may hold any nested value.
_DECLARING = Datatype.open_type("T", [
    FieldDeclaration("id", TypeTag.INT64),
    FieldDeclaration("d", TypeTag.ANY, optional=True),
])


#: DBLP-shaped records, as a JSON loader would turn the XML slice in
#: SNIPPETS.md: ``author`` is a scalar in one record and a list (of strings
#: and attribute-bearing objects) in the next, ``ee`` an object, a string or
#: a list, entity-escaped unicode appears decoded and raw in values and in
#: field names, and ``crossref`` / ``volume`` / ``booktitle`` are optional.
_DBLP = [
    {"id": 1, "key": "journals/pvldb/SchmittKAMM23", "year": 2023, "volume": "16",
     "author": [{"orcid": "0009-0005-7656-7526", "text": "Daniel Ulrich Schmitt"}, "Daniel Kocher"],
     "ee": [{"type": "oa", "text": "https://www.vldb.org/pvldb/vol16/p2686-schmitt.pdf"},
            "https://doi.org/10.14778/3611479.3611480"]},
    {"id": 2, "key": "conf/sigmod/HutterAK0L22", "year": 2022, "author": "Thomas Hütter",
     "booktitle": "SIGMOD Conference", "ee": "https://doi.org/10.1145/3514221.3517850",
     "crossref": "conf/sigmod/2022"},
    {"id": 3, "key": "journals/pacmmod/ThielKAHMS23", "year": 2023, "volume": 1,
     "author": ["Konstantin Emil Thiel", {"orcid": "0000-0002-7190-6825", "text": "Thomas H&uuml;tter"}],
     "ee": {"type": "oa", "text": "https://doi.org/10.1145/3588925"}},
    {"id": 4, "key": "journals/pvldb/SchalerHS23", "author": "Christine Sch&auml;ler",
     "H&uuml;tter": {"note": "Sch\u00e4ler"}, "Hütter": ["ß", 0]},
    {"id": 5, "key": "conf/sigmod/2022", "year": "2022", "booktitle": None,
     "author": [], "ee": {"type": "doi"}},
    # Two layouts that agree up to the end of ``author`` and differ after it.
    {"id": 6, "key": "journals/pvldb/AlkowaileetAC20", "year": 2020, "volume": "13",
     "author": [{"orcid": "0000-0001-9436-6034", "text": "Wail Y. Alkowaileet"},
                "Sattam Alsubaiee"],
     "ee": "https://doi.org/10.14778/3397230.3397231"},
    {"id": 7, "key": "journals/pvldb/AlkowaileetAC20a", "year": 2020, "volume": "13",
     "author": [{"orcid": "0000-0001-9436-6034", "text": "W. Alkowaileet"}, "M. J. Carey"],
     "ee": [{"type": "oa", "text": "https://www.vldb.org/pvldb/vol13/p1234.pdf"}],
     "crossref": "journals/pvldb/2020"},
]

_CORPORA = {module.__name__: (lambda module=module: module.generate(60))
            for module in (twitter, wos, sensors)}
_CORPORA["dblp"] = lambda: _DBLP


def _reference(schema, datatype, payload):
    """What a flush did before the passes were fused: three walks."""
    schema.observe(VectorRecordView(payload, datatype).structure())
    return compact_record(payload, schema.dictionary)


class TestFusedInferAndCompact:
    @_slow_settings
    @given(records=_typed_records, declaring=st.booleans(), data=st.data())
    def test_equals_reference_and_removes_back_to_empty(self, records, declaring, data):
        datatype = _DECLARING if declaring else open_only_primary_key("T")
        encoder = VectorEncoder(datatype)
        fused, reference = InferredSchema(datatype), InferredSchema(datatype)
        payloads = [encoder.encode(dict(record, id=key)) for key, record in enumerate(records)]
        compacted = [infer_and_compact(payload, fused) for payload in payloads]
        for payload, fused_bytes in zip(payloads, compacted):
            assert fused_bytes == _reference(reference, datatype, payload)
            assert is_compacted(fused_bytes) and len(fused_bytes) <= len(payload)
        assert fused.structurally_equal(reference, compare_counters=True)
        assert fused.to_bytes() == reference.to_bytes()
        assert fused.dictionary.ids_by_utf8 == {
            name.encode("utf-8"): name_id for name_id, name in fused.dictionary.items()}

        for key in data.draw(st.permutations(range(len(payloads)))):
            view = VectorRecordView(compacted[key], datatype, fused.dictionary)
            assert deep_equals(view.materialize(), dict(records[key], id=key))
            fused.remove(data.draw(st.sampled_from([payloads[key], compacted[key]])))
            remove_antischema(reference, VectorRecordView(payloads[key], datatype).structure())
            assert fused.structurally_equal(reference, compare_counters=True)
        assert fused.root.counter == 0 and not fused.root.fields
        assert fused.version == 2 * len(payloads)

    @_slow_settings
    @given(records=_typed_records, declaring=st.booleans(), data=st.data())
    def test_plans_replay_what_the_walk_does(self, records, declaring, data):
        """Each record twice in a row, then all of them again; then some
        removed for good (prunes, collapses) and folded in once more.  After
        every step the planned schema holds what a walked one holds."""
        datatype = _DECLARING if declaring else open_only_primary_key("T")
        encoder = VectorEncoder(datatype)
        planned, walked = InferredSchema(datatype), WalkedSchema(datatype)
        payloads = [encoder.encode(dict(record, id=key)) for key, record in enumerate(records)]
        keys = list(range(len(payloads)))
        for key in [key for key in keys for _ in range(2)] + keys:
            payload = payloads[key]
            assert infer_and_compact(payload, planned) == infer_and_compact(payload, walked)
            assert_same_schema(planned, walked)
        gone = data.draw(st.permutations(keys))[:data.draw(st.integers(0, len(keys)))]
        for key in gone:
            for _ in range(3):
                planned.remove(payloads[key])
                walked.remove(payloads[key])
                assert_same_schema(planned, walked)
        for key in gone + gone:
            payload = payloads[key]
            assert infer_and_compact(payload, planned) == infer_and_compact(payload, walked)
            assert_same_schema(planned, walked)

    @pytest.mark.parametrize("corpus", list(_CORPORA))
    def test_plans_over_a_corpus_inserted_twice(self, corpus):
        datatype = open_only_primary_key("T")
        planned, walked = InferredSchema(datatype), WalkedSchema(datatype)
        records = list(_CORPORA[corpus]())
        for record in records + records:
            payload = VectorEncoder(datatype).encode(record)
            assert infer_and_compact(payload, planned) == infer_and_compact(payload, walked)
            assert_same_schema(planned, walked)
        assert planned.plans and not walked.plans

    def test_compacted_input_is_rejected(self):
        schema = InferredSchema()
        compacted = infer_and_compact(VectorEncoder(None).encode({"a": 1}), schema)
        with pytest.raises(EncodingError):
            infer_and_compact(compacted, schema)
        assert compact_record(compacted, schema.dictionary) is compacted

    @pytest.mark.parametrize("corpus", list(_CORPORA))
    def test_builders_equal_the_dict_side(self, corpus):
        datatype = open_only_primary_key("T")
        schema = InferredSchema(datatype)
        stored = []
        for record in _CORPORA[corpus]():
            payload = VectorEncoder(datatype).encode(record)
            compacted = infer_and_compact(payload, schema)
            for view in (VectorRecordView(payload, datatype),
                         VectorRecordView(compacted, datatype, schema.dictionary)):
                assert deep_equals(view.materialize(), record)
                assert view.structure() == extract_antischema(record)
            stored.append((record, payload, compacted))
        reference = schema.snapshot()
        for index, (record, payload, compacted) in enumerate(stored):
            schema.remove(compacted if index % 2 else payload)
            remove_antischema(reference, extract_antischema(record))
            assert schema.structurally_equal(reference, compare_counters=True)
        assert schema.root.counter == 0 and not schema.root.fields


def _corpus_paths(value, prefix=()):
    """Every name path of a record, with an index and a ``"*"`` at each list."""
    paths = [prefix] if prefix else []
    if isinstance(value, dict):
        for key, child in value.items():
            paths.extend(_corpus_paths(child, prefix + (key,)))
    elif isinstance(value, list):
        for step in (0, "*"):
            for item in value[:1]:
                paths.extend(_corpus_paths(item, prefix + (step,)))
            paths.append(prefix + (step,))
    return paths


def _stored_views(records, datatype):
    """Each record uncompacted and compacted, under one schema's dictionary."""
    schema = InferredSchema(datatype)
    stored = []
    for record in records:
        payload = VectorEncoder(datatype).encode(record)
        compacted = infer_and_compact(payload, schema)
        stored += [(record, VectorRecordView(payload, datatype)),
                   (record, VectorRecordView(compacted, datatype, schema.dictionary))]
    return stored


class TestExtractionPlansOverCorpora:
    @pytest.mark.parametrize("corpus", list(_CORPORA))
    def test_one_extractor_reads_every_record(self, corpus):
        """One extractor per path, and one for all of them, over every record
        of a corpus, stored both ways, twice: each read is ``navigate``'s."""
        records = list(_CORPORA[corpus]())
        stored = _stored_views(records, open_only_primary_key("T"))
        paths = sorted({path for record in records for path in _corpus_paths(record)}, key=repr)
        for requests in [[path] for path in paths] + [paths]:
            extractor = BatchExtractor(requests)
            for _ in range(2):
                for record, view in stored:
                    assert extractor.extract(view) == [navigate(record, path)
                                                       for path in requests]

    def test_dblp_layouts_sharing_a_prefix_share_its_plans(self):
        """A path inside the prefix two layouts share reads both through one
        plan per form (uncompacted, compacted); a path past it needs two."""
        records = _DBLP[-2:]
        stored = _stored_views(records, open_only_primary_key("T"))
        for requests, plans in (([("year",)], 2), ([("author", "*", "text")], 2),
                                ([("volume",), ("author", 1)], 2), ([("ee",)], 4),
                                ([("crossref",)], 4)):
            extractor = BatchExtractor(requests)
            for record, view in stored:
                assert extractor.extract(view) == [navigate(record, path) for path in requests]
            assert len(extractor.plans) == plans, requests


# ---------------------------------------------------------------------------
# compiled ADM paths against navigate
# ---------------------------------------------------------------------------

# Names that spell indexes: a compiled path keyed without its steps' kinds
# would read ``("0",)`` through the entry of ``(0,)``.
_adm_names = st.sampled_from(["a", "b", "0", "1", "name", "é"])

_adm_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=8),
    st.binary(max_size=4),
    st.builds(ADate, st.integers(min_value=-1000, max_value=1000)),
)


def _adm_values(depth: int = 3):
    if depth == 0:
        return _adm_scalars
    children = _adm_values(depth - 1)
    return st.one_of(
        _adm_scalars,
        st.lists(st.one_of(children, st.just(MISSING)), max_size=4),
        st.lists(children, max_size=3).map(AMultiset),
        st.dictionaries(_adm_names, children, max_size=4),
    )


_adm_records = st.dictionaries(_adm_names, _adm_values(), max_size=5)

#: Names, indexes (negative and past the end too), booleans and ``"*"``.
_adm_steps = st.one_of(_adm_names, st.integers(min_value=-2, max_value=3), st.booleans(),
                       st.just("*"))
_adm_paths = st.lists(st.lists(_adm_steps, max_size=4).map(tuple), min_size=1, max_size=12)

#: A nested-object declaration and an item declaration, each with open fields
#: beside its declared ones, and an optional field that may be absent.
_ADM_DECLARED = Datatype.open_type("Declared", [
    FieldDeclaration("obj", TypeTag.OBJECT, nested=Datatype.open_type("Inner", [
        FieldDeclaration("x", TypeTag.INT64), FieldDeclaration("gone", TypeTag.ANY, optional=True)])),
    FieldDeclaration("items", TypeTag.ARRAY, item_type=TypeTag.ANY, item_nested=Datatype.open_type(
        "Item", [FieldDeclaration("k", TypeTag.INT64)])),
    FieldDeclaration("last", TypeTag.ANY, optional=True),
])
_declared_steps = st.one_of(st.sampled_from(["obj", "items", "last", "x", "k", "gone"]), _adm_steps)
_declared_paths = st.lists(st.lists(_declared_steps, max_size=4).map(tuple),
                           min_size=1, max_size=12)


@st.composite
def _declared_records(draw):
    record = draw(_adm_records)
    record["obj"] = dict(draw(_adm_records), x=draw(st.integers(-(2 ** 62), 2 ** 62)))
    record["items"] = draw(st.lists(st.one_of(
        _adm_scalars, _adm_records.map(lambda item: dict(item, k=0))), max_size=3))
    if draw(st.booleans()):
        record["last"] = draw(_adm_values(2))
    return record


class _ClearedBeforeEveryRead(dict):
    """A path table that forgets everything before each lookup."""

    def get(self, key, default=None):
        self.clear()
        return default


def _assert_reads_navigate(view, paths):
    """Every path, read twice (compiled, then kept), is ``navigate`` over the
    materialized record, compared by ``repr``: ``True`` is not ``1``, a
    multiset not a list, a wrapped scalar not its number."""
    record = view.materialize()
    for _ in range(2):
        for path in paths:
            assert repr(view.get_field(*path)) == repr(navigate(record, path)), path


def _string_at_end(payload: bytes, text: str) -> int:
    """Offset of the string value ``text`` that ends ``payload``."""
    return len(payload) - 5 - len(text.encode("utf-8"))


def _overlong(payload: bytes, at: int) -> bytes:
    """``payload`` with the varlen value at ``at`` claiming more bytes than
    the payload has."""
    corrupt = bytearray(payload)
    corrupt[at + 1:at + 5] = len(payload).to_bytes(4, "little")
    return bytes(corrupt)


class TestCompiledADMPaths:
    """``ADMRecordView.get_field`` resolves each path once into a kept form:
    whatever the record, the path or the table's state, it reads what
    ``navigate`` reads over the whole record, and refuses bytes the walk
    would have refused."""

    @_slow_settings
    @given(record=_adm_records, paths=_adm_paths,
           datatype=st.sampled_from([None, Datatype.open_type("Open", [])]))
    def test_open_records(self, record, paths, datatype):
        view = ADMRecordView(ADMEncoder(datatype).encode(record), datatype)
        assert deep_equals(view.materialize(), record)
        _assert_reads_navigate(view, paths)

    @_slow_settings
    @given(record=_declared_records(), paths=_declared_paths)
    def test_declared_records(self, record, paths):
        view = ADMRecordView(ADMEncoder(_ADM_DECLARED).encode(record), _ADM_DECLARED)
        assert deep_equals(view.materialize(), record)
        _assert_reads_navigate(view, paths)

    @_slow_settings
    @given(record=_declared_records(), paths=_declared_paths)
    def test_table_cleared_before_every_read(self, record, paths):
        view = ADMRecordView(ADMEncoder(_ADM_DECLARED).encode(record), _ADM_DECLARED)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(adm_decoder, "_paths", _ClearedBeforeEveryRead())
            _assert_reads_navigate(view, paths)
            _assert_reads_navigate(ADMRecordView(ADMEncoder(None).encode(record)), paths)

    @_slow_settings
    @given(record=_adm_records, orders=st.lists(st.randoms(use_true_random=False),
                                                min_size=2, max_size=4),
           paths=_adm_paths)
    def test_one_path_over_fields_in_other_orders(self, record, orders, paths):
        """The same fields written in other orders, at every depth, put each
        name at another offset: a kept path finds it by name each time."""
        def shuffled(value, rng):
            if isinstance(value, dict):
                items = list(value.items())
                rng.shuffle(items)
                return {key: shuffled(item, rng) for key, item in items}
            if isinstance(value, list):
                return [shuffled(item, rng) for item in value]
            return value

        for rng in orders:
            variant = shuffled(record, rng)
            _assert_reads_navigate(ADMRecordView(ADMEncoder(None).encode(variant)), paths)

    def test_names_no_encoder_writes_read_missing(self):
        """A name too long for an open-field entry, or one that is not
        UTF-8, is in no record: MISSING, with or without a ``"*"`` after it;
        a step that is neither a name nor an index is refused once reached."""
        record = {"a": [1, {"b": 2}], "c": "x"}
        view = ADMRecordView(ADMEncoder(None).encode(record))
        for name in ("x" * 70_000, "\ud800"):
            for path in ((name,), ("a", name), ("a", 1, name), (name, "*")):
                assert repr(view.get_field(*path)) == repr(navigate(record, path))
        assert view.get_field("absent", 1.5) is MISSING
        with pytest.raises(DecodingError, match="unsupported path step 1.5"):
            view.get_field("a", 1.5)

    @_slow_settings
    @given(record=_declared_records(), paths=_declared_paths, data=st.data())
    def test_truncated_payloads_raise(self, record, paths, data):
        payload = ADMEncoder(_ADM_DECLARED).encode(record)
        cut = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
        view = ADMRecordView(payload[:cut], _ADM_DECLARED)
        # A read that starts at the root object checks its length first.
        reads = [view.materialize, view.get_field]
        reads += [lambda path=path: view.get_field(*path) for path in paths
                  if path and isinstance(path[0], str)]
        for read in reads:
            with pytest.raises(DecodingError):
                read()

    @_slow_settings
    @given(record=_declared_records(), text=st.text(max_size=6))
    def test_a_string_past_the_payload_is_refused(self, record, text):
        """A string whose length runs past the payload's end — a closed
        value, an open value, an object's last field, a collection's last
        item — is refused by every read that decodes it, even where every
        enclosing length still fits."""
        record = dict(record, last=text)
        payload = ADMEncoder(_ADM_DECLARED).encode(record)
        closed_at = struct.unpack_from("<I", payload, 7 + 4 * 2)[0]  # "last"
        cases = [(closed_at, ("last",))]
        for tail, path in (({"tail": text}, ("tail",)), ({"box": {"tail": text}}, ("box", "tail")),
                           ({"list": [1, text]}, ("list", 1))):
            grown = dict(record)
            for name in tail:
                grown.pop(name, None)
            grown.update(tail)
            cases.append((grown, path))
        for case, path in cases:
            if isinstance(case, int):
                corrupt = _overlong(payload, case)
            else:
                encoded = ADMEncoder(_ADM_DECLARED).encode(case)
                corrupt = _overlong(encoded, _string_at_end(encoded, text))
            view = ADMRecordView(corrupt, _ADM_DECLARED)
            for read in (view.materialize, lambda: view.get_field(*path),
                         lambda: view.get_field(path[0], "*")):
                with pytest.raises(DecodingError, match="past the end"):
                    read()


# ---------------------------------------------------------------------------
# schema inference invariants
# ---------------------------------------------------------------------------

class TestSchemaInvariants:
    @_slow_settings
    @given(records=st.lists(_records, min_size=1, max_size=8))
    def test_order_insensitive_structure(self, records):
        """Observation order may change FieldNameID assignment but not the
        name-resolved structure of the schema."""
        from repro.schema import leaf_paths

        forward = InferredSchema()
        backward = InferredSchema()
        forward.observe_all(records)
        backward.observe_all(list(reversed(records)))
        forward_paths = sorted(leaf_paths(forward.root, forward.dictionary))
        backward_paths = sorted(leaf_paths(backward.root, backward.dictionary))
        assert forward_paths == backward_paths
        assert forward.root.counter == backward.root.counter

    @_slow_settings
    @given(records=st.lists(_records, min_size=1, max_size=8))
    def test_observation_is_monotone(self, records):
        schema = InferredSchema()
        previous = schema.snapshot()
        for record in records:
            schema.observe(record)
            assert schema.is_superset_of(previous)
            previous = schema.snapshot()

    @_slow_settings
    @given(records=st.lists(_records, min_size=1, max_size=8))
    def test_remove_everything_returns_to_empty(self, records):
        schema = InferredSchema()
        schema.observe_all(records)
        for record in records:
            schema.remove(VectorEncoder(None).encode(record))
        assert schema.field_count == 0
        assert schema.root.counter == 0

    @_slow_settings
    @given(records=st.lists(_records, min_size=1, max_size=8))
    def test_serialization_roundtrip(self, records):
        schema = InferredSchema()
        schema.observe_all(records)
        restored = InferredSchema.from_bytes(schema.to_bytes())
        assert restored.structurally_equal(schema, compare_counters=True)


# ---------------------------------------------------------------------------
# SQL++ parse/unparse round trip
# ---------------------------------------------------------------------------

_sql_names = st.builds(
    lambda head, tail: head + tail,
    st.sampled_from(string.ascii_lowercase),
    st.text(alphabet=string.ascii_lowercase + string.digits + "_", max_size=8),
).filter(lambda name: name.upper() not in KEYWORDS)

_path_steps = st.lists(
    st.one_of(_sql_names, st.integers(min_value=0, max_value=99), st.just("*")),
    min_size=1, max_size=3).map(tuple)

_sql_numbers = st.one_of(
    st.integers(min_value=0, max_value=10 ** 9),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False, width=64)
    .map(lambda value: 0.0 if value == 0 else value),  # repr(-0.0) would re-parse as NegExpr
)

_sql_leaves = st.one_of(
    st.builds(sqlast.NumberLit, value=_sql_numbers),
    st.builds(sqlast.StringLit, value=st.text(max_size=12)),
    st.builds(sqlast.BoolLit, value=st.booleans()),
    st.builds(sqlast.NullLit),
    st.builds(sqlast.MissingLit),
    st.builds(sqlast.Ident, name=_sql_names),
    st.builds(sqlast.Path, base=st.builds(sqlast.Ident, name=_sql_names),
              steps=_path_steps),
)


def _sql_exprs(children):
    operands = st.lists(children, min_size=2, max_size=3).map(tuple)
    return st.one_of(
        st.builds(sqlast.BinOp,
                  op=st.sampled_from(["=", "!=", "<", "<=", ">", ">=",
                                      "+", "-", "*", "/", "%"]),
                  left=children, right=children),
        st.builds(sqlast.AndExpr, operands=operands),
        st.builds(sqlast.OrExpr, operands=operands),
        st.builds(sqlast.NotExpr, operand=children),
        st.builds(sqlast.NegExpr, operand=children),
        st.builds(sqlast.Call, name=_sql_names,
                  args=st.lists(children, max_size=2).map(tuple)),
        st.builds(sqlast.Quantified, var=_sql_names, collection=children,
                  predicate=children),
        st.builds(sqlast.ExistsExpr, operand=children),
        st.builds(sqlast.IsTest, operand=children,
                  kind=st.sampled_from(["null", "missing", "unknown"]),
                  negated=st.booleans()),
    )


_sql_expr = st.recursive(_sql_leaves, _sql_exprs, max_leaves=12)

_select_items = st.lists(
    st.builds(sqlast.SelectItem, expr=_sql_expr,
              alias=st.one_of(st.none(), _sql_names)),
    min_size=1, max_size=3).map(tuple)

_select_clauses = st.one_of(
    st.builds(sqlast.SelectClause, kind=st.just("star")),
    st.builds(sqlast.SelectClause, kind=st.just("value"), value=_sql_expr),
    st.builds(sqlast.SelectClause, kind=st.just("items"), items=_select_items),
)

_sql_queries = st.builds(
    sqlast.Query,
    select=_select_clauses,
    from_clause=st.builds(sqlast.FromClause, dataset=_sql_names, alias=_sql_names),
    lets=st.lists(st.builds(sqlast.LetClause, name=_sql_names, expr=_sql_expr),
                  max_size=2).map(tuple),
    unnests=st.lists(st.builds(sqlast.UnnestClause, collection=_sql_expr,
                               alias=_sql_names), max_size=2).map(tuple),
    where=st.one_of(st.none(), _sql_expr),
    group_by=st.lists(st.builds(sqlast.GroupKey, expr=_sql_expr,
                                alias=st.one_of(st.none(), _sql_names)),
                      max_size=2).map(tuple),
    order_by=st.lists(st.builds(sqlast.OrderItem, expr=_sql_expr,
                                descending=st.booleans()), max_size=2).map(tuple),
    limit=st.one_of(st.none(),
                    st.builds(sqlast.NumberLit,
                              value=st.integers(min_value=1, max_value=1000))),
)


class TestSqlppRoundTrip:
    @_slow_settings
    @given(expr=_sql_expr)
    def test_expression_round_trip(self, expr):
        assert parse_expression(unparse_expr(expr)) == expr

    @_slow_settings
    @given(query=_sql_queries)
    def test_query_round_trip(self, query):
        text = unparse(query)
        assert parse(text) == query
        # Idempotence: the canonical text is a fixed point of unparsing.
        assert unparse(parse(text)) == text


# ---------------------------------------------------------------------------
# B+-tree vs oracle
# ---------------------------------------------------------------------------

class TestBTreeOracle:
    @_slow_settings
    @given(keys=st.sets(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=300),
           probes=st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=30),
           bounds=st.tuples(st.integers(min_value=0, max_value=10 ** 6),
                            st.integers(min_value=0, max_value=10 ** 6)))
    def test_lookup_and_range_match_oracle(self, keys, probes, bounds):
        ordered = sorted(keys)
        device = SimulatedStorageDevice()
        cache = BufferCache(FileManager(device, 512), 256)
        cache.file_manager.create_file("t")
        info = BulkLoader(cache, "t").build([LeafEntry(key, str(key).encode()) for key in ordered])
        tree = BTree(cache, "t", info)
        for probe in probes:
            found = tree.search(probe)
            assert (found is not None) == (probe in keys)
        low, high = min(bounds), max(bounds)
        expected = [key for key in ordered if low <= key <= high]
        assert [entry.key for entry in tree.range_scan(low, high)] == expected
