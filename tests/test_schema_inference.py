"""Unit tests for schema inference, maintenance, and serialization."""

from array import array

import pytest

from repro.errors import SchemaError
from repro.schema import (
    CollectionNode,
    FieldNameDictionary,
    InferredSchema,
    ObjectNode,
    ScalarNode,
    UnionNode,
    leaf_paths,
    nodes_equal,
)
from repro.types import (
    ADate,
    AMultiset,
    APoint,
    TypeTag,
    open_only_primary_key,
)
from repro.vector import VectorEncoder, infer_and_compact

from reference import WalkedSchema, assert_same_schema, extract_antischema, remove_antischema

PAPER_FIGURE10_RECORD = {
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

SIMPLE_RECORDS = [{"id": i, "name": f"user{i}"} for i in range(2, 7)]


def _employee_schema():
    return InferredSchema(open_only_primary_key("EmployeeType"))


def _remove(schema, record):
    """``schema.remove`` of ``record``'s stored bytes, held counter-equal to
    the dict reference run on a copy."""
    expected = schema.snapshot()
    remove_antischema(expected, extract_antischema(record))
    schema.remove(VectorEncoder(schema.datatype).encode(record))
    assert schema.structurally_equal(expected, compare_counters=True)


class TestFieldNameDictionary:
    def test_ids_start_at_one_and_are_stable(self):
        dictionary = FieldNameDictionary()
        assert dictionary.encode("name") == 1
        assert dictionary.encode("age") == 2
        assert dictionary.encode("name") == 1
        assert dictionary.decode(2) == "age"

    def test_lookup_does_not_assign(self):
        dictionary = FieldNameDictionary()
        assert dictionary.lookup("nope") is None
        assert len(dictionary) == 0

    def test_unknown_id_raises(self):
        dictionary = FieldNameDictionary()
        with pytest.raises(SchemaError):
            dictionary.decode(1)

    def test_serialization_roundtrip(self):
        dictionary = FieldNameDictionary()
        for name in ["name", "dependents", "age", "employment_date"]:
            dictionary.encode(name)
        payload = dictionary.to_bytes()
        restored, consumed = FieldNameDictionary.from_bytes(payload)
        assert consumed == len(payload)
        assert list(restored.items()) == list(dictionary.items())

    def test_prefix_check(self):
        base = FieldNameDictionary()
        base.encode("a")
        extended = base.copy()
        extended.encode("b")
        assert base.is_prefix_of(extended)
        assert not extended.is_prefix_of(base)


class TestInference:
    def test_figure10_structure(self):
        """Reproduces the paper's Figure 10: one rich record + five simple ones."""
        schema = _employee_schema()
        schema.observe(PAPER_FIGURE10_RECORD)
        schema.observe_all(SIMPLE_RECORDS)

        root = schema.root
        assert root.counter == 6
        name_id = schema.field_name_id("name")
        assert isinstance(root.child(name_id), ScalarNode)
        assert root.child(name_id).counter == 6
        # "id" is declared -> not inferred.
        assert schema.field_name_id("id") is None

        dependents = root.child(schema.field_name_id("dependents"))
        assert isinstance(dependents, CollectionNode)
        assert dependents.tag is TypeTag.MULTISET
        assert isinstance(dependents.item, ObjectNode)
        assert dependents.item.counter == 2  # two dependent objects observed

        shifts = root.child(schema.field_name_id("working_shifts"))
        assert isinstance(shifts, CollectionNode)
        assert isinstance(shifts.item, UnionNode)
        assert set(shifts.item.options) == {TypeTag.ARRAY, TypeTag.STRING}
        assert shifts.item.option(TypeTag.ARRAY).counter == 3
        assert shifts.item.option(TypeTag.STRING).counter == 1

    def test_field_name_canonicalization(self):
        """'name' at the root and inside dependents shares one FieldNameID."""
        schema = _employee_schema()
        schema.observe(PAPER_FIGURE10_RECORD)
        # name, dependents, age, employment_date, branch_location, working_shifts;
        # the nested "name" inside dependents reuses the root "name"'s id.
        assert len(schema.dictionary) == 6
        name_id = schema.field_name_id("name")
        dependents = schema.root.child(schema.field_name_id("dependents"))
        assert name_id in dependents.item.fields

    def test_union_promotion_on_type_change(self):
        """Figure 9b: age switches from int to union(int, string)."""
        schema = _employee_schema()
        schema.observe({"id": 0, "name": "Kim", "age": 26})
        schema.observe({"id": 1, "name": "John", "age": 22})
        schema.observe({"id": 2, "name": "Ann"})
        schema.observe({"id": 3, "name": "Bob", "age": "old"})

        age = schema.root.child(schema.field_name_id("age"))
        assert isinstance(age, UnionNode)
        assert set(age.options) == {TypeTag.INT64, TypeTag.STRING}
        assert age.option(TypeTag.INT64).counter == 2
        assert age.option(TypeTag.STRING).counter == 1
        assert age.counter == 3

    def test_superset_property(self):
        """Each newly inferred schema is a superset of the previous one."""
        schema = _employee_schema()
        schema.observe({"id": 0, "name": "Kim", "age": 26})
        first = schema.snapshot()
        schema.observe({"id": 3, "name": "Bob", "age": "old", "extra": [1.5]})
        assert schema.is_superset_of(first)
        assert not first.is_superset_of(schema)

    def test_observe_rejects_non_objects(self):
        with pytest.raises(SchemaError):
            _employee_schema().observe([1, 2, 3])

    def test_null_fields_are_tracked(self):
        schema = _employee_schema()
        schema.observe({"id": 1, "maybe": None})
        node = schema.root.child(schema.field_name_id("maybe"))
        assert isinstance(node, ScalarNode)
        assert node.tag is TypeTag.NULL


class TestMaintenance:
    def test_delete_shrinks_schema_to_figure11(self):
        """Figure 11: deleting the rich record leaves only 'name' behind."""
        schema = _employee_schema()
        schema.observe(PAPER_FIGURE10_RECORD)
        schema.observe_all(SIMPLE_RECORDS)

        _remove(schema, PAPER_FIGURE10_RECORD)

        root = schema.root
        assert root.counter == 5
        remaining_ids = set(root.fields)
        assert remaining_ids == {schema.field_name_id("name")}
        assert root.child(schema.field_name_id("name")).counter == 5

    def test_union_collapses_after_delete(self):
        """Deleting the only string-aged record turns union(int,string) into int."""
        schema = _employee_schema()
        schema.observe({"id": 0, "name": "Kim", "age": 26})
        schema.observe({"id": 3, "name": "Bob", "age": "old"})
        _remove(schema, {"id": 3, "name": "Bob", "age": "old"})

        age = schema.root.child(schema.field_name_id("age"))
        assert isinstance(age, ScalarNode)
        assert age.tag is TypeTag.INT64
        assert age.counter == 1

    def test_remove_unknown_field_raises(self):
        schema = _employee_schema()
        schema.observe({"id": 0, "name": "Kim"})
        with pytest.raises(SchemaError):
            schema.remove(VectorEncoder(schema.datatype).encode({"id": 0, "never_seen": 1}))

    def test_remove_then_observe_again(self):
        schema = _employee_schema()
        record = {"id": 1, "tags": ["a", "b"]}
        schema.observe(record)
        _remove(schema, record)
        assert schema.field_count == 0
        schema.observe(record)
        tags = schema.root.child(schema.field_name_id("tags"))
        assert isinstance(tags, CollectionNode)
        assert tags.counter == 1

    def test_counter_underflow_detected(self):
        schema = _employee_schema()
        record = {"id": 1, "name": "Ann"}
        schema.observe(record)
        _remove(schema, record)
        with pytest.raises(SchemaError):
            schema.remove(VectorEncoder(schema.datatype).encode(record))


class TestAntischema:
    def test_scalars_replaced_with_placeholders(self):
        anti = extract_antischema(PAPER_FIGURE10_RECORD)
        assert anti["name"] == ""
        assert anti["id"] == 0
        assert anti["employment_date"] == ADate(0)
        assert anti["working_shifts"][3] == ""
        assert anti["dependents"].items[0] == {"name": "", "age": 0}

    def test_antischema_preserves_types(self):
        from repro.types import type_tag_of

        anti = extract_antischema({"a": 1.5, "b": "text", "c": [True]})
        assert type_tag_of(anti["a"]) is TypeTag.DOUBLE
        assert type_tag_of(anti["b"]) is TypeTag.STRING
        assert type_tag_of(anti["c"][0]) is TypeTag.BOOLEAN


def _in_step(steps):
    """Run ``(operation, record)`` steps on a schema that keeps flush-time
    plans and on one that walks every record, checking after each step that
    both hold the same; returns the planned schema."""
    encoder = VectorEncoder(None)
    planned, walked = InferredSchema(), WalkedSchema()
    for operation, record in steps:
        payload = encoder.encode(record)
        if operation == "infer":
            assert infer_and_compact(payload, planned) == infer_and_compact(payload, walked)
        elif operation == "remove":
            planned.remove(payload)
            walked.remove(payload)
        else:
            getattr(planned, operation)(record)
            getattr(walked, operation)(record)
        assert_same_schema(planned, walked)
    return planned


class TestFlushPlans:
    """A record layout the schema has walked is folded in again by replaying
    its plan; every replay must leave what a walk leaves."""

    def test_a_layout_seen_before_replays_its_plan(self):
        record = {"a": 1, "b": [{"c": "x"}, {"c": "y"}]}
        planned = _in_step([("infer", record)] * 2)  # a walk stores the plan, a replay
        assert len(planned.plans) == 1
        # the slots of a, b, b's item twice and c twice, then the ids of a, b, c, c
        assert len(next(iter(planned.plans.values()))) == 6 * array("I").itemsize + 4 * 2
        _in_step([("infer", record)] * 4)

    def test_an_array_item_promoted_mid_walk(self):
        """The walk of ``[1, "a", 2]`` increments the item node, promotes it
        on ``"a"`` and increments the new union on ``2``: it stores no plan,
        and the plan of ``[1, 2]``, through the replaced node, is dropped."""
        ints, mixed = {"xs": [1, 2]}, {"xs": [1, "a", 2]}
        planned = _in_step([("infer", ints)] * 3 + [("infer", mixed)])
        assert not planned.plans
        _in_step([("infer", ints)] * 3 + [("infer", mixed)]
                 + [("infer", ints), ("infer", mixed)] * 3)

    def test_a_field_promoted_by_its_last_value(self):
        number, text = {"n": 1}, {"n": "a"}
        _in_step([("infer", number)] * 3 + [("infer", text)] * 3 + [("infer", number)] * 2)

    @pytest.mark.parametrize("pruned", [{"x": 1}, {"x": [{"y": 1}]}, {"x": {"y": 1}, "z": 2}])
    def test_a_layout_folded_in_again_after_a_prune_on_its_path(self, pruned):
        _in_step([("infer", pruned)] * 3 + [("remove", pruned)] * 3 + [("infer", pruned)] * 3)

    def test_a_layout_folded_in_again_after_a_collapse_on_its_path(self):
        """Removing the strings prunes the unions' STRING branches and
        collapses them: a plan of ``text`` kept past that would count the
        detached branches, where a walk promotes the fields again."""
        ints, text = {"x": 1, "w": [1]}, {"x": "s", "w": ["s"]}
        _in_step([("infer", ints)] * 3 + [("infer", text)] * 3 + [("infer", ints)] * 2
                 + [("remove", text)] * 3 + [("infer", text), ("infer", ints)] * 2
                 + [("remove", ints)] * 7 + [("infer", ints)] * 2)

    def test_observe_and_the_dict_remove_drop_the_plans(self):
        _in_step([("infer", {"x": 1})] * 3 + [("observe", {"x": "s"})] + [("infer", {"x": 1})] * 2)
        planned = _in_step([("infer", {"x": 1})] * 3)
        remove_antischema(planned, extract_antischema({"x": 1}))
        assert not planned.plans

    def test_copies_start_with_no_plans(self):
        planned = _in_step([("infer", {"x": 1, "y": [2.5]})] * 3)
        assert planned.plans
        for copy in (planned.snapshot(), InferredSchema.from_bytes(planned.to_bytes())):
            assert not copy.plans and not copy.plan_nodes
            payload = VectorEncoder(None).encode({"x": 1, "y": [2.5]})
            walked = WalkedSchema.from_bytes(planned.to_bytes())
            for _ in range(3):
                assert infer_and_compact(payload, copy) == infer_and_compact(payload, walked)
                assert_same_schema(copy, walked)
            assert copy.plans


class TestMergeAndSnapshot:
    def test_merge_newest_picks_latest_version(self):
        schema = _employee_schema()
        schema.observe({"id": 0, "name": "Kim", "age": 26})
        snapshot_0 = schema.snapshot()
        schema.observe({"id": 3, "name": "Bob", "age": "old"})
        snapshot_1 = schema.snapshot()
        newest = InferredSchema.merge_newest([snapshot_0, snapshot_1])
        assert newest is snapshot_1
        assert newest.is_superset_of(snapshot_0)

    def test_merge_empty_raises(self):
        with pytest.raises(SchemaError):
            InferredSchema.merge_newest([])

    def test_snapshot_is_independent(self):
        schema = _employee_schema()
        schema.observe({"id": 0, "name": "Kim"})
        frozen = schema.snapshot()
        schema.observe({"id": 1, "name": "Ann", "new_field": 1})
        assert frozen.field_name_id("new_field") is None
        assert schema.field_name_id("new_field") is not None


class TestSerialization:
    def test_roundtrip(self):
        schema = _employee_schema()
        schema.observe(PAPER_FIGURE10_RECORD)
        schema.observe_all(SIMPLE_RECORDS)
        payload = schema.to_bytes()
        restored = InferredSchema.from_bytes(payload, schema.datatype)
        assert restored.structurally_equal(schema, compare_counters=True)
        assert restored.version == schema.version
        assert list(restored.dictionary.items()) == list(schema.dictionary.items())

    def test_roundtrip_with_unions(self):
        schema = _employee_schema()
        schema.observe({"id": 0, "v": 1})
        schema.observe({"id": 1, "v": "s"})
        schema.observe({"id": 2, "v": [1.0]})
        restored = InferredSchema.from_bytes(schema.to_bytes(), schema.datatype)
        node = restored.root.child(restored.field_name_id("v"))
        assert isinstance(node, UnionNode)
        assert set(node.options) == {TypeTag.INT64, TypeTag.STRING, TypeTag.ARRAY}

    def test_describe_contains_field_names(self):
        schema = _employee_schema()
        schema.observe({"id": 0, "name": "Kim", "age": 26})
        text = schema.describe()
        assert "name" in text and "age" in text


class TestNodes:
    def test_nodes_equal_ignores_counters_by_default(self):
        left, right = ScalarNode(TypeTag.INT64, 5), ScalarNode(TypeTag.INT64, 9)
        assert nodes_equal(left, right)
        assert not nodes_equal(left, right, compare_counters=True)

    def test_leaf_paths(self):
        schema = _employee_schema()
        schema.observe({"id": 1, "a": {"b": 2}, "c": [3.5]})
        paths = dict(leaf_paths(schema.root, schema.dictionary))
        assert paths[("a", "b")] is TypeTag.INT64
        assert paths[("c", "[]")] is TypeTag.DOUBLE

    def test_scalar_node_rejects_nested_tag(self):
        with pytest.raises(SchemaError):
            ScalarNode(TypeTag.OBJECT)

    def test_collection_node_rejects_scalar_tag(self):
        with pytest.raises(SchemaError):
            CollectionNode(TypeTag.INT64)

    def test_node_count(self):
        schema = _employee_schema()
        schema.observe({"id": 1, "a": {"b": 2}, "c": [3.5]})
        # root + a + b + c + item
        assert schema.root.node_count() == 5
