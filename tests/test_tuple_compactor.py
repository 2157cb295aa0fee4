"""Tests for the tuple compactor attached to the LSM flush lifecycle."""

import uuid

import pytest

from repro.config import DatasetConfig, LSMConfig, StorageFormat
from repro.core import Dataset, StorageEnvironment, TupleCompactor
from repro.datasets import twitter
from repro.errors import TransientIOError
from repro.faults import get_injector
from repro.lsm import LSMBTree, NoMergePolicy
from repro.obs import MetricsRegistry
from repro.schema import InferredSchema
from repro.storage import BufferCache, FileManager, SimulatedStorageDevice
from repro.types import TypeTag, deep_equals, open_only_primary_key
from repro.vector import (VectorEncoder, VectorRecordView, compact_record, infer_and_compact,
                          is_compacted)

from reference import WalkedSchema, assert_same_schema


def _compacting_index(memory_budget=1 << 20):
    device = SimulatedStorageDevice()
    cache = BufferCache(FileManager(device, 2048), 512)
    datatype = open_only_primary_key("EmployeeType")
    compactor = TupleCompactor(datatype)
    index = LSMBTree("emp", 0, cache, memory_budget, NoMergePolicy(), compactor)
    encoder = VectorEncoder(datatype)
    return index, compactor, encoder


def _insert(index, encoder, record):
    index.insert(record["id"], encoder.encode(record))


def _upsert(index, encoder, record):
    index.upsert(record["id"], encoder.encode(record))


class TestFlushTimeInference:
    def test_paper_figure9_flow(self):
        """Reproduces Figure 9: two flushes and the union-typed age field."""
        index, compactor, encoder = _compacting_index()
        _insert(index, encoder, {"id": 0, "name": "Kim", "age": 26})
        _insert(index, encoder, {"id": 1, "name": "John", "age": 22})
        index.flush()
        schema_after_c0 = index.components[0].schema
        age = schema_after_c0.root.child(schema_after_c0.field_name_id("age"))
        assert age.tag is TypeTag.INT64

        _insert(index, encoder, {"id": 2, "name": "Ann"})
        _insert(index, encoder, {"id": 3, "name": "Bob", "age": "old"})
        index.flush()
        schema_after_c1 = index.components[0].schema
        age = schema_after_c1.root.child(schema_after_c1.field_name_id("age"))
        assert age.tag is TypeTag.UNION
        assert set(age.options) == {TypeTag.INT64, TypeTag.STRING}
        # the newer schema is a superset of the older one
        assert schema_after_c1.is_superset_of(schema_after_c0)

    def test_records_on_disk_are_compacted(self):
        index, compactor, encoder = _compacting_index()
        record = {"id": 1, "name": "Ann", "tags": ["a", "b"], "profile": {"followers": 10}}
        _insert(index, encoder, record)
        index.flush()
        entry = index.components[0].search(1)
        assert is_compacted(entry.value)
        assert len(entry.value) < len(encoder.encode(record))
        decoded = VectorRecordView(entry.value, compactor.datatype, compactor.schema.dictionary).materialize()
        assert deep_equals(decoded, record)

    def test_memtable_records_stay_uncompacted(self):
        index, compactor, encoder = _compacting_index()
        _insert(index, encoder, {"id": 1, "name": "Ann"})
        result = index.search(1)
        assert result.schema is None  # a memtable hit
        assert not is_compacted(result.payload)

    def test_schema_persisted_in_metadata(self):
        index, compactor, encoder = _compacting_index()
        _insert(index, encoder, {"id": 1, "name": "Ann", "age": 30})
        index.flush()
        metadata = index.components[0].metadata
        restored = InferredSchema.from_bytes(metadata.schema_bytes, compactor.datatype)
        assert restored.field_name_id("name") is not None
        assert restored.structurally_equal(compactor.schema)

    def test_merge_keeps_most_recent_schema(self):
        index, compactor, encoder = _compacting_index()
        _insert(index, encoder, {"id": 0, "name": "Kim", "age": 26})
        index.flush()
        _insert(index, encoder, {"id": 3, "name": "Bob", "age": "old", "extra": True})
        index.flush()
        newest_schema = index.components[0].schema
        merged = index.merge(list(index.components))
        assert merged.schema is newest_schema
        restored = InferredSchema.from_bytes(merged.metadata.schema_bytes, compactor.datatype)
        assert restored.structurally_equal(newest_schema)

    def test_flush_counts_tracked(self):
        index, compactor, encoder = _compacting_index()
        for key in range(4):
            _insert(index, encoder, {"id": key, "name": f"user{key}"})
        index.flush()
        assert compactor.flush_count == 1
        assert compactor.records_compacted == 4
        assert compactor.bytes_saved > 0


class TestDeleteAndUpsertMaintenance:
    def test_delete_decrements_schema(self):
        """Figure 10 -> Figure 11: deleting the only rich record prunes the schema."""
        index, compactor, encoder = _compacting_index()
        rich = {"id": 1, "name": "Ann", "dependents": [{"name": "Bob", "age": 6}],
                "branch": "HQ"}
        _insert(index, encoder, rich)
        for key in range(2, 7):
            _insert(index, encoder, {"id": key, "name": f"user{key}"})
        index.flush()
        assert compactor.schema.field_count == 3  # name, dependents, branch

        index.delete(1)
        index.flush()
        assert compactor.schema.field_count == 1
        assert compactor.schema.field_name_id("name") is not None
        remaining = compactor.schema.root.child(compactor.schema.field_name_id("name"))
        assert remaining.counter == 5

    def test_union_collapses_after_deleting_heterogeneous_record(self):
        index, compactor, encoder = _compacting_index()
        _insert(index, encoder, {"id": 0, "name": "Kim", "age": 26})
        _insert(index, encoder, {"id": 3, "name": "Bob", "age": "old"})
        index.flush()
        age = compactor.schema.root.child(compactor.schema.field_name_id("age"))
        assert age.tag is TypeTag.UNION
        index.delete(3)
        index.flush()
        age = compactor.schema.root.child(compactor.schema.field_name_id("age"))
        assert age.tag is TypeTag.INT64

    def test_upsert_carries_antischema_of_old_version(self):
        index, compactor, encoder = _compacting_index()
        _insert(index, encoder, {"id": 1, "name": "Ann", "old_field": 1})
        index.flush()
        assert compactor.schema.field_name_id("old_field") is not None
        _upsert(index, encoder, {"id": 1, "name": "Ann", "new_field": "x"})
        index.flush()
        root = compactor.schema.root
        assert root.child(compactor.schema.field_name_id("old_field")) is None
        assert compactor.schema.field_name_id("new_field") is not None

    def test_upsert_of_new_key_needs_no_decrement(self):
        index, compactor, encoder = _compacting_index()
        _upsert(index, encoder, {"id": 10, "name": "New"})
        index.flush()
        assert compactor.schema.root.counter == 1

    def test_delete_of_memtable_only_record(self):
        """Insert+delete inside one memtable never touches the schema."""
        index, compactor, encoder = _compacting_index()
        _insert(index, encoder, {"id": 1, "name": "Ann", "only_here": True})
        index.delete(1)
        index.flush()
        assert compactor.schema.field_name_id("only_here") is None
        assert index.search(1) is None

    @pytest.mark.parametrize("write", ["insert", "upsert"])
    def test_rewrite_after_delete_in_one_memtable_still_decrements(self, write):
        """The delete's anti-schema survives the write that replaces it."""
        dataset = Dataset.create("redo", StorageFormat.INFERRED)
        dataset.insert({"id": 0, "gone": 1})
        dataset.flush_all()
        dataset.delete(0)
        getattr(dataset, write)({"id": 0, "kept": "x"})
        dataset.flush_all()
        schema = dataset.partitions[0].compactor.schema
        assert schema.root.child(schema.field_name_id("gone")) is None

    @pytest.mark.parametrize("storage_format", (StorageFormat.OPEN, StorageFormat.INFERRED),
                             ids=["open", "inferred"])
    def test_mutating_an_inserted_dict_does_not_wedge_flushes(self, storage_format):
        """A sealed version's anti-schema is read off the bytes the schema
        observes, not off the dict the caller has since changed."""
        dataset = Dataset.create("mutated", storage_format)
        record = {"id": 1, "v": 5}
        dataset.insert(record)
        index = dataset.partitions[0].index
        with index._rotation_cond:
            index._seal()
        record["v"] = "x"
        dataset.upsert({"id": 1, "v": 6})
        dataset.flush_all()
        dataset.insert({"id": 2, "v": 7})
        dataset.flush_all()
        assert dataset.get(1) == {"id": 1, "v": 6}
        if storage_format is StorageFormat.INFERRED:
            schema = dataset.partitions[0].compactor.schema
            v = schema.root.child(schema.field_name_id("v"))
            assert (v.tag, v.counter) == (TypeTag.INT64, 2)
        dataset.close()

    def test_key_hash_fence_limits_lookups_for_fresh_keys(self):
        index, compactor, encoder = _compacting_index()
        for key in range(20):
            _insert(index, encoder, {"id": key, "name": f"u{key}"})
        index.flush()
        before = index.stats.maintenance_point_lookups
        _upsert(index, encoder, {"id": 1000, "name": "fresh"})
        assert index.stats.maintenance_point_lookups == before  # the fence said "absent"
        _upsert(index, encoder, {"id": 3, "name": "existing"})
        assert index.stats.maintenance_point_lookups == before + 1


    def test_uuid_field_survives_upsert_and_delete(self):
        """A fixed-length scalar without a cheap placeholder keeps its type on
        both sides: inferred from the tag byte, removed through the skeleton."""
        dataset = Dataset.create("u", StorageFormat.INFERRED)
        dataset.insert({"id": 1, "u": uuid.uuid4()})
        dataset.flush_all()
        schema = dataset.partitions[0].compactor.schema
        assert schema.root.child(schema.field_name_id("u")).tag is TypeTag.UUID
        replacement = uuid.uuid4()
        dataset.upsert({"id": 1, "u": replacement})  # old version: disk lookup -> skeleton
        dataset.flush_all()
        assert dataset.get(1) == {"id": 1, "u": replacement}
        dataset.delete(1)
        dataset.flush_all()
        schema = dataset.partitions[0].compactor.schema
        assert schema.root.counter == 0 and not schema.root.fields
        dataset.close()


def _stored(dataset):
    """Every component's schema blob and record payloads, newest component first."""
    return [[(component.metadata.schema_bytes,
              [(entry.key, entry.value) for entry in component.scan()])
             for component in partition.index.components]
            for partition in dataset.partitions]


class TestOnePassEverywhere:
    """Flush, flush-retry and bulk load run the same fused pass."""

    def test_failed_then_retried_flush_equals_an_unfailed_one(self):
        """The bytes->id memo is rolled back with the dictionary: the retry
        replays the sealed memtable against the restored (empty) dictionary and
        must give every name an id again, not reuse the failed attempt's."""
        first = {"id": 5, "zeta": 1, "alpha": {"beta": 2.5, "zeta": [None]}}
        second = {"id": 1, "gamma": "x", "zeta": "now a string", "alpha": 7}
        clean = Dataset.create("clean", StorageFormat.INFERRED)
        retried = Dataset.create("retried", StorageFormat.INFERRED)
        try:
            clean.insert(first)
            retried.insert(first)
            get_injector().add_rule("device.write", nth=1, times=1)
            with pytest.raises(TransientIOError):
                retried.partitions[0].index.flush()  # every record transformed, then the write fails
            assert len(retried.partitions[0].compactor.schema.dictionary) == 0
            clean.flush_all()
            for dataset in (clean, retried):
                dataset.insert(second)
                dataset.flush_all()  # retried: the memtable the failed flush sealed, then ``second``
            assert _stored(retried) == _stored(clean)
            assert (list(retried.partitions[0].compactor.schema.dictionary.items())
                    == list(clean.partitions[0].compactor.schema.dictionary.items()))
            assert retried.get(5) == first and retried.get(1) == second
        finally:
            get_injector().clear()
            clean.close()
            retried.close()

    def test_failed_then_retried_bulk_load_equals_a_clean_one(self):
        """A load is a flush of a never-logged memtable: a mid-write fault rolls
        the compactor back and deletes the partial file, so the retry infers
        every field once and the lifecycle counters agree with each other."""
        records = list(twitter.generate(60))
        clean_env, retried_env = (StorageEnvironment(metrics=MetricsRegistry())
                                  for _ in range(2))
        clean = Dataset.create("load", StorageFormat.INFERRED, environment=clean_env)
        retried = Dataset.create("load", StorageFormat.INFERRED, environment=retried_env)
        try:
            clean.bulk_load(records)
            get_injector().add_rule("file.write_page", nth=1, times=1)
            with pytest.raises(TransientIOError):
                retried.bulk_load(records)
            assert retried_env.file_manager.list_files() == []
            retried.bulk_load(records)
            clean_compactor, compactor = (dataset.partitions[0].compactor
                                          for dataset in (clean, retried))
            assert compactor.schema.describe() == clean_compactor.schema.describe()
            assert compactor.schema.to_bytes() == clean_compactor.schema.to_bytes()
            assert compactor.flush_count == clean_compactor.flush_count == 1
            assert retried_env.file_manager.list_files() == clean_env.file_manager.list_files()
            assert _stored(retried) == _stored(clean)
            assert retried.storage_size() == clean.storage_size()
            flushes = retried.partitions[0].index.stats.flushes
            assert flushes == 1
            assert retried_env.metrics.counter("lsm_flushes").value == flushes
            assert sorted(row["id"] for row in retried.scan()) == sorted(
                record["id"] for record in records)
        finally:
            get_injector().clear()
            clean.close()
            retried.close()

    def test_bulk_load_equals_insert_and_flush(self):
        records = list(twitter.generate(80))
        loaded = Dataset.create("loaded", StorageFormat.INFERRED)
        flushed = Dataset.create("flushed", StorageFormat.INFERRED)
        loaded.bulk_load(records)
        flushed.insert_all(records)
        flushed.flush_all()
        assert _stored(loaded) == _stored(flushed)
        compactor = loaded.partitions[0].compactor
        assert compactor.records_compacted == len(records) and compactor.bytes_saved > 0
        loaded.close()
        flushed.close()

    def test_flushed_payloads_equal_the_three_walk_reference(self):
        index, compactor, encoder = _compacting_index()
        reference = InferredSchema(compactor.datatype)
        records = sorted(twitter.generate(40), key=lambda record: record["id"])
        for record in records:
            _insert(index, encoder, record)
        index.flush()
        for record in records:
            payload = encoder.encode(record)
            reference.observe(VectorRecordView(payload, compactor.datatype).structure())
            assert index.components[0].search(record["id"]).value == compact_record(
                payload, reference.dictionary)
        assert index.components[0].metadata.schema_bytes == reference.to_bytes()

    def test_transform_infers_compacts_and_counts_the_bytes_saved(self):
        datatype = open_only_primary_key("EmployeeType")
        compacting, reference = TupleCompactor(datatype), InferredSchema(datatype)
        payload = VectorEncoder(datatype).encode({"id": 1, "name": "Ann", "tags": ["a", {"b": 1}]})
        compacted = compacting.transform_record(1, payload)
        reference.observe(VectorRecordView(payload, datatype).structure())
        assert compacted == compact_record(payload, reference.dictionary)
        assert is_compacted(compacted)
        assert compacting.schema.to_bytes() == reference.to_bytes()
        assert compacting.records_compacted == 1
        assert compacting.bytes_saved == len(payload) - len(compacted) > 0


def _walked_flushes(datatype, batches):
    """What walking every record of each flushed batch, in key order, leaves:
    the schema and each key's compacted payload."""
    walked, encoder, stored = WalkedSchema(datatype), VectorEncoder(datatype), {}
    for batch in batches:
        for record in sorted(batch, key=lambda record: record["id"]):
            stored[record["id"]] = infer_and_compact(encoder.encode(record), walked)
    return walked, stored


class TestFlushPlansInTheEngine:
    """The live schema of a partition keeps flush-time plans across flushes;
    a rolled-back flush and a recovered partition start with none.  Either
    way the partition ends where walking every record ends."""

    @pytest.mark.parametrize("point", ["device.write", "file.write_page"])
    def test_a_failed_then_retried_flush_equals_a_clean_one_and_the_walk(self, point,
                                                                         isolated_injector):
        records = list(twitter.generate(90))
        batches = [records[:30], records[30:60], records[60:]]
        clean, clean_compactor, encoder = _compacting_index()
        retried, compactor, _ = _compacting_index()
        for number, batch in enumerate(batches):
            for index in (clean, retried):
                for record in batch:
                    _insert(index, encoder, record)
            clean.flush()
            if number == 1:  # folds every record in, replaying plans, then the write fails
                isolated_injector.add_rule(point, nth=1, times=1)
                with pytest.raises(TransientIOError):
                    retried.flush()
                assert compactor.schema.version == 30 and not compactor.schema.plans
            retried.flush()
        walked, stored = _walked_flushes(compactor.datatype, batches)
        for schema in (compactor.schema, clean_compactor.schema):
            assert_same_schema(schema, walked)
            assert schema.plans
        for key, payload in stored.items():
            assert retried.search(key).payload == clean.search(key).payload == payload

    def test_a_recovered_partition_folds_records_in_as_the_walk_does(self):
        from repro.lsm import recover_index

        records = list(twitter.generate(90))
        batches = [records[:30], records[30:60], records[60:]]
        crashed, compactor, encoder = _compacting_index()
        control, control_compactor, _ = _compacting_index()
        for batch in batches[:2]:
            for index in (crashed, control):
                for record in batch:
                    _insert(index, encoder, record)
                index.flush()
        assert compactor.schema.plans
        recovered_compactor = TupleCompactor(compactor.datatype)
        recovered = LSMBTree("emp", 0, crashed.buffer_cache, 1 << 20, NoMergePolicy(),
                             recovered_compactor)
        assert recover_index(recovered, datatype=compactor.datatype).schema_loaded
        assert not recovered_compactor.schema.plans
        for index in (recovered, control):
            for record in batches[2]:
                _insert(index, encoder, record)
            index.flush()
        walked, stored = _walked_flushes(compactor.datatype, batches)
        for schema in (recovered_compactor.schema, control_compactor.schema):
            assert_same_schema(schema, walked)
        assert recovered_compactor.schema.plans
        for key, payload in stored.items():
            assert recovered.search(key).payload == control.search(key).payload == payload


class TestCompactorRecovery:
    def test_schema_reloaded_from_newest_valid_component(self):
        from repro.lsm import recover_index

        device = SimulatedStorageDevice()
        cache = BufferCache(FileManager(device, 2048), 512)
        datatype = open_only_primary_key("EmployeeType")
        encoder = VectorEncoder(datatype)

        compactor = TupleCompactor(datatype)
        index = LSMBTree("emp", 0, cache, 1 << 20, NoMergePolicy(), compactor)
        index.insert(0, encoder.encode({"id": 0, "name": "Kim"}))
        index.flush()
        index.insert(1, encoder.encode({"id": 1, "name": "Ann", "age": 5}))
        index.flush()

        fresh_compactor = TupleCompactor(datatype)
        fresh = LSMBTree("emp", 0, cache, 1 << 20, NoMergePolicy(), fresh_compactor)
        report = recover_index(fresh, datatype=datatype)
        assert report.schema_loaded
        assert fresh_compactor.schema.field_name_id("age") is not None
        assert fresh_compactor.schema.field_name_id("name") is not None
        # recovered index can still decode its compacted records
        entry = fresh.search(1)
        decoded = VectorRecordView(entry.payload, datatype, fresh_compactor.schema.dictionary).materialize()
        assert decoded["age"] == 5

    def test_later_flushes_grow_a_copy_of_the_recovered_schema(self):
        """Recovery adopts a copy of the newest component's schema: flushes
        after it grow the partition's schema and leave the component's own
        as its metadata page has it.  The copy's dictionary stays in the
        component's family, so extraction plans serve both."""
        from repro.lsm import recover_index

        index, compactor, encoder = _compacting_index()
        _insert(index, encoder, {"id": 0, "a": 1})
        index.flush()
        fresh_compactor = TupleCompactor(compactor.datatype)
        fresh = LSMBTree("emp", 0, index.buffer_cache, 1 << 20, NoMergePolicy(), fresh_compactor)
        recover_index(fresh, datatype=compactor.datatype)
        (component,) = fresh.components
        assert fresh_compactor.schema is not component.schema
        assert fresh_compactor.schema.dictionary.family is component.schema.dictionary.family
        _insert(fresh, encoder, {"id": 1, "b": "x"})
        fresh.flush()
        assert component.schema.field_count == 1
        assert component.schema.to_bytes() == component.metadata.schema_bytes
        assert fresh_compactor.schema.field_count == 2
