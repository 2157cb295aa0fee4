"""Integration tests for the Dataset/Partition public API."""

import pytest

from repro import Dataset, DeviceKind, StorageEnvironment, StorageFormat
from repro.config import DatasetConfig, LSMConfig, StorageConfig
from repro.core.dataset import hash_partition
from repro.errors import (ComponentStateError, DatasetError, EncodingError, KeyNotFoundError,
                          RecordTooLargeError, SchemaViolationError)
from repro.types import Datatype, FieldDeclaration, TypeTag, deep_equals
from repro.vector.layout import MAX_NESTING_DEPTH

RECORDS = [
    {"id": i, "name": f"user{i}", "age": 20 + i % 50,
     "tags": [f"t{i % 3}", f"t{i % 5}"],
     "profile": {"followers": i * 7, "verified": i % 10 == 0}}
    for i in range(200)
]


def _dataset(storage_format, compression=None, partitions=1, **overrides):
    environment = StorageEnvironment.for_device(DeviceKind.NVME_SSD, compression=compression,
                                                page_size=4096, buffer_cache_pages=512)
    return Dataset.create("users", storage_format, environment=environment,
                          partitions=partitions, **overrides)


class TestHashPartitioning:
    def test_deterministic(self):
        assert hash_partition(42, 4) == hash_partition(42, 4)
        assert hash_partition("abc", 8) == hash_partition("abc", 8)

    def test_within_range_and_spread(self):
        assignments = {hash_partition(key, 6) for key in range(1000)}
        assert assignments == set(range(6))


@pytest.mark.parametrize("storage_format", [StorageFormat.OPEN, StorageFormat.CLOSED,
                                            StorageFormat.INFERRED, StorageFormat.SL_VB])
class TestRoundTripAllFormats:
    def test_insert_flush_get(self, storage_format):
        if storage_format is StorageFormat.CLOSED:
            from repro.types import Datatype

            datatype = Datatype.from_example("UserType", RECORDS[0], primary_key="id")
            dataset = Dataset.create("users", storage_format, datatype=datatype)
        else:
            dataset = _dataset(storage_format)
        dataset.insert_all(RECORDS)
        dataset.flush_all()
        for probe in (0, 57, 199):
            assert deep_equals(dataset.get(probe), RECORDS[probe])
        assert dataset.get(5000) is None
        assert dataset.count() == len(RECORDS)

    def test_scan_returns_all_records(self, storage_format):
        dataset = _dataset(storage_format) if storage_format is not StorageFormat.CLOSED else None
        if dataset is None:
            pytest.skip("covered by insert_flush_get")
        dataset.insert_all(RECORDS)
        dataset.flush_all()
        scanned = {record["id"] for record in dataset.scan()}
        assert scanned == {record["id"] for record in RECORDS}


class TestDatasetBehaviour:
    def test_storage_size_ordering_matches_paper(self):
        """open > sl-vb ~ closed > inferred on nested, name-heavy records."""
        sizes = {}
        for storage_format in (StorageFormat.OPEN, StorageFormat.INFERRED, StorageFormat.SL_VB):
            dataset = _dataset(storage_format)
            dataset.insert_all(RECORDS)
            dataset.flush_all()
            sizes[storage_format] = dataset.storage_size()
        assert sizes[StorageFormat.INFERRED] < sizes[StorageFormat.SL_VB] < sizes[StorageFormat.OPEN]

    def test_compression_reduces_size(self):
        plain = _dataset(StorageFormat.OPEN)
        compressed = _dataset(StorageFormat.OPEN, compression="snappy")
        for dataset in (plain, compressed):
            dataset.insert_all(RECORDS)
            dataset.flush_all()
        assert compressed.storage_size() < plain.storage_size()

    def test_upsert_and_delete(self):
        dataset = _dataset(StorageFormat.INFERRED)
        dataset.insert_all(RECORDS[:50])
        dataset.flush_all()
        dataset.upsert({"id": 10, "name": "changed", "brand_new_field": 1})
        dataset.delete(11)
        dataset.flush_all()
        assert dataset.get(10)["name"] == "changed"
        assert dataset.get(11) is None
        assert dataset.count() == 49

    def test_multi_partition_distribution(self):
        dataset = _dataset(StorageFormat.INFERRED, partitions=4)
        dataset.insert_all(RECORDS)
        dataset.flush_all()
        per_partition = [partition.record_count() for partition in dataset.partitions]
        assert sum(per_partition) == len(RECORDS)
        assert all(count > 0 for count in per_partition)
        # per-partition schemas were inferred independently yet look alike
        schemas = dataset.schemas()
        assert all(schema is not None for schema in schemas.values())

    def test_bare_constructor_syncs_environment_storage_config(self):
        """Regression: Dataset(config, envs) — not just Dataset.create — must
        carry the environment's StorageConfig into dataset.config.storage, or
        the access-path cost model prices against the wrong device profile
        and page size."""
        environment = StorageEnvironment(StorageConfig(
            page_size=4096, device_kind=DeviceKind.SATA_SSD))
        dataset = Dataset(DatasetConfig(name="bare"), [environment])
        assert dataset.config.storage is environment.config
        assert dataset.config.storage.device_kind is DeviceKind.SATA_SSD
        assert dataset.config.storage.page_size == 4096
        # Dataset.create keeps doing the same thing.
        created = Dataset.create("created", environment=StorageEnvironment(
            StorageConfig(page_size=8192)))
        assert created.config.storage.page_size == 8192

    def test_bulk_load(self):
        dataset = _dataset(StorageFormat.INFERRED, partitions=2)
        dataset.bulk_load(RECORDS)
        assert dataset.count() == len(RECORDS)
        for partition in dataset.partitions:
            assert partition.index.component_count() == 1
        assert deep_equals(dataset.get(123), RECORDS[123])

    def test_missing_primary_key_rejected(self):
        dataset = _dataset(StorageFormat.OPEN)
        with pytest.raises(DatasetError):
            dataset.insert({"name": "no key"})

    def test_describe_schema(self):
        dataset = _dataset(StorageFormat.INFERRED)
        dataset.insert_all(RECORDS[:20])
        dataset.flush_all()
        text = dataset.describe_schema()
        assert "name" in text and "profile" in text
        open_dataset = _dataset(StorageFormat.OPEN)
        assert "disabled" in open_dataset.describe_schema()

    def test_ingest_stats(self):
        dataset = _dataset(StorageFormat.INFERRED)
        dataset.insert_all(RECORDS[:30])
        dataset.flush_all()
        dataset.upsert(dict(RECORDS[0], name="x"))
        stats = dataset.ingest_stats()
        assert stats["inserts"] == 30
        assert stats["upserts"] == 1
        assert stats["flushes"] >= 1

    def test_secondary_index_range_search(self):
        dataset = _dataset(StorageFormat.INFERRED)
        dataset.create_index("by_age", ("age",))
        dataset.insert_all(RECORDS)
        dataset.flush_all()
        expected = {record["id"] for record in RECORDS if 30 <= record["age"] <= 35}
        assert _probed_ids(dataset, "t.age >= 30 AND t.age <= 35") == expected

    def test_secondary_index_on_open_dataset(self):
        dataset = _dataset(StorageFormat.OPEN)
        dataset.create_index("by_followers", ("profile", "followers"))
        dataset.insert_all(RECORDS[:100])
        dataset.flush_all()
        assert _probed_ids(dataset, "t.profile.followers >= 0 AND t.profile.followers <= 70") \
            == set(range(11))

    @pytest.mark.parametrize("storage_format", [StorageFormat.INFERRED, StorageFormat.OPEN])
    def test_rejected_duplicate_index_leaves_the_original_answering(self, storage_format):
        # The probe reads the field the *registered* definition names; a
        # rejected CREATE INDEX of the same name over another field (before
        # and after data exists, so the backfill path is covered too) must
        # not change that.
        dataset = _dataset(storage_format)
        dataset.create_index("ix", ("age",))
        with pytest.raises(ComponentStateError, match="already exists"):
            dataset.create_index("ix", ("profile", "followers"))
        dataset.insert_all(RECORDS)
        dataset.flush_all()
        expected = {record["id"] for record in RECORDS if 30 <= record["age"] <= 35}
        assert _probed_ids(dataset, "t.age >= 30 AND t.age <= 35") == expected
        with pytest.raises(ComponentStateError, match="already exists"):
            dataset.create_index("ix", ("profile", "followers"))
        assert dataset.list_secondary_indexes() == [("ix", ("age",))]
        assert _probed_ids(dataset, "t.age >= 30 AND t.age <= 35") == expected

    def test_range_search_of_unknown_index_raises(self):
        dataset = _dataset(StorageFormat.INFERRED)
        dataset.insert(RECORDS[0])  # a memtable record must not be swept first
        with pytest.raises(KeyNotFoundError):
            list(dataset.partitions[0].probe_views("nope", 0, 1))


def _probed_ids(dataset, predicate):
    """The ids an index probe returns for ``predicate``, asserted to be an
    index probe's and to equal the scan's."""
    text = f"SELECT VALUE t.id FROM users AS t WHERE {predicate}"
    via_index = dataset.query(text, access_path="index")
    assert via_index.stats.access_path == "IndexProbe"
    assert via_index.rows == dataset.query(text, access_path="scan").rows
    return {row["value"] for row in via_index.rows}


@pytest.mark.parametrize("storage_format", [StorageFormat.OPEN, StorageFormat.INFERRED])
def test_record_larger_than_a_page_is_refused_on_arrival(storage_format):
    """An oversized record used to be accepted and then fail every flush of
    its memtable, which is re-queued on failure: the partition could never
    persist another write.  It is refused before it is logged instead, on
    every write path, and the records around it flush normally."""
    environment = StorageEnvironment(StorageConfig(page_size=1024, buffer_cache_pages=64))
    dataset = Dataset.create("docs", storage_format, environment=environment)
    huge = {"id": 2, "text": "x" * 5000}
    dataset.insert({"id": 1, "text": "before"})
    logged = len(environment.wal)
    with pytest.raises(RecordTooLargeError):
        dataset.insert(huge)
    with pytest.raises(RecordTooLargeError):
        dataset.upsert(huge)
    assert len(environment.wal) == logged
    dataset.insert({"id": 3, "text": "after"})
    dataset.flush_all()
    dataset.insert({"id": 4, "text": "later"})
    dataset.flush_all()
    assert sorted(record["id"] for record in dataset.scan()) == [1, 3, 4]
    assert dataset.get(2) is None

    loaded = Dataset.create("loaded", storage_format, environment=environment)
    with pytest.raises(RecordTooLargeError):
        loaded.bulk_load([{"id": 1, "text": "fits"}, huge])
    loaded.bulk_load([{"id": 1, "text": "fits"}])
    assert loaded.count() == 1


@pytest.mark.parametrize("storage_format", [StorageFormat.OPEN, StorageFormat.INFERRED])
def test_unencodable_value_is_refused_on_arrival(storage_format):
    """An integer outside int64 (or a string that is not UTF-8) used to
    escape both encoders as a bare ``struct.error`` (``UnicodeEncodeError``),
    not a ``ReproError``; it is an ``EncodingError`` naming the value, raised
    before the record is logged."""
    environment = StorageEnvironment()
    dataset = Dataset.create("ints", storage_format, environment=environment)
    dataset.insert({"id": 1, "edges": [2**63 - 1, -2**63]})
    logged = len(environment.wal)
    for bad in ({"id": 2, "big": 2**70}, {"id": 2, "deep": {"ok": 1, "small": [0, -2**63 - 1]}}):
        culprit = str(bad.get("big", -2**63 - 1))
        with pytest.raises(EncodingError, match=f"cannot encode {culprit} as INT64"):
            dataset.insert(bad)
        with pytest.raises(EncodingError, match=culprit):
            dataset.upsert(bad)
    with pytest.raises(EncodingError, match="as UTF-8"):
        dataset.insert({"id": 2, "text": "\ud800"})
    assert len(environment.wal) == logged
    dataset.flush_all()
    assert dataset.get(1) == {"id": 1, "edges": [2**63 - 1, -2**63]}
    assert dataset.get(2) is None


@pytest.mark.parametrize("storage_format", [StorageFormat.OPEN, StorageFormat.INFERRED],
                         ids=["open", "inferred"])
def test_unencodable_delete_key_is_refused_on_arrival(storage_format):
    """A delete of a key no leaf can hold used to be logged and then fail
    every flush of its partition (a bare ``struct.error`` for an integer
    outside int64); ``True``, equal to the live key 1, also hid that record.
    The key is checked like an inserted one's, before the WAL append."""
    environment = StorageEnvironment()
    dataset = Dataset.create("keys", storage_format, environment=environment)
    dataset.insert({"id": 1, "v": "one"})
    logged = len(environment.wal)
    for bad, error in ((2**70, EncodingError), (-2**63 - 1, EncodingError),
                       (True, SchemaViolationError)):
        with pytest.raises(error):
            dataset.delete(bad)
    assert len(environment.wal) == logged
    assert dataset.get(1) == {"id": 1, "v": "one"}
    dataset.flush_all()
    dataset.insert({"id": 2, "v": "two"})
    dataset.flush_all()
    assert dataset.get(1) == {"id": 1, "v": "one"}
    assert dataset.count() == 2


@pytest.mark.parametrize("storage_format", [StorageFormat.OPEN, StorageFormat.INFERRED],
                         ids=["open", "inferred"])
def test_binary_primary_key_is_refused_on_arrival(storage_format):
    """A datatype may declare its key BINARY, but the leaf codec reads
    ``bytes`` as a secondary index key: such a record used to be logged and
    then misread once flushed.  It is an ``EncodingError`` before the WAL
    append, and the partition flushes on."""
    environment = StorageEnvironment()
    datatype = Datatype.open_type("BinaryKeyed", [FieldDeclaration("id", TypeTag.BINARY)])
    dataset = Dataset.create("binary", storage_format, environment=environment,
                             datatype=datatype)
    logged = len(environment.wal)
    for write in (dataset.insert, dataset.upsert):
        with pytest.raises(EncodingError, match="primary key"):
            write({"id": b"\x11abc", "v": 1})
    with pytest.raises(EncodingError, match="primary key"):
        dataset.delete(b"\x11abc")
    assert len(environment.wal) == logged
    dataset.flush_all()
    assert dataset.count() == 0


@pytest.mark.parametrize("flushed", [False, True], ids=["memtable", "flushed"])
@pytest.mark.parametrize("storage_format", list(StorageFormat), ids=lambda f: f.name.lower())
def test_key_of_the_wrong_declared_type(storage_format, flushed):
    """A delete of a key the declared primary-key type cannot hold used to be
    logged and then make every flush and count raise a bare ``TypeError``
    (a ``str`` among ``int`` keys); ``get`` of one raised once the data was
    flushed, and ``get(True)`` returned id 1's record.  The key is checked
    against the declaration, as an inserted record's is."""
    environment = StorageEnvironment()
    dataset = Dataset.create("keys", storage_format, environment=environment)
    dataset.insert_all({"id": key, "v": key} for key in range(6))
    if flushed:
        dataset.flush_all()
    logged = len(environment.wal)
    with pytest.raises(SchemaViolationError, match="declared field 'id' expects INT64"):
        dataset.delete("x")
    assert len(environment.wal) == logged
    assert dataset.get(1) == {"id": 1, "v": 1}  # an admitted int does not admit a bool
    for key in ("x", True, None):
        assert dataset.get(key) is None
    dataset.flush_all()
    assert dataset.count() == 6 and dataset.get(1) == {"id": 1, "v": 1}


@pytest.mark.parametrize("storage_format", [StorageFormat.OPEN, StorageFormat.INFERRED],
                         ids=["open", "inferred"])
def test_memtable_read_is_not_the_callers_dict(storage_format):
    """The memtable keeps the record's bytes, not the dict handed to insert."""
    dataset = Dataset.create("alias", storage_format)
    record = {"id": 1, "v": 5}
    dataset.insert(record)
    record["v"] = 99
    assert dataset.get(1)["v"] == 5
    assert dataset.query("SELECT VALUE t.v FROM alias AS t").rows == [{"value": 5}]


def _nested(key, depth, leaf="leaf"):
    """A record ``depth`` levels deep: the record, then arrays and objects in turn."""
    value = leaf
    for level in range(depth - 1):
        value = {"v": value} if level % 2 else [value]
    return {"id": key, "deep": value}


@pytest.mark.parametrize("storage_format", [StorageFormat.OPEN, StorageFormat.INFERRED])
def test_nesting_depth_limit(storage_format):
    """A record deeper than ``MAX_NESTING_DEPTH`` is refused before it is
    logged (it used to be accepted and then break a flush, which wedged the
    partition, or every ``SELECT *`` over it with ``RecursionError``); one at
    the limit lives through the whole lifecycle."""
    environment = StorageEnvironment()
    lsm = LSMConfig(merge_policy="none", background_maintenance=False)
    dataset = Dataset.create("deep", storage_format, environment=environment, lsm=lsm)
    dataset.insert(_nested(1, MAX_NESTING_DEPTH))
    logged = len(environment.wal)
    with pytest.raises(EncodingError, match=f"deeper than {MAX_NESTING_DEPTH} levels"):
        dataset.insert(_nested(2, MAX_NESTING_DEPTH + 1))
    with pytest.raises(EncodingError):
        dataset.upsert(_nested(1, MAX_NESTING_DEPTH + 1))
    assert len(environment.wal) == logged
    dataset.flush_all()
    dataset.insert(_nested(3, MAX_NESTING_DEPTH))
    dataset.flush_all()
    (partition,) = dataset.partitions
    partition.index.merge(partition.index.components)
    assert dataset.get(1) == _nested(1, MAX_NESTING_DEPTH)
    rows = dataset.query("SELECT * FROM deep AS t").rows
    assert sorted((row["record"] for row in rows), key=lambda record: record["id"]) == [
        _nested(1, MAX_NESTING_DEPTH), _nested(3, MAX_NESTING_DEPTH)]
    dataset.upsert(_nested(1, MAX_NESTING_DEPTH, leaf="changed"))
    dataset.delete(3)
    dataset.flush_all()
    dataset.upsert(_nested(3, MAX_NESTING_DEPTH, leaf="again"))  # not flushed: WAL only

    revived = Dataset.create("deep", storage_format, environment=environment, lsm=lsm)
    revived.partitions[0].recover()
    assert revived.get(1) == _nested(1, MAX_NESTING_DEPTH, leaf="changed")
    assert revived.get(3) == _nested(3, MAX_NESTING_DEPTH, leaf="again")
    assert revived.count() == 2


class TestCrashRecoveryEndToEnd:
    # A file is a component's auxiliary by what follows the component's own
    # name: a dataset *named* like one keeps its primary files.
    @pytest.mark.parametrize("name", ["emp", "logs.pkg", "events.ix.v2"])
    def test_partition_recovery_restores_data_and_schema(self, name):
        environment = StorageEnvironment()
        dataset = Dataset.create(name, StorageFormat.INFERRED, environment=environment)
        dataset.insert_all(RECORDS[:40])
        dataset.flush_all()
        dataset.insert_all(RECORDS[40:60])  # not flushed: lives in WAL + memtable

        # simulate a crash: rebuild the dataset object over the same environment
        revived = Dataset.create(name, StorageFormat.INFERRED, environment=environment)
        for partition in revived.partitions:
            partition.recover()
        assert revived.count() == 60
        assert all(deep_equals(revived.get(record["id"]), record) for record in RECORDS[:60])
        assert revived.describe_schema() != "<no inferred schema: tuple compactor disabled>"
