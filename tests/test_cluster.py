"""Tests for a dataset spread over several storage environments (the
multi-node topology of paper Figure 3) and for data feeds."""

import pytest

from repro.cluster import DataFeed
from repro.config import DatasetConfig, StorageConfig, StorageFormat
from repro.core import StorageEnvironment
from repro.datasets import twitter
from repro.errors import DatasetError, FeedError
from repro.query import QueryExecutor
from repro import Dataset


def _multi_node(nodes=2, partitions=2):
    """An inferred ``tweets`` dataset with ``partitions`` partitions on each
    of ``nodes`` environments."""
    storage = StorageConfig(page_size=4096, buffer_cache_pages=512)
    environments = [StorageEnvironment(storage) for _ in range(nodes)]
    config = DatasetConfig(name="tweets", storage_format=StorageFormat.INFERRED)
    return Dataset(config, environments, partitions_per_environment=partitions)


def _loaded(count, nodes=2, partitions=2):
    dataset = _multi_node(nodes, partitions)
    dataset.insert_all(twitter.generate(count))
    dataset.flush_all()
    return dataset


class TestMultiNodeDataset:
    def test_partitions_spread_over_environments(self):
        dataset = _multi_node(nodes=3, partitions=2)
        assert dataset.partition_count == 6
        assert [dataset.environments.index(partition.environment)
                for partition in dataset.partitions] == [0, 0, 1, 1, 2, 2]
        assert [partition.partition_id for partition in dataset.partitions] == list(range(6))

    def test_topology_needs_environments_and_partitions(self):
        config = DatasetConfig(name="tweets")
        with pytest.raises(DatasetError, match="at least one storage environment"):
            Dataset(config, [])
        with pytest.raises(DatasetError, match="partitions_per_environment must be at least 1"):
            Dataset(config, [StorageEnvironment()], partitions_per_environment=0)

    @pytest.mark.parametrize("query", sorted(twitter.SQLPP))
    def test_rows_match_one_environment(self, query):
        """Four partitions answer alike whether they sit on one environment
        or two: which node hosts a partition never changes a row."""
        spread = _loaded(200, nodes=2, partitions=2)
        single = _loaded(200, nodes=1, partitions=4)
        assert spread.query(twitter.SQLPP[query]).rows == single.query(twitter.SQLPP[query]).rows

    def test_point_operations_route_across_environments(self):
        dataset = _loaded(60, nodes=3, partitions=1)
        for key in range(60):
            assert dataset.get(key)["id"] == key
        dataset.delete(7)
        dataset.upsert(dict(dataset.get(8), lang="xx"))
        assert dataset.get(7) is None
        assert dataset.get(8)["lang"] == "xx"
        assert dataset.count() == 59

    def test_ingest_and_query_across_environments(self):
        dataset = _loaded(200)
        assert all(environment.storage_size() > 0 for environment in dataset.environments)
        result = dataset.query(twitter.SQLPP["Q1"], executor=QueryExecutor(parallelism=4))
        assert result.rows[0]["count"] == 200
        stats = result.stats
        assert stats.parallelism == 4
        assert stats.wall_seconds > 0
        # A tiny dataset leaves no room for speedup (pool spin-up dominates),
        # so only assert coherence: wall time may exceed the sequential
        # equivalent by scheduling overhead alone (generous slack).
        assert stats.wall_seconds <= stats.sequential_equivalent_seconds + 0.25
        assert len(stats.per_partition) == 4

    def test_parallelism_one_matches_fanout_rows(self):
        dataset = _loaded(200)
        sequential = dataset.query(twitter.SQLPP["Q3"], executor=QueryExecutor(parallelism=1))
        parallel = dataset.query(twitter.SQLPP["Q3"], executor=QueryExecutor(parallelism=4))
        assert sequential.rows == parallel.rows
        assert sequential.stats.parallelism == 1
        assert parallel.stats.parallelism == 4

    def test_repartitioning_query_broadcasts_schemas(self):
        assert _loaded(150).query(twitter.SQLPP["Q2"]).stats.schema_broadcast_bytes > 0

    def test_storage_scales_with_environments(self):
        """Scale-out shape: double the environments + double the data =>
        ~double storage."""
        sizes = {}
        for nodes in (1, 2):
            dataset = _loaded(150 * nodes, nodes=nodes, partitions=1)
            sizes[nodes] = sum(environment.storage_size()
                               for environment in dataset.environments)
        assert 1.5 < sizes[2] / sizes[1] < 2.5


class TestDataFeed:
    def test_insert_only_feed(self):
        dataset = Dataset.create("feed_tweets", StorageFormat.INFERRED)
        feed = DataFeed(dataset)
        report = feed.run(twitter.generate(120))
        feed.close()
        assert report.inserts == 120
        assert report.updates == 0
        assert report.records_ingested == 120
        assert report.total_seconds > 0
        assert dataset.count() == 120

    def test_update_feed_requires_generator(self):
        dataset = Dataset.create("feed_bad", StorageFormat.INFERRED)
        with pytest.raises(FeedError):
            DataFeed(dataset, update_ratio=0.5)

    def test_update_feed_issues_upserts(self):
        dataset = Dataset.create("feed_upd", StorageFormat.INFERRED)
        feed = DataFeed(dataset, update_ratio=0.5, update_generator=twitter.generate_update)
        report = feed.run(twitter.generate(200))
        feed.close()
        assert report.inserts == 200
        assert 40 <= report.updates <= 160  # ~50% on average
        assert dataset.count() == 200  # updates never add new keys
        stats = dataset.ingest_stats()
        assert stats["upserts"] == report.updates

    def test_feed_cannot_run_after_close(self):
        dataset = Dataset.create("feed_closed", StorageFormat.INFERRED)
        feed = DataFeed(dataset)
        feed.run(twitter.generate(5))
        feed.close()
        with pytest.raises(FeedError):
            feed.run(twitter.generate(5))

    def test_bad_update_ratio_rejected(self):
        dataset = Dataset.create("feed_ratio", StorageFormat.INFERRED)
        with pytest.raises(FeedError):
            DataFeed(dataset, update_ratio=1.5, update_generator=twitter.generate_update)

    def test_log_bytes_accounted(self):
        """Each run reports the log bytes it wrote, not the device's running
        total: back-to-back runs on one dataset stay within their own data
        bytes."""
        dataset = Dataset.create("feed_log", StorageFormat.OPEN)
        feed = DataFeed(dataset)
        device = dataset.environments[0].device
        logged = 0
        for start_id in (0, 100):
            report = feed.run(twitter.generate(100, start_id=start_id))
            assert 0 < report.log_bytes_written <= report.data_bytes_written
            assert report.log_bytes_written == device.per_class["log"].bytes_written - logged
            logged = device.per_class["log"].bytes_written

    def test_log_bytes_summed_over_environments(self):
        """A feed into a dataset on several environments reports the log
        bytes every environment's device wrote."""
        dataset = _multi_node(nodes=2, partitions=1)
        report = DataFeed(dataset).run(twitter.generate(100))
        logged = [environment.device.per_class["log"].bytes_written
                  for environment in dataset.environments]
        assert all(logged)
        assert report.log_bytes_written == sum(logged)
