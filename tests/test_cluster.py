"""Tests for the cluster simulator and data feeds."""

import pytest

from repro.cluster import ClusterSimulator, DataFeed
from repro.config import ClusterConfig, StorageConfig, StorageFormat
from repro.datasets import twitter
from repro.errors import ClusterError, FeedError
from repro import Dataset


def _cluster(nodes=2, partitions=2, compression=None):
    return ClusterSimulator(
        ClusterConfig(node_count=nodes, partitions_per_node=partitions),
        StorageConfig(page_size=4096, buffer_cache_pages=512, compression=compression),
    )


class TestClusterSimulator:
    def test_topology(self):
        cluster = _cluster(nodes=3, partitions=2)
        assert len(cluster.nodes) == 3
        assert cluster.total_partitions() == 6

    def test_create_dataset_spreads_partitions(self):
        cluster = _cluster(nodes=2, partitions=2)
        dataset = cluster.create_dataset("tweets", StorageFormat.INFERRED)
        assert dataset.partition_count == 4
        assert cluster.dataset("tweets") is dataset

    def test_duplicate_dataset_rejected(self):
        cluster = _cluster()
        cluster.create_dataset("tweets")
        with pytest.raises(ClusterError):
            cluster.create_dataset("tweets")

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ClusterError):
            _cluster().dataset("nope")

    def test_ingest_and_query_across_nodes(self):
        cluster = _cluster(nodes=2, partitions=2)
        dataset = cluster.create_dataset("tweets", StorageFormat.INFERRED)
        records = list(twitter.generate(200))
        dataset.insert_all(records)
        dataset.flush_all()
        assert all(size > 0 for size in cluster.per_node_storage_sizes())
        report = cluster.execute("tweets", twitter.SQLPP["Q1"], parallelism=4)
        assert report.result.rows[0]["count"] == 200
        assert report.parallelism == 4
        assert report.measured_wall_seconds > 0
        # Timings are now *measured* from a real worker-pool run.  A tiny
        # dataset leaves no room for speedup (pool spin-up dominates), so
        # only assert coherence: wall time may exceed the sequential
        # equivalent by scheduling overhead alone (generous slack).
        assert report.measured_wall_seconds <= report.sequential_seconds + 0.25
        assert report.measured_speedup == pytest.approx(
            report.result.stats.measured_speedup)
        assert len(report.result.stats.per_partition) == 4

    def test_parallelism_one_matches_fanout_rows(self):
        cluster = _cluster(nodes=2, partitions=2)
        dataset = cluster.create_dataset("tweets", StorageFormat.INFERRED)
        dataset.insert_all(twitter.generate(200))
        dataset.flush_all()
        sequential = cluster.execute("tweets", twitter.SQLPP["Q3"], parallelism=1)
        parallel = cluster.execute("tweets", twitter.SQLPP["Q3"], parallelism=4)
        assert sequential.result.rows == parallel.result.rows
        assert sequential.parallelism == 1
        assert parallel.parallelism == 4

    def test_repartitioning_query_broadcasts_schemas(self):
        cluster = _cluster(nodes=2, partitions=2)
        dataset = cluster.create_dataset("tweets", StorageFormat.INFERRED)
        dataset.insert_all(twitter.generate(150))
        dataset.flush_all()
        report = cluster.execute("tweets", twitter.SQLPP["Q2"])
        assert report.schema_broadcast_bytes > 0

    def test_storage_scales_with_nodes(self):
        """Scale-out shape: double the nodes + double the data => ~double storage."""
        sizes = {}
        for nodes in (1, 2):
            cluster = _cluster(nodes=nodes, partitions=1)
            dataset = cluster.create_dataset("tweets", StorageFormat.INFERRED)
            dataset.insert_all(twitter.generate(150 * nodes))
            dataset.flush_all()
            sizes[nodes] = cluster.total_storage_size()
        ratio = sizes[2] / sizes[1]
        assert 1.5 < ratio < 2.5


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
        dataset = Dataset.create("feed_log", StorageFormat.OPEN)
        feed = DataFeed(dataset)
        report = feed.run(twitter.generate(50))
        assert report.log_bytes_written > 0
