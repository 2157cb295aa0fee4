"""Parallel-vs-sequential query execution: parity, measured speedup, stress.

The executor fans partitions out over a real worker pool (PR 3).  These
tests pin down the contract that makes that safe to rely on:

* **Parity** — the same rows come back for every ``parallelism`` setting
  (identical lists, in fact: partition outputs are merged in partition-id
  order, so even unordered results are deterministic by construction);
* **Measured speedup** — with the device's latency-realism throttle turned
  on, a multi-partition FullScan at ``parallelism=4`` finishes in
  measurably less wall time than the same query at ``parallelism=1``;
* **Accounting** — per-partition byte counts (thread-local device scopes)
  sum exactly to the query totals, with no cross-thread bleed;
* **Stress** — hypothesis-driven concurrent queries while another thread
  inserts and flushes on a multi-partition dataset.
"""

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Dataset, DeviceKind, StorageEnvironment, StorageFormat
from repro.config import LSMConfig, StorageConfig
from repro.datasets import twitter
from repro.query import Comparison, QueryExecutor, field, lit, scan

PARTITIONS = 4
RECORD_COUNT = 240

FORMATS = [StorageFormat.OPEN, StorageFormat.INFERRED, StorageFormat.SL_VB]


def _build(storage_format: StorageFormat, partitions: int = PARTITIONS,
           count: int = RECORD_COUNT, name: str = "par") -> Dataset:
    dataset = Dataset.create(f"{name}_{storage_format.value}_{partitions}",
                             storage_format, partitions=partitions)
    dataset.insert_all(twitter.generate(count))
    dataset.flush_all()
    return dataset


def _specs():
    """Query shapes covering every coordinator branch."""
    return {
        "project": scan("t").select(("id", field("t", "id")),
                                    ("lang", field("t", "lang"))).build(),
        "filtered": (scan("t")
                     .where(Comparison(">=", field("t", "retweet_count"), lit(500)))
                     .select(("id", field("t", "id")),
                             ("rt", field("t", "retweet_count"))).build()),
        "group_by": (scan("t")
                     .group_by(("lang", field("t", "lang")))
                     .aggregate("n", "count")
                     .aggregate("max_rt", "max", field("t", "retweet_count"))
                     .order_by("lang").build()),
        "global_count": scan("t").count_star().build(),
        "order_by": (scan("t")
                     .select(("id", field("t", "id")),
                             ("favs", field("t", "favorite_count")))
                     .order_by(field("t", "favorite_count"), descending=True)
                     .limit(25).build()),
        "limit_no_order": (scan("t")
                           .select(("id", field("t", "id")))
                           .limit(17).build()),
    }


def _multiset(rows):
    return sorted(repr(row) for row in rows)


class TestParallelSequentialParity:
    @pytest.mark.parametrize("storage_format", FORMATS, ids=lambda f: f.value)
    def test_rows_identical_across_parallelism(self, storage_format):
        dataset = _build(storage_format)
        for name, spec in _specs().items():
            results = {degree: QueryExecutor(parallelism=degree).execute(dataset, spec)
                       for degree in (1, 2, PARTITIONS)}
            baseline = results[1]
            for degree in (2, PARTITIONS):
                rows = results[degree].rows
                assert _multiset(rows) == _multiset(baseline.rows), \
                    f"{storage_format.value}/{name}: multiset mismatch at parallelism={degree}"
                # Partition outputs merge in partition-id order, so even
                # unordered results are identical *lists*, not just multisets.
                assert rows == baseline.rows, \
                    f"{storage_format.value}/{name}: order drift at parallelism={degree}"
                assert results[degree].stats.parallelism == degree

    def test_index_probe_parity(self):
        dataset = _build(StorageFormat.OPEN, name="par_ix")
        dataset.create_index("rt_ix", "retweet_count")
        spec = (scan("t")
                .where(Comparison("<", field("t", "retweet_count"), lit(120)))
                .select(("id", field("t", "id"))).build())
        probe_seq = QueryExecutor(access_path="index", parallelism=1).execute(dataset, spec)
        probe_par = QueryExecutor(access_path="index", parallelism=PARTITIONS).execute(dataset, spec)
        scan_par = QueryExecutor(access_path="scan", parallelism=PARTITIONS).execute(dataset, spec)
        assert probe_seq.stats.access_path == "IndexProbe"
        assert probe_par.rows == probe_seq.rows
        assert _multiset(scan_par.rows) == _multiset(probe_par.rows)

    def test_mixed_direction_order_by(self):
        """Regression: each ORDER BY key honours its own ASC/DESC direction
        (the coordinator used to apply the first key's direction to all)."""
        dataset = _build(StorageFormat.OPEN, name="par_mixed")
        spec = (scan("t")
                .select(("lang", field("t", "lang")),
                        ("rt", field("t", "retweet_count")),
                        ("id", field("t", "id")))
                .order_by(field("t", "lang"))
                .order_by(field("t", "retweet_count"), descending=True)
                .build())
        for degree in (1, PARTITIONS):
            rows = QueryExecutor(parallelism=degree).execute(dataset, spec).rows
            expected = sorted(sorted(rows, key=lambda r: -r["rt"]), key=lambda r: r["lang"])
            assert [(r["lang"], r["rt"]) for r in rows] == \
                [(r["lang"], r["rt"]) for r in expected], f"parallelism={degree}"

    def test_sqlpp_query_accepts_parallelism_knob(self):
        dataset = _build(StorageFormat.INFERRED, name="par_sqlpp")
        text = "SELECT VALUE t.id FROM tweets AS t WHERE t.retweet_count >= 800"
        sequential = dataset.query(text, parallelism=1)
        fanned_out = dataset.query(text, parallelism=2)
        assert fanned_out.rows == sequential.rows
        assert fanned_out.stats.parallelism == 2

    @pytest.mark.parametrize("parallelism,shown", [(1, "inline"), (2, "worker pool of 2"),
                                                   (None, f"worker pool of {PARTITIONS}")])
    def test_explain_renders_the_resolved_exchange_width(self, parallelism, shown):
        dataset = _build(StorageFormat.INFERRED, name="par_explain", count=40)
        plan = dataset.explain("SELECT VALUE t.id FROM tweets AS t", parallelism=parallelism)
        assert f"merged in partition order ({shown})" in plan

    def test_limit_cancellation_skips_unneeded_partitions(self):
        dataset = _build(StorageFormat.OPEN, name="par_limit", count=400)
        spec = scan("t").select(("id", field("t", "id"))).limit(3).build()
        sequential = QueryExecutor(parallelism=1).execute(dataset, spec)
        parallel = QueryExecutor(parallelism=PARTITIONS).execute(dataset, spec)
        assert parallel.rows == sequential.rows
        assert len(parallel.rows) == 3
        # The sequential run must cancel every partition after the first one
        # satisfies the limit (the old cross-partition `break`, tokenized).
        assert any(partition.cancelled for partition in sequential.stats.per_partition)
        # No partition ever collects more rows than the limit needs.
        assert sequential.stats.records_scanned <= 3 * PARTITIONS + 32 * PARTITIONS


class TestMeasuredParallelism:
    def _throttled_dataset(self):
        environment = StorageEnvironment(StorageConfig(
            page_size=1024, buffer_cache_pages=4096,
            device_kind=DeviceKind.SATA_SSD, io_throttle=60.0))
        dataset = Dataset.create("par_speedup", StorageFormat.OPEN,
                                 environment=environment, partitions=PARTITIONS)
        dataset.insert_all({"id": i, "value": i % 10, "pad": "x" * 220}
                           for i in range(360))
        dataset.flush_all()
        return dataset

    def test_parallel_fullscan_beats_sequential_wall_time(self):
        """Acceptance: multi-partition FullScan at parallelism=4 returns rows
        identical to parallelism=1 in measurably less wall time.

        The environment's ``io_throttle`` turns simulated device seconds
        into real (GIL-releasing) sleeps, so the sequential run pays each
        partition's cold-read latency back-to-back while the parallel run
        overlaps them — like real disks would behave.  The 0.8 factor is
        generous slack: the expected ratio with 4 workers is ~0.3.
        """
        dataset = self._throttled_dataset()
        spec = (scan("t")
                .where(Comparison("<", field("t", "value"), lit(8)))
                .select(("id", field("t", "id")), ("value", field("t", "value")))
                .build())
        sequential = QueryExecutor(cold_cache=True, parallelism=1).execute(dataset, spec)
        parallel = QueryExecutor(cold_cache=True, parallelism=PARTITIONS).execute(dataset, spec)

        assert parallel.rows == sequential.rows
        assert parallel.stats.access_path == "FullScan"
        assert sequential.stats.parallelism == 1
        assert parallel.stats.parallelism == PARTITIONS
        assert parallel.stats.wall_seconds < sequential.stats.wall_seconds * 0.8
        assert parallel.stats.measured_speedup > 1.2

    def test_per_partition_accounting_sums_to_totals(self):
        dataset = self._throttled_dataset()
        spec = scan("t").select(("id", field("t", "id"))).build()
        result = QueryExecutor(cold_cache=True, parallelism=PARTITIONS).execute(dataset, spec)
        stats = result.stats
        assert len(stats.per_partition) == PARTITIONS
        assert all(partition.bytes_read > 0 for partition in stats.per_partition)
        assert all(partition.records_scanned > 0 for partition in stats.per_partition)
        # Byte totals match a cold sequential run of the same query exactly.
        cold = QueryExecutor(cold_cache=True, parallelism=1).execute(dataset, spec)
        assert cold.stats.bytes_read == stats.bytes_read
        # Every total is derived from per_partition — it cannot drift from the
        # sum, whatever the pool width — and stays in the exported dict.
        totals = dict.fromkeys(("records_scanned", "bytes_read", "bytes_written",
                                "simulated_io_seconds"))
        totals.update(batches_processed="batches", slice_cache_hits="slice_hits",
                      slice_cache_misses="slice_misses")
        for run in (stats, cold.stats):
            for total, part in totals.items():
                expected = sum(getattr(p, part or total) for p in run.per_partition)
                assert getattr(run, total) == run.to_dict()[total] == pytest.approx(expected)
                with pytest.raises(AttributeError):
                    setattr(run, total, 0)
            assert run.records_scanned == 360 and run.batches_processed >= PARTITIONS

    def test_nested_accounting_scopes_pop_by_identity(self):
        """Regression: closing an all-zero inner scope must not pop the
        (value-equal) outer scope off the thread-local stack."""
        from repro.storage.device import SimulatedStorageDevice

        device = SimulatedStorageDevice()
        with device.accounting_scope() as outer:
            with device.accounting_scope() as inner:
                pass  # closes while value-equal to the outer scope
            device.record_read(100)
        assert outer.bytes_read == 100
        assert inner.bytes_read == 0

    def test_coordinator_time_is_measured_not_inferred(self):
        dataset = _build(StorageFormat.OPEN, name="par_coord")
        spec = (scan("t").group_by(("lang", field("t", "lang")))
                .aggregate("n", "count").order_by("lang").build())
        stats = QueryExecutor(parallelism=PARTITIONS).execute(dataset, spec).stats
        assert stats.coordinator_seconds >= 0.0
        assert stats.sequential_equivalent_seconds == pytest.approx(
            sum(stats.per_partition_seconds) + stats.coordinator_seconds)


class TestConcurrentQueriesWithFlushes:
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(batches=st.lists(st.integers(min_value=1, max_value=12),
                            min_size=1, max_size=5),
           flush_every=st.integers(min_value=1, max_value=4))
    def test_scans_stay_consistent_under_concurrent_ingest(self, batches, flush_every):
        """Queries racing inserts + flushes + merges never see torn state.

        Every concurrent scan must return each key at most once, only keys
        that were ever inserted, and at least the preloaded keys; after the
        ingest thread joins, a final query sees exactly everything.  The
        default (prefix) merge policy stays on and the component-count
        trigger is lowered so flushes cascade into merges mid-query — the
        index defers deleting merged-away component files until in-flight
        scan snapshots finish (LSMBTree.read_guard).
        """
        base_count = 48
        dataset = Dataset.create("stress", StorageFormat.OPEN, partitions=PARTITIONS,
                                 lsm=LSMConfig(max_tolerable_component_count=3))
        dataset.insert_all({"id": i, "value": i % 5} for i in range(base_count))
        dataset.flush_all()

        extra_ids = list(range(base_count, base_count + sum(batches)))
        universe = set(range(base_count + sum(batches)))
        spec = scan("t").select(("id", field("t", "id"))).build()
        executor = QueryExecutor(parallelism=PARTITIONS)
        failures = []
        done = threading.Event()

        def ingest():
            try:
                next_id = iter(extra_ids)
                for batch_index, batch in enumerate(batches):
                    for _ in range(batch):
                        dataset.insert({"id": next(next_id), "value": 1})
                    if batch_index % flush_every == 0:
                        dataset.flush_all()
            except Exception as exc:  # pragma: no cover - failure reporting
                failures.append(f"ingest: {exc!r}")
            finally:
                done.set()

        def query_loop():
            try:
                while not done.is_set():
                    ids = [row["id"] for row in executor.execute(dataset, spec).rows]
                    assert len(ids) == len(set(ids)), "duplicate keys in concurrent scan"
                    assert set(ids) <= universe, "phantom keys in concurrent scan"
                    assert len(ids) >= base_count, "concurrent scan lost preloaded keys"
            except Exception as exc:
                failures.append(f"query: {exc!r}")

        def lookup_loop():
            # Point lookups take the read guard too: preloaded keys must stay
            # retrievable while merges retire components.
            try:
                key = 0
                while not done.is_set():
                    record = dataset.get(key % base_count)
                    assert record is not None, "concurrent point lookup lost a preloaded key"
                    key += 1
            except Exception as exc:
                failures.append(f"lookup: {exc!r}")

        ingester = threading.Thread(target=ingest)
        queriers = [threading.Thread(target=query_loop) for _ in range(2)]
        queriers.append(threading.Thread(target=lookup_loop))
        ingester.start()
        for thread in queriers:
            thread.start()
        ingester.join(timeout=30)
        assert not ingester.is_alive(), "ingest thread did not finish within 30s"
        for thread in queriers:
            thread.join(timeout=30)
            assert not thread.is_alive(), "query thread did not finish within 30s"
        assert not failures, failures

        final_ids = {row["id"] for row in executor.execute(dataset, spec).rows}
        assert final_ids == universe
