"""Observability layer: metrics registry, tracing, EXPLAIN ANALYZE, events.

Covers the guarantees the layer advertises (README "Observability"):

* the metrics registry is thread-safe, label-aware, and type-strict, and
  ``metrics_delta`` reports per-run activity without resets;
* tracing is off by default with a shared no-op span (identity-checkable),
  results are identical with tracing on or off, and span parent/child links
  survive the query worker pool and the background-maintenance scheduler
  threads — including under concurrent queries + merges (hypothesis);
* ``REPRO_TRACE=<path>`` exports JSONL that the bundled validator accepts;
* ``explain(analyze=True)`` renders per-operator actuals for every
  workload's SQL++ query suite, and a >10x estimated-vs-actual cardinality
  divergence emits a structured warning.
"""

import gc
import json
import logging
import sys
import threading
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Dataset, LSMConfig, StorageEnvironment, StorageFormat, metrics_delta
from repro.config import StorageConfig
from repro.cluster import DataFeed
from repro.datasets import sensors, twitter, wos
from repro.obs import (
    CARDINALITY_MISESTIMATE,
    MetricsRegistry,
    NULL_SPAN,
    StatsDictMixin,
    Tracer,
    emit_event,
    get_registry,
    get_tracer,
    validate_trace_lines,
)
from repro.query import ExecutionStats, OperatorStats, PartitionStats, QueryExecutor
from repro.storage import LogRecordType, SimulatedStorageDevice, WriteAheadLog
from repro.query.explain import _analyze_lines

#: Small memtables so ingest produces flushes and merges mid-run.
SMALL_LSM = dict(memory_component_budget=16 * 1024,
                 max_tolerable_component_count=3)


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Every test starts with an empty tracer and leaves it env-driven."""
    tracer = get_tracer()
    tracer.refresh_from_env()
    tracer.clear()
    yield tracer
    tracer.refresh_from_env()
    tracer.clear()


def _dataset(name, records=(), partitions=2, background=False, **create_kwargs):
    lsm = LSMConfig(background_maintenance=background, **SMALL_LSM) if background else None
    if lsm is not None:
        create_kwargs.setdefault("lsm", lsm)
    dataset = Dataset.create(name, StorageFormat.INFERRED, partitions=partitions,
                             **create_kwargs)
    for record in records:
        dataset.insert(record)
    if records:
        dataset.flush_all()
    return dataset


def _employee_records(count=120):
    return [{"id": i, "name": f"n{i}", "age": 20 + (i % 40)} for i in range(count)]


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2.5)
        registry.gauge("g").set(7)
        registry.gauge("g").dec(3)
        registry.histogram("h").observe(1.0)
        registry.histogram("h").observe(3.0)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 3.5
        assert snap["gauges"]["g"] == 4
        assert snap["histograms"]["h"] == {
            "count": 2, "sum": 4.0, "mean": 2.0, "min": 1.0, "max": 3.0}
        json.dumps(snap)  # snapshot must be JSON-serializable as-is

    def test_labels_create_distinct_instruments(self):
        registry = MetricsRegistry()
        registry.counter("bytes", io_class="data").inc(10)
        registry.counter("bytes", io_class="log").inc(1)
        assert registry.counter("bytes", io_class="data") is registry.counter(
            "bytes", io_class="data")
        snap = registry.snapshot()["counters"]
        assert snap["bytes{io_class=data}"] == 10
        assert snap["bytes{io_class=log}"] == 1

    def test_counter_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_type_conflicts_raise(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        registry.counter("labeled", a=1)
        with pytest.raises(TypeError):
            registry.histogram("labeled", a=2)
        for other_labels in ({}, {"b": 1}, {"a": 1, "b": 2}):
            with pytest.raises(TypeError):
                registry.counter("labeled", **other_labels)

    def test_names_follow_the_convention(self):
        registry = MetricsRegistry()
        for bad in ("Bad-Name", "lsm.flushes", "_x", "1x", "x\n"):
            with pytest.raises(ValueError):
                registry.counter(bad)
        assert registry.snapshot()["counters"] == {}
        registry.counter("lsm_flushes_2").inc()

    def test_label_order_does_not_change_the_label_set(self):
        registry = MetricsRegistry()
        registry.counter("io", a=1, b=2).inc()
        registry.counter("io", b=3, a=4).inc(2)
        assert registry.snapshot()["counters"] == {"io{a=1,b=2}": 1, "io{a=4,b=3}": 2}

    def test_refused_instrument_is_not_registered(self):
        registry = MetricsRegistry()
        registry.counter("tasks", kind="flush").inc()
        with pytest.raises(TypeError):
            registry.counter("tasks", phase="merge")
        with pytest.raises(TypeError):
            registry.gauge("tasks", kind="merge")
        assert registry.snapshot() == {"counters": {"tasks{kind=flush}": 1},
                                       "gauges": {}, "histograms": {}}

    def test_concurrent_increments_are_lossless(self):
        registry = MetricsRegistry()
        threads = [threading.Thread(
            target=lambda worker=i % 2: [registry.counter("hits", worker=worker).inc()
                                         for _ in range(500)])
            for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        counters = registry.snapshot()["counters"]
        assert counters["hits{worker=0}"] + counters["hits{worker=1}"] == 4000

    def test_metrics_delta_subtracts_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        registry.histogram("h").observe(2.0)
        before = registry.snapshot()
        registry.counter("c").inc(3)
        registry.gauge("g").set(9)
        delta = metrics_delta(registry.snapshot(), before)
        assert delta["counters"]["c"] == 3
        assert delta["gauges"]["g"] == 9  # gauges keep the current value
        assert delta["histograms"]["h"]["count"] == 0
        assert delta["histograms"]["h"]["min"] == 0.0  # zeroed: no new samples

    def test_followed_counters_keep_their_value_when_the_owner_is_dropped(self):
        registry = MetricsRegistry()

        def write(records):
            device = SimulatedStorageDevice(metrics=registry)
            wal = WriteAheadLog(device, registry)
            for key in range(records):
                wal.append(LogRecordType.INSERT, "ds", 0, key=key, payload=b"row")
            return weakref.ref(device.per_class["log"]), weakref.ref(device)

        cell, device = write(10)
        gc.collect()
        assert device() is None
        counters = registry.snapshot()["counters"]
        # 10 records of 28 + 1 + 3 bytes: the readings outlive the device.
        assert counters["device_bytes_written{io_class=log}"] == 320
        assert counters["device_write_ops{io_class=log}"] == 10
        assert counters["wal_bytes_written"] == 320
        assert counters["wal_records_appended"] == 10
        assert cell() is None  # the fold let the counter drop the cell
        write(5)
        counters = registry.snapshot()["counters"]
        assert counters["device_write_ops{io_class=log}"] == 15
        assert counters["wal_records_appended"] == 15

    def test_dropping_an_environment_keeps_every_counter(self):
        registry = MetricsRegistry()

        def ingest():
            environment = StorageEnvironment(StorageConfig(), metrics=registry)
            dataset = Dataset.create("dropped", StorageFormat.INFERRED,
                                     environment=environment, partitions=2,
                                     lsm=LSMConfig(memory_component_budget=8 * 1024,
                                                   background_maintenance=False))
            dataset.insert_all(twitter.generate(120))
            dataset.flush_all()
            dataset.query("SELECT count(*) AS n FROM tweets AS t", cold_cache=True)
            dataset.close()
            return registry.snapshot()["counters"], weakref.ref(environment.device)

        before, device = ingest()
        gc.collect()
        assert device() is None
        assert registry.snapshot()["counters"] == before
        assert before["lsm_flushes"] > 0 and before["cache_misses"] > 0
        assert before["wal_records_appended"] > 120

    def test_followed_counters_lose_nothing_under_concurrent_writers(self):
        registry = MetricsRegistry()
        device = SimulatedStorageDevice(metrics=registry)
        readings = []

        def write():
            for _ in range(300):
                device.record_write(3, io_class="log")
                SimulatedStorageDevice(metrics=registry).record_write(1, io_class="log")

        def read():
            for _ in range(300):
                readings.append(registry.counter("device_write_ops", io_class="log").value)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write) for _ in range(6)]
            threads.append(threading.Thread(target=read))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        gc.collect()
        counters = registry.snapshot()["counters"]
        assert counters["device_write_ops{io_class=log}"] == 6 * 300 * 2
        assert counters["device_bytes_written{io_class=log}"] == 6 * 300 * 4
        assert readings == sorted(readings)  # monotonic while devices die


# ---------------------------------------------------------------------------
# stats to_dict protocol
# ---------------------------------------------------------------------------

class TestStatsDict:
    def test_execution_stats_to_dict_is_json_ready(self):
        stats = ExecutionStats(wall_seconds=0.5, estimated_rows=10.0,
                               actual_matched_rows=3)
        stats.per_partition.append(PartitionStats(
            partition_id=0, operators=[OperatorStats("FullScan", rows_out=4)]))
        data = stats.to_dict()
        json.dumps(data)
        assert data["per_partition"][0]["operators"][0]["operator"] == "FullScan"
        assert data["cardinality_error"] == pytest.approx(11.0 / 4.0)
        assert "cache_hit_ratio" in data  # derived properties exported

    def test_engine_reports_share_the_protocol(self):
        dataset = _dataset("ObsDictDs", _employee_records(40))
        try:
            feed_report_cls = DataFeed(dataset).run([]).__class__
            assert issubclass(feed_report_cls, StatsDictMixin)
            snapshot = dataset.environments[0].buffer_cache.stats_snapshot()
            json.dumps(snapshot.to_dict())
            json.dumps(dataset.partitions[0].index.stats.to_dict())
        finally:
            dataset.close()


# ---------------------------------------------------------------------------
# tracer core
# ---------------------------------------------------------------------------

class TestTracer:
    def test_disabled_by_default_returns_null_span(self, _clean_tracer, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        tracer = _clean_tracer
        tracer.refresh_from_env()
        assert not tracer.enabled
        assert tracer.span("anything") is NULL_SPAN  # no allocation per call
        def fn():
            return 1
        assert tracer.wrap_context(fn) is fn

    def test_span_nesting_assigns_parent_and_trace(self, _clean_tracer):
        tracer = _clean_tracer
        tracer.enable()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        spans = {span.name: span for span in tracer.spans()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None
        assert spans["outer"].end >= spans["inner"].end

    def test_exception_is_recorded_on_span(self):
        # A tracer of its own: the module-level one is built while `repro`
        # is imported, before REPRO_LOCKTRACK=1 can wrap its locks, so this
        # is where that session sees Tracer's locks created and acquired.
        tracer = Tracer()
        tracer.enable()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("failed")
        (span,) = tracer.spans()
        assert "RuntimeError" in span.attributes["error"]

    def test_env_var_file_export_produces_valid_jsonl(self, _clean_tracer,
                                                      monkeypatch, tmp_path):
        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        tracer = _clean_tracer
        tracer.refresh_from_env()
        assert tracer.enabled
        dataset = _dataset("ObsExportDs", _employee_records(60))
        try:
            dataset.query("SELECT e.name AS name FROM ObsExportDs AS e WHERE e.age < 30")
            emit_event("test_event", detail=1)
        finally:
            dataset.close()
        tracer.refresh_from_env()  # close the export handle
        lines = path.read_text().splitlines()
        errors, counts = validate_trace_lines(lines)
        assert errors == []
        assert counts["spans"] > 0
        assert counts["events"] >= 1

    def test_truthy_env_flag_keeps_spans_in_memory_only(self, _clean_tracer,
                                                        monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.chdir(tmp_path)
        tracer = _clean_tracer
        tracer.refresh_from_env()
        with tracer.span("only_memory"):
            pass
        assert [span.name for span in tracer.spans()] == ["only_memory"]
        assert list(tmp_path.iterdir()) == []  # no file named "1" appeared


class TestTraceValidator:
    def test_rejects_orphans_duplicates_and_bad_fields(self):
        good = {"type": "span", "trace_id": "t1", "span_id": "s1",
                "parent_id": None, "name": "root", "start": 1.0, "end": 2.0,
                "thread": "main", "attributes": {}}
        orphan = dict(good, span_id="s2", parent_id="s99")
        duplicate = dict(good)
        backwards = dict(good, span_id="s3", parent_id=None, start=5.0, end=1.0)
        missing = {"type": "span", "span_id": "s4"}
        lines = [json.dumps(record) for record in
                 (good, orphan, duplicate, backwards, missing)] + ["not json"]
        errors, counts = validate_trace_lines(lines)
        assert counts["spans"] == 5
        assert any("orphan" in error for error in errors)
        assert any("duplicate" in error for error in errors)
        assert any("ends before" in error for error in errors)
        assert any("missing fields" in error for error in errors)
        assert any("not valid JSON" in error for error in errors)

    def test_accepts_a_real_exported_tree(self, _clean_tracer):
        tracer = _clean_tracer
        tracer.enable()
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        lines = [json.dumps(span.to_dict()) for span in tracer.spans()]
        errors, counts = validate_trace_lines(lines)
        assert errors == []
        assert counts == {"spans": 2, "events": 0, "traces": 1}


# ---------------------------------------------------------------------------
# engine integration: span trees across pools and scheduler threads
# ---------------------------------------------------------------------------

def _assert_sound_tree(spans):
    """Every parented span's parent exists, in the same trace, and every
    recorded span tree keeps parent intervals enclosing synthesized child
    start times (operators are recorded post-hoc, so only starts nest)."""
    by_id = {span.span_id: span for span in spans}
    assert len(by_id) == len(spans), "duplicate span ids"
    for span in spans:
        if span.parent_id is None:
            continue
        assert span.parent_id in by_id, f"orphan span {span.name}"
        parent = by_id[span.parent_id]
        assert parent.trace_id == span.trace_id
        assert parent.start <= span.start + 1e-6


class TestEngineTracing:
    def test_query_span_tree_covers_every_layer(self, _clean_tracer):
        tracer = _clean_tracer
        tracer.enable()
        dataset = _dataset("ObsTreeDs", _employee_records(80), partitions=2)
        try:
            dataset.query("SELECT e.name AS name FROM ObsTreeDs AS e WHERE e.age < 30")
            spans = tracer.spans(dataset._last_trace_id)
            names = {span.name for span in spans}
            assert {"query", "sqlpp.parse", "sqlpp.bind", "query.execute",
                    "query.optimize", "query.partition",
                    "query.coordinator"} <= names
            assert any(name.startswith("operator.") for name in names)
            _assert_sound_tree(spans)
            assert len([span for span in spans if span.name == "query.partition"]) == 2
            # last_trace() exposes the same tree as dicts
            exported = dataset.last_trace()
            assert {entry["span_id"] for entry in exported} == {
                span.span_id for span in spans}
        finally:
            dataset.close()

    def test_background_maintenance_spans_attach_under_ingest(self, _clean_tracer):
        tracer = _clean_tracer
        tracer.enable()
        dataset = _dataset("ObsBgDs", partitions=2, background=True)
        try:
            feed = DataFeed(dataset, per_partition_ingest=True)
            feed.run(twitter.generate(120))
            feed.close()
        finally:
            dataset.close()
        spans = tracer.spans()
        _assert_sound_tree(spans)
        flushes = [span for span in spans if span.name == "lsm.flush"]
        assert flushes, "small memtables must have flushed during the feed"
        feed_span = next(span for span in spans if span.name == "feed.run")
        by_id = {span.span_id: span for span in spans}

        def root_of(span):
            while span.parent_id is not None:
                span = by_id[span.parent_id]
            return span

        # Flushes whose maintenance was submitted while the feed span was
        # open attach under it (context propagation through the scheduler);
        # flushes forced later by feed.close()'s flush barrier start fresh
        # traces, so assert the during-feed population, not all of them.
        in_feed = [flush for flush in flushes
                   if root_of(flush).trace_id == feed_span.trace_id]
        assert in_feed, "no flush span attached under the ingest span"
        for flush in in_feed:
            assert flush.trace_id == feed_span.trace_id

    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(partitions=st.integers(min_value=2, max_value=3),
           query_threads=st.integers(min_value=2, max_value=3))
    def test_span_integrity_under_concurrent_queries_and_merges(
            self, partitions, query_threads):
        """Stress: parallel queries race background flushes/merges; the span
        forest must stay sound (no orphans, no cross-trace parents)."""
        tracer = get_tracer()
        tracer.refresh_from_env()
        tracer.clear()
        tracer.enable()
        dataset = _dataset(f"ObsStress{partitions}", partitions=partitions,
                           background=True)
        errors = []
        try:
            feed = DataFeed(dataset, per_partition_ingest=True)
            feed.run(twitter.generate(80))

            def run_queries():
                try:
                    for _ in range(3):
                        rows = dataset.query(
                            "SELECT VALUE count(*) FROM Tweets AS t")
                        assert len(rows.rows) == 1
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=run_queries)
                       for _ in range(query_threads)]
            for thread in threads:
                thread.start()
            feed.run(twitter.generate(80, start_id=80))
            for thread in threads:
                thread.join()
            feed.close()
        finally:
            dataset.close()
            spans = tracer.spans()
            tracer.disable()
            tracer.clear()
        assert not errors, errors
        _assert_sound_tree(spans)
        roots = [span for span in spans
                 if span.parent_id is None and span.name == "query"]
        assert len(roots) == query_threads * 3
        assert len({span.trace_id for span in roots}) == len(roots)


# ---------------------------------------------------------------------------
# on/off parity
# ---------------------------------------------------------------------------

class TestParity:
    QUERY = ("SELECT e.age AS age, count(*) AS c FROM Parity AS e "
             "GROUP BY e.age AS age ORDER BY c DESC, age LIMIT 5")

    def test_results_identical_with_tracer_on_and_off(self, _clean_tracer, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        tracer = _clean_tracer
        tracer.refresh_from_env()
        dataset = _dataset("ObsParityDs", _employee_records(200), partitions=2)
        try:
            off = dataset.query(self.QUERY)
            assert dataset.last_trace() == []
            tracer.enable()
            on = dataset.query(self.QUERY)
            assert on.rows == off.rows
            # One cost record either way; the tracer only adds spans read off it.
            names = [op.operator for op in on.stats.per_partition[0].operators]
            assert names == [op.operator for op in off.stats.per_partition[0].operators]
            assert {f"operator.{name}" for name in names} <= {
                span["name"] for span in dataset.last_trace()}
            tracer.disable()
            off_again = dataset.query(self.QUERY)
            assert off_again.rows == off.rows
        finally:
            dataset.close()


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE + events
# ---------------------------------------------------------------------------

class TestExplainAnalyze:
    @pytest.mark.parametrize("storage_format", [
        StorageFormat.INFERRED, StorageFormat.SL_VB, StorageFormat.OPEN])
    @pytest.mark.parametrize("generator,count", [
        (twitter, 250), (wos, 150), (sensors, 120)])
    def test_workload_sqlpp_suites_render_what_runs(self, generator, count, storage_format):
        """The twelve Appendix-A statements: EXPLAIN prints the plan's own
        stage list and scan columns, so its stage names are the executed
        operators' names and its get_values(...) is what the scan extracts."""
        dataset = Dataset.create(f"Obs{generator.__name__.split('.')[-1]}",
                                 storage_format, partitions=2)
        try:
            dataset.insert_all(generator.generate(count))
            dataset.flush_all()
            for name, text in generator.SQLPP.items():
                plain = dataset.explain(text)
                analyzed = dataset.explain(text, analyze=True)
                assert "ANALYZE" not in plain
                assert analyzed.startswith(plain)
                for part in ("ANALYZE (query executed)", "actual rows", "buffer cache",
                             "execution: wall"):
                    assert part in analyzed, name

                pipeline, scan_line = plain.split("  exchange:")[0], plain.split("get_values(")
                stages = [line.strip().removeprefix("-> ").split(": ")[0] for line in
                          pipeline.split("pipeline (per partition):\n")[1].splitlines()]
                stats = dataset.query(text).stats
                assert stages == [op.operator for op in stats.per_partition[0].operators], name
                scan_paths = dataset._plan(text, QueryExecutor())[0].batch_plan.scan_paths
                assert [".".join(map(str, path)) for path in scan_paths] == (
                    scan_line[1].split(")")[0].split(", ") if len(scan_line) > 1 else []), name
                assert not scan_paths or storage_format.uses_vector_format
        finally:
            dataset.close()

    def test_misestimate_emits_structured_warning(self, _clean_tracer, caplog):
        """The >10x event fires where EXPLAIN ANALYZE renders the cardinality
        line (and only beyond 10x)."""
        tracer = _clean_tracer
        tracer.enable()
        dataset = _dataset("ObsWarnDs", _employee_records(30))
        try:
            quiet = ExecutionStats(estimated_rows=6.0, actual_matched_rows=5)
            stats = ExecutionStats(estimated_rows=1000.0, actual_matched_rows=5,
                                   access_path="IndexProbe", index_name="by_age")
            for each in (quiet, stats):
                each.per_partition.append(PartitionStats(
                    partition_id=0, operators=[OperatorStats("PROJECT", rows_out=5)]))
            assert quiet.cardinality_error < 10 < stats.cardinality_error
            _analyze_lines(dataset, quiet)
            assert not tracer.events(CARDINALITY_MISESTIMATE)
            before = get_registry().snapshot()
            with caplog.at_level(logging.WARNING, logger="repro.obs"):
                rendered = "\n".join(_analyze_lines(dataset, stats))
            assert "cardinality: estimated 1000.0 row(s), actual 5 row(s)" in rendered
            record = next(rec for rec in caplog.records
                          if CARDINALITY_MISESTIMATE in rec.getMessage())
            assert "error_factor" in record.getMessage()
            delta = metrics_delta(get_registry().snapshot(), before)
            assert delta["counters"][
                f"events_total{{event={CARDINALITY_MISESTIMATE}}}"] == 1
            assert tracer.events(CARDINALITY_MISESTIMATE)
        finally:
            dataset.close()

    @pytest.mark.parametrize("partitions", [1, 2])
    def test_cardinality_is_measured_unless_limit_cut_the_scan_short(self, partitions,
                                                                     _clean_tracer):
        """A plain LIMIT stops the scan once it is filled (and the token stops
        the partitions after it): the rows that left the filter by then are
        not the predicate's cardinality — 80 records match, ~41 are estimated,
        one was read — so none is reported and no misestimate is raised."""
        _clean_tracer.enable()
        records = [{"id": i, "name": f"n{i}", "age": i % 40} for i in range(1600)]
        dataset = _dataset("ObsLimitDs", records, partitions=partitions)
        try:
            dataset.create_index("by_age", "age")
            text = "SELECT e.name FROM ObsLimitDs e WHERE e.age >= 0 AND e.age <= 1"
            limited = dataset.query(text + " LIMIT 1", parallelism=1).stats
            assert limited.estimated_rows is not None and limited.rows_returned == 1
            assert limited.actual_matched_rows is None and limited.cardinality_error is None
            rendered = dataset.explain(text + " LIMIT 1", analyze=True, parallelism=1)
            assert "cardinality:" not in rendered
            assert not _clean_tracer.events(CARDINALITY_MISESTIMATE)
            stats = dataset.query(text).stats
            assert stats.actual_matched_rows == stats.rows_returned == 80
            assert 1.0 <= stats.cardinality_error < 10
            totals = stats.operator_totals()
            assert (totals[-1].operator, totals[-1].rows_out) == ("PROJECT", 80)
            assert totals[0].bytes_read == stats.bytes_read
        finally:
            dataset.close()


# ---------------------------------------------------------------------------
# metrics integration across the engine
# ---------------------------------------------------------------------------

class TestEngineMetrics:
    def test_layers_publish_into_one_registry(self):
        registry = get_registry()
        before = registry.snapshot()
        dataset = _dataset("ObsEngineDs", partitions=2, background=True)
        try:
            feed = DataFeed(dataset, per_partition_ingest=True)
            report = feed.run(twitter.generate(150))
            feed.close()
            dataset.query("SELECT VALUE count(*) FROM Tweets AS t")
            delta = metrics_delta(dataset.metrics_snapshot(), before)
            counters = delta["counters"]
            assert counters["lsm_flushes"] > 0
            assert counters["lsm_memtable_seals"] > 0
            assert counters["wal_records_appended"] >= 150
            assert counters["queries_executed"] == 1
            assert counters["scheduler_tasks_completed{kind=flush}"] > 0
            assert any(key.startswith("device_bytes_written") for key in counters)
            assert delta["histograms"]["query_wall_seconds"]["count"] == 1
            # the feed report carries its own (earlier) delta window — close()
            # flushes the remainder afterwards, so report <= final.
            assert 0 < report.metrics["counters"]["lsm_flushes"] <= counters["lsm_flushes"]
            json.dumps(report.to_dict())
        finally:
            dataset.close()
