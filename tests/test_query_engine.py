"""Tests for the query engine: expressions, operators, optimizer, executor."""

import pytest

from repro import Dataset, StorageEnvironment, StorageFormat
from repro.query import (
    And,
    Comparison,
    Exists,
    Func,
    Literal,
    Or,
    QueryExecutor,
    Var,
    field,
    lit,
    scan,
)
from repro.query.batch_compile import _Context, compile_expr
from repro.query.expressions import Not
from repro.query.optimizer import Optimizer
from repro.types import MISSING
from repro.vector import ColumnBatch

from reference import evaluate

RECORDS = [
    {
        "id": i,
        "user": {"name": f"user{i % 10}", "verified": i % 4 == 0},
        "text": "x" * (10 + i % 20),
        "timestamp_ms": 1_000_000 + (i * 37) % 1000,
        "entities": {"hashtags": [{"text": "jobs" if i % 5 == 0 else f"tag{i % 7}", "pos": 0}]},
        "readings": [{"temp": float(i % 50), "ts": i}, {"temp": float((i * 3) % 50), "ts": i + 1}],
    }
    for i in range(120)
]


def _dataset(storage_format=StorageFormat.INFERRED):
    dataset = Dataset.create("tweets", storage_format,
                             environment=StorageEnvironment.for_device(
                                 __import__("repro").DeviceKind.NVME_SSD, page_size=4096))
    dataset.insert_all(RECORDS)
    dataset.flush_all()
    return dataset


@pytest.fixture(scope="module")
def inferred_dataset():
    return _dataset(StorageFormat.INFERRED)


@pytest.fixture(scope="module")
def open_dataset():
    return _dataset(StorageFormat.OPEN)


def _assert_evaluates(expr, env, expected):
    """``expr`` under ``env`` (variable name -> plain value) yields ``expected``
    both from the engine's compiled evaluator, run over a one-row batch that
    binds each name as a column, and from the reference interpreter."""
    ctx = _Context("record", set(), access_at_scan=False)
    ctx.bound = set(env)
    batch = ColumnBatch(None, {(name, ()): [value] for name, value in env.items()}, 1)
    (compiled,) = compile_expr(expr, ctx)(batch)
    for value in (compiled, evaluate(expr, env)):
        assert type(value) is type(expected) and value == expected


class TestExpressions:
    def test_field_access_on_dict(self):
        env = {"t": {"a": {"b": [1, 2, 3]}}}
        _assert_evaluates(field("t", "a", "b", 1), env, 2)
        _assert_evaluates(field("t", "a", "zzz"), env, MISSING)

    def test_comparison_missing_propagation(self):
        env = {"t": {"a": 5}}
        _assert_evaluates(Comparison(">", field("t", "b"), lit(1)), env, MISSING)
        _assert_evaluates(And(Comparison(">", field("t", "b"), lit(1))), env, False)

    def test_boolean_operators(self):
        env = {}
        _assert_evaluates(And(lit(True), lit(1)), env, True)
        _assert_evaluates(And(lit(True), lit(0)), env, False)
        _assert_evaluates(Or(lit(False), lit(3)), env, True)
        _assert_evaluates(Not(lit(False)), env, True)

    def test_functions(self):
        env = {"t": {"name": "Ann", "tags": ["a", "b"]}}
        _assert_evaluates(Func("length", field("t", "name")), env, 3)
        _assert_evaluates(Func("lowercase", lit("ABC")), env, "abc")
        _assert_evaluates(Func("array_count", field("t", "tags")), env, 2)
        _assert_evaluates(Func("array_contains", field("t", "tags"), lit("a")), env, True)
        _assert_evaluates(Func("is_array", field("t", "name")), env, False)

    def test_exists(self):
        env = {"t": {"hashtags": [{"text": "jobs"}, {"text": "other"}]}}
        predicate = Comparison("=", field("ht", "text"), lit("jobs"))
        _assert_evaluates(Exists(field("t", "hashtags"), "ht", predicate), env, True)
        bad = Comparison("=", field("ht", "text"), lit("nope"))
        _assert_evaluates(Exists(field("t", "hashtags"), "ht", bad), env, False)

    def test_unknown_function_rejected(self):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            Func("no_such_function", lit(1))


class TestOptimizer:
    def test_consolidation_collects_paths(self):
        spec = (scan("t")
                .where(Comparison(">", field("t", "timestamp_ms"), lit(5)))
                .group_by(("name", field("t", "user", "name")))
                .aggregate("avg_len", "avg", Func("length", field("t", "text")))
                .build())
        plan = Optimizer().plan(spec, uses_vector_format=True)
        assert plan.consolidate
        assert ("timestamp_ms",) in plan.scan_paths
        assert ("user", "name") in plan.scan_paths
        assert ("text",) in plan.scan_paths

    def test_no_consolidation_for_adm_formats(self):
        spec = scan("t").count_star().build()
        plan = Optimizer().plan(spec, uses_vector_format=False)
        assert not plan.consolidate

    def test_unnest_pushdown(self):
        spec = (scan("s")
                .unnest(field("s", "readings"), "r")
                .group_by(("sid", field("s", "id")))
                .aggregate("avg_temp", "avg", field("r", "temp"))
                .build())
        plan = Optimizer().plan(spec, uses_vector_format=True)
        unnest_plan = plan.unnest_plans[0]
        assert unnest_plan.pushed_down
        assert unnest_plan.pushdown_paths[("temp",)] == ("readings", "*", "temp")
        assert ("readings", "*", "temp") in plan.scan_paths
        assert ("readings",) not in plan.scan_paths

    def test_unnest_pushdown_disabled_when_item_used_directly(self):
        spec = (scan("s")
                .unnest(field("s", "readings"), "r")
                .group_by(("sid", field("s", "id")))
                .aggregate("items", "listify", Var("r"))
                .build())
        plan = Optimizer().plan(spec, uses_vector_format=True)
        assert not plan.unnest_plans[0].pushed_down

    def test_exists_rewrite(self):
        predicate = Comparison("=", Func("lowercase", field("ht", "text")), lit("jobs"))
        spec = (scan("t")
                .where(Exists(field("t", "entities", "hashtags"), "ht", predicate))
                .count_star()
                .build())
        plan = Optimizer().plan(spec, uses_vector_format=True)
        assert ("entities", "hashtags", "*", "text") in plan.scan_paths
        rewritten = plan.effective_spec(spec)
        assert isinstance(rewritten.where, Exists)
        assert rewritten.where.collection.path == ("entities", "hashtags", "*", "text")

    def test_optimizations_can_be_disabled(self):
        spec = (scan("s")
                .unnest(field("s", "readings"), "r")
                .group_by(("sid", field("s", "id")))
                .aggregate("avg_temp", "avg", field("r", "temp"))
                .build())
        plan = Optimizer(consolidate_field_access=False).plan(spec, uses_vector_format=True)
        assert not plan.consolidate
        assert not plan.unnest_plans[0].pushed_down


class TestExecutorOnAllFormats:
    @pytest.mark.parametrize("fixture_name", ["inferred_dataset", "open_dataset"])
    def test_count_star(self, fixture_name, request):
        dataset = request.getfixturevalue(fixture_name)
        result = QueryExecutor().execute(dataset, scan("t").count_star().build())
        assert result.rows == [{"count": len(RECORDS)}]
        assert result.stats.records_scanned == len(RECORDS)

    @pytest.mark.parametrize("fixture_name", ["inferred_dataset", "open_dataset"])
    def test_group_by_avg_length(self, fixture_name, request):
        dataset = request.getfixturevalue(fixture_name)
        spec = (scan("t")
                .group_by(("uname", field("t", "user", "name")))
                .aggregate("a", "avg", Func("length", field("t", "text")))
                .order_by("a", descending=True)
                .limit(10)
                .build())
        result = QueryExecutor().execute(dataset, spec)
        assert len(result.rows) == 10
        expected = {}
        for record in RECORDS:
            expected.setdefault(record["user"]["name"], []).append(len(record["text"]))
        best = max(expected, key=lambda name: sum(expected[name]) / len(expected[name]))
        assert result.rows[0]["uname"] == best

    @pytest.mark.parametrize("fixture_name", ["inferred_dataset", "open_dataset"])
    def test_exists_filter_group(self, fixture_name, request):
        dataset = request.getfixturevalue(fixture_name)
        predicate = Comparison("=", Func("lowercase", field("ht", "text")), lit("jobs"))
        spec = (scan("t")
                .where(Exists(field("t", "entities", "hashtags"), "ht", predicate))
                .group_by(("uname", field("t", "user", "name")))
                .aggregate("c", "count", None)
                .order_by("c", descending=True)
                .limit(10)
                .build())
        result = QueryExecutor().execute(dataset, spec)
        total = sum(row["c"] for row in result.rows)
        assert total == sum(1 for record in RECORDS
                            if record["entities"]["hashtags"][0]["text"] == "jobs")

    @pytest.mark.parametrize("fixture_name", ["inferred_dataset", "open_dataset"])
    def test_order_by_timestamp(self, fixture_name, request):
        dataset = request.getfixturevalue(fixture_name)
        spec = (scan("t")
                .select_record()
                .order_by(field("t", "timestamp_ms"))
                .build())
        result = QueryExecutor().execute(dataset, spec)
        timestamps = [row["record"]["timestamp_ms"] for row in result.rows]
        assert timestamps == sorted(timestamps)
        assert len(result.rows) == len(RECORDS)

    @pytest.mark.parametrize("fixture_name", ["inferred_dataset", "open_dataset"])
    def test_unnest_aggregate(self, fixture_name, request):
        dataset = request.getfixturevalue(fixture_name)
        spec = (scan("s")
                .unnest(field("s", "readings"), "r")
                .aggregate("max_temp", "max", field("r", "temp"))
                .aggregate("min_temp", "min", field("r", "temp"))
                .aggregate("n", "count", None)
                .build())
        result = QueryExecutor().execute(dataset, spec)
        all_temps = [reading["temp"] for record in RECORDS for reading in record["readings"]]
        row = result.rows[0]
        assert row["max_temp"] == max(all_temps)
        assert row["min_temp"] == min(all_temps)
        assert row["n"] == len(all_temps)

    @pytest.mark.parametrize("fixture_name", ["inferred_dataset", "open_dataset"])
    def test_unnest_group_by(self, fixture_name, request):
        dataset = request.getfixturevalue(fixture_name)
        spec = (scan("s")
                .unnest(field("s", "readings"), "r")
                .group_by(("sid", field("s", "id")))
                .aggregate("avg_temp", "avg", field("r", "temp"))
                .order_by("avg_temp", descending=True)
                .limit(10)
                .build())
        result = QueryExecutor().execute(dataset, spec)
        assert len(result.rows) == 10
        expected_best = max(
            RECORDS,
            key=lambda record: sum(r["temp"] for r in record["readings"]) / len(record["readings"]),
        )
        assert result.rows[0]["sid"] == expected_best["id"]

    def test_where_selective_filter(self, inferred_dataset):
        spec = (scan("t")
                .where(And(Comparison(">=", field("t", "timestamp_ms"), lit(1_000_100)),
                           Comparison("<", field("t", "timestamp_ms"), lit(1_000_200))))
                .group_by(("uname", field("t", "user", "name")))
                .aggregate("c", "count", None)
                .build())
        result = QueryExecutor().execute(inferred_dataset, spec)
        expected = sum(1 for record in RECORDS if 1_000_100 <= record["timestamp_ms"] < 1_000_200)
        assert sum(row["c"] for row in result.rows) == expected

    def test_results_identical_with_and_without_optimizations(self, inferred_dataset):
        spec = (scan("s")
                .unnest(field("s", "readings"), "r")
                .group_by(("sid", field("s", "id")))
                .aggregate("avg_temp", "avg", field("r", "temp"))
                .order_by("sid")
                .build())
        optimized = QueryExecutor().execute(inferred_dataset, spec)
        unoptimized = QueryExecutor(consolidate_field_access=False,
                                    pushdown_through_unnest=False).execute(inferred_dataset, spec)
        assert optimized.rows == unoptimized.rows

    def test_limit_without_order_stops_early(self, inferred_dataset):
        spec = scan("t").select_record().limit(5).build()
        result = QueryExecutor().execute(inferred_dataset, spec)
        assert len(result.rows) == 5
        assert result.stats.records_scanned < len(RECORDS)

    def test_projection_of_fields(self, inferred_dataset):
        spec = (scan("t")
                .select(("tid", field("t", "id")), ("uname", field("t", "user", "name")))
                .build())
        result = QueryExecutor().execute(inferred_dataset, spec)
        assert len(result.rows) == len(RECORDS)
        assert set(result.rows[0]) == {"tid", "uname"}

    def test_let_clause(self, inferred_dataset):
        spec = (scan("t")
                .let("texts", field("t", "entities", "hashtags", "*", "text"))
                .where(Func("array_contains", Var("texts"), lit("jobs")))
                .count_star()
                .build())
        result = QueryExecutor().execute(inferred_dataset, spec)
        expected = sum(1 for record in RECORDS
                       if record["entities"]["hashtags"][0]["text"] == "jobs")
        assert result.rows[0]["count"] == expected

    def test_stats_io_accounting(self, inferred_dataset):
        executor = QueryExecutor(cold_cache=True)
        result = executor.execute(inferred_dataset, scan("t").count_star().build())
        assert result.stats.bytes_read > 0
        assert result.stats.simulated_io_seconds > 0
        assert result.stats.wall_seconds > 0


class TestSchemaBroadcast:
    def test_broadcast_only_for_repartitioning_queries_on_multipartition_datasets(self):
        dataset = Dataset.create("multi", StorageFormat.INFERRED, partitions=3)
        dataset.insert_all(RECORDS[:60])
        dataset.flush_all()
        executor = QueryExecutor()
        grouped = executor.execute(dataset, (scan("t")
                                             .group_by(("uname", field("t", "user", "name")))
                                             .aggregate("c", "count", None)
                                             .build()))
        assert grouped.stats.schema_broadcasts == 1
        assert grouped.stats.schema_broadcast_bytes > 0
        local_only = executor.execute(dataset, scan("t").select_record().limit(3).build())
        assert local_only.stats.schema_broadcasts == 0

    def test_no_broadcast_for_adm_datasets(self, open_dataset):
        executor = QueryExecutor()
        result = executor.execute(open_dataset, (scan("t")
                                                 .group_by(("uname", field("t", "user", "name")))
                                                 .aggregate("c", "count", None)
                                                 .build()))
        assert result.stats.schema_broadcasts == 0
