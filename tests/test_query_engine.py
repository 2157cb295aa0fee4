"""Tests for the query engine: expressions, operators, optimizer, executor."""

import pytest

from repro import Dataset, StorageEnvironment, StorageFormat, compile_sqlpp
from repro.query import And, Comparison, Exists, FieldAccess, Func, Literal, Or
from repro.query.batch_compile import _Context, compile_expr
from repro.query.expressions import Not
from repro.query.optimizer import Optimizer
from repro.types import MISSING
from repro.vector import ColumnBatch

from reference import evaluate, partition_records, reference_rows

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
        _assert_evaluates(FieldAccess("t", ("a", "b", 1)), env, 2)
        _assert_evaluates(FieldAccess("t", ("a", "zzz")), env, MISSING)

    def test_comparison_missing_propagation(self):
        env = {"t": {"a": 5}}
        _assert_evaluates(Comparison(">", FieldAccess("t", ("b",)), Literal(1)), env, MISSING)
        _assert_evaluates(And(Comparison(">", FieldAccess("t", ("b",)), Literal(1))), env, False)

    def test_boolean_operators(self):
        env = {}
        _assert_evaluates(And(Literal(True), Literal(1)), env, True)
        _assert_evaluates(And(Literal(True), Literal(0)), env, False)
        _assert_evaluates(Or(Literal(False), Literal(3)), env, True)
        _assert_evaluates(Not(Literal(False)), env, True)

    def test_functions(self):
        env = {"t": {"name": "Ann", "tags": ["a", "b"]}}
        _assert_evaluates(Func("length", FieldAccess("t", ("name",))), env, 3)
        _assert_evaluates(Func("lowercase", Literal("ABC")), env, "abc")
        _assert_evaluates(Func("array_count", FieldAccess("t", ("tags",))), env, 2)
        _assert_evaluates(Func("array_contains", FieldAccess("t", ("tags",)), Literal("a")), env, True)
        _assert_evaluates(Func("is_array", FieldAccess("t", ("name",))), env, False)

    def test_exists(self):
        env = {"t": {"hashtags": [{"text": "jobs"}, {"text": "other"}]}}
        predicate = Comparison("=", FieldAccess("ht", ("text",)), Literal("jobs"))
        _assert_evaluates(Exists(FieldAccess("t", ("hashtags",)), "ht", predicate), env, True)
        bad = Comparison("=", FieldAccess("ht", ("text",)), Literal("nope"))
        _assert_evaluates(Exists(FieldAccess("t", ("hashtags",)), "ht", bad), env, False)

    def test_unknown_function_rejected(self):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            Func("no_such_function", Literal(1))


def _spec(text):
    return compile_sqlpp(text).spec


_AVG_TEMP_BY_ID = """
    SELECT sid, avg(r.temp) AS avg_temp
    FROM tweets AS s UNNEST s.readings AS r
    GROUP BY s.id AS sid
"""


class TestOptimizer:
    def test_consolidation_collects_paths(self):
        spec = _spec("""
            SELECT name, avg(length(t.text)) AS avg_len
            FROM tweets AS t
            WHERE t.timestamp_ms > 5
            GROUP BY t.user.name AS name
        """)
        plan = Optimizer().plan(spec, uses_vector_format=True)
        assert plan.consolidate
        assert ("timestamp_ms",) in plan.scan_paths
        assert ("user", "name") in plan.scan_paths
        assert ("text",) in plan.scan_paths

    def test_no_consolidation_for_adm_formats(self):
        spec = _spec("SELECT VALUE count(*) FROM tweets AS t")
        plan = Optimizer().plan(spec, uses_vector_format=False)
        assert not plan.consolidate

    def test_unnest_pushdown(self):
        plan = Optimizer().plan(_spec(_AVG_TEMP_BY_ID), uses_vector_format=True)
        unnest_plan = plan.unnest_plans[0]
        assert unnest_plan.pushed_down
        assert unnest_plan.pushdown_paths[("temp",)] == ("readings", "*", "temp")
        assert ("readings", "*", "temp") in plan.scan_paths
        assert ("readings",) not in plan.scan_paths

    def test_unnest_pushdown_disabled_when_item_used_directly(self):
        spec = _spec("""
            SELECT sid, listify(r) AS items
            FROM tweets AS s UNNEST s.readings AS r
            GROUP BY s.id AS sid
        """)
        plan = Optimizer().plan(spec, uses_vector_format=True)
        assert not plan.unnest_plans[0].pushed_down

    def test_exists_rewrite(self):
        spec = _spec("""
            SELECT VALUE count(*) FROM tweets AS t
            WHERE SOME ht IN t.entities.hashtags SATISFIES lowercase(ht.text) = 'jobs'
        """)
        plan = Optimizer().plan(spec, uses_vector_format=True)
        assert ("entities", "hashtags", "*", "text") in plan.scan_paths
        rewritten = plan.effective_spec(spec)
        assert isinstance(rewritten.where, Exists)
        assert rewritten.where.collection.path == ("entities", "hashtags", "*", "text")

    def test_optimizations_can_be_disabled(self):
        plan = Optimizer(consolidate_field_access=False).plan(_spec(_AVG_TEMP_BY_ID),
                                                              uses_vector_format=True)
        assert not plan.consolidate
        assert not plan.unnest_plans[0].pushed_down


class TestExecutorOnAllFormats:
    @pytest.mark.parametrize("fixture_name", ["inferred_dataset", "open_dataset"])
    def test_count_star(self, fixture_name, request):
        dataset = request.getfixturevalue(fixture_name)
        result = dataset.query("SELECT VALUE count(*) FROM tweets AS t")
        assert result.rows == [{"count": len(RECORDS)}]
        assert result.stats.records_scanned == len(RECORDS)

    @pytest.mark.parametrize("fixture_name", ["inferred_dataset", "open_dataset"])
    def test_group_by_avg_length(self, fixture_name, request):
        dataset = request.getfixturevalue(fixture_name)
        result = dataset.query("""
            SELECT uname, avg(length(t.text)) AS a
            FROM tweets AS t
            GROUP BY t.user.name AS uname
            ORDER BY a DESC
            LIMIT 10
        """)
        assert len(result.rows) == 10
        expected = {}
        for record in RECORDS:
            expected.setdefault(record["user"]["name"], []).append(len(record["text"]))
        best = max(expected, key=lambda name: sum(expected[name]) / len(expected[name]))
        assert result.rows[0]["uname"] == best

    @pytest.mark.parametrize("fixture_name", ["inferred_dataset", "open_dataset"])
    def test_exists_filter_group(self, fixture_name, request):
        dataset = request.getfixturevalue(fixture_name)
        result = dataset.query("""
            SELECT uname, count(*) AS c
            FROM tweets AS t
            WHERE SOME ht IN t.entities.hashtags SATISFIES lowercase(ht.text) = 'jobs'
            GROUP BY t.user.name AS uname
            ORDER BY c DESC
            LIMIT 10
        """)
        total = sum(row["c"] for row in result.rows)
        assert total == sum(1 for record in RECORDS
                            if record["entities"]["hashtags"][0]["text"] == "jobs")

    @pytest.mark.parametrize("fixture_name", ["inferred_dataset", "open_dataset"])
    def test_order_by_timestamp(self, fixture_name, request):
        dataset = request.getfixturevalue(fixture_name)
        result = dataset.query("SELECT * FROM tweets AS t ORDER BY t.timestamp_ms")
        timestamps = [row["record"]["timestamp_ms"] for row in result.rows]
        assert timestamps == sorted(timestamps)
        assert len(result.rows) == len(RECORDS)

    @pytest.mark.parametrize("fixture_name", ["inferred_dataset", "open_dataset"])
    def test_unnest_aggregate(self, fixture_name, request):
        dataset = request.getfixturevalue(fixture_name)
        result = dataset.query("""
            SELECT max(r.temp) AS max_temp, min(r.temp) AS min_temp, count(*) AS n
            FROM tweets AS s UNNEST s.readings AS r
        """)
        all_temps = [reading["temp"] for record in RECORDS for reading in record["readings"]]
        row = result.rows[0]
        assert row["max_temp"] == max(all_temps)
        assert row["min_temp"] == min(all_temps)
        assert row["n"] == len(all_temps)

    @pytest.mark.parametrize("fixture_name", ["inferred_dataset", "open_dataset"])
    def test_unnest_group_by(self, fixture_name, request):
        dataset = request.getfixturevalue(fixture_name)
        result = dataset.query(_AVG_TEMP_BY_ID + " ORDER BY avg_temp DESC LIMIT 10")
        assert len(result.rows) == 10
        expected_best = max(
            RECORDS,
            key=lambda record: sum(r["temp"] for r in record["readings"]) / len(record["readings"]),
        )
        assert result.rows[0]["sid"] == expected_best["id"]

    def test_where_selective_filter(self, inferred_dataset):
        result = inferred_dataset.query("""
            SELECT uname, count(*) AS c
            FROM tweets AS t
            WHERE t.timestamp_ms >= 1000100 AND t.timestamp_ms < 1000200
            GROUP BY t.user.name AS uname
        """)
        expected = sum(1 for record in RECORDS if 1_000_100 <= record["timestamp_ms"] < 1_000_200)
        assert sum(row["c"] for row in result.rows) == expected

    def test_results_identical_with_and_without_optimizations(self, inferred_dataset):
        text = _AVG_TEMP_BY_ID + " ORDER BY sid"
        optimized = inferred_dataset.query(text)
        unoptimized = inferred_dataset.query(text, consolidate_field_access=False,
                                             pushdown_through_unnest=False)
        assert optimized.rows == unoptimized.rows

    def test_limit_without_order_stops_early(self, inferred_dataset):
        result = inferred_dataset.query("SELECT * FROM tweets AS t LIMIT 5")
        assert len(result.rows) == 5
        assert result.stats.records_scanned < len(RECORDS)

    def test_projection_of_fields(self, inferred_dataset):
        result = inferred_dataset.query("SELECT t.id AS tid, t.user.name AS uname FROM tweets AS t")
        assert len(result.rows) == len(RECORDS)
        assert set(result.rows[0]) == {"tid", "uname"}

    def test_let_clause(self, inferred_dataset):
        result = inferred_dataset.query("""
            SELECT VALUE count(*) FROM tweets AS t
            LET texts = t.entities.hashtags[*].text
            WHERE array_contains(texts, 'jobs')
        """)
        expected = sum(1 for record in RECORDS
                       if record["entities"]["hashtags"][0]["text"] == "jobs")
        assert result.rows[0]["count"] == expected

    def test_stats_io_accounting(self, inferred_dataset):
        result = inferred_dataset.query("SELECT VALUE count(*) FROM tweets AS t", cold_cache=True)
        assert result.stats.bytes_read > 0
        assert result.stats.simulated_io_seconds > 0
        assert result.stats.wall_seconds > 0


_COUNT_BY_USER = "SELECT uname, count(*) AS c FROM tweets AS t GROUP BY t.user.name AS uname"


class TestSchemaBroadcast:
    def test_broadcast_only_for_repartitioning_queries_on_multipartition_datasets(self):
        dataset = Dataset.create("multi", StorageFormat.INFERRED, partitions=3)
        dataset.insert_all(RECORDS[:60])
        dataset.flush_all()
        grouped = dataset.query(_COUNT_BY_USER)
        assert grouped.stats.schema_broadcasts == 1
        assert grouped.stats.schema_broadcast_bytes > 0
        local_only = dataset.query("SELECT * FROM tweets AS t LIMIT 3")
        assert local_only.stats.schema_broadcasts == 0

    def test_no_broadcast_for_adm_datasets(self, open_dataset):
        assert open_dataset.query(_COUNT_BY_USER).stats.schema_broadcasts == 0


class TestAggregatesOverEmptyInput:
    """Aggregates without GROUP BY make one row even over no input: count 0,
    every other aggregate null.  A grouped query over no input has no row."""

    CASES = [
        ("SELECT VALUE count(*) FROM x AS t", [{"count": 0}]),
        ("SELECT count(*) AS c FROM x AS t WHERE t.v > 100", [{"c": 0}]),
        ("SELECT count(*) AS c, avg(t.v) AS a, max(t.v) AS m, min(t.v) AS n, sum(t.v) AS s "
         "FROM x AS t", [{"c": 0, "a": None, "m": None, "n": None, "s": None}]),
        ("SELECT k, count(*) AS c FROM x AS t GROUP BY t.k AS k", []),
    ]

    @pytest.mark.parametrize("state", ["empty", "memtable", "flushed"])
    @pytest.mark.parametrize("partitions", [1, 2])
    @pytest.mark.parametrize("storage_format", [StorageFormat.OPEN, StorageFormat.INFERRED],
                             ids=lambda f: f.value)
    def test_engine_and_reference(self, storage_format, partitions, state):
        dataset = Dataset.create("x", storage_format, partitions=partitions)
        records = [] if state == "empty" else [{"id": 1, "k": "a", "v": 5}]
        dataset.insert_all(records)
        if state == "flushed":
            dataset.flush_all()
        for text, expected in self.CASES:
            if records and "WHERE" not in text:
                # ``t.v > 100`` filters the stored record out.
                text = text.replace("FROM x AS t", "FROM x AS t WHERE t.v > 100")
            assert dataset.query(text).rows == expected, text
            assert reference_rows(_spec(text), partition_records(records, partitions)) == expected
