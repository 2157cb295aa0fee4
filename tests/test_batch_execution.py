"""Vectorized batch execution: batch-vs-row parity, fallback, regressions.

The batch pipeline (``ExecutionMode.BATCH``, the default) must be an invisible
optimization: every query returns exactly the rows the row pipeline returns,
across storage formats, compression, partitioning, and batch sizes — and when
the batch planner cannot vectorize a plan it must fall back to row execution
transparently, recording the reason in ``ExecutionStats``.

Also hosts the regression tests for the three row-pipeline correctness fixes
that shipped with the batch work: mixed-type ORDER BY, pushed-down UNNEST
over scalar collections (SQL++ singleton semantics), and group-by keys
returning their original (unhashable) values.
"""

import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Dataset, DeviceKind, StorageEnvironment, StorageFormat
from repro.core.formats import DictRecordView
from repro.errors import QueryError
from repro.query import (
    Comparison,
    DEFAULT_BATCH_SIZE,
    ExecutionMode,
    Exists,
    Func,
    QueryExecutor,
    Var,
    explain,
    field,
    lit,
    scan,
)
from repro.types import Datatype
from repro.vector import BatchExtractor, VectorEncoder, VectorRecordView, WILDCARD

RECORDS = [
    {
        "id": i,
        "user": {"name": f"user{i % 10}", "verified": i % 4 == 0},
        "text": "x" * (10 + i % 20),
        "timestamp_ms": 1_000_000 + (i * 37) % 1000,
        "entities": {"hashtags": [{"text": "jobs" if i % 5 == 0 else f"tag{i % 7}", "pos": 0}]},
        "readings": [{"temp": float(i % 50), "ts": i}, {"temp": float((i * 3) % 50), "ts": i + 1}],
    }
    for i in range(150)
]


def _dataset(storage_format=StorageFormat.INFERRED, partitions=1, compression=None,
             records=RECORDS, name="batch_tweets", flush=True):
    datatype = None
    if storage_format is StorageFormat.CLOSED:
        datatype = Datatype.from_records("BatchClosedType", list(records),
                                         is_open=True, primary_key="id")
    dataset = Dataset.create(
        name, storage_format, datatype=datatype, partitions=partitions,
        environment=StorageEnvironment.for_device(DeviceKind.NVME_SSD,
                                                  compression=compression,
                                                  page_size=4096))
    dataset.insert_all(records)
    if flush:
        dataset.flush_all()
    return dataset


@pytest.fixture(scope="module")
def inferred_dataset():
    return _dataset()


@pytest.fixture(scope="module")
def partitioned_dataset():
    return _dataset(partitions=4, name="batch_tweets_p4")


# Queries that the batch planner accepts (no UNNEST-item Var uses, ≤1 UNNEST,
# all of them pushed down) — the parity gauntlet.
def _q_count():
    return scan("t").count_star().build()


def _q_group_avg():
    return (scan("t")
            .group_by(("name", field("t", "user", "name")))
            .aggregate("avg_len", "avg", Func("length", field("t", "text")))
            .order_by("avg_len", descending=True)
            .build())


def _q_exists_filter():
    predicate = Comparison("=", field("ht", "text"), lit("jobs"))
    return (scan("t")
            .where(Exists(field("t", "entities", "hashtags"), "ht", predicate))
            .group_by(("name", field("t", "user", "name")))
            .count_star()
            .build())


def _q_order_project():
    return (scan("t")
            .select(("id", field("t", "id")), ("ts", field("t", "timestamp_ms")))
            .order_by(field("t", "timestamp_ms"))
            .limit(25)
            .build())


def _q_select_star():
    return scan("t").select_record().order_by(field("t", "id")).limit(10).build()


def _q_let_where():
    return (scan("t")
            .let("length", Func("length", field("t", "text")))
            .where(Comparison(">", Var("length"), lit(20)))
            .select(("id", field("t", "id")), ("length", Var("length")))
            .build())


def _q_unnest_pushdown():
    return (scan("t")
            .unnest(field("t", "readings"), "r")
            .group_by(("id", field("t", "id")))
            .aggregate("max_temp", "max", field("r", "temp"))
            .build())


PARITY_QUERIES = {
    "count_star": _q_count,
    "group_avg": _q_group_avg,
    "exists_filter": _q_exists_filter,
    "order_project": _q_order_project,
    "select_star": _q_select_star,
    "let_where": _q_let_where,
    "unnest_pushdown": _q_unnest_pushdown,
}


def _run(dataset, spec, mode, **options):
    return QueryExecutor(execution_mode=mode, **options).execute(dataset, spec)


def _assert_parity(dataset, make_spec, **options):
    batch = _run(dataset, make_spec(), ExecutionMode.BATCH, **options)
    row = _run(dataset, make_spec(), ExecutionMode.ROW, **options)
    assert row.stats.execution_mode == "row"
    assert batch.rows == row.rows
    return batch, row


class TestBatchRowParity:
    @pytest.mark.parametrize("query_name", sorted(PARITY_QUERIES))
    @pytest.mark.parametrize("storage_format", [StorageFormat.OPEN, StorageFormat.CLOSED,
                                                StorageFormat.INFERRED, StorageFormat.SL_VB])
    def test_parity_across_formats(self, storage_format, query_name):
        dataset = _dataset(storage_format, name=f"batch_{storage_format.value}")
        batch, _ = _assert_parity(dataset, PARITY_QUERIES[query_name])
        if storage_format.uses_vector_format:
            assert batch.stats.execution_mode == "batch"
        else:
            # ADM formats never consolidate field accesses, so batch planning
            # must decline them with a reason rather than crash or mis-run.
            assert batch.stats.execution_mode == "row"
            assert batch.stats.fallback_reason is not None

    @pytest.mark.parametrize("query_name", sorted(PARITY_QUERIES))
    def test_parity_compressed(self, query_name):
        dataset = _dataset(compression="snappy", name="batch_snappy")
        _assert_parity(dataset, PARITY_QUERIES[query_name])

    @pytest.mark.parametrize("query_name", sorted(PARITY_QUERIES))
    def test_parity_multi_partition(self, partitioned_dataset, query_name):
        _assert_parity(partitioned_dataset, PARITY_QUERIES[query_name])

    @pytest.mark.parametrize("query_name", sorted(PARITY_QUERIES))
    def test_parity_multi_partition_inline(self, partitioned_dataset, query_name):
        _assert_parity(partitioned_dataset, PARITY_QUERIES[query_name], parallelism=1)

    @pytest.mark.parametrize("query_name", sorted(PARITY_QUERIES))
    def test_parity_batch_size_one(self, inferred_dataset, query_name):
        """Size-1 batches stress every chunk boundary; results must not change."""
        batch = _run(inferred_dataset, PARITY_QUERIES[query_name](),
                     ExecutionMode.BATCH, batch_size=1)
        row = _run(inferred_dataset, PARITY_QUERIES[query_name](), ExecutionMode.ROW)
        assert batch.rows == row.rows

    def test_parity_unflushed_memtable(self):
        dataset = _dataset(name="batch_memtable", flush=False)
        for make_spec in PARITY_QUERIES.values():
            _assert_parity(dataset, make_spec)

    def test_batch_stats_reported(self, inferred_dataset, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH_SIZE", raising=False)
        result = _run(inferred_dataset, _q_group_avg(), ExecutionMode.BATCH)
        assert result.stats.execution_mode == "batch"
        assert result.stats.batch_size == DEFAULT_BATCH_SIZE
        assert result.stats.fallback_reason is None
        assert result.stats.batches_processed >= 1

    def test_batch_size_one_batch_count(self, inferred_dataset):
        result = _run(inferred_dataset, _q_group_avg(), ExecutionMode.BATCH, batch_size=1)
        assert result.stats.batches_processed == len(RECORDS)


class TestFallback:
    def test_unnest_item_var_falls_back(self, inferred_dataset):
        """Direct Var uses of the unnested item defeat pushdown → row mode."""
        spec = (scan("t")
                .unnest(field("t", "readings"), "r")
                .where(Comparison("=", Func("is_array", Var("r")), lit(True)))
                .count_star()
                .build())
        batch = _run(inferred_dataset, spec, ExecutionMode.BATCH)
        row = _run(inferred_dataset, spec, ExecutionMode.ROW)
        assert batch.stats.execution_mode == "row"
        assert batch.stats.fallback_reason is not None
        assert batch.rows == row.rows

    def test_multiple_unnests_fall_back(self, inferred_dataset):
        spec = (scan("t")
                .unnest(field("t", "readings"), "r")
                .unnest(field("t", "entities", "hashtags"), "ht")
                .count_star()
                .build())
        batch = _run(inferred_dataset, spec, ExecutionMode.BATCH)
        row = _run(inferred_dataset, spec, ExecutionMode.ROW)
        assert batch.stats.execution_mode == "row"
        assert batch.rows == row.rows

    def test_explicit_row_mode(self, inferred_dataset):
        result = _run(inferred_dataset, _q_count(), ExecutionMode.ROW)
        assert result.stats.execution_mode == "row"
        assert result.stats.batches_processed == 0

    def test_batch_size_zero_disables(self, inferred_dataset):
        result = _run(inferred_dataset, _q_count(), ExecutionMode.BATCH, batch_size=0)
        assert result.stats.execution_mode == "row"
        assert "batch size 0" in result.stats.fallback_reason

    def test_consolidation_disabled_falls_back(self, inferred_dataset):
        executor = QueryExecutor(consolidate_field_access=False,
                                 execution_mode=ExecutionMode.BATCH)
        result = executor.execute(inferred_dataset, _q_group_avg())
        assert result.stats.execution_mode == "row"
        assert result.stats.fallback_reason is not None

    def test_mode_env_var(self, inferred_dataset, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTION_MODE", "row")
        result = QueryExecutor().execute(inferred_dataset, _q_group_avg())
        assert result.stats.execution_mode == "row"
        monkeypatch.setenv("REPRO_EXECUTION_MODE", "batch")
        result = QueryExecutor().execute(inferred_dataset, _q_group_avg())
        assert result.stats.execution_mode == "batch"

    def test_batch_size_env_var(self, inferred_dataset, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_SIZE", "7")
        result = QueryExecutor(execution_mode=ExecutionMode.BATCH).execute(
            inferred_dataset, _q_group_avg())
        assert result.stats.batch_size == 7
        assert result.stats.batches_processed == -(-len(RECORDS) // 7)

    def test_invalid_mode_and_size_rejected(self, inferred_dataset, monkeypatch):
        with pytest.raises(QueryError):
            _run(inferred_dataset, _q_count(), "columnar")
        with pytest.raises(QueryError):
            _run(inferred_dataset, _q_count(), ExecutionMode.BATCH, batch_size=-1)
        monkeypatch.setenv("REPRO_BATCH_SIZE", "lots")
        with pytest.raises(QueryError):
            QueryExecutor().execute(inferred_dataset, _q_count())


class TestExplainIntegration:
    def test_explain_shows_batch_mode(self, inferred_dataset):
        rendered = explain(inferred_dataset, _q_group_avg(), analyze=True,
                           execution_mode="batch", batch_size=DEFAULT_BATCH_SIZE)
        assert f"execution mode: batch (size={DEFAULT_BATCH_SIZE})" in rendered
        assert "mode=batch" in rendered
        assert "batch(es)" in rendered

    def test_explain_shows_fallback(self, inferred_dataset):
        spec = (scan("t")
                .unnest(field("t", "readings"), "r")
                .where(Comparison("=", Func("is_array", Var("r")), lit(True)))
                .count_star()
                .build())
        rendered = explain(inferred_dataset, spec, analyze=True,
                           execution_mode="batch")
        assert "execution mode: row (batch fallback:" in rendered
        assert "mode=row" in rendered


# ---------------------------------------------------------------------------
# row-pipeline correctness regressions (fixed alongside the batch work)
# ---------------------------------------------------------------------------

class TestRegressions:
    def test_mixed_type_order_by(self):
        """ORDER BY over a column mixing ints, strings, bools, lists and
        absent values used to raise TypeError from Python's sort."""
        records = [
            {"id": 0, "v": 3},
            {"id": 1, "v": "x"},
            {"id": 2},
            {"id": 3, "v": True},
            {"id": 4, "v": [1, 2]},
            {"id": 5, "v": None},
            {"id": 6, "v": 2.5},
            {"id": 7, "v": "a"},
        ]
        dataset = _dataset(records=records, name="batch_mixed_order")
        spec = (scan("t")
                .select(("id", field("t", "id")), ("v", field("t", "v")))
                .order_by(field("t", "v"))
                .build())
        batch = _run(dataset, spec, ExecutionMode.BATCH)
        row = _run(dataset, spec, ExecutionMode.ROW)
        assert batch.rows == row.rows
        ids = [r["id"] for r in row.rows]
        # Type-ranked groups, each internally sorted; absent values sort last.
        assert ids.index(3) < ids.index(6)          # bool before numbers
        assert ids.index(6) < ids.index(0)          # 2.5 < 3
        assert ids.index(7) < ids.index(1)          # "a" < "x"
        assert ids.index(1) < ids.index(4)          # strings before lists
        assert ids.index(4) < ids.index(2)          # missing sorts last

    @pytest.mark.parametrize("flush", [True, False])
    def test_scalar_collection_unnest_parity(self, flush):
        """UNNEST of a sometimes-scalar field follows SQL++ singleton
        semantics identically with and without pushdown, flushed or not."""
        records = [
            {"id": 0, "tags": ["a", "b"]},
            {"id": 1, "tags": "solo"},          # scalar → singleton collection
            {"id": 2, "tags": []},
            {"id": 3},                           # absent → no rows
            {"id": 4, "tags": ["a"]},
        ]
        dataset = _dataset(records=records, name=f"batch_scalar_unnest_{flush}",
                           flush=flush)
        spec = (scan("t")
                .unnest(field("t", "tags"), "tag")
                .group_by(("id", field("t", "id")))
                .count_star("n")
                .build())
        pushed = QueryExecutor(pushdown_through_unnest=True).execute(dataset, spec)
        unpushed = QueryExecutor(pushdown_through_unnest=False).execute(dataset, spec)
        expected = {0: 2, 1: 1, 4: 1}
        assert {r["id"]: r["n"] for r in pushed.rows} == expected
        assert sorted(pushed.rows, key=lambda r: r["id"]) == \
            sorted(unpushed.rows, key=lambda r: r["id"])
        batch = _run(dataset, spec, ExecutionMode.BATCH)
        assert sorted(batch.rows, key=lambda r: r["id"]) == \
            sorted(pushed.rows, key=lambda r: r["id"])

    def test_group_by_returns_original_key_values(self):
        """Grouping on list/object-valued keys must emit the first-seen
        original value, not the internal hashable tuple."""
        records = [
            {"id": 0, "k": [1, 2]},
            {"id": 1, "k": [1, 2]},
            {"id": 2, "k": {"a": 1}},
            {"id": 3, "k": {"a": 1}},
            {"id": 4, "k": "plain"},
        ]
        dataset = _dataset(records=records, name="batch_group_keys")
        spec = (scan("t")
                .group_by(("k", field("t", "k")))
                .count_star("n")
                .build())
        for mode in (ExecutionMode.BATCH, ExecutionMode.ROW):
            result = _run(dataset, spec, mode)
            by_count = {repr(r["k"]): r["n"] for r in result.rows}
            assert by_count == {"[1, 2]": 2, "{'a': 1}": 2, "'plain'": 1}
            kinds = {type(r["k"]) for r in result.rows}
            assert kinds == {list, dict, str}


# ---------------------------------------------------------------------------
# property-based parity
# ---------------------------------------------------------------------------

_field_names = st.text(alphabet=string.ascii_lowercase + "_", min_size=1, max_size=10)

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=16),
)


def _values(depth=2):
    if depth == 0:
        return _scalars
    children = _values(depth - 1)
    return st.one_of(_scalars,
                     st.lists(children, max_size=3),
                     st.dictionaries(_field_names, children, max_size=3))


_records = st.dictionaries(_field_names, _values(2), max_size=5)


def _paths_of(value, prefix=(), wild_used=False):
    """Single-wildcard paths reachable in a record (extractor test requests)."""
    paths = []
    if isinstance(value, dict):
        for key, child in value.items():
            paths.append(prefix + (key,))
            paths.extend(_paths_of(child, prefix + (key,), wild_used))
    elif isinstance(value, list) and not wild_used:
        paths.append(prefix + (WILDCARD,))
        for item in value[:2]:
            paths.extend(_paths_of(item, prefix + (WILDCARD,), True))
    return paths


_prop_settings = settings(max_examples=40, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
_engine_settings = settings(max_examples=12, deadline=None,
                            suppress_health_check=[HealthCheck.too_slow])


class TestBatchProperties:
    @_prop_settings
    @given(record=_records)
    def test_extractor_matches_get_values(self, record):
        """The trie walk over the bytes must equal plain-dict navigation.

        ``VectorRecordView.get_values`` is the same extractor (cached per
        path set), so the reference is the dict-side view of the record.
        """
        payload = VectorEncoder(None).encode(record)
        view = VectorRecordView(payload)
        paths = list(dict.fromkeys(_paths_of(record)))[:24]
        paths.append(("definitely_not_a_field",))
        expected = DictRecordView(record).get_values(*paths)
        assert BatchExtractor(paths).extract(view) == expected
        assert view.get_values(*paths) == expected

    @_engine_settings
    @given(records=st.lists(_records, min_size=1, max_size=12))
    def test_engine_parity_on_random_records(self, records):
        """Batch and row modes agree on random documents end to end."""
        records = [dict(record, id=index) for index, record in enumerate(records)]
        dataset = _dataset(records=records, name="batch_prop")
        queries = [
            scan("t").count_star().build,
            lambda: scan("t").select_record().order_by(field("t", "id")).build(),
            lambda: (scan("t")
                     .group_by(("k", field("t", "k")))
                     .aggregate("n", "count", field("t", "id"))
                     .build()),
        ]
        for make_spec in queries:
            batch = _run(dataset, make_spec(), ExecutionMode.BATCH)
            row = _run(dataset, make_spec(), ExecutionMode.ROW)
            assert batch.rows == row.rows
