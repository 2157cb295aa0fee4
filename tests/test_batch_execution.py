"""The partition pipeline against the reference model, plus its plan-time errors.

The ColumnBatch pipeline is the only executor: every query must return
exactly the rows ``tests/reference.py`` (a naive interpreter over plain
dicts) returns — across storage formats, compression, partitioning,
parallelism and batch sizes — and a query the pipeline cannot run must fail
with ``QueryError`` when it is planned, never part-way through a scan.

Also hosts the regression tests for three correctness fixes that shipped
with the batch work: mixed-type ORDER BY, pushed-down UNNEST over scalar
collections (SQL++ singleton semantics), and group-by keys returning their
original (unhashable) values.
"""

import random
import string
import sys
import threading
import uuid
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sqlpp
from repro import Dataset, DeviceKind, StorageEnvironment, StorageFormat, compile_sqlpp
from repro.adm import ADMEncoder, ADMRecordView
from repro.core.tuple_compactor import TupleCompactor
from repro.datasets import sensors, twitter
from repro.errors import DecodingError, QueryError, SchemaError
from repro.query import (
    And,
    AggregateSpec,
    Comparison,
    DEFAULT_BATCH_SIZE,
    Exists,
    Expr,
    FieldAccess,
    Literal,
    Optimizer,
    Or,
    OrderKey,
    QueryExecutor,
    QuerySpec,
    UnnestClause,
    Var,
    explain,
)
from repro.query.operators import group_partials
from repro.query.plan import LetClause
from repro.schema import InferredSchema
from repro.types import (ADate, ADateTime, AMultiset, APoint, ATime, Datatype, FieldDeclaration,
                         MISSING, TypeTag, navigate)
from repro.vector import (BatchExtractor, VectorEncoder, VectorRecordView, WILDCARD,
                          compact_record, infer_and_compact)
from repro.vector import batch as vector_batch

from reference import _partial as reference_partial
from reference import evaluate, partition_records, reference_rows

RECORDS = [
    {
        "id": i,
        "user": {"name": f"user{i % 10}", "verified": i % 4 == 0},
        "text": "x" * (10 + i % 20),
        "timestamp_ms": 1_000_000 + (i * 37) % 1000,
        "entities": {"hashtags": [{"text": "jobs" if i % 5 == 0 else f"tag{i % 7}", "pos": 0},
                                  {"text": f"user{i % 3}", "pos": 1}]},
        "readings": [{"temp": float(i % 50), "ts": i}, {"temp": float((i * 3) % 50), "ts": i + 1}],
        "groups": [{"members": [i % 3, 7]}, {"members": []}] if i % 2 else [],
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


PARITY_QUERIES = {
    "count_star": "SELECT VALUE count(*) FROM tweets AS t",
    "group_avg": """
        SELECT name, avg(length(t.text)) AS avg_len FROM tweets AS t
        GROUP BY t.user.name AS name ORDER BY avg_len DESC""",
    "exists_filter": """
        SELECT name, count(*) AS count FROM tweets AS t
        WHERE SOME ht IN t.entities.hashtags SATISFIES ht.text = 'jobs'
        GROUP BY t.user.name AS name""",
    "order_project": """
        SELECT t.id AS id, t.timestamp_ms AS ts FROM tweets AS t
        ORDER BY t.timestamp_ms LIMIT 25""",
    "select_star": "SELECT * FROM tweets AS t ORDER BY t.id LIMIT 10",
    "let_where": """
        SELECT t.id AS id, length AS length FROM tweets AS t
        LET length = length(t.text) WHERE length > 20""",
    "unnest_pushdown": """
        SELECT id, max(r.temp) AS max_temp FROM tweets AS t UNNEST t.readings AS r
        GROUP BY t.id AS id""",
    # Whole-item uses defeat the access pushdown: the generic UNNEST runs.
    "unnest_item_var": """
        SELECT t.id AS id, r AS reading FROM tweets AS t UNNEST t.readings AS r
        WHERE r.temp > 40.0""",
    "two_unnests": """
        SELECT tag, max(r.temp) AS max_temp
        FROM tweets AS t UNNEST t.readings AS r UNNEST t.entities.hashtags AS ht
        GROUP BY ht.text AS tag""",
    # The second UNNEST iterates a field of the first one's item.
    "chained_unnests": """
        SELECT member, count(*) AS n
        FROM tweets AS t UNNEST t.groups AS g UNNEST g.members AS m
        GROUP BY m AS member""",
    # Nested quantifiers; the inner one re-binds (shadows) the outer name,
    # which SQL++ text cannot state.
    "nested_exists": QuerySpec(
        where=Exists(FieldAccess("t", ("groups",)), "g",
                     Exists(FieldAccess("g", ("members",)), "g",
                            Comparison("=", Var("g"), FieldAccess("t", ("id",))))),
        projections=[("id", FieldAccess("t", ("id",)))]),
    # A quantifier inside a pushed-down one: the inner collection reads the
    # outer item, which the pushdown turns into the item's ``members``.
    "exists_in_exists": """
        SELECT t.id AS id FROM tweets AS t
        WHERE SOME g IN t.groups SATISFIES (SOME m IN g.members SATISFIES m = 1)""",
    # The same, the inner quantifier re-binding the outer name: its
    # predicate's ``g.members`` reads a member (MISSING), not the group's.
    "exists_in_exists_shadowed": QuerySpec(
        where=Exists(FieldAccess("t", ("groups",)), "g",
                     Exists(FieldAccess("g", ("members",)), "g",
                            Or(Comparison("=", FieldAccess("g", ("members",)), Literal(1)),
                               Comparison("=", FieldAccess("t", ("id",)), Literal(3))))),
        projections=[("id", FieldAccess("t", ("id",)))]),
    # The predicate mixes the item variable with a row-only subexpression.
    "exists_row_and_item": """
        SELECT t.id AS id FROM tweets AS t
        WHERE SOME ht IN t.entities.hashtags SATISFIES ht.text = lowercase(t.user.name)""",
}

ALL_FORMATS = [StorageFormat.OPEN, StorageFormat.CLOSED, StorageFormat.INFERRED,
               StorageFormat.SL_VB]


def _assert_matches_reference(dataset, query, records=RECORDS, **options):
    """``query`` is SQL++ text, run through ``dataset.query``, or a spec the
    text cannot state, run through ``QueryExecutor.execute``."""
    if isinstance(query, str):
        result, spec = dataset.query(query, **options), compile_sqlpp(query).spec
    else:
        result, spec = QueryExecutor(**options).execute(dataset, query), query
    expected = reference_rows(spec, partition_records(records, dataset.partition_count))
    assert result.rows == expected
    assert result.stats.batches_processed > 0
    return result


class TestReferenceParity:
    @pytest.mark.parametrize("query_name", sorted(PARITY_QUERIES))
    @pytest.mark.parametrize("storage_format", ALL_FORMATS)
    def test_parity_across_formats(self, storage_format, query_name):
        """ADM formats run the same pipeline: offset-guided get_field where
        the query uses a value, where a vector format walks the record once."""
        dataset = _dataset(storage_format, name=f"batch_{storage_format.value}")
        _assert_matches_reference(dataset, PARITY_QUERIES[query_name])

    @pytest.mark.parametrize("query_name", sorted(PARITY_QUERIES))
    def test_parity_compressed(self, query_name):
        dataset = _dataset(compression="snappy", name="batch_snappy")
        _assert_matches_reference(dataset, PARITY_QUERIES[query_name])

    @pytest.mark.parametrize("query_name", sorted(PARITY_QUERIES))
    def test_parity_multi_partition(self, partitioned_dataset, query_name):
        _assert_matches_reference(partitioned_dataset, PARITY_QUERIES[query_name])

    @pytest.mark.parametrize("query_name", sorted(PARITY_QUERIES))
    def test_parity_multi_partition_inline(self, partitioned_dataset, query_name):
        _assert_matches_reference(partitioned_dataset, PARITY_QUERIES[query_name],
                                  parallelism=1)

    @pytest.mark.parametrize("query_name", sorted(PARITY_QUERIES))
    @pytest.mark.parametrize("batch_size", [1, 64, 1024])
    def test_parity_across_batch_sizes(self, inferred_dataset, batch_size, query_name):
        """Size-1 batches stress every chunk boundary; results must not change."""
        _assert_matches_reference(inferred_dataset, PARITY_QUERIES[query_name],
                                  batch_size=batch_size)

    @pytest.mark.parametrize("storage_format", [StorageFormat.OPEN, StorageFormat.INFERRED])
    def test_parity_unflushed_memtable(self, storage_format):
        dataset = _dataset(storage_format, name=f"batch_memtable_{storage_format.value}",
                           flush=False)
        for query in PARITY_QUERIES.values():
            _assert_matches_reference(dataset, query)

    @pytest.mark.parametrize("query_name", sorted(PARITY_QUERIES))
    @pytest.mark.parametrize("pushdown", [True, False])
    def test_parity_with_consolidation_off(self, inferred_dataset, pushdown, query_name):
        """The Figure 23 ablation runs the same pipeline with per-path walks."""
        _assert_matches_reference(inferred_dataset, PARITY_QUERIES[query_name],
                                  consolidate_field_access=False,
                                  pushdown_through_unnest=pushdown)

    @pytest.mark.parametrize("query_name", sorted(PARITY_QUERIES))
    def test_parity_without_unnest_pushdown(self, inferred_dataset, query_name):
        _assert_matches_reference(inferred_dataset, PARITY_QUERIES[query_name],
                                  pushdown_through_unnest=False)

    def test_batch_stats_reported(self, inferred_dataset):
        result = inferred_dataset.query(PARITY_QUERIES["group_avg"])
        assert result.stats.batch_size == DEFAULT_BATCH_SIZE
        assert result.stats.batches_processed >= 1

    def test_batch_size_one_batch_count(self, inferred_dataset):
        result = inferred_dataset.query(PARITY_QUERIES["group_avg"], batch_size=1)
        assert result.stats.batches_processed == len(RECORDS)


class _Opaque(Expr):
    """An Expr subclass the plan compiler has no case for."""


_COUNT = AggregateSpec("count", "count")
_READINGS = FieldAccess("t", ("readings",))


class TestPlanTimeErrors:
    """What the pipeline cannot run fails when planned, before any scan.

    The binder makes none of these specs from SQL++ text, so each is built
    from the expression classes."""

    def _assert_rejected(self, dataset, spec):
        """The planner's error is execute()'s and explain()'s: one planner.
        explain() states its query as text, so the compiler is stubbed to
        bind a fresh statement to ``spec``."""
        with pytest.raises(QueryError) as planned:
            QueryExecutor().prepare_physical(dataset, spec)
        text = f"SELECT * FROM unplannable_{uuid.uuid4().hex} AS t"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repro.sqlpp, "compile", lambda *args: SimpleNamespace(spec=spec))
            for run in (lambda: QueryExecutor().execute(dataset, spec),
                        lambda: explain(dataset, text)):
                with pytest.raises(QueryError) as rejected:
                    run()
                assert str(rejected.value) == str(planned.value)

    def test_unbound_variable(self, inferred_dataset):
        self._assert_rejected(inferred_dataset, QuerySpec(projections=[("x", Var("nobody"))]))
        self._assert_rejected(
            inferred_dataset, QuerySpec(projections=[("a", FieldAccess("x", ("foo",)))]))
        self._assert_rejected(
            inferred_dataset,
            QuerySpec(where=Comparison("=", FieldAccess("nobody", ("a",)), Literal(1)),
                      aggregates=[_COUNT]))

    def test_let_cannot_see_a_later_unnest(self, inferred_dataset):
        """LETs bind before UNNESTs, as in the pipeline order."""
        self._assert_rejected(
            inferred_dataset,
            QuerySpec(lets=[LetClause("x", Var("r"))], unnests=[UnnestClause(_READINGS, "r")],
                      aggregates=[_COUNT]))

    def test_order_by_column_name_in_non_grouped_query(self, inferred_dataset):
        self._assert_rejected(
            inferred_dataset,
            QuerySpec(projections=[("id", FieldAccess("t", ("id",)))], order_by=[OrderKey("id")]))

    def test_order_by_expression_in_grouped_query(self, inferred_dataset):
        self._assert_rejected(
            inferred_dataset,
            QuerySpec(group_keys=[("id", FieldAccess("t", ("id",)))],
                      aggregates=[AggregateSpec("n", "count")], order_by=[OrderKey(Var("n"))]))

    def test_unknown_expr_subclass(self, inferred_dataset):
        self._assert_rejected(inferred_dataset, QuerySpec(projections=[("x", _Opaque())]))
        for unplannable in (_Opaque(), Var("nobody")):
            quantified = Exists(_READINGS, "r",
                                And(Comparison("=", Var("r"), Literal(1)), unplannable))
            self._assert_rejected(inferred_dataset,
                                  QuerySpec(where=quantified, aggregates=[_COUNT]))


    def test_batch_size_must_be_positive(self):
        for size in (0, -1):
            with pytest.raises(QueryError):
                QueryExecutor(batch_size=size)


class TestExplainIntegration:
    def test_explain_shows_execution_line(self, inferred_dataset):
        rendered = explain(inferred_dataset, PARITY_QUERIES["group_avg"], analyze=True,
                           batch_size=DEFAULT_BATCH_SIZE)
        assert f"execution: batch (size={DEFAULT_BATCH_SIZE})" in rendered
        assert "batch(es))" in rendered
        assert "fallback" not in rendered

    def test_explain_marks_the_unnest_shape(self, inferred_dataset):
        assert "[pushdown]" in explain(inferred_dataset, PARITY_QUERIES["unnest_pushdown"])
        assert "[pushdown]" not in explain(inferred_dataset, PARITY_QUERIES["unnest_item_var"])

    def test_explain_lists_every_column_the_scan_extracts(self, inferred_dataset):
        """A projected collection whose UNNEST is pushed down is extracted whole
        *and* item-wise: the optimizer's list drops it, the scan's keeps it."""
        rendered = inferred_dataset.explain(
            "SELECT t.readings, r.temp FROM batch_tweets t UNNEST t.readings r")
        assert "get_values(readings, readings.*.temp)" in rendered

    def test_explain_analyze_times_the_plan_it_shows(self, inferred_dataset, monkeypatch):
        calls, plan = [], Optimizer.plan
        monkeypatch.setattr(Optimizer, "plan",
                            lambda *args, **kw: calls.append(args) or plan(*args, **kw))
        inferred_dataset.plan_cache.clear()
        explain(inferred_dataset, PARITY_QUERIES["group_avg"], analyze=True)
        assert len(calls) == 1  # planned once: what is rendered is what ran


# ---------------------------------------------------------------------------
# correctness regressions (fixed alongside the batch work)
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
        result = _assert_matches_reference(
            dataset, "SELECT t.id AS id, t.v AS v FROM x AS t ORDER BY t.v", records)
        ids = [r["id"] for r in result.rows]
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

        text = "SELECT id, count({}) AS n FROM x AS t UNNEST t.tags AS tag GROUP BY t.id AS id"
        for pushdown in (True, False):
            result = _assert_matches_reference(dataset, text.format("*"), records,
                                               pushdown_through_unnest=pushdown)
            assert {r["id"]: r["n"] for r in result.rows} == {0: 2, 1: 1, 4: 1}
            # An item path makes the pushdown engage: "solo".text is MISSING,
            # but the singleton still produces its one row.
            result = _assert_matches_reference(dataset, text.format("tag.text"),
                                               records, pushdown_through_unnest=pushdown)
            assert {r["id"]: r["n"] for r in result.rows} == {0: 0, 1: 0, 4: 0}

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
        result = _assert_matches_reference(
            dataset, "SELECT k, count(*) AS n FROM x AS t GROUP BY t.k AS k", records)
        by_count = {repr(r["k"]): r["n"] for r in result.rows}
        assert by_count == {"[1, 2]": 2, "{'a': 1}": 2, "'plain'": 1}
        assert {type(r["k"]) for r in result.rows} == {list, dict, str}


    @pytest.mark.parametrize("storage_format", ALL_FORMATS)
    def test_wildcard_paths_read_alike_on_every_format_and_flush_state(self, storage_format):
        """``t.tags[*].t`` (one wildcard: aligned, ``[]`` for an absent
        collection, a scalar or object passed through) and
        ``t.rows[*][*].v`` (several: flattened) used to depend on the format
        and on whether the record had been flushed."""
        records = [
            {"id": 0, "tags": [{"t": "a"}, {"u": 1}, {"t": "b"}],
             "rows": [[{"v": 1}, {"w": 0}], [{"v": 2}]]},
            {"id": 1},
            {"id": 2, "tags": "solo", "rows": [[{"v": 3}], []]},
            {"id": 3, "tags": {"t": "obj"}, "rows": []},
            {"id": 4, "tags": None, "rows": [[{"v": 4}], "scalar"]},
        ]
        dataset = _dataset(storage_format, records=records, flush=False,
                           name=f"batch_wildcards_{storage_format.value}")

        one_wildcard = "SELECT t.id AS id, t.tags[*].t AS ts FROM x AS t"
        two_wildcards = "SELECT t.id AS id, t.rows[*][*].v AS vs FROM x AS t"
        for flushed in (False, True):
            if flushed:
                dataset.flush_all()
            result = _assert_matches_reference(dataset, one_wildcard, records)
            assert [row["ts"] for row in result.rows] == \
                [["a", MISSING, "b"], [], "solo", {"t": "obj"}, []]
            result = _assert_matches_reference(dataset, two_wildcards, records)
            assert [row["vs"] for row in result.rows] == [[1, 2], [], [3], [], [4]]


# ---------------------------------------------------------------------------
# the partial GROUP BY kernel against a row-by-row fold
# ---------------------------------------------------------------------------

_KEYS = ["a", 7, None, "absent", [1, 2], {"p": 1}, AMultiset([1, "x"]), True, "b",
         1, [1, 2], 1.0, AMultiset([1, "x"]), {"p": 1}, 7, "a"]
_SECOND_KEYS = ["x", "absent", None, "y", "x"]
_VALUES = [1, 2.5, None, "absent", True, -0.0, 0.0, 1e16, 1.0, -1e16, 3, 0.1]
_TEXTS = ["m", None, "c", "absent", "z", "c"]
GROUP_RECORDS = [
    {name: value for name, value in (("id", i), ("k", _KEYS[i % len(_KEYS)]),
                                     ("j", _SECOND_KEYS[i % len(_SECOND_KEYS)]),
                                     ("v", _VALUES[i % len(_VALUES)]),
                                     ("s", _TEXTS[i % len(_TEXTS)]))
     if value != "absent"}
    for i in range(97)
]
_AGGREGATES = ("count(*) AS n, count(t.v) AS c, sum(t.v) AS total, avg(t.v) AS mean, "
               "min(t.v) AS lo, max(t.v) AS hi, max(t.s) AS last, listify(t.s) AS texts")
GROUP_QUERIES = {
    "one_key": f"SELECT k, {_AGGREGATES} FROM x AS t GROUP BY t.k AS k",
    "two_keys": f"SELECT k, j, {_AGGREGATES} FROM x AS t GROUP BY t.k AS k, t.j AS j",
    "no_key": f"SELECT {_AGGREGATES} FROM x AS t",
}


@pytest.fixture(scope="module")
def group_dataset():
    return _dataset(records=GROUP_RECORDS, partitions=4, name="batch_group_kernel")


class TestGroupKernel:
    """``group_partials`` folds a batch's groups in one call per aggregate;
    its states, rows and group order must be those of folding row by row
    (``tests/reference.py``).  Compared by ``repr``, so ``True`` is not
    ``1``, ``-0.0`` is not ``0.0`` and every float is compared bit for bit."""

    @pytest.mark.parametrize("query_name", sorted(GROUP_QUERIES))
    @pytest.mark.parametrize("batch_size", [1, 3, 1024])
    def test_partials_equal_a_row_by_row_fold(self, query_name, batch_size):
        spec = compile_sqlpp(GROUP_QUERIES[query_name]).spec

        def column(expr, records):
            return [evaluate(expr, {spec.record_var: record}) for record in records]

        def batches():
            for start in range(0, len(GROUP_RECORDS), batch_size):
                records = GROUP_RECORDS[start:start + batch_size]
                columns = {name: column(expr, records) for name, expr in spec.group_keys}
                columns.update((aggregate.output, column(aggregate.argument, records))
                               for aggregate in spec.aggregates if aggregate.argument is not None)
                yield vector_batch.ColumnBatch(None, columns, len(records))

        group_keys = [(name, lambda batch, name=name: batch.columns[name])
                      for name, _ in spec.group_keys]
        arguments = [None if aggregate.argument is None
                     else lambda batch, name=aggregate.output: batch.columns[name]
                     for aggregate in spec.aggregates]
        partials = group_partials(batches(), group_keys, spec.aggregates, arguments)
        assert repr(list(partials.items())) == repr(list(reference_partial(spec, GROUP_RECORDS)
                                                         .items()))

    @pytest.mark.parametrize("query_name", sorted(GROUP_QUERIES))
    @pytest.mark.parametrize("batch_size", [1, 3, 1024])
    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_rows_and_group_order_through_the_engine(self, group_dataset, query_name,
                                                     batch_size, parallelism):
        result = _assert_matches_reference(group_dataset, GROUP_QUERIES[query_name], GROUP_RECORDS,
                                           batch_size=batch_size, parallelism=parallelism)
        spec = compile_sqlpp(GROUP_QUERIES[query_name]).spec
        expected = reference_rows(spec, partition_records(GROUP_RECORDS, 4))
        assert repr(result.rows) == repr(expected)
        if spec.group_keys:  # True, 1 and 1.0 are one key, whichever came first
            assert len({repr(row["k"]) for row in result.rows if row["k"] == 1}) == 1


# ---------------------------------------------------------------------------
# the extractor over every kind of record view
# ---------------------------------------------------------------------------

class TestExtractorViews:
    RECORD = {"id": 7, "user": {"name": "ann"},
              "readings": [{"temp": 1.5, "ts": 1}, {"ts": 2}], "tags": "solo"}
    PATHS = [("id",), ("user", "name"), ("readings", WILDCARD, "temp"),
             ("readings", 1, "ts"), ("nope",)]
    EXPECTED = [7, "ann", [1.5, MISSING], 2, MISSING]

    def test_adm_view_resolves_with_get_field(self):
        """ADMRecordView has no get_values: one get_field per request."""
        view = ADMRecordView(ADMEncoder(None).encode(self.RECORD))
        assert not hasattr(view, "get_values")
        assert BatchExtractor(self.PATHS).extract(view) == self.EXPECTED

    @pytest.mark.parametrize("view", [
        lambda record: VectorRecordView(VectorEncoder(None).encode(record)),
        lambda record: ADMRecordView(ADMEncoder(None).encode(record))],
        ids=["vector", "adm"])
    def test_memtable_views_keep_wildcard_semantics(self, view):
        """A memtable row's view (uncompacted vector bytes, or ADM bytes)."""
        view = view(self.RECORD)
        assert BatchExtractor(self.PATHS).extract(view) == self.EXPECTED
        # Passthrough of a non-collection at the wildcard prefix, [] when absent.
        assert BatchExtractor([("tags", WILDCARD), ("nope", WILDCARD)]).extract(view) == \
            ["solo", []]

    def test_slice_scan_of_an_adm_dataset(self):
        """The cached component scan hands ADM views to the extractor."""
        dataset = _dataset(StorageFormat.OPEN, records=[self.RECORD], name="extract_adm_slices")
        source = dataset.partitions[0].scan_runs(self.PATHS, BatchExtractor(self.PATHS))
        assert [([column[start] for column in columns], views, stop - start)
                for columns, views, start, stop in source] == [(self.EXPECTED, None, 1)]

    @pytest.mark.parametrize("storage_format, view_type",
                             [(StorageFormat.OPEN, ADMRecordView),
                              (StorageFormat.INFERRED, VectorRecordView)])
    def test_memtable_and_disk_records_extract_alike(self, storage_format, view_type):
        """Both sides are the format's own view over stored bytes."""
        dataset = _dataset(storage_format, records=[self.RECORD],
                           name=f"extract_views_{storage_format.value}", flush=False)
        extractor = BatchExtractor(self.PATHS)
        partition = dataset.partitions[0]
        (memtable_view,) = partition.scan_views()
        assert type(memtable_view) is view_type
        assert extractor.extract(memtable_view) == self.EXPECTED
        dataset.flush_all()
        (disk_view,) = partition.scan_views()
        assert type(disk_view) is view_type
        if view_type is VectorRecordView:  # compacted by the flush
            assert disk_view.is_compacted and not memtable_view.is_compacted
        assert extractor.extract(disk_view) == self.EXPECTED


# ---------------------------------------------------------------------------
# extraction plans: one per prefix a walk read, never across name mappings
# ---------------------------------------------------------------------------

def _tweet_views(count):
    """Compacted generated tweets (about 60 layouts per 200) with the values
    every read of ``TWEET_PATHS`` must return."""
    schema = InferredSchema(None)
    encoder = VectorEncoder(None)
    tweets = list(twitter.generate(count))
    views = [VectorRecordView(infer_and_compact(encoder.encode(tweet), schema), None,
                              schema.dictionary) for tweet in tweets]
    expected = [[navigate(tweet, path) for path in TWEET_PATHS] for tweet in tweets]
    return views, expected


TWEET_PATHS = [("user", "name"), ("entities", "hashtags", WILDCARD, "text"), ("text",),
               ("timestamp_ms",), ("coordinates",), ("user",)]


class TestExtractionPlans:
    def test_same_layout_under_two_dictionaries_never_shares_a_plan(self):
        """Two partitions' schemas number the same names the other way round,
        so their records carry the same bytes but mean other fields."""
        extractor = BatchExtractor([("x",), ("y",)])
        views = []
        for names in (("x", "y"), ("y", "x")):
            schema = InferredSchema(None)
            schema.observe(dict.fromkeys(names, 0))
            record = {names[0]: 10, names[1]: 20}
            payload = compact_record(VectorEncoder(None).encode(record), schema.dictionary)
            views.append(VectorRecordView(payload, None, schema.dictionary))
        assert views[0].payload == views[1].payload
        assert extractor.extract(views[0]) == [10, 20]
        assert extractor.extract(views[1]) == [20, 10]
        assert len(extractor.plans) == 2

    def test_copies_of_one_dictionary_share_plans(self):
        """Every flush's schema snapshot is a copy in its partition's family:
        one plan reads the records of all of them, and a copy too short for
        a record's ids raises like the walk."""
        schema = InferredSchema(None)
        schema.observe({"a": 1})
        older = schema.snapshot().dictionary
        schema.observe({"a": 1, "b": 2})
        newer, newest = schema.snapshot().dictionary, schema.snapshot().dictionary
        payload = compact_record(VectorEncoder(None).encode({"a": 1, "b": 2}), newer)
        extractor = BatchExtractor([("a",), ("b",)])
        assert extractor.extract(VectorRecordView(payload, None, newer)) == [1, 2]
        assert extractor.extract(VectorRecordView(payload, None, newest)) == [1, 2]
        assert len(extractor.plans) == 1
        with pytest.raises(SchemaError, match="unknown FieldNameID 2"):
            extractor.extract(VectorRecordView(payload, None, older))
        assert extractor.extract(VectorRecordView(payload, None, newest)) == [1, 2]

    def test_rolled_back_flush_then_reassigned_id_serves_the_new_name(self):
        """A failed flush's ids are rolled back with its schema; the id it
        gave ``a`` then goes to ``b``, and a record carrying it reads ``b``."""
        compactor = TupleCompactor(None)
        state = compactor.snapshot_state()
        encoder = VectorEncoder(None)
        extractor = BatchExtractor([("a",), ("b",)])
        first = compactor.transform_record(1, encoder.encode({"a": 1}))
        rolled_back = compactor.schema.dictionary
        assert extractor.extract(VectorRecordView(first, None, rolled_back)) == [1, MISSING]
        compactor.restore_state(state)
        second = compactor.transform_record(1, encoder.encode({"b": 1}))
        dictionary = compactor.schema.dictionary
        assert second == first and dictionary.lookup("b") == rolled_back.lookup("a") == 1
        assert extractor.extract(VectorRecordView(second, None, dictionary)) == [MISSING, 1]
        assert extractor.extract(VectorRecordView(first, None, rolled_back)) == [1, MISSING]

    def test_declared_entries_resolve_under_their_own_datatype(self):
        """Declared-field indexes mean what the view's datatype declares: the
        same bytes read ``p`` first under one datatype and ``q`` under another."""
        declare = lambda *names: Datatype.open_type(
            "Pair", [FieldDeclaration(name, TypeTag.INT64) for name in names])
        first, second = declare("p", "q"), declare("q", "p")
        payload = VectorEncoder(first).encode({"p": 1, "q": 2})
        assert VectorEncoder(second).encode({"q": 1, "p": 2}) == payload
        extractor = BatchExtractor([("p",), ("q",)])
        for _ in range(2):
            assert extractor.extract(VectorRecordView(payload, first)) == [1, 2]
            assert extractor.extract(VectorRecordView(payload, second)) == [2, 1]
        with pytest.raises(DecodingError, match="without a datatype"):
            extractor.extract(VectorRecordView(payload))
        assert len(extractor.plans) == 2

    def test_every_value_kind_reads_through_its_plan(self):
        """Each fixed width (and the wrapped date, time, point and UUID), both
        varlen types, NULL, MISSING items and nested values, requested
        directly and through a wildcard, at a miss and at a hit."""
        record = {"k%d" % index: value for index, value in enumerate(_EVERY_KIND)}
        paths = [(name,) for name in record] + [("mixed", WILDCARD, "v"), ("k13", 1, "z")]
        record["mixed"] = [{"v": value} for value in _EVERY_KIND] + [MISSING, 5]
        expected = [navigate(record, path) for path in paths]
        schema = InferredSchema(None)
        inline = VectorEncoder(None).encode(record)
        compacted = infer_and_compact(inline, schema)
        extractor = BatchExtractor(paths)
        for view in (VectorRecordView(inline), VectorRecordView(compacted, None, schema.dictionary)):
            assert extractor.extract(view) == expected
            assert extractor.extract(view) == expected

    def test_layouts_sharing_a_prefix_share_the_plan_of_a_path_inside_it(self):
        """A plan is keyed by what its walk read: records whose tags and names
        agree up to where the walk stopped share it, wherever they differ
        later; a path past the point where they differ gets a plan each."""
        records = [{"a": 1, "b": "x", "c": 2.5},
                   {"a": 7, "b": "yz", "d": [1, {"e": 2}], "c": "late"}]
        schema = InferredSchema(None)
        for record in records:
            schema.observe(record)
        cases = [([("a",)], 1), ([("b",), ("a",)], 1), ([("c",)], 2),
                 ([("a",), ("d", 1, "e")], 2), ([("zz",)], 2)]
        for dictionary in (None, schema.dictionary):
            views = []
            for record in records:
                payload = VectorEncoder(None).encode(record)
                if dictionary is not None:
                    payload = compact_record(payload, dictionary)
                views.append(VectorRecordView(payload, None, dictionary))
            assert _layout(views[0]) != _layout(views[1])
            for paths, plans in cases:
                extractor = BatchExtractor(paths)
                for _ in range(2):
                    for view, record in zip(views, records):
                        assert extractor.extract(view) == [navigate(record, path)
                                                           for path in paths]
                assert len(extractor.plans) == plans, paths

    def test_inline_names_of_one_length_never_share_a_plan(self):
        """Uncompacted records spell their names inline: the same tags and
        name lengths under other names are another prefix."""
        records = [{"ab": 1, "cd": 2}, {"cd": 3, "ab": 4}]
        views = [VectorRecordView(VectorEncoder(None).encode(record)) for record in records]
        assert _layout(views[0])[0] == _layout(views[1])[0]
        for paths in ([("ab",)], [("cd",)], [("ab",), ("cd",)]):
            extractor = BatchExtractor(paths)
            for _ in range(2):
                for view, record in zip(views, records):
                    assert extractor.extract(view) == [navigate(record, path)
                                                       for path in paths]
            assert len(extractor.plans) == 2

    def test_a_shared_prefix_builds_nested_values_past_it(self):
        """Uncompacted records with other name-entry counts share the plan of
        a walk that stopped at a nested value; the value is built from each
        record's own inline names, which start after its own entries."""
        records = [
            {"id": 1, "group": {"members": [{"n": "ann"}], "size": 1}},
            {"id": 2, "group": {"members": [{"n": "bo"}, {"n": "cy", "role": "x"}]},
             "extra": {"k": 1, "kk": [{"deep": None}]}, "more": 2},
            {"id": 3, "group": {"members": []}},
        ]
        views = [VectorRecordView(VectorEncoder(None).encode(record)) for record in records]
        counts = {view.payload[view.offset_names:view.offset_names + 4] for view in views}
        assert len(counts) == len(records)  # name-entry counts all differ
        for paths, plans in (([("group", "members")], 1), ([("id",), ("group",)], 1),
                             ([("group", "members", "*", "n")], 3),
                             ([("group", "members", 0)], 2)):
            extractor = BatchExtractor(paths)
            for _ in range(2):
                for view, record in zip(views, records):
                    assert extractor.extract(view) == [navigate(record, path)
                                                       for path in paths]
            assert len(extractor.plans) == plans, paths

    def test_a_torn_tags_vector_never_shares_a_plan_with_a_longer_record(self):
        """A walk that ran off the end of tags with no EOV read no more than
        a prefix of a longer record's tags, but what it found depends on
        where they ended: its plan is keyed on its whole layout."""
        def torn(record, cut, dictionary=None):
            payload = VectorEncoder(None).encode(record)
            if dictionary is not None:
                payload = compact_record(payload, dictionary)
            view = VectorRecordView(payload, None, dictionary)
            cut_payload = bytearray(payload)
            cut_payload[4:8] = (view.tag_count - cut).to_bytes(4, "little")  # header tag count
            return VectorRecordView(bytes(cut_payload), None, dictionary)

        whole = [{"a": 1, "b": 2}, {"a": {"x": 1}, "b": 2}, {"a": [1, 2], "b": 2}]
        cases = [(whole[0], 2, [("b",)]),                  # no EOV
                 (whole[1], 3, [("b",)]),                  # inside a skipped object
                 (whole[1], 3, [("a", "x"), ("b",)]),      # after a located value
                 (whole[2], 3, [("a", "*"), ("b",)]),      # inside a wildcard's items
                 (whole[1], 1, [("a", "x", "y")])]         # skipping the rest of the root
        for record, cut, paths in cases:
            schema = InferredSchema(None)
            schema.observe(record)
            for dictionary in (None, schema.dictionary):
                short = torn(record, cut, dictionary)
                longer = torn(record, 0, dictionary)
                extractor = BatchExtractor(paths)
                assert extractor.extract(short)[-1] is MISSING  # "b" is past the end
                assert extractor.extract(longer) == [navigate(record, path) for path in paths]
                assert extractor.extract(short)[-1] is MISSING
                assert len(extractor.plans) == 2

    def test_a_full_table_stays_correct(self, monkeypatch):
        monkeypatch.setattr(vector_batch, "PLAN_CAPACITY", 4)
        views, expected = _tweet_views(200)
        extractor = BatchExtractor(TWEET_PATHS)
        for _ in range(2):
            assert [extractor.extract(view) for view in views] == expected
            assert 0 < len(extractor.plans) <= 4

    @pytest.mark.parametrize("capacity", [vector_batch.PLAN_CAPACITY, 8])
    def test_threads_share_one_extractor_without_a_lock(self, monkeypatch, capacity):
        """Six threads read through one extractor while the interpreter
        switches between them as often as it can; with a small table they
        also drop its oldest quarter under each other."""
        monkeypatch.setattr(vector_batch, "PLAN_CAPACITY", capacity)
        views, expected = _tweet_views(150)
        extractor = BatchExtractor(TWEET_PATHS)
        wrong = []

        def read(seed):
            order = list(range(len(views)))
            random.Random(seed).shuffle(order)
            try:
                for index in order + order:
                    if extractor.extract(views[index]) != expected[index]:
                        wrong.append(index)
            except Exception as exc:  # a thread's error would otherwise only warn
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []


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


def _paths_of(value, prefix=()):
    """Paths reachable in a record: exact ones, and at every value a ``"*"``
    (over a list, an object, a scalar or NULL alike) — below a list also
    under another ``"*"`` or an index (several wildcards, index after one)."""
    paths = [prefix + (WILDCARD,)] if prefix else []
    if isinstance(value, dict):
        for key, child in value.items():
            paths.append(prefix + (key,))
            paths.extend(_paths_of(child, prefix + (key,)))
    elif isinstance(value, list):
        paths.append(prefix + (0,))
        for step, items in ((WILDCARD, value[:2]), (0, value[:1])):
            for item in items:
                paths.extend(_paths_of(item, prefix + (step,)))
    return paths


#: One value of every tag kind the encoder writes: each fixed width (1, 4, 8
#: and 16 bytes), both varlen types, NULL, MISSING (array items only), every
#: nesting of containers, and the three empty containers.
_EVERY_KIND = [
    True, 7, 2.5, ADate(3), ATime(4), ADateTime(5), APoint(1.0, -2.0), uuid.UUID(int=9),
    "str", "", b"bin", None, [1, MISSING, "x"], [{"k": 1, "z": [2, []]}, {}],
    {"a": [1, 2], "o": {"p": "q"}}, AMultiset([1, {"m": "n"}, [3]]), [], {}, AMultiset([]),
]

#: A root datatype for ADM views with a closed part: a nested-object and an
#: item declaration (each with open fields beside it), the field that takes
#: every kind of ``_EVERY_KIND`` in turn — the last present closed value, so
#: its extent is where the open part starts — and an optional field no record
#: carries (offset 0), declared after it.  Generated names are lowercase, so
#: these never collide with them.
_DECLARING = Datatype.open_type("Declaring", [
    FieldDeclaration("Obj", TypeTag.OBJECT, nested=Datatype.open_type("Inner", [
        FieldDeclaration("X", TypeTag.INT64), FieldDeclaration("Gone", TypeTag.ANY, optional=True)])),
    FieldDeclaration("Items", TypeTag.ARRAY, item_type=TypeTag.ANY, item_nested=Datatype.open_type(
        "Item", [FieldDeclaration("K", TypeTag.INT64)])),
    FieldDeclaration("Last", TypeTag.ANY, optional=True),
    FieldDeclaration("Absent", TypeTag.ANY, optional=True),
])
#: The same declaration plus one field: a record written under ``_DECLARING``
#: has one closed offset too few for it.
_WIDER = Datatype.open_type("Wider", _DECLARING.fields + (
    FieldDeclaration("More", TypeTag.ANY, optional=True),))


def _assert_declared_adm_reads(record, paths):
    """An ADM record with a closed part reads like ``navigate`` over it, with
    ``record``'s fields in the open parts around the declared ones; under a
    datatype declaring a different number of fields it is a ``DecodingError``."""
    for last in _EVERY_KIND:
        declared = dict(record, Obj=dict(record, X=1), Items=[dict(record, K=2), "s", {"K": 3}],
                        Last=last)
        payload = ADMEncoder(_DECLARING).encode(declared)
        view = ADMRecordView(payload, _DECLARING)
        requests = paths + [("Last",), ("Absent",), ("Obj", "Gone"), ("Obj", "X"),
                            ("Items", 0, "K"), ("Items", WILDCARD, "K")]
        requests += [("Last",) + path for path in _paths_of(last)[:8]]
        requests += [("Obj",) + path for path in paths[:8]] + [(WILDCARD,), ("Absent", WILDCARD)]
        expected = [navigate(declared, path) for path in requests]
        assert [view.get_field(*path) for path in requests] == expected
        assert BatchExtractor(requests).extract(view) == expected
        assert view.materialize() == declared
    wider = ADMRecordView(payload, _WIDER)
    for read in (wider.materialize, lambda: wider.get_field("Obj"),
                 lambda: wider.get_field("Obj", "X"), lambda: wider.get_field("nope")):
        with pytest.raises(DecodingError, match="closed fields"):
            read()


def _revalued(value, salt):
    """``value`` with every scalar replaced by another of its type: the same
    tags and names, other fixed-width bytes and varlen lengths."""
    if isinstance(value, dict):
        return {key: _revalued(item, salt) for key, item in value.items()}
    if isinstance(value, list):
        return [_revalued(item, salt) for item in value]
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + salt
    if isinstance(value, str):
        return value + "x" * salt
    return value


def _layout(view):
    """The bytes a record's plan is keyed on: its tags and name section."""
    payload = view.payload
    return (payload[view.offset_tags:view.offset_tags + view.tag_count],
            payload[view.offset_names:view.total_length])


_prop_settings = settings(max_examples=40, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
_engine_settings = settings(max_examples=12, deadline=None,
                            suppress_health_check=[HealthCheck.too_slow])


class TestBatchProperties:
    @_prop_settings
    @given(record=_records)
    def test_extractor_matches_get_values(self, record):
        """Every way to read a path out of a record — the trie walk over the
        vector bytes (uncompacted and compacted), offset-guided ADM access
        with and without a closed part — must equal ``navigate`` over the
        record."""
        schema = InferredSchema(None)
        schema.observe(record)
        payload = VectorEncoder(None).encode(record)
        views = [VectorRecordView(payload),
                 VectorRecordView(compact_record(payload, schema.dictionary), None,
                                  schema.dictionary),
                 ADMRecordView(ADMEncoder(None).encode(record))]
        paths = list(dict.fromkeys(_paths_of(record)))[:32]
        paths += [("definitely_not_a_field",), ("definitely_not_a_field", WILDCARD),
                  (WILDCARD,), (0,)]
        expected = [navigate(record, path) for path in paths]
        extractor = BatchExtractor(paths)
        for view in views:
            assert [view.get_field(*path) for path in paths] == expected
            plans = len(extractor.plans)
            assert extractor.extract(view) == expected  # a miss: walked, then replayed
            assert extractor.extract(view) == expected  # a hit: replayed
            assert len(extractor.plans) == plans + isinstance(view, VectorRecordView)
        assert views[0].get_values(*paths) == expected
        assert views[1].get_values(*paths) == expected
        _assert_declared_adm_reads(record, list(dict.fromkeys(_paths_of(record)))[:24])

    @_prop_settings
    @given(siblings=st.permutations(_EVERY_KIND), extras=st.lists(_values(2), max_size=3),
           targets=st.lists(_values(1), min_size=3, max_size=3))
    def test_requested_field_after_skipped_siblings(self, siblings, extras, targets):
        """The skipper: whatever a requested field comes after — a sibling of
        every tag kind, at the root, inside an entered object, inside the
        items of a wildcard's collection — and however the record spells its
        names, the walk must land on the right bytes of all four vectors."""
        skipped = list(siblings) + extras
        record = {"s%d" % i: value for i, value in enumerate(skipped)}
        record["box"] = dict({"b%d" % i: value for i, value in enumerate(skipped)},
                             target=targets[0], tail=skipped)
        record["items"] = [{"skip": skipped[i:], "target": targets[i], "after": skipped[:i]}
                           for i in range(3)] + [skipped, {"target": skipped}]
        record["target"] = targets[1]
        record.update(("t%d" % i, value) for i, value in enumerate(skipped))
        record["last"] = 1
        path_sets = [
            [("box", "target"), ("items", WILDCARD, "target"), ("target",)],   # stops early
            [("items", 1, "target"), ("box",), ("absent",), ("last",)],         # skips to the end
        ]
        declaring = Datatype.open_type("Wide", [
            FieldDeclaration(name, TypeTag.ANY, optional=True) for name in reversed(record)])
        for datatype in (None, declaring):
            inline = VectorEncoder(datatype).encode(record)
            schema = InferredSchema(datatype)
            compacted = infer_and_compact(inline, schema)
            for payload, dictionary in ((inline, None), (compacted, schema.dictionary)):
                view = VectorRecordView(payload, datatype, dictionary)
                for paths in path_sets:
                    assert BatchExtractor(paths).extract(view) == \
                        [navigate(record, path) for path in paths]
                # Early exit leaves the cursors where they are: the tag of
                # "last" (just before EOV) is never read by the first set.
                corrupt = bytearray(payload)
                corrupt[view.offset_tags + view.tag_count - 2] = 126
                torn = VectorRecordView(bytes(corrupt), datatype, dictionary)
                assert BatchExtractor(path_sets[0]).extract(torn) == \
                    [navigate(record, path) for path in path_sets[0]]
                with pytest.raises(DecodingError):
                    BatchExtractor(path_sets[1]).extract(torn)

    @_prop_settings
    @given(record=_records, salt=st.integers(min_value=1, max_value=5))
    def test_one_plan_reads_records_of_one_layout(self, record, salt):
        """Records with the same tags and names but other values — other
        fixed-width bytes, varlen values of other lengths — share one plan,
        and it reads each record's own values."""
        twin = _revalued(record, salt)
        schema = InferredSchema(None)
        schema.observe(record)
        paths = list(dict.fromkeys(_paths_of(record)))[:32] + [("definitely_not_a_field",)]
        extractor = BatchExtractor(paths)
        for dictionary in (None, schema.dictionary):
            views = []
            for value in (record, twin):
                payload = VectorEncoder(None).encode(value)
                if dictionary is not None:
                    payload = compact_record(payload, dictionary)
                views.append(VectorRecordView(payload, None, dictionary))
            assert _layout(views[0]) == _layout(views[1])
            plans = len(extractor.plans)
            for view, value in zip(views, (record, twin)):
                assert extractor.extract(view) == [navigate(value, path) for path in paths]
            assert len(extractor.plans) == plans + 1

    @_engine_settings
    @given(records=st.lists(_records, min_size=1, max_size=12),
           storage_format=st.sampled_from([StorageFormat.OPEN, StorageFormat.INFERRED]))
    def test_engine_matches_reference_on_random_records(self, records, storage_format):
        records = [dict(record, id=index) for index, record in enumerate(records)]
        dataset = _dataset(storage_format, records=records, name="batch_prop")
        for text in ("SELECT VALUE count(*) FROM x AS t",
                     "SELECT * FROM x AS t ORDER BY t.id",
                     "SELECT k, count(t.id) AS n FROM x AS t GROUP BY t.k AS k",
                     "SELECT t.id AS id, item AS item FROM x AS t UNNEST t.k AS item"):
            _assert_matches_reference(dataset, text, records)


class TestFilterBeforeUnnest:
    """A WHERE conjunct that reads no UNNEST item filters the records before
    the UNNESTs flatten them."""

    @pytest.mark.parametrize("options", [{}, {"consolidate_field_access": False}])
    @pytest.mark.parametrize("storage_format", [StorageFormat.OPEN, StorageFormat.INFERRED])
    def test_sensors_q4_tests_each_report_once(self, storage_format, options):
        records = list(sensors.generate(140))
        dataset = _dataset(storage_format, partitions=2, records=records,
                           name=f"filter_q4_{storage_format.value}")
        result = _assert_matches_reference(dataset, sensors.SQLPP["Q4"], records, **options)
        partitions = result.stats.per_partition
        assert [op.operator for op in partitions[0].operators] == [
            "FullScan", "SELECT", "UNNEST", "GROUP BY (partial)"]
        low = sensors.REPORT_TIME_BASE - 1
        in_window = [record for record in records
                     if low < record["report_time"] < low + 2 * sensors.REPORT_INTERVAL_MS]
        assert 0 < len(in_window) < len(records)
        assert sum(partition.operators[0].rows_out for partition in partitions) == len(records)
        assert sum(partition.operators[1].rows_out for partition in partitions) == len(in_window)
        # the rows that left the filter are still the (report, reading) pairs
        assert result.stats.actual_matched_rows == sum(
            len(record["readings"]) for record in in_window)

    @_engine_settings
    @given(rows=st.lists(st.tuples(_records, st.lists(_values(1), max_size=4)),
                         min_size=1, max_size=10),
           threshold=st.integers(min_value=-1, max_value=10),
           storage_format=st.sampled_from([StorageFormat.OPEN, StorageFormat.INFERRED]))
    def test_random_where_around_unnest_matches_reference(self, rows, threshold, storage_format):
        """Conjuncts on the record, on a LET name and on a quantifier whose
        variable shadows the item run before the UNNEST; the ones on the item
        after it."""
        records = [dict(record, id=index, items=items)
                   for index, (record, items) in enumerate(rows)]
        dataset = _dataset(storage_format, partitions=2, records=records, name="filter_random")

        # SQL++ text cannot shadow the item: the spec is built.
        record_id = FieldAccess("t", ("id",))
        spec = QuerySpec(
            lets=[LetClause("late", Comparison(">", record_id, Literal(threshold)))],
            unnests=[UnnestClause(FieldAccess("t", ("items",)), "item")],
            where=And(Comparison("<", record_id, Literal(threshold + 5)),
                      Var("late"),
                      Exists(FieldAccess("t", ("items",)), "item",
                             Comparison("!=", Var("item"), Literal(0))),
                      Comparison("!=", Var("item"), record_id)),
            projections=[("id", record_id), ("item", Var("item"))])

        result = _assert_matches_reference(dataset, spec, records)
        assert [op.operator for op in result.stats.per_partition[0].operators] == [
            "FullScan", "LET", "SELECT[0]", "UNNEST", "SELECT[1]", "PROJECT"]
        physical = QueryExecutor().prepare_physical(dataset, spec)
        before, after = [stage.detail(()) for stage in physical.batch_plan.stages
                         if stage.name.startswith("SELECT[")]
        assert "SOME item" in before and "late" in before and "SOME" not in after
