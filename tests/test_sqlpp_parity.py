"""Parity: every Appendix A query compiled from SQL++ text must return
exactly the rows of its fluent-builder twin (the ISSUE's acceptance bar).

Runs all twelve workload queries (Twitter, WoS, Sensors × Q1–Q4) on the
open, inferred, closed and SL-VB storage formats, plus the examples' quickstart
query — the textual plan and the builder plan go through the same optimizer
and executor, so their rows must be *identical*, not merely equivalent.
"""

import pytest

from repro import Dataset, StorageFormat, compile_sqlpp
from repro.datasets import sensors, twitter, wos
from repro.query import QueryExecutor

from reference import partition_records, reference_rows

WORKLOADS = {
    "twitter": (twitter, 300),
    "wos": (wos, 150),
    "sensors": (sensors, 90),
}

FORMATS = (StorageFormat.OPEN, StorageFormat.INFERRED, StorageFormat.CLOSED,
           StorageFormat.SL_VB)

_datasets = {}


def _dataset(workload: str, storage_format: StorageFormat) -> Dataset:
    key = (workload, storage_format)
    if key not in _datasets:
        module, count = WORKLOADS[workload]
        dataset = Dataset.create(f"{workload}_{storage_format.value}", storage_format,
                                 partitions=2)
        dataset.insert_all(module.generate(count))
        dataset.flush_all()
        _datasets[key] = dataset
    return _datasets[key]


@pytest.mark.parametrize("storage_format", FORMATS, ids=lambda f: f.value)
@pytest.mark.parametrize("query_name", ("Q1", "Q2", "Q3", "Q4"))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_text_and_builder_plans_return_identical_rows(workload, query_name,
                                                      storage_format):
    module, _ = WORKLOADS[workload]
    dataset = _dataset(workload, storage_format)
    executor = QueryExecutor()
    builder_rows = executor.execute(dataset, module.QUERIES[query_name]()).rows
    compiled = compile_sqlpp(module.SQLPP[query_name])
    sqlpp_rows = executor.execute(dataset, compiled.spec).rows
    assert sqlpp_rows == builder_rows


@pytest.mark.parametrize("storage_format", (StorageFormat.INFERRED, StorageFormat.SL_VB),
                         ids=lambda f: f.value)
@pytest.mark.parametrize("query_name", ("Q1", "Q2", "Q3", "Q4"))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_vector_formats_match_the_reference_cold_and_warm(workload, query_name, storage_format):
    """Both vector formats against the naive interpreter: decoded from the
    pages (caches dropped) and then served from the slices that run stored."""
    module, count = WORKLOADS[workload]
    dataset = _dataset(workload, storage_format)
    spec = compile_sqlpp(module.SQLPP[query_name]).spec
    expected = reference_rows(spec, partition_records(module.generate(count),
                                                      dataset.partition_count))
    cold = QueryExecutor(cold_cache=True).execute(dataset, spec)
    warm = QueryExecutor().execute(dataset, spec)
    assert cold.rows == expected
    assert warm.rows == expected
    assert cold.stats.slice_cache_hits == 0
    assert warm.stats.slice_cache_misses == 0


@pytest.mark.parametrize("query_name", ("Q1", "Q2", "Q3", "Q4"))
def test_parity_survives_disabled_optimizations(query_name):
    """Text plans also agree under the Figure 23 ablation (rewrites off)."""
    dataset = _dataset("twitter", StorageFormat.INFERRED)
    executor = QueryExecutor(consolidate_field_access=False,
                             pushdown_through_unnest=False)
    builder_rows = executor.execute(dataset, twitter.QUERIES[query_name]()).rows
    sqlpp_rows = executor.execute(dataset,
                                  compile_sqlpp(twitter.SQLPP[query_name]).spec).rows
    assert sqlpp_rows == builder_rows


def test_quickstart_example_query_parity():
    """The query pair shown in examples/quickstart.py stays in lockstep."""
    from repro.query import Func, field, scan

    employees = Dataset.create("Employee", StorageFormat.INFERRED)
    employees.insert({"id": 0, "name": "Kim", "age": 26})
    employees.insert({"id": 1, "name": "John", "age": 22})
    employees.insert({"id": 2, "name": "Ann"})
    employees.flush_all()

    builder_query = (scan("e")
                     .group_by(("name", field("e", "name")))
                     .aggregate("count", "count", None)
                     .aggregate("avg_name_len", "avg", Func("length", field("e", "name")))
                     .order_by("count", descending=True)
                     .build())
    builder_rows = QueryExecutor().execute(employees, builder_query).rows
    text_rows = employees.query("""
        SELECT name, count(*) AS count, avg(length(e.name)) AS avg_name_len
        FROM Employee AS e
        GROUP BY e.name AS name
        ORDER BY count DESC
    """).rows
    assert text_rows == builder_rows


def test_compiled_spec_is_structurally_identical_for_twitter_q2():
    """Beyond row parity: the bound plan is the same plan, field by field."""
    compiled = compile_sqlpp(twitter.SQLPP["Q2"]).spec
    built = twitter.QUERIES["Q2"]()
    assert compiled.record_var == built.record_var
    assert [(n, type(e), getattr(e, "path", None)) for n, e in compiled.group_keys] \
        == [(n, type(e), getattr(e, "path", None)) for n, e in built.group_keys]
    assert [(a.output, a.function) for a in compiled.aggregates] \
        == [(a.output, a.function) for a in built.aggregates]
    assert [(k.expr_or_column, k.descending) for k in compiled.order_by] \
        == [(k.expr_or_column, k.descending) for k in built.order_by]
    assert compiled.limit == built.limit
    assert compiled.repartitions == built.repartitions


def test_multi_partition_schema_broadcast_matches(capfd):
    """Repartitioning text queries trigger the same §3.4.1 schema broadcast."""
    dataset = _dataset("twitter", StorageFormat.INFERRED)
    executor = QueryExecutor()
    text_stats = executor.execute(dataset, compile_sqlpp(twitter.SQLPP["Q2"]).spec).stats
    builder_stats = executor.execute(dataset, twitter.QUERIES["Q2"]()).stats
    assert text_stats.schema_broadcasts == builder_stats.schema_broadcasts == 1
    assert text_stats.schema_broadcast_bytes == builder_stats.schema_broadcast_bytes
