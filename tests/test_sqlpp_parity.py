"""Parity: every Appendix A query, stated as SQL++ text, returns exactly the
rows of the reference model (``tests/reference.py``).

Runs all twelve workload queries (Twitter, WoS, Sensors × Q1–Q4) through
``Dataset.query`` on the open, inferred, closed and SL-VB storage formats,
with the optimizer's rewrites on and under the Figure 23 ablation (field
access consolidation and UNNEST pushdown both off), plus the examples'
quickstart query.
"""

import pytest

from repro import Dataset, StorageFormat, compile_sqlpp
from repro.datasets import sensors, twitter, wos

from reference import partition_records, reference_rows

WORKLOADS = {
    "twitter": (twitter, 300),
    "wos": (wos, 150),
    "sensors": (sensors, 90),
}

FORMATS = (StorageFormat.OPEN, StorageFormat.INFERRED, StorageFormat.CLOSED,
           StorageFormat.SL_VB)

#: Executor options: the default rewrites, and the Figure 23 ablation.
REWRITES = {
    "rewrites": {},
    "ablation": {"consolidate_field_access": False, "pushdown_through_unnest": False},
}

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


def _expected(workload: str, query_name: str, dataset: Dataset):
    module, count = WORKLOADS[workload]
    spec = compile_sqlpp(module.SQLPP[query_name]).spec
    return reference_rows(spec, partition_records(module.generate(count),
                                                  dataset.partition_count))


@pytest.mark.parametrize("rewrites", sorted(REWRITES))
@pytest.mark.parametrize("storage_format", FORMATS, ids=lambda f: f.value)
@pytest.mark.parametrize("query_name", ("Q1", "Q2", "Q3", "Q4"))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_text_matches_the_reference(workload, query_name, storage_format, rewrites):
    module, _ = WORKLOADS[workload]
    dataset = _dataset(workload, storage_format)
    rows = dataset.query(module.SQLPP[query_name], **REWRITES[rewrites]).rows
    assert rows == _expected(workload, query_name, dataset)


@pytest.mark.parametrize("storage_format", (StorageFormat.INFERRED, StorageFormat.SL_VB),
                         ids=lambda f: f.value)
@pytest.mark.parametrize("query_name", ("Q1", "Q2", "Q3", "Q4"))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_vector_formats_match_the_reference_cold_and_warm(workload, query_name, storage_format):
    """Both vector formats against the naive interpreter: decoded from the
    pages (caches dropped) and then served from the slices that run stored."""
    module, _ = WORKLOADS[workload]
    dataset = _dataset(workload, storage_format)
    expected = _expected(workload, query_name, dataset)
    cold = dataset.query(module.SQLPP[query_name], cold_cache=True)
    warm = dataset.query(module.SQLPP[query_name])
    assert cold.rows == expected
    assert warm.rows == expected
    assert cold.stats.slice_cache_hits == 0
    assert warm.stats.slice_cache_misses == 0


def test_quickstart_example_query_matches_the_reference():
    """The query shown in examples/quickstart.py."""
    records = [{"id": 0, "name": "Kim", "age": 26}, {"id": 1, "name": "John", "age": 22},
               {"id": 2, "name": "Ann"}]
    employees = Dataset.create("Employee", StorageFormat.INFERRED)
    employees.insert_all(records)
    employees.flush_all()
    text = """
        SELECT name, count(*) AS count, avg(length(e.name)) AS avg_name_len
        FROM Employee AS e
        GROUP BY e.name AS name
        ORDER BY count DESC
    """
    expected = reference_rows(compile_sqlpp(text).spec, partition_records(records))
    assert employees.query(text).rows == expected


def test_multi_partition_schema_broadcast():
    """A repartitioning text query triggers the §3.4.1 schema broadcast: each
    partition's schema goes to every other partition."""
    dataset = _dataset("twitter", StorageFormat.INFERRED)
    stats = dataset.query(twitter.SQLPP["Q2"]).stats
    schema_bytes = sum(len(schema.to_bytes()) for schema in dataset.schemas().values())
    assert stats.schema_broadcasts == 1
    assert stats.schema_broadcast_bytes == schema_bytes * (dataset.partition_count - 1)
