"""Additional unit tests: aggregates, configuration validation, query specs."""

import re
from pathlib import Path

import pytest

import repro.config
from repro.config import (
    ClusterConfig,
    DatasetConfig,
    DEVICE_PROFILES,
    DeviceKind,
    LSMConfig,
    StorageConfig,
    StorageFormat,
)
from repro.errors import QueryError
from repro.query import get_aggregate
from repro.query.aggregates import AvgAggregate, CountAggregate, ListifyAggregate
from repro.query.plan import AggregateSpec
from repro.query.operators import merge_partials, order_and_limit
from repro.sqlpp import compile as compile_sqlpp
from repro.types import MISSING


class TestAggregates:
    def test_count_ignores_missing_and_null(self):
        count = CountAggregate()
        state = count.create()
        for value in (1, None, MISSING, "x"):
            state = count.accumulate(state, value)
        assert count.finalize(state) == 2

    def test_avg_merges_partials(self):
        avg = AvgAggregate()
        left = avg.create()
        right = avg.create()
        for value in (2, 4):
            left = avg.accumulate(left, value)
        for value in (6,):
            right = avg.accumulate(right, value)
        assert avg.finalize(avg.merge(left, right)) == 4.0

    def test_avg_of_nothing_is_null(self):
        avg = AvgAggregate()
        assert avg.finalize(avg.create()) is None

    def test_min_max_sum(self):
        for name, values, expected in (("min", [3, 1, 2], 1),
                                       ("max", [3, 1, 2], 3),
                                       ("sum", [3, 1, 2], 6)):
            aggregate = get_aggregate(name)
            state = aggregate.create()
            for value in values:
                state = aggregate.accumulate(state, value)
            assert aggregate.finalize(state) == expected

    def test_listify_collects_and_merges(self):
        listify = ListifyAggregate()
        left = listify.accumulate(listify.create(), "a")
        right = listify.accumulate(listify.create(), "b")
        assert listify.finalize(listify.merge(left, right)) == ["a", "b"]

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(QueryError):
            get_aggregate("median")

    def test_merge_partials_across_partitions(self):
        specs = [AggregateSpec("n", "count", None)]
        partials = [{("a",): [2]}, {("a",): [3], ("b",): [1]}]
        merged = merge_partials(partials, specs)
        assert merged[("a",)] == [5]
        assert merged[("b",)] == [1]


class TestQuerySpec:
    def test_count_star_repartitions(self):
        spec = compile_sqlpp("SELECT VALUE count(*) FROM x AS t").spec
        assert spec.is_aggregation and spec.repartitions

    def test_select_star_projects_the_whole_record(self):
        spec = compile_sqlpp("SELECT * FROM x AS t").spec
        assert spec.projections[0][0] == "record"

    def test_aggregate_requires_argument(self):
        with pytest.raises(QueryError):
            AggregateSpec("a", "avg", None)

    def test_order_and_limit_on_rows(self):
        spec = compile_sqlpp("""
            SELECT k, count(*) AS n FROM x AS t GROUP BY t.k AS k ORDER BY n DESC LIMIT 2
        """).spec
        rows = [{"k": "a", "n": 3}, {"k": "b", "n": 9}, {"k": "c", "n": 5}]
        ordered = order_and_limit(rows, spec)
        assert [row["k"] for row in ordered] == ["b", "c"]


class TestConfig:
    def test_inferred_format_implies_compactor(self):
        config = DatasetConfig(name="d", storage_format=StorageFormat.INFERRED)
        assert config.tuple_compactor_enabled

    def test_dataset_config_validation(self):
        with pytest.raises(ValueError):
            DatasetConfig(name="")
        with pytest.raises(ValueError):
            DatasetConfig(name="d", primary_key="")

    def test_storage_config_validation(self):
        with pytest.raises(ValueError):
            StorageConfig(page_size=64)
        with pytest.raises(ValueError):
            StorageConfig(buffer_cache_pages=0)

    def test_cluster_config(self):
        assert ClusterConfig(node_count=3, partitions_per_node=2).total_partitions == 6
        with pytest.raises(ValueError):
            ClusterConfig(node_count=0)

    def test_device_profiles_match_paper(self):
        sata = DEVICE_PROFILES[DeviceKind.SATA_SSD]
        nvme = DEVICE_PROFILES[DeviceKind.NVME_SSD]
        assert sata["read_bandwidth"] == 550 * 1024 * 1024
        assert nvme["read_bandwidth"] == 3400 * 1024 * 1024
        assert nvme["read_bandwidth"] > sata["read_bandwidth"]

    def test_storage_format_helpers(self):
        assert StorageFormat.INFERRED.uses_vector_format
        assert StorageFormat.SL_VB.uses_vector_format
        assert not StorageFormat.OPEN.uses_vector_format
        assert DatasetConfig(name="d", storage_format=StorageFormat.INFERRED).tuple_compactor_enabled
        assert not DatasetConfig(name="d", storage_format=StorageFormat.SL_VB).tuple_compactor_enabled

    def test_lsm_config_defaults(self):
        config = LSMConfig()
        assert config.merge_policy == "prefix"

    def test_knobs_are_read_in_config_and_documented(self):
        package = Path(repro.config.__file__).parent
        readme = (package.parents[1] / "README.md").read_text(encoding="utf-8")
        documented = set(re.findall(r"^\| `(REPRO_\w+)` \|", readme, re.MULTILINE))
        knobs = set()
        for path in package.rglob("*.py"):
            source = path.read_text(encoding="utf-8")
            if path != package / "config.py":
                assert not re.search(r"os\.environ|getenv", source), path
            knobs.update(re.findall(r'^\w+_ENV_VAR = "(REPRO_\w+)"', source, re.MULTILINE))
        assert knobs and knobs <= documented
