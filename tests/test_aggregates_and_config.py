"""Additional unit tests: aggregates, configuration validation, query specs."""

import math
import re
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.query.aggregates import _REGISTRY, AvgAggregate, CountAggregate, ListifyAggregate
from repro.query.plan import AggregateSpec
from repro.query.operators import merge_partials, order_and_limit
from repro.sqlpp import compile as compile_sqlpp
from repro.types import MISSING


class TestAggregates:
    def test_count_ignores_missing_and_null(self):
        count = CountAggregate()
        state = count.create()
        for value in (1, None, MISSING, "x"):
            state = count.fold(state, [value])
        assert count.finalize(state) == 2
        assert count.fold(count.create(), [1, None, MISSING, "x"]) == 2

    def test_avg_merges_partials(self):
        avg = AvgAggregate()
        left = avg.create()
        right = avg.create()
        left = avg.fold(left, [2, 4])
        right = avg.fold(right, [6])
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
                state = aggregate.fold(state, [value])
            assert aggregate.finalize(aggregate.fold(aggregate.create(), values)) == expected
            assert aggregate.finalize(state) == expected

    def test_listify_collects_and_merges(self):
        listify = ListifyAggregate()
        left = listify.fold(listify.create(), ["a"])
        right = listify.fold(listify.create(), ["b", None])
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


def _same(left, right) -> bool:
    """Equal value for value, floats bit for bit (-0.0 is not 0.0, NaN is NaN)."""
    if isinstance(left, float) or isinstance(right, float):
        return (type(left) is type(right)
                and struct.pack("<d", left) == struct.pack("<d", right))
    if isinstance(left, (tuple, list)):
        return (type(left) is type(right) and len(left) == len(right)
                and all(_same(a, b) for a, b in zip(left, right)))
    return type(left) is type(right) and left == right


def _outcome(step):
    """``("ok", state)`` or ``("raised", exception type)``."""
    try:
        return "ok", step()
    except Exception as exc:  # the type is what both sides must agree on
        return "raised", type(exc)


_FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e16, -1e16]))
_NUMBERS = st.one_of(st.none(), st.just(MISSING), st.booleans(),
                     st.integers(-2 ** 60, 2 ** 60), _FLOATS)
_WITH_STRINGS = st.one_of(_NUMBERS, st.text(max_size=3))


@st.composite
def _aggregate_and_values(draw):
    name = draw(st.sampled_from(sorted(_REGISTRY)))
    values = draw(st.lists(_WITH_STRINGS if name in ("min", "max", "listify") else _NUMBERS,
                           max_size=12))
    return name, values, draw(st.integers(0, len(values)))


class TestFoldIsARowByRowFold:
    """``fold(state, values)`` gives the state folding ``values`` one at a
    time gives — the per-row semantics the reference model keeps."""

    @settings(max_examples=400, deadline=None)
    @given(_aggregate_and_values())
    def test_one_call_equals_one_value_at_a_time(self, drawn):
        name, values, split = drawn
        aggregate = _REGISTRY[name]

        def one_by_one():
            state = aggregate.create()
            for value in values:
                state = aggregate.fold(state, [value])
            return aggregate.finalize(state)

        def in_one_call():
            return aggregate.finalize(aggregate.fold(aggregate.create(), values))

        def in_two_calls():  # two batches of one group
            state = aggregate.fold(aggregate.create(), values[:split])
            return aggregate.finalize(aggregate.fold(state, values[split:]))

        expected = _outcome(one_by_one)
        for actual in (_outcome(in_one_call), _outcome(in_two_calls)):
            assert actual[0] == expected[0], (actual, expected)
            if expected[0] == "raised":
                assert actual[1] is expected[1]
            else:
                assert _same(actual[1], expected[1]), (actual, expected)

    def test_sum_and_avg_add_left_to_right(self):
        values = [1e16, 1.0, -1e16]
        # Compensated summation (math.fsum, and sum() from Python 3.12) keeps
        # the 1.0; a left fold rounds it away, as adding row by row does.
        assert math.fsum(values) == 1.0
        avg = get_aggregate("avg")
        assert _same(avg.fold(avg.create(), values), (0.0, 3))
        assert _same(avg.finalize(avg.fold(avg.create(), values)), 0.0)
        total = get_aggregate("sum")
        assert _same(total.fold(total.create(), values), 0.0)

    def test_min_and_max_keep_the_first_extreme(self):
        assert _same(get_aggregate("min").fold(None, [0.0, -0.0]), 0.0)
        assert _same(get_aggregate("max").fold(-0.0, [0.0]), -0.0)
        # A NaN met first never compares smaller, so row by row it stays.
        assert math.isnan(get_aggregate("min").fold(None, [math.nan, 1.0]))
        assert get_aggregate("min").fold(1.0, [math.nan, 0.0]) == 0.0
        assert get_aggregate("max").fold(True, [1, 1.0]) is True


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
