"""Tests of the benchmark itself, on shrunken workloads.

Run with ``python -m pytest perfbench -q`` from the repository root (tier-1's
``testpaths`` does not include this directory).
"""

from __future__ import annotations

import json
import os
import re

import pytest

import perfbench  # noqa: F401  (puts the checkout's src/ on sys.path)
from perfbench.run import ROOT, run_workload
from perfbench.workloads import END_TO_END, EXACT_UNITS, PER_LAYER, WORKLOADS, benchmark_json

SCALE = 0.05
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One shrunken traced run of every workload: name → (report, trace path)."""
    out_dir = str(tmp_path_factory.mktemp("traces"))
    return {workload.name: (run_workload(workload.scaled(SCALE), 3, 0.0, True, out_dir=out_dir),
                            os.path.join(out_dir, f"trace_{workload.name}.json"))
            for workload in WORKLOADS}


def _values(report):
    return {name: metric["value"] for name, metric in report["result"]["metrics"].items()}


def test_benchmark_json_is_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        committed = json.load(handle)
    assert committed == benchmark_json()
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in committed[key]]
    assert len(names) == len(set(names))
    assert all(_NAME.fullmatch(name) for name in names)
    assert all(len(row["why"]) <= 200 and "\n" not in row["why"] for row in committed["workloads"])
    assert all(0 < row["bound"] <= 0.25 for row in committed["end_to_end"])
    assert any(row == {"name": "setup_s", "unit": "s", "better": "lower", "bound": row["bound"]}
               for row in committed["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda workload: workload.name)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    result = run_workload(workload.scaled(SCALE), 3, 0.0, False, out_dir=str(tmp_path))["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _, _, _ in END_TO_END]
    for (name, unit, _, _), metric in zip(END_TO_END, result["metrics"].values()):
        assert metric["unit"] == unit
        assert metric["value"] > 0, name
    assert not os.listdir(tmp_path), "an untraced run writes no trace"


def test_traced_run_reports_every_per_layer_metric(traced):
    for report, _ in traced.values():
        result = report["result"]
        assert result["correct"], report["stamp"]["failures"]
        assert list(result["metrics"]) == [name for name, _, _ in PER_LAYER]
        assert result["metrics"]["clock.trace_overhead_ratio"]["value"] > 0


def test_counts_repeat_for_a_seed_and_differ_between_seeds(traced, tmp_path):
    workload = WORKLOADS[1].scaled(SCALE)
    exact = [name for name, unit, _ in PER_LAYER if unit in EXACT_UNITS]
    first = _values(traced[workload.name][0])
    again = _values(run_workload(workload, 3, 0.0, True, out_dir=str(tmp_path)))
    other = _values(run_workload(workload, 4, 0.0, True, out_dir=str(tmp_path)))
    assert {name: first[name] for name in exact} == {name: again[name] for name in exact}
    assert any(first[name] != other[name] for name in exact)


def test_wrong_oracle_answer_is_counted_as_a_failure(tmp_path):
    def plant(plan):
        plan.rounds[0].get_expected[0] = {"id": -1}

    report = run_workload(WORKLOADS[0].scaled(SCALE), 3, 0.0, False, mutate_plan=plant,
                          out_dir=str(tmp_path))
    result = report["result"]
    # One planted get per repetition; nothing else may fail.
    assert not result["correct"]
    assert result["failed"] == report["stamp"]["repetitions"]
    assert "get(" in report["stamp"]["failures"][0]


def test_trace_spans_nest(traced):
    for _, path in traced.values():
        with open(path, encoding="utf-8") as handle:
            trace = json.load(handle)
        spans = trace["spans"]
        assert spans and trace["fields"] == ["name", "start", "end", "parent", "busy"]
        children = [0.0] * len(spans)
        for index, (name, start, end, parent, busy) in enumerate(spans):
            assert 0 <= name < len(trace["names"])
            assert -1 <= parent < index, "a span's parent was opened before it"
            assert end >= start and 0 <= busy <= end - start + 1e-9
            if parent >= 0:
                assert spans[parent][1] <= start, "a span starts inside its parent"
                children[parent] += busy
        for (_, _, _, _, busy), covered in zip(spans, children):
            assert busy - covered >= -1e-6, "self time is never negative"
