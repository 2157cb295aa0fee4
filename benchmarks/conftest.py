"""Benchmark-suite fixtures.

Every benchmark run exports the engine's metrics-registry activity into
``benchmark.extra_info["metrics"]``: an autouse fixture snapshots the
process-wide registry before the test, diffs it afterwards, and attaches
the :func:`harness.metrics_summary` of the delta (cache hit rate,
write amplification, ingest stall seconds, plus every raw counter/gauge/
histogram).  The saved JSON (``--benchmark-json``) thus carries the same
numbers the engine's own observability layer reports — no parallel
bookkeeping in the bench modules.

The same fixture also feeds the **trajectory artifacts**: at session end,
every figure module that ran gets a machine-readable ``BENCH_<figure>.json``
in the working directory (per-test wall-time stats + the metrics summary),
which CI's bench-smoke job uploads so perf trajectories can be compared
across commits.
"""

import json
import re
import time

import pytest
from harness import metrics_summary, scale_factor

from repro.obs import get_registry, metrics_delta

#: Per-figure trajectory data accumulated across the session, keyed by the
#: figure id parsed out of the module name (``bench_fig18_...`` -> "fig18").
_trajectories = {}

_FIGURE_RE = re.compile(r"bench_([a-z0-9]+)_")


def _wall_stats(benchmark):
    """Defensive read of pytest-benchmark's timing stats (may be absent when
    a test failed before its benchmarked callable ran)."""
    try:
        stats = benchmark.stats.stats
        return {
            "min_seconds": stats.min,
            "max_seconds": stats.max,
            "mean_seconds": stats.mean,
            "stddev_seconds": stats.stddev,
            "rounds": stats.rounds,
        }
    except (AttributeError, TypeError):
        return None


@pytest.fixture(autouse=True)
def _bench_metrics(request):
    # Resolve the benchmark fixture *before* yielding: during teardown it has
    # already been finalised and getfixturevalue() would refuse to serve it.
    benchmark = (request.getfixturevalue("benchmark")
                 if "benchmark" in request.fixturenames else None)
    registry = get_registry()
    before = registry.snapshot()
    yield
    if benchmark is None:
        return
    summary = metrics_summary(metrics_delta(registry.snapshot(), before))
    benchmark.extra_info["metrics"] = summary
    match = _FIGURE_RE.match(request.node.module.__name__)
    if match is None:
        return
    entry = {"wall": _wall_stats(benchmark), "metrics_summary": summary}
    _trajectories.setdefault(match.group(1), {})[request.node.name] = entry


def pytest_sessionfinish(session, exitstatus):
    for figure, tests in _trajectories.items():
        artifact = {
            "figure": figure,
            "scale": scale_factor(),
            "created_unix": time.time(),
            "exit_status": int(exitstatus),
            "tests": tests,
        }
        with open(f"BENCH_{figure}.json", "w") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
            handle.write("\n")
