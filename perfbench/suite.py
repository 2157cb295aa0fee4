"""Runs of the whole benchmark, each workload in a process of its own.

* :func:`run_all` — every workload once; the plain ``python3 -m perfbench``.
* :func:`calibrate` — every workload on N seeds; writes each gated metric's
  run-to-run spread to ``perfbench/calibration.json`` and fails when the
  benchmark is not steady enough to judge a change by.
* :func:`neighbours` — one run quiet, one beside a busy process per core: the
  regression test for a wall-clock benchmark on a shared box.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Sequence

from .run import ROOT, commit_sha
from .workloads import END_TO_END, EXACT_UNITS, PER_LAYER, TIMING_METRICS, WORKLOADS

CALIBRATION_PATH = os.path.join(ROOT, "perfbench", "calibration.json")
#: The calibration fails when, over the seeds, a gated metric's quartile
#: distance ÷ median exceeds this share of its bound.  Quartile distance over
#: ten seeds is what the benchmark's driver judges, against the whole bound; at
#: half of it a regression of one bound is five standard errors of the
#: difference between two ten-run medians.
GATE_IQR_SHARE = 1.0 / 2.0
#: Two stricter targets are reported, not gated, because this box does not
#: hold them for all 52 pairs at once within the driver's time cap (see
#: README, Steadiness): the quartile distance within a third of the bound (the
#: margin the driver's contract asks its builder for) and (max − min) ÷ median
#: within half of it (ISSUE 12; the range of ten runs is set by the worst
#: stretch of the box during them).
TARGET_IQR_SHARE = 1.0 / 3.0
TARGET_RANGE_SHARE = 1.0 / 2.0
_RUN_TIMEOUT_SECONDS = 600


def run_child(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One workload in a fresh interpreter; returns its result object, with the
    run's stamp under ``"stamp"``."""
    completed = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=_RUN_TIMEOUT_SECONDS)
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["stamp"] = json.loads(lines[0].partition(" ")[2])
    return result


def _values(result: Dict[str, Any]) -> Dict[str, float]:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def print_metrics(result: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then the failure count."""
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>16.6f} {metric['unit']}")
    print(f"  checked {result['attempted']} operations, {result['failed']} failed", flush=True)


def run_all(seed: int, seconds: float, trace: bool) -> int:
    incorrect = 0
    for workload in WORKLOADS:
        for traced in ([False, True] if trace else [False]):
            print(f"== {workload.name} (seed {seed}, trace {int(traced)})", flush=True)
            result = run_child(workload.name, seed, seconds, traced)
            print_metrics(result)
            incorrect += not result["correct"]
    return 1 if incorrect else 0


# ---------------------------------------------------------------------------
# --calibrate
# ---------------------------------------------------------------------------

def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartile distance ÷ median, and (max − min) ÷ median."""
    median = statistics.median(values)
    first, _, third = statistics.quantiles(values, n=4)
    return {"median": median, "iqr_over_median": (third - first) / median,
            "range_over_median": (max(values) - min(values)) / median}


def calibrate(workloads: Sequence[str], runs: int, first_seed: int, seconds: float) -> int:
    bounds = {name: bound for name, _, _, bound in END_TO_END}
    exact = [name for name, unit, _ in PER_LAYER if unit in EXACT_UNITS]
    ratios = [name for name, unit, _, _ in END_TO_END if unit == "B/B"]
    report: Dict[str, Any] = {}
    #: How slow the box was during each run (see perfbench.pace).
    speeds: Dict[str, List[float]] = {}
    offenders: List[str] = []
    missed: List[str] = []
    for workload in (workload for workload in WORKLOADS if workload.name in workloads):
        results = []
        for seed in range(first_seed, first_seed + runs):
            results.append(run_child(workload.name, seed, seconds, trace=False))
            print(f"calibrate {workload.name} seed {seed}: "
                  f"{results[-1]['failed']} of {results[-1]['attempted']} failed", flush=True)
        if not all(result["correct"] for result in results):
            offenders.append(f"{workload.name}: a run failed its correctness checks")
        rows = {}
        for name, bound in bounds.items():
            values = [_values(result)[name] for result in results]
            row = rows[name] = dict(spread(values), bound=bound, values=values)
            pair = f"{workload.name}/{name}"
            iqr, extent = row["iqr_over_median"], row["range_over_median"]
            if iqr > GATE_IQR_SHARE * bound:
                offenders.append(f"{pair}: quartile distance {iqr:.4f} of the median, "
                                 f"bound {bound}")
            elif iqr > TARGET_IQR_SHARE * bound:
                missed.append(f"{pair}: quartile distance {iqr:.4f} of the median is above a "
                              f"third of bound {bound}")
            if extent > TARGET_RANGE_SHARE * bound:
                missed.append(f"{pair}: max - min {extent:.4f} of the median is above half of "
                              f"bound {bound}")
        # One seed twice more: exact counts must not depend on the run.
        again = _values(run_child(workload.name, first_seed, seconds, trace=False))
        first = _values(results[0])
        differing = [name for name in ratios if again[name] != first[name]]
        layers = [_values(run_child(workload.name, first_seed, seconds, trace=True))
                  for _ in range(2)]
        differing += [name for name in exact if layers[0][name] != layers[1][name]]
        if differing:
            offenders.append(f"{workload.name}: counts differ between two runs of seed "
                             f"{first_seed}: {differing}")
        speeds[workload.name] = [result["stamp"]["speed_factor"] for result in results]
        report[workload.name] = rows
    document = {
        "commit": commit_sha(), "python": platform.python_version(), "nproc": os.cpu_count(),
        "runs_per_workload": runs, "first_seed": first_seed, "seconds": seconds,
        "steady": not offenders, "offenders": offenders, "missed_targets": missed,
        "speed_factors": speeds, "spreads": report,
    }
    with open(CALIBRATION_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    for workload, rows in report.items():
        print(f"== {workload}")
        print(f"  box slowdown while it ran: {min(speeds[workload]):.2f}x to "
              f"{max(speeds[workload]):.2f}x")
        for name, row in rows.items():
            print(f"  {name:<36} median {row['median']:>14.4f}  iqr/median "
                  f"{row['iqr_over_median']:.4f}  range/median {row['range_over_median']:.4f}  "
                  f"bound {row['bound']}")
    for pair in missed:
        print("target missed:", pair)
    for offender in offenders:
        print("NOT STEADY:", offender)
    return 1 if offenders else 0


# ---------------------------------------------------------------------------
# --neighbours
# ---------------------------------------------------------------------------

def neighbours(workloads: Sequence[str], seed: int, seconds: float) -> int:
    """Each gated metric beside busy neighbours ÷ the same metric on a quiet box."""
    bounds = {name: bound for name, _, _, bound in END_TO_END}
    better = {name: direction for name, _, direction, _ in END_TO_END}
    outside: List[str] = []
    for workload in workloads:
        quiet = _neighbour_runs(workload, seed, seconds)
        busy = [subprocess.Popen([sys.executable, "-c", "while True: pass"])
                for _ in range(os.cpu_count() or 1)]
        try:
            loaded = _neighbour_runs(workload, seed, seconds)
        finally:
            for process in busy:
                process.terminate()
            for process in busy:
                process.wait()
        print(f"== {workload}: loaded ÷ quiet, {len(busy)} busy neighbours")
        for name in TIMING_METRICS:
            ratio = loaded[name] / quiet[name]
            worse = ratio - 1.0 if better[name] == "lower" else 1.0 / ratio - 1.0
            wall = loaded[f"wall.{name}"] / quiet[f"wall.{name}"]
            verdict = "ok" if worse <= bounds[name] else "OUTSIDE BOUND"
            print(f"  {name:<28} cpu {ratio:7.3f}   wall {wall:7.3f}   {verdict}")
            if worse > bounds[name]:
                outside.append(f"{workload}/{name}")
    for name in outside:
        print("OUTSIDE BOUND:", name)
    return 1 if outside else 0


def _neighbour_runs(workload: str, seed: int, seconds: float) -> Dict[str, float]:
    """The gated metrics (untraced run) and their ``wall.*`` twins (traced run)."""
    values = _values(run_child(workload, seed, seconds, trace=False))
    values.update(_values(run_child(workload, seed, seconds, trace=True)))
    return values
