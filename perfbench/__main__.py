"""Command line of the benchmark; pins the process environment before anything runs.

``python3 -m perfbench --workload W --seed N --seconds S --trace 0|1`` runs one
workload in this process and prints its result as the last line of standard
output.  Without ``--workload`` every workload runs, each in a process of its
own.  ``--calibrate N`` and ``--neighbours`` measure the benchmark itself (see
:mod:`perfbench.suite`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .workloads import RUN_SECONDS, WORKLOADS


def pin_environment() -> None:
    """Re-exec with ``PYTHONHASHSEED=0`` and without any ``REPRO_*`` knob.

    String hashing decides set and dict iteration order inside the engine, and
    every ``REPRO_*`` variable changes what the engine does; a benchmark that
    inherited either from the caller's shell would not give the same answer
    twice.
    """
    removed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if not removed and os.environ.get("PYTHONHASHSEED") == "0":
        return
    environment = {name: value for name, value in os.environ.items()
                   if not name.startswith("REPRO_")}
    environment["PYTHONHASHSEED"] = "0"
    if removed:
        print(f"perfbench: removed {', '.join(removed)} from the environment", file=sys.stderr)
    sys.stdout.flush()
    sys.stderr.flush()
    os.execve(sys.executable, [sys.executable, "-m", "perfbench", *sys.argv[1:]], environment)


def parse_arguments(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__)
    parser.add_argument("--workload", choices=[workload.name for workload in WORKLOADS],
                        help="run this workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="how long a run measures: the warm-up repetition and the "
                             "measured ones (never fewer than 5)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: report the per-layer metrics from a traced repetition")
    parser.add_argument("--calibrate", type=int, metavar="N",
                        help="run every workload on N (>= 10) seeds and write the spreads to "
                             "perfbench/calibration.json")
    parser.add_argument("--neighbours", action="store_true",
                        help="repeat the run beside one busy process per core and compare")
    arguments = parser.parse_args(argv)
    if arguments.calibrate is not None and arguments.calibrate < 10:
        parser.error("--calibrate needs at least 10 runs")
    return arguments


def main() -> int:
    arguments = parse_arguments()
    pin_environment()
    try:
        from . import suite
        from .run import run_workload
        from .workloads import workload_named
    except ModuleNotFoundError as exc:
        # No engine beside the benchmark: nothing to measure, and no result line.
        print(f"perfbench: cannot import the engine under src/ ({exc})", file=sys.stderr)
        return 2
    names = [arguments.workload] if arguments.workload else [w.name for w in WORKLOADS]
    if arguments.calibrate is not None:
        return suite.calibrate(names, arguments.calibrate, arguments.seed, arguments.seconds)
    if arguments.neighbours:
        return suite.neighbours(names, arguments.seed, arguments.seconds)
    if arguments.workload is None:
        return suite.run_all(arguments.seed, arguments.seconds, bool(arguments.trace))
    report = run_workload(workload_named(arguments.workload), arguments.seed,
                          arguments.seconds, bool(arguments.trace))
    # Stamp first, result object last: suite.run_child and the driver read those lines.
    print("perfbench:", json.dumps(report["stamp"]))
    suite.print_metrics(report["result"])
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
