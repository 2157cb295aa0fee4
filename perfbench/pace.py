"""The clocks of a timed region, and the speed of the box while it ran.

On the shared box this benchmark runs on, the host slows a guest process down
by 1.3x to 2.2x of *CPU time* — not only wall time — for seconds or for many
minutes at a stretch (no steal time is accounted to the guest).  Repetition
cannot average that away: ten runs of one workload on unchanged code spread by
12-50 % on every timing metric at once.

What the slowdown does not change is the ratio between the engine's time and
the time of a fixed piece of pure-Python work done next to it.  :func:`spin` is
that work: about 4 ms, run before every timed region.  A region's *paced*
time is its CPU time divided by the local speed factor — the mean ``spin``
time within :data:`WINDOW_SECONDS` of the region ÷ :data:`SPIN_SECONDS`, the
``spin`` time of this box when quiet.  Measured over 100 repetitions of one
workload while the host's slowdown swung between 1.0x and 1.9x: raw CPU totals
of 6-repetition groups spread (quartile distance ÷ median) by 33 %, paced ones
by 2 %.  ``spin`` never touches the engine, so a change to the engine cannot
move it.

A paced time is therefore a time *relative to* ``spin``, comparable between two
commits measured with the same ``perfbench/`` and not with a stopwatch.  The
reference is pure-Python object work; the engine also runs C code (zlib,
``struct``, CRC) that a slowdown need not scale by the same factor, so the
correction holds to a few percent, not exactly.  The traced run reports every
timing metric unpaced as well (``raw.*``), so that a change in a paced number
can be told from a change in the pacing.
"""

from __future__ import annotations

import bisect
import time
from typing import Any, List

#: CPU seconds of one :func:`spin` on the quiet 2-core box the benchmark was
#: defined on.  Paced times are the times at the speed where a spin takes this
#: long; on a faster or slower machine they are scaled to that speed.
SPIN_SECONDS = 0.0040
#: A region's speed factor is taken from the spins this close to it.
WINDOW_SECONDS = 0.3


def spin() -> int:
    """The reference work: dict stores, tuple and string building, small ints."""
    table = {}
    for number in range(24000):
        table[number & 1023] = (number * 7, str(number))
    return len(table)


class Pace:
    """Reference samples of one run, in time order."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._seconds: List[float] = []

    def sample(self) -> None:
        started = time.process_time()
        spin()
        self._seconds.append(time.process_time() - started)
        self._times.append(time.perf_counter())

    def factor(self, start: float, end: float) -> float:
        """Local slowdown of the box over ``[start, end]`` (1.0 = quiet)."""
        low = bisect.bisect_left(self._times, start - WINDOW_SECONDS)
        high = bisect.bisect_right(self._times, end + WINDOW_SECONDS)
        # A lap takes a sample just before it starts, so the window is never empty.
        nearby = self._seconds[low:high]
        return sum(nearby) / len(nearby) / SPIN_SECONDS

    def mean_spin_seconds(self) -> float:
        return sum(self._seconds) / len(self._seconds)


class Lap:
    """CPU and wall seconds of one timed region, preceded by a reference sample."""

    __slots__ = ("cpu", "wall", "_pace", "_start", "_cpu0")

    def __init__(self, pace: Pace) -> None:
        self._pace = pace

    def __enter__(self) -> "Lap":
        self._pace.sample()
        self._start = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.cpu = time.process_time() - self._cpu0
        self.wall = time.perf_counter() - self._start
        return False

    @property
    def paced(self) -> float:
        """CPU seconds at the reference speed (needs the samples after the lap too)."""
        return self.cpu / self._pace.factor(self._start, self._start + self.wall)
