"""Thread-safe metrics registry: labeled counters, gauges, and histograms.

Every layer of the engine — simulated devices, buffer cache, WAL, LSM
lifecycle, scheduler, query executor — publishes into one registry instead
of inventing private counter plumbing.  The model follows the Prometheus
client conventions scaled down to what the reproduction needs:

* an *instrument* is identified by its name plus a frozen label set
  (``registry.counter("device_bytes_read", io_class="data")``); requesting
  the same (name, labels) pair returns the same instrument, so hot paths
  can resolve a handle once and increment it lock-cheap forever after;
* **counters** only go up, **gauges** are set to the latest value,
  **histograms** record count/sum/min/max of observations (enough for the
  benchmark summaries; no bucket vectors to keep the hot path trivial);
* :meth:`MetricsRegistry.snapshot` returns a plain, JSON-serializable dict
  and :func:`metrics_delta` subtracts two snapshots, which is how the
  benchmark harness and ``DataFeed`` report per-run activity against the
  process-wide registry without resetting anybody else's counters.

Instruments use one lock per instrument (not a registry-wide lock) so
concurrent partition workers and background flush/merge threads never
serialize on each other's unrelated counters.
"""

from __future__ import annotations

import re
import threading
import weakref
from typing import Any, Dict, List, Optional, Tuple

_METRIC_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


def _label_key(name: str, labels: Dict[str, Any]) -> str:
    """Canonical instrument key: ``name`` or ``name{a=1,b=x}`` (labels sorted)."""
    if not labels:
        return name
    rendered = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{rendered}}}"


class Counter:
    """Monotonically increasing counter: incremented, or :meth:`follow`-ing
    numbers engine objects already keep, so each is stored once."""

    __slots__ = ("key", "_lock", "_value", "_followed", "_retired")

    def __init__(self, key: str) -> None:
        self.key = key
        self._lock = threading.Lock()
        self._value = 0.0
        self._followed: Dict[int, Tuple[Any, str]] = {}  # guarded-by: _lock
        #: Followed cells whose owners were collected.  Their finalizers
        #: append without the lock: the collector may run one under it.
        self._retired: List[int] = []

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.key!r} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount

    def follow(self, owner: Any, cell: Any, field: str) -> None:
        """Count ``cell.<field>``: read live while ``owner`` lives, folded in
        at its last value once ``owner`` is collected, so dropping an
        environment never lowers the counter.  ``cell`` must not refer to
        ``owner``."""
        with self._lock:
            self._fold_retired()
            self._followed[id(cell)] = (cell, field)
        weakref.finalize(owner, self._retired.append, id(cell)).atexit = False

    # requires-lock: _lock
    def _fold_retired(self) -> None:
        while self._retired:
            cell, field = self._followed.pop(self._retired.pop())
            self._value += getattr(cell, field)

    @property
    def value(self) -> float:
        with self._lock:
            self._fold_retired()
            return self._value + sum(getattr(cell, field)
                                     for cell, field in self._followed.values())


class Gauge:
    """Last-value instrument (queue depths, resident pages, ...)."""

    __slots__ = ("key", "_lock", "_value")

    def __init__(self, key: str) -> None:
        self.key = key
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Count/sum/min/max summary of observed values."""

    __slots__ = ("key", "_lock", "count", "sum", "min", "max")

    def __init__(self, key: str) -> None:
        self.key = key
        self._lock = threading.Lock()
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def summary(self) -> Dict[str, float]:
        with self._lock:
            mean = self.sum / self.count if self.count else 0.0
            return {"count": self.count, "sum": self.sum, "mean": mean,
                    "min": self.min if self.min is not None else 0.0,
                    "max": self.max if self.max is not None else 0.0}


class MetricsRegistry:
    """Get-or-create store of named, labeled instruments.

    The registry lock only guards instrument *creation*; updates go through
    each instrument's own lock.  A name must match ``[a-z][a-z0-9_]*`` and
    keeps one instrument type and one set of label *names* (values vary) —
    asking for ``counter("x")`` after ``gauge("x")``, or for
    ``counter("x", kind=...)`` after ``counter("x")``, is a programming
    error and raises.  The checks run on creation only, never on a lookup.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Any] = {}
        #: name -> (instrument type, sorted label names).
        self._types: Dict[str, Tuple[type, Tuple[str, ...]]] = {}

    # -- instrument access -----------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get_or_create(Histogram, name, labels)

    def _get_or_create(self, cls: type, name: str, labels: Dict[str, Any]):
        key = _label_key(name, labels)
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is not None:
                if not isinstance(instrument, cls):
                    raise TypeError(
                        f"metric {key!r} already registered as "
                        f"{type(instrument).__name__}, not {cls.__name__}")
                return instrument
            shape = (cls, tuple(sorted(labels)))
            registered = self._types.get(name)
            if registered is None:
                if not _METRIC_NAME_RE.match(name):
                    raise ValueError(f"metric name {name!r} does not match [a-z][a-z0-9_]*")
                self._types[name] = shape
            elif registered != shape:
                raise TypeError(
                    f"metric name {name!r} already registered as "
                    f"{registered[0].__name__} with labels {list(registered[1])}, "
                    f"not {cls.__name__} with labels {list(shape[1])}")
            instrument = cls(key)
            self._instruments[key] = instrument
            return instrument

    # -- reporting -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-serializable view of every instrument's current state."""
        with self._lock:
            instruments = list(self._instruments.values())
        out: Dict[str, Dict[str, Any]] = {"counters": {}, "gauges": {}, "histograms": {}}
        for instrument in instruments:
            if isinstance(instrument, Counter):
                out["counters"][instrument.key] = instrument.value
            elif isinstance(instrument, Gauge):
                out["gauges"][instrument.key] = instrument.value
            else:
                out["histograms"][instrument.key] = instrument.summary()
        return out

    def reset(self) -> None:
        """Drop every instrument (test isolation helper)."""
        with self._lock:
            self._instruments.clear()
            self._types.clear()


def metrics_delta(current: Dict[str, Dict[str, Any]],
                  earlier: Dict[str, Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Activity between two :meth:`MetricsRegistry.snapshot` calls.

    Counters and histogram count/sum are subtracted; gauges keep the current
    value (a gauge's "delta" is meaningless); histogram min/max are the
    current run's bounds only when the count changed, else zeroed.
    """
    delta: Dict[str, Dict[str, Any]] = {"counters": {}, "gauges": {}, "histograms": {}}
    earlier_counters = earlier.get("counters", {})
    for key, value in current.get("counters", {}).items():
        delta["counters"][key] = value - earlier_counters.get(key, 0.0)
    delta["gauges"] = dict(current.get("gauges", {}))
    earlier_histograms = earlier.get("histograms", {})
    for key, summary in current.get("histograms", {}).items():
        before = earlier_histograms.get(key, {})
        count = summary["count"] - before.get("count", 0)
        total = summary["sum"] - before.get("sum", 0.0)
        delta["histograms"][key] = {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": summary["min"] if count else 0.0,
            "max": summary["max"] if count else 0.0,
        }
    return delta


#: Process-wide default registry.  Storage environments default to it (an
#: explicit per-environment registry isolates tests), and the benchmark
#: harness snapshots it around every measured run.
_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return _default_registry
