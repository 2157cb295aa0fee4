"""Deterministic, seedable fault injection.

The engine consults this module at the named points registered in
:mod:`repro.faults.points` (device read/write, file-manager page I/O,
buffer-cache misses, WAL append/truncate, scheduler task bodies).  With no
rules configured the check is a flag read — cheap enough to leave compiled
into every hot path.  Rules come from the code API
(``get_injector().add_rule(...)``) or the ``REPRO_FAULTS`` spec:

    point:p=<float>|nth=<int>[:error=transient|permanent|corrupt]
         [:seed=<int>][:times=<int>]

with multiple rules separated by ``;``.  A probability rule fires each hit
with chance ``p`` from the rule's own seeded RNG; an ``nth`` rule fires on
every nth hit of its point.  ``times`` caps the total number of firings.
Identical seeds and schedules produce identical fault sequences, which is
what lets the chaos suite replay a failing schedule exactly.

``error`` picks the raised type: ``transient`` →
:class:`~repro.errors.TransientIOError` (the scheduler retries these with
backoff), ``permanent`` → :class:`~repro.errors.PermanentIOError`,
``corrupt`` → byte-flip the payload at :func:`corrupt_payload` points so the
page/record checksum catches it downstream (at plain :func:`fire_fault`
points a corrupt rule raises :class:`~repro.errors.CorruptPageError`
directly).
"""

from __future__ import annotations

import random
import threading
import zlib
from typing import Dict, List, Optional, Tuple

from ..config import env_str
from ..errors import (CorruptPageError, FaultSpecError, PermanentIOError,
                      TransientIOError)
from ..obs import MetricsRegistry, get_registry
from .points import FAULT_POINTS, FaultPoint, is_registered

#: Spec string configuring the process-global injector, read lazily on the
#: first fault check so tests can monkeypatch it before touching storage.
FAULTS_ENV_VAR = "REPRO_FAULTS"

_ERROR_CLASSES = ("transient", "permanent", "corrupt")


class FaultRule:
    """One trigger: fire ``error`` at ``point`` per ``probability``/``nth``."""

    __slots__ = ("point", "error", "probability", "nth", "seed", "times",
                 "hits", "fires", "_rng")

    def __init__(self, point: str, probability: Optional[float] = None,
                 nth: Optional[int] = None, error: str = "transient",
                 seed: Optional[int] = None, times: Optional[int] = None) -> None:
        if not is_registered(point):
            raise FaultSpecError(f"unknown fault point {point!r}; see "
                                 f"repro.faults.fault_points() for the registry")
        if (probability is None) == (nth is None):
            raise FaultSpecError(
                f"fault rule for {point!r} needs exactly one trigger: "
                f"p=<float> or nth=<int>")
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise FaultSpecError(f"fault probability must be in [0, 1], got {probability}")
        if nth is not None and nth < 1:
            raise FaultSpecError(f"fault nth must be >= 1, got {nth}")
        if error not in _ERROR_CLASSES:
            raise FaultSpecError(f"unknown fault error class {error!r}; "
                                 f"expected one of {', '.join(_ERROR_CLASSES)}")
        if times is not None and times < 1:
            raise FaultSpecError(f"fault times must be >= 1, got {times}")
        self.point = point
        self.probability = probability
        self.nth = nth
        self.error = error
        # Unseeded rules still get a deterministic stream (derived from the
        # point name) so two runs of the same schedule inject identically.
        self.seed = seed if seed is not None else zlib.crc32(point.encode("utf-8"))
        self.times = times
        self.hits = 0
        self.fires = 0
        self._rng = random.Random(self.seed)

    # requires-lock: FaultInjector._lock
    def should_fire(self) -> bool:
        self.hits += 1
        if self.times is not None and self.fires >= self.times:
            return False
        if self.probability is not None:
            fire = self._rng.random() < self.probability
        else:
            fire = self.hits % self.nth == 0
        if fire:
            self.fires += 1
        return fire

    def describe(self) -> str:
        trigger = f"p={self.probability}" if self.probability is not None else f"nth={self.nth}"
        suffix = f":times={self.times}" if self.times is not None else ""
        return f"{self.point}:{trigger}:error={self.error}:seed={self.seed}{suffix}"


class FaultInjector:
    """Holds fault rules and decides, per hit, whether a point fires.

    Thread-safe: rule state (hit counters, RNG streams) mutates under
    ``_lock``; the raise itself happens after the lock is released.  The
    ``active`` flag is a plain bool read without the lock on the no-rules
    fast path — it only changes when rules are (re)configured.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._lock = threading.Lock()
        self._rules: List[FaultRule] = []  # guarded-by: _lock
        self._hit_counts: Dict[str, int] = {}  # guarded-by: _lock
        self.active = False
        self.metrics = metrics if metrics is not None else get_registry()
        self._counters: Dict[str, object] = {}

    # -- configuration ---------------------------------------------------------

    def add_rule(self, point: str, probability: Optional[float] = None,
                 nth: Optional[int] = None, error: str = "transient",
                 seed: Optional[int] = None, times: Optional[int] = None) -> FaultRule:
        rule = FaultRule(point, probability=probability, nth=nth, error=error,
                         seed=seed, times=times)
        with self._lock:
            self._rules.append(rule)
        self.active = True
        return rule

    def load_spec(self, spec: str) -> List[FaultRule]:
        """Parse a ``REPRO_FAULTS`` spec string and add every rule in it."""
        return [self.add_rule(point, **kwargs) for point, kwargs in parse_spec(spec)]

    def clear(self) -> None:
        with self._lock:
            self._rules = []
            self._hit_counts = {}
        self.active = False

    def rules(self) -> List[str]:
        """Human-readable descriptions of the configured rules."""
        with self._lock:
            return [rule.describe() for rule in self._rules]

    def hit_counts(self) -> Dict[str, int]:
        """Times each point was *consulted* (fired or not) since configure."""
        with self._lock:
            return dict(self._hit_counts)

    # -- the hot path ----------------------------------------------------------

    def _evaluate(self, point: str) -> Optional[str]:
        """Return the error class to inject at ``point``, or ``None``.

        An armed injector refuses a point the registry does not know: a
        misspelled fire site could never be targeted by a rule.
        """
        if not self.active:
            return None
        if not is_registered(point):
            raise FaultSpecError(f"fault point {point!r} fired but not registered in "
                                 f"repro.faults.points.FAULT_POINTS")
        triggered = None
        with self._lock:
            hit = False
            for rule in self._rules:
                if rule.point != point:
                    continue
                hit = True
                if triggered is None and rule.should_fire():
                    triggered = rule.error
            if hit:
                self._hit_counts[point] = self._hit_counts.get(point, 0) + 1
        if triggered is not None:
            counter = self._counters.get(point)
            if counter is None:
                counter = self.metrics.counter("faults_injected_total", point=point)
                self._counters[point] = counter
            counter.inc()
        return triggered

    def fire(self, point: str) -> None:
        """Raise the injected error for ``point`` if a rule triggers."""
        error = self._evaluate(point)
        if error is None:
            return
        if error == "transient":
            raise TransientIOError(f"injected transient I/O fault at {point}")
        if error == "permanent":
            raise PermanentIOError(f"injected permanent I/O fault at {point}")
        raise CorruptPageError(f"injected corruption at {point}")

    def corrupt(self, point: str, payload: bytes) -> bytes:
        """Maybe corrupt ``payload`` at ``point`` (or raise, per the rule)."""
        error = self._evaluate(point)
        if error is None or not payload:
            return payload
        if error == "transient":
            raise TransientIOError(f"injected transient I/O fault at {point}")
        if error == "permanent":
            raise PermanentIOError(f"injected permanent I/O fault at {point}")
        mutated = bytearray(payload)
        # Deterministic position: rule RNGs drive firing decisions, so reuse
        # a cheap hash of the payload length + fire ordinal via the counters.
        index = zlib.crc32(payload[:16]) % len(mutated)
        mutated[index] ^= 0xFF
        return bytes(mutated)


# The process-global injector every engine fault check consults.  Created
# empty at import; the REPRO_FAULTS spec is folded in lazily on first use so
# tests can set the variable before any storage is touched.
_INJECTOR = FaultInjector()
_env_loaded = False


def get_injector() -> FaultInjector:
    """The process-global injector (spec from ``REPRO_FAULTS`` applied once)."""
    global _env_loaded
    if not _env_loaded:
        _env_loaded = True
        spec = env_str(FAULTS_ENV_VAR)
        if spec:
            _INJECTOR.load_spec(spec)
    return _INJECTOR


def fire_fault(point: str) -> None:
    """Engine-side check: raise the injected error for ``point`` if due."""
    injector = get_injector()
    if injector.active:
        injector.fire(point)


def corrupt_payload(point: str, payload: bytes) -> bytes:
    """Engine-side check for payload-carrying points (pages, WAL records)."""
    injector = get_injector()
    if injector.active:
        return injector.corrupt(point, payload)
    return payload


def fault_points() -> Tuple[FaultPoint, ...]:
    """Every registered injection point (name + description)."""
    return FAULT_POINTS


def parse_spec(spec: str) -> List[Tuple[str, dict]]:
    """Parse a ``REPRO_FAULTS`` string into ``(point, rule_kwargs)`` pairs."""
    parsed: List[Tuple[str, dict]] = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        segments = chunk.split(":")
        point = segments[0].strip()
        kwargs: dict = {}
        for segment in segments[1:]:
            key, sep, value = segment.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not value:
                raise FaultSpecError(f"malformed fault spec segment {segment!r} "
                                     f"in rule {chunk!r}")
            try:
                if key in ("p", "probability"):
                    kwargs["probability"] = float(value)
                elif key == "nth":
                    kwargs["nth"] = int(value)
                elif key == "error":
                    kwargs["error"] = value
                elif key == "seed":
                    kwargs["seed"] = int(value)
                elif key == "times":
                    kwargs["times"] = int(value)
                else:
                    raise FaultSpecError(f"unknown fault spec key {key!r} "
                                         f"in rule {chunk!r}")
            except ValueError:
                raise FaultSpecError(f"bad value {value!r} for {key!r} "
                                     f"in rule {chunk!r}") from None
        # Validation (registered point, exactly-one trigger) happens in
        # FaultRule so the code API and the spec path agree exactly.
        parsed.append((point, kwargs))
    return parsed
