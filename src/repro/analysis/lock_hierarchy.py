"""Central lock hierarchy for the engine.

Every ``threading.Lock``/``threading.RLock`` created in ``src/repro`` must be
declared here with a **level**; LOCK002 fails the lint run for any lock
attribute missing from this table (and for stale declarations whose class or
attribute no longer exists).  The discipline is classic lock leveling:

    a thread holding a lock at level *L* may only acquire locks at levels
    strictly below *L*.

If every acquisition path descends the table, no cycle can form in the
lock-order graph and the engine is deadlock-free by construction.  The
dynamic tracker (:mod:`repro.analysis.locktrack`) checks the same invariant
at runtime against the acquisition orders tier-1 tests actually perform.

Levels follow the engine's real call topology, top (outermost) to bottom:
LSM maintenance orchestrates everything, so it sits highest; it nests the
rotation condition, submits to the scheduler, and calls into WAL / buffer
cache / device; those in turn publish metrics, which bottom out in
per-instrument locks.  The tracker's own bookkeeping lock is the floor.

``allows_blocking=True`` exempts a lock from LOCK001 (no blocking calls
while held).  Only two locks carry it: ``_maintenance_lock`` *deliberately*
holds across flush/merge device I/O (that is its job — serializing
maintenance passes per index), and the tracer's ``_export_lock`` exists
precisely to serialize export-file writes without holding the span-state
lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class LockDecl:
    """One declared lock: where it lives, its level, and its blocking policy."""

    #: Class owning the lock attribute.
    owner: str
    #: Attribute name (``self.<attr>``).
    attr: str
    #: Hierarchy level — acquisitions must strictly descend.
    level: int
    #: "lock", "rlock", or "condition" (a Condition wraps a Lock: acquiring
    #: the condition acquires that lock, so it holds a level like any other).
    kind: str
    #: Module (relative to ``src/repro``) where the lock is created.
    module: str
    #: Whether blocking calls (sleep, device/file I/O, future.result) are
    #: permitted while this lock is held.  Keep this list short.
    allows_blocking: bool = False
    #: One-line justification shown in reports.
    doc: str = ""

    @property
    def key(self) -> str:
        return f"{self.owner}.{self.attr}"


_DECLS: Tuple[LockDecl, ...] = (
    LockDecl("LSMBTree", "_maintenance_lock", 100, "lock", "lsm/lsm_index.py",
             allows_blocking=True,
             doc="serializes flush/merge passes per index; held across device I/O by design"),
    LockDecl("LSMBTree", "_rotation_cond", 90, "condition", "lsm/lsm_index.py",
             doc="guards memtable rotation state; writers wait on it for backpressure"),
    LockDecl("LSMIOScheduler", "_lock", 80, "lock", "lsm/scheduler.py",
             doc="guards the background task queue (the _idle condition shares it)"),
    LockDecl("LSMBTree", "_read_lock", 70, "lock", "lsm/lsm_index.py",
             doc="guards the active-reader count and deferred component drops"),
    LockDecl("WriteAheadLog", "_lock", 60, "lock", "storage/wal.py",
             doc="serializes record append / LSN assignment / truncation"),
    LockDecl("BufferCache", "_lock", 50, "lock", "storage/buffer_cache.py",
             doc="guards the resident-page table; miss fetches run outside it"),
    LockDecl("SimulatedStorageDevice", "_lock", 40, "lock", "storage/device.py",
             doc="guards byte/op counters; simulated latency sleeps run outside it"),
    LockDecl("FaultInjector", "_lock", 35, "lock", "faults/injector.py",
             doc="guards fault-rule state (hit counters, RNG streams); the "
                 "injected raise happens after release"),
    LockDecl("LimitCancellation", "_lock", 30, "lock", "query/executor.py",
             doc="guards the cross-partition row-budget counter for LIMIT pushdown"),
    LockDecl("PlanCache", "_lock", 26, "lock", "cache/plan_cache.py",
             doc="guards the physical-plan LRU map; plan compilation and "
                 "metric updates run outside it"),
    LockDecl("ColumnSliceCache", "_lock", 25, "lock", "cache/column_cache.py",
             doc="guards the slice-chunk LRU map and byte accounting; "
                 "decode work and metric updates run outside it"),
    LockDecl("Tracer", "_lock", 20, "lock", "obs/tracing.py",
             doc="guards span buffers and tracer enable state"),
    LockDecl("Tracer", "_export_lock", 15, "lock", "obs/tracing.py",
             allows_blocking=True,
             doc="serializes export-file writes so _lock never covers file I/O"),
    LockDecl("MetricsRegistry", "_lock", 12, "lock", "obs/metrics.py",
             doc="guards the instrument table (create/lookup)"),
    LockDecl("Counter", "_lock", 10, "lock", "obs/metrics.py",
             doc="guards one counter's per-label cells"),
    LockDecl("Gauge", "_lock", 10, "lock", "obs/metrics.py",
             doc="guards one gauge's per-label cells"),
    LockDecl("Histogram", "_lock", 10, "lock", "obs/metrics.py",
             doc="guards one histogram's buckets"),
    LockDecl("LockTracker", "_lock", 5, "lock", "analysis/locktrack.py",
             doc="the tracker's own bookkeeping; floor of the hierarchy"),
)

#: ``"Owner.attr" -> LockDecl`` — the table LOCK002 and locktrack consult.
LOCK_HIERARCHY: Dict[str, LockDecl] = {decl.key: decl for decl in _DECLS}

# Instrument locks share level 10 on purpose: Counter/Gauge/Histogram locks
# are leaves (no code acquires one instrument's lock while holding
# another's), and giving the three classes one level keeps the table honest
# about their equivalence.  Same-level *acquisition* is still a violation —
# descent must be strict — so the tracker would catch instrument-lock
# nesting if it ever appeared.


def level_of(key: str) -> int:
    """Hierarchy level for ``"Owner.attr"``; raises KeyError when undeclared."""
    return LOCK_HIERARCHY[key].level


def is_declared(key: str) -> bool:
    return key in LOCK_HIERARCHY
