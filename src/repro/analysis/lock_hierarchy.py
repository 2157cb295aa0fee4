"""Central lock hierarchy for the engine.

Every ``threading.Lock``/``threading.RLock`` the engine creates must be
declared here with a **level**.  The dynamic tracker
(:mod:`repro.analysis.locktrack`) fails a ``REPRO_LOCKTRACK=1`` test
session for an engine lock created without a declaration, and for a
declaration no lock was created under.  The discipline is classic lock
leveling:

    a thread holding a lock at level *L* may only acquire locks at levels
    strictly below *L*.

If every acquisition path descends the table, no cycle can form in the
lock-order graph and the engine is deadlock-free by construction.  The
tracker checks that invariant on every acquisition tier-1 tests perform.

Levels follow the engine's real call topology, top (outermost) to bottom:
LSM maintenance orchestrates everything, so it sits highest; it nests the
rotation condition, submits to the scheduler, and calls into WAL / buffer
cache / device; those in turn publish metrics, which bottom out in
per-instrument locks.  A condition is declared under its own name when it
wraps a lock of its own (``_rotation_cond``), and not at all when it wraps
a declared lock (the scheduler's ``_idle`` shares ``_lock``): acquiring a
condition acquires its lock, so the lock's level covers it.

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
    #: Whether blocking calls (sleep, device/file I/O, future.result) are
    #: permitted while this lock is held.  Keep this list short.
    allows_blocking: bool = False
    #: One-line justification of the lock and its level.
    doc: str = ""

    @property
    def key(self) -> str:
        return f"{self.owner}.{self.attr}"


_DECLS: Tuple[LockDecl, ...] = (
    LockDecl("LSMBTree", "_maintenance_lock", 100, allows_blocking=True,
             doc="serializes flush/merge passes per index; held across device I/O by design"),
    LockDecl("LSMBTree", "_rotation_cond", 90,
             doc="guards memtable rotation state; writers wait on it for backpressure"),
    LockDecl("LSMIOScheduler", "_lock", 80,
             doc="guards the per-(index, kind) queued/pending submission counts and "
                 "the failure latch (the _idle condition shares it); taken under "
                 "an index's _rotation_cond by backpressure and orphan counting"),
    LockDecl("LSMBTree", "_read_lock", 70,
             doc="guards the active-reader count and deferred component drops"),
    LockDecl("WriteAheadLog", "_lock", 60,
             doc="serializes record append / LSN assignment / truncation"),
    LockDecl("BufferCache", "_lock", 50,
             doc="guards the resident-page table; miss fetches run outside it"),
    LockDecl("SimulatedStorageDevice", "_lock", 40,
             doc="guards byte/op counters; simulated latency sleeps run outside it"),
    LockDecl("FaultInjector", "_lock", 35,
             doc="guards fault-rule state (hit counters, RNG streams); the "
                 "injected raise happens after release"),
    LockDecl("LimitCancellation", "_lock", 30,
             doc="guards the cross-partition row-budget counter for LIMIT pushdown"),
    LockDecl("PlanCache", "_lock", 26,
             doc="guards the physical-plan LRU map; plan compilation and "
                 "metric updates run outside it"),
    LockDecl("ColumnSliceCache", "_lock", 25,
             doc="guards the slice-chunk LRU map and byte accounting; "
                 "decode work and metric updates run outside it"),
    LockDecl("Tracer", "_lock", 20,
             doc="guards span buffers and tracer enable state"),
    LockDecl("Tracer", "_export_lock", 15, allows_blocking=True,
             doc="serializes export-file writes so _lock never covers file I/O"),
    LockDecl("MetricsRegistry", "_lock", 12,
             doc="guards the instrument table (create/lookup)"),
    LockDecl("Counter", "_lock", 10,
             doc="guards one counter's value and the cells it follows"),
    LockDecl("Gauge", "_lock", 10,
             doc="guards one gauge's per-label cells"),
    LockDecl("Histogram", "_lock", 10,
             doc="guards one histogram's buckets"),
)

#: ``"Owner.attr" -> LockDecl`` — the table LOCK001 and locktrack consult.
LOCK_HIERARCHY: Dict[str, LockDecl] = {decl.key: decl for decl in _DECLS}

# Instrument locks share level 10 on purpose: Counter/Gauge/Histogram locks
# are leaves (no code acquires one instrument's lock while holding
# another's), and giving the three classes one level keeps the table honest
# about their equivalence.  Same-level *acquisition* is still a violation —
# descent must be strict — so the tracker would catch instrument-lock
# nesting if it ever appeared.
