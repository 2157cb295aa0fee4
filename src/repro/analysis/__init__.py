"""Engine-specific concurrency checks.

Two halves:

* :mod:`repro.analysis.lint` — LOCK001, an AST check that no blocking call
  runs while an engine lock is held, runnable as
  ``python -m repro.analysis src/``;
* :mod:`repro.analysis.locktrack` — an opt-in (``REPRO_LOCKTRACK=1``)
  dynamic lock-order tracker that records the per-thread acquisition graph
  while tier-1 tests run and fails the session on lock-order cycles,
  non-descending acquisitions, undeclared locks and stale declarations.

The lock hierarchy both halves read lives in
:mod:`repro.analysis.lock_hierarchy`.
"""

from .lint import Finding, run_analysis
from .lock_hierarchy import LOCK_HIERARCHY, LockDecl

__all__ = [
    "Finding",
    "run_analysis",
    "LOCK_HIERARCHY",
    "LockDecl",
]
