"""Engine-specific static analysis and concurrency-correctness toolkit.

Two halves:

* :mod:`repro.analysis.lint` + :mod:`repro.analysis.rules` — an AST lint
  framework with project rules (lock discipline LOCK001–003, knob
  documentation KNOB001, metric naming OBS001), runnable as
  ``python -m repro.analysis src/``;
* :mod:`repro.analysis.locktrack` — an opt-in (``REPRO_LOCKTRACK=1``)
  dynamic lock-order tracker that records the per-thread acquisition graph
  while tier-1 tests run and fails the session on lock-order cycles.

The lock hierarchy both halves check against lives in
:mod:`repro.analysis.lock_hierarchy`.
"""

from .lint import Finding, Module, Project, Rule, run_analysis
from .lock_hierarchy import LOCK_HIERARCHY, LockDecl

__all__ = [
    "Finding",
    "Module",
    "Project",
    "Rule",
    "run_analysis",
    "LOCK_HIERARCHY",
    "LockDecl",
]
