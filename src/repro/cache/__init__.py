"""Query-level reuse caches: physical plans and decoded column slices.

Two bounded LRU layers sit above the page-level
:class:`~repro.storage.BufferCache` (ROADMAP item 1's prepared-statement
front door, and the decode-side reuse the paper's columnar layout makes
profitable):

* :class:`PlanCache` — per-dataset physical-plan cache keyed by the SQL++
  statement's token lexemes plus the executor's optimizer flags, so
  repeated ``Dataset.query(text)`` calls skip parse → bind → rewrite →
  compile.  A plan holds nothing data-dependent (the executor costs the
  access path on every run), so entries live until LRU eviction.
* :class:`ColumnSliceCache` — per-environment cache of decoded column
  slices keyed ``(component file, path set, chunk index)`` with
  byte-accounted LRU eviction, invalidated through the LSM lifecycle
  (component drops, quarantine events and the writing of a component file
  evict eagerly, so a slice never outlives the file contents it was
  decoded from).

Both publish hit/miss/eviction metrics into the shared registry, fire the
``cache.lookup`` / ``cache.store`` fault points (degrading to a miss /
skipped store under injected faults, so chaos runs keep row parity), and
hold locks declared in :mod:`repro.analysis.lock_hierarchy`.
"""

from .column_cache import ColumnSliceCache, SliceChunk, SliceScanStats, cached_component_scan
from .plan_cache import PhysicalPlan, PlanCache

__all__ = [
    "ColumnSliceCache",
    "PhysicalPlan",
    "PlanCache",
    "SliceChunk",
    "SliceScanStats",
    "cached_component_scan",
]
