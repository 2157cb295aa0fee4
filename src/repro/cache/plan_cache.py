"""Bounded LRU cache of compiled physical plans (prepared statements).

``Dataset.query(text)`` historically re-lexed, re-parsed, re-bound, and
re-optimized the SQL++ text on every call.  This cache memoizes the result
of that whole front half — the effective :class:`~repro.query.plan.QuerySpec`
after rewrites, the cost-based access-path choice, and the compiled batch
plan (whose stage list is what EXPLAIN prints and the executor runs) — as
one :class:`PhysicalPlan` keyed by

* the statement's *lexemes*, each token's source text in order
  (:class:`repro.sqlpp.lexer.Lexed`): whitespace and comments are not
  lexemes, so reformatted and commented copies of a query share a plan,
  while a string literal is one lexeme quoted and escaped as written, so
  queries that differ inside a string never do.  A token's kind and value
  are a function of its lexeme, so equal keys are equal token streams, and
  a text the lexer refuses holds a lexeme no valid text has: it never
  matches a cached plan,
* the dataset's **reuse epoch** (schema/index epoch plus every partition's
  LSM structure version — flush, merge, ``CREATE INDEX``, bulk load, and
  quarantine all bump it, and component swaps are exactly when per-component
  ``FieldStatistics`` change, so a stats refresh re-optimizes too), and
* the executor's plan-relevant knobs (optimizer flags, access-path policy),
  so differently-configured executors never share entries.

Epochs only move forward, so an entry of an earlier epoch can never match
again.  The cache drops them all as soon as it learns of a newer epoch — from
a put, or from :meth:`PlanCache.retire` after a flush — instead of leaving
dead plans for the LRU to age out: a cached plan is some eighty objects the
garbage collector walks on every full collection.  A cache holds 64 entries
unless built with another ``capacity``; ``0`` disables caching entirely.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional

from ..errors import CorruptPageError, PermanentIOError, TransientIOError
from ..faults import fire_fault
from ..obs import MetricsRegistry, get_registry

#: Entries per dataset.
DEFAULT_PLAN_CACHE_CAPACITY = 64


@dataclass
class PhysicalPlan:
    """Everything the executor needs downstream of parse → bind → optimize.

    Fields are deliberately loosely typed: this module sits below
    :mod:`repro.query` in the import graph, and the executor is the only
    producer/consumer of the payload.
    """

    #: Effective :class:`~repro.query.plan.QuerySpec` (rewrites applied).
    spec: Any
    #: Cost-based :class:`~repro.query.optimizer.AccessPathChoice`.
    choice: Any
    #: Compiled :class:`~repro.query.batch_compile.BatchQueryPlan`.
    batch_plan: Any


class PlanCache:
    """Thread-safe LRU of :class:`PhysicalPlan` entries for one dataset."""

    def __init__(self, capacity: int = DEFAULT_PLAN_CACHE_CAPACITY,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.capacity = max(0, capacity)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, PhysicalPlan]" = OrderedDict()  # guarded-by: _lock
        self._epoch: Hashable = None  # guarded-by: _lock
        metrics = metrics if metrics is not None else get_registry()
        self._hits = metrics.counter("plan_cache_hits")
        self._misses = metrics.counter("plan_cache_misses")
        self._evictions = metrics.counter("plan_cache_evictions")
        self._entries_gauge = metrics.gauge("plan_cache_entries")

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Optional[PhysicalPlan]:
        """The cached plan for ``key``, or None (disabled / miss / fault)."""
        if not self.enabled:
            return None
        try:
            fire_fault("cache.lookup")
        except (TransientIOError, PermanentIOError, CorruptPageError):
            # Degrade to a miss: the caller re-plans from scratch, so an
            # injected lookup fault costs latency, never correctness.
            self._misses.inc()
            return None
        with self._lock:
            plan = self._entries.get(key)
            if plan is not None:
                self._entries.move_to_end(key)
        if plan is None:
            self._misses.inc()
        else:
            self._hits.inc()
        return plan

    def put(self, key: Hashable, plan: PhysicalPlan, epoch: Hashable = None) -> None:
        """Insert/refresh ``key``, evicting least-recently-used overflow.

        ``epoch`` is the dataset state the plan was built against (the
        ``reuse_epoch`` part of ``key``); a put under a new epoch first
        evicts every entry of the old one (see :meth:`retire`).
        """
        if not self.enabled:
            return
        try:
            fire_fault("cache.store")
        except (TransientIOError, PermanentIOError, CorruptPageError):
            return  # skipped store: the next execution re-plans and retries
        with self._lock:
            evicted = self._retire(epoch)
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
            size = len(self._entries)
        if evicted:
            self._evictions.inc(evicted)
        self._entries_gauge.set(size)

    def retire(self, epoch: Hashable) -> None:
        """Evict every entry cached under another epoch than ``epoch``, the
        dataset's current one: none of them can match again."""
        with self._lock:
            evicted = self._retire(epoch)
            size = len(self._entries)
        if evicted:
            self._evictions.inc(evicted)
            self._entries_gauge.set(size)

    def _retire(self, epoch: Hashable) -> int:
        """:meth:`retire`'s eviction, returning its count; caller holds ``_lock``."""
        if epoch == self._epoch:
            return 0
        evicted = len(self._entries)
        self._entries.clear()
        self._epoch = epoch
        return evicted

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
        self._entries_gauge.set(0)
