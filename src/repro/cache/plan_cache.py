"""Bounded LRU cache of compiled physical plans (prepared statements).

The cache memoizes the front half of a query — parse → bind → rewrite →
compile, everything the statement text and the optimizer flags fix — as one
:class:`PhysicalPlan`: the effective :class:`~repro.query.plan.QuerySpec`
after rewrites and the compiled batch plan (whose stage list is what EXPLAIN
prints and the executor runs).  An entry is keyed by

* the statement's *lexemes*, each token's source text in order
  (:class:`repro.sqlpp.lexer.Lexed`): whitespace and comments are not
  lexemes, so reformatted and commented copies of a query share a plan,
  while a string literal is one lexeme quoted and escaped as written, so
  queries that differ inside a string never do.  A token's kind and value
  are a function of its lexeme, so equal keys are equal token streams, and
  a text the lexer refuses holds a lexeme no valid text has: it never
  matches a cached plan, and
* the executor's optimizer flags, so differently-rewritten plans never
  share entries.

Nothing in a plan depends on the data: the access path (full scan or index
probe) is costed by the executor on every run, against the dataset's
statistics at that moment.  So flushes, merges, bulk loads and CREATE INDEX
never make an entry stale, and entries live until LRU eviction.  A cache
holds 64 entries unless built with another ``capacity``; ``0`` disables
caching entirely.
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
    """Everything the executor needs downstream of parse → bind → rewrite,
    except the access path, which it costs per run.

    Fields are deliberately loosely typed: this module sits below
    :mod:`repro.query` in the import graph, and the executor is the only
    producer/consumer of the payload.
    """

    #: Effective :class:`~repro.query.plan.QuerySpec` (rewrites applied).
    spec: Any
    #: Compiled :class:`~repro.query.batch_compile.BatchQueryPlan`.
    batch_plan: Any


class PlanCache:
    """Thread-safe LRU of :class:`PhysicalPlan` entries for one dataset."""

    def __init__(self, capacity: int = DEFAULT_PLAN_CACHE_CAPACITY,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.capacity = max(0, capacity)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, PhysicalPlan]" = OrderedDict()  # guarded-by: _lock
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

    def put(self, key: Hashable, plan: PhysicalPlan) -> None:
        """Insert/refresh ``key``, evicting least-recently-used overflow."""
        if not self.enabled:
            return
        try:
            fire_fault("cache.store")
        except (TransientIOError, PermanentIOError, CorruptPageError):
            return  # skipped store: the next execution re-plans and retries
        evicted = 0
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
            size = len(self._entries)
        if evicted:
            self._evictions.inc(evicted)
        self._entries_gauge.set(size)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
        self._entries_gauge.set(0)
