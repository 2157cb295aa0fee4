"""Background LSM maintenance scheduler: asynchronous flushes and merges.

The paper's tuple-compaction framework piggybacks on AsterixDB's LSM
lifecycle, where flushes and merges are *asynchronous* I/O operations that
overlap ingestion (§2.2: the tree manager schedules them on dedicated
threads while the writer keeps appending to a fresh in-memory component).
:class:`LSMIOScheduler` reproduces that lifecycle: two bounded worker pools
— one for flushes, one for merges — run maintenance off the ingest path.
The lifecycle itself (seal → build → install, writer backpressure) belongs
to :class:`~repro.lsm.LSMBTree` and is the same with or without a
scheduler; a scheduler only changes *where* a task runs and what happens
to its failures.

Design contract with the index:

* **One owner of the counts** — the scheduler is the only thing that
  counts an index's submissions: per ``(owner, kind)``, *queued* (not yet
  started) and *pending* (not yet finished).  An index keeps only LSM
  state (memtables, the sealed list, components) and asks
  :meth:`pending` / :meth:`drain` about its own work.  A submission stops
  being pending in one ``finally``, whether it completed or was abandoned.
* **Per-index ordering** — an index's sealed memtables must flush oldest
  first (component sequence numbers encode recency).  The scheduler does not
  order tasks itself; each submitted flush task pops *the oldest* sealed
  memtable under the index's maintenance lock, so any worker executing any
  task preserves seal order.  :meth:`submit_merge` skips a submission while
  one of the same owner's merges is still queued: that merge re-reads the
  merge policy when it starts.
* **Failure propagation** — *transient* I/O failures
  (:class:`~repro.errors.TransientIOError`) are retried inside the worker
  with exponential backoff and jitter up to a retry budget
  (``retry_budget=``); tasks restore their pre-attempt state on failure
  so re-running them is safe.  Any other exception — or an exhausted budget —
  is recorded and re-raised (wrapped in :class:`~repro.errors.SchedulerError`)
  by the writer's backpressure wait, by :meth:`drain`, and by :meth:`close`,
  so a failed flush surfaces deterministically instead of hanging writers.
  The latch is explicit: only :meth:`clear_failure` resets it.
* **Quiescence** — :meth:`drain` blocks until every submitted task (of one
  owner, or of all) has finished; :meth:`close` waits the same way, then
  shuts the pools down.  Both are idempotent, and once the scheduler is
  closed an index runs the same tasks on the writer's thread instead, so
  ``Dataset.close()`` is safe to call twice and the dataset stays writable.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Tuple

from ..errors import SchedulerError, TransientIOError
from ..faults import fire_fault
from ..obs import MetricsRegistry, get_registry
from ..obs import tracer as _tracer

#: Retries each background task gets for *transient* I/O failures before the
#: failure latches (overridable per scheduler via ``retry_budget=``).
_DEFAULT_RETRY_BUDGET = 4

#: First-retry backoff in seconds; doubles per attempt, with deterministic
#: jitter in [0.5x, 1x).  Small because simulated-device hiccups clear
#: immediately; a real deployment would raise it by orders of magnitude.
_BACKOFF_BASE_SECONDS = 0.002

#: Worker threads running flushes, across every index sharing the scheduler
#: (per-index flushes stay serialized in seal order).
FLUSH_WORKERS = 2
#: Worker threads running merges.
MERGE_WORKERS = 1

#: A submission's key in the counts: the submitting index and the task kind.
_Key = Tuple[Any, str]


def _bump(counts: Dict[_Key, int], key: _Key, delta: int) -> None:
    """Move one count, dropping a key that reaches zero (so a finished
    owner is not kept alive by the table)."""
    count = counts.get(key, 0) + delta
    if count:
        counts[key] = count
    else:
        del counts[key]


class LSMIOScheduler:
    """Bounded worker pools executing LSM flushes and merges asynchronously."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 retry_budget: int = _DEFAULT_RETRY_BUDGET,
                 backoff_base: float = _BACKOFF_BASE_SECONDS) -> None:
        if retry_budget < 0:
            raise SchedulerError("retry_budget must be >= 0")
        self.retry_budget = retry_budget
        self.backoff_base = backoff_base
        self._pools = {
            "flush": ThreadPoolExecutor(max_workers=FLUSH_WORKERS,
                                        thread_name_prefix="repro-lsm-flush"),
            "merge": ThreadPoolExecutor(max_workers=MERGE_WORKERS,
                                        thread_name_prefix="repro-lsm-merge"),
        }
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        #: Submissions per (owner, kind) whose run has not started.
        self._queued: Dict[_Key, int] = {}  # guarded-by: _lock
        #: Submissions per (owner, kind) whose run has not finished.
        self._pending: Dict[_Key, int] = {}  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._failure: Optional[BaseException] = None  # guarded-by: _lock
        metrics = metrics if metrics is not None else get_registry()
        self._pending_gauge = metrics.gauge("scheduler_pending_tasks")
        self._submitted_metrics = {kind: metrics.counter("scheduler_tasks_submitted", kind=kind)
                                   for kind in self._pools}
        self._completed_metrics = {kind: metrics.counter("scheduler_tasks_completed", kind=kind)
                                   for kind in self._pools}
        self._retry_metrics = {kind: metrics.counter("maintenance_retries_total", kind=kind)
                               for kind in self._pools}
        # Deterministic jitter stream: chaos runs with a fixed schedule must
        # back off identically, or they stop being replayable.
        self._retry_rng = random.Random(0x5EED)  # guarded-by: _lock

    # ------------------------------------------------------------------ submission

    @property
    def closed(self) -> bool:
        return self._closed

    def submit_flush(self, owner: Any, task: Callable[[], None]) -> Optional[Future]:
        """Queue one flush task of ``owner`` (safe to run on any flush worker)."""
        return self._submit(owner, "flush", task)

    def submit_merge(self, owner: Any, task: Callable[[], None]) -> Optional[Future]:
        """Queue one merge task of ``owner``; returns None, queueing nothing,
        while one of ``owner``'s merges is still queued — that merge has not
        read the merge policy yet, so it covers this request too."""
        return self._submit(owner, "merge", task)

    def _submit(self, owner: Any, kind: str, task: Callable[[], None]) -> Optional[Future]:
        key = (owner, kind)
        with self._lock:
            if self._closed:
                raise SchedulerError("cannot submit work to a closed scheduler")
            if kind == "merge" and key in self._queued:
                return None
            _bump(self._queued, key, 1)
            self._move_pending(key, 1)
        self._submitted_metrics[kind].inc()
        try:
            # Carry the submitter's tracing context onto the worker thread:
            # a flush scheduled while an ingest span is open becomes its
            # child in the trace.  No-op (returns `task` itself) when
            # tracing is disabled.
            return self._pools[kind].submit(self._run, key, _tracer.wrap_context(task))
        except BaseException:
            with self._lock:
                _bump(self._queued, key, -1)
                self._move_pending(key, -1)
            raise

    # requires-lock: _lock
    def _move_pending(self, key: _Key, delta: int) -> None:
        _bump(self._pending, key, delta)
        self._pending_gauge.set(sum(self._pending.values()))
        self._idle.notify_all()

    def _run(self, key: _Key, task: Callable[[], None]) -> None:
        kind = key[1]
        point = "scheduler.merge" if kind == "merge" else "scheduler.flush"
        with self._lock:
            _bump(self._queued, key, -1)
        try:
            attempt = 0
            while True:
                try:
                    fire_fault(point)
                    task()
                    break
                except TransientIOError:
                    # Classify-retry-or-surface: transient I/O failures are
                    # retried in place with exponential backoff + jitter
                    # (tasks restore their pre-attempt state on failure, see
                    # LSMBTree._build_and_install), so a hiccup never
                    # latches the scheduler.  Anything else — or a budget
                    # exhausted — surfaces through the failure latch below.
                    if attempt >= self.retry_budget:
                        raise
                    attempt += 1
                    with self._lock:
                        jitter = 0.5 + 0.5 * self._retry_rng.random()
                    self._retry_metrics[kind].inc()
                    time.sleep(self.backoff_base * (2 ** (attempt - 1)) * jitter)
            self._completed_metrics[kind].inc()
        except BaseException as exc:  # noqa: BLE001 - recorded, re-raised at drain
            with self._lock:
                if self._failure is None:
                    self._failure = exc
        finally:
            with self._lock:
                self._move_pending(key, -1)

    # ------------------------------------------------------------------ quiescence

    def pending(self, owner: Any = None, kind: Optional[str] = None) -> int:
        """Submissions not yet finished (queued or running): of ``owner``
        (every owner when None), of ``kind`` ("flush"/"merge"; both when None)."""
        with self._lock:
            return self._count(owner, kind)

    # requires-lock: _lock
    def _count(self, owner: Any, kind: Optional[str] = None) -> int:
        return sum(count for (of, what), count in self._pending.items()
                   if (owner is None or of is owner) and (kind is None or what == kind))

    def raise_if_failed(self) -> None:
        """Surface the first background failure, if any, on the caller's thread."""
        with self._lock:
            failure = self._failure
        if failure is not None:
            raise SchedulerError(
                f"background LSM maintenance failed: {failure!r}") from failure

    def clear_failure(self) -> Optional[BaseException]:
        """Explicitly reset the failure latch; returns the cleared exception.

        The latch has deliberate semantics: an in-task retry that *succeeds*
        never sets it, and nothing clears it implicitly — a recorded failure
        keeps surfacing until an operator (or ``Dataset.resume_maintenance``)
        acknowledges it here, then resubmits whatever work it interrupted.
        """
        with self._lock:
            failure = self._failure
            self._failure = None
        return failure

    def drain(self, owner: Any = None) -> None:
        """Block until every submitted flush/merge (of ``owner``, or of all)
        has finished.

        Tasks may submit follow-up work (a flush scheduling a merge) while we
        wait; the follow-up is counted before the task that submits it
        finishes, so returning means the maintenance pipeline is genuinely
        quiet.  Raises :class:`~repro.errors.SchedulerError` if any task
        failed — without waiting out the rest.
        """
        self._wait_idle(owner)
        self.raise_if_failed()

    def _wait_idle(self, owner: Any) -> None:
        with self._idle:
            while self._count(owner) and self._failure is None:
                self._idle.wait(timeout=0.1)

    def close(self) -> None:
        """Wait like :meth:`drain`, then shut the worker pools down.  Idempotent.

        A drain failure still shuts the pools down (no half-closed state),
        then re-raises, so callers in ``finally`` blocks always release the
        threads.
        """
        with self._lock:
            already_closed = self._closed
            self._closed = True
        if not already_closed:
            try:
                self._wait_idle(None)
            finally:
                for pool in self._pools.values():
                    pool.shutdown(wait=True)
        self.raise_if_failed()

    def __enter__(self) -> "LSMIOScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "closed" if self._closed else f"pending={self.pending()}"
        return f"LSMIOScheduler({state})"
