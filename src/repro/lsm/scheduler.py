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

* **Per-index ordering** — an index's sealed memtables must flush oldest
  first (component sequence numbers encode recency).  The scheduler does not
  order tasks itself; each submitted flush task pops *the oldest* sealed
  memtable under the index's maintenance lock, so any worker executing any
  task preserves seal order.
* **Failure propagation** — *transient* I/O failures
  (:class:`~repro.errors.TransientIOError`) are retried inside the worker
  with exponential backoff and jitter up to a retry budget
  (``retry_budget=``); tasks restore their pre-attempt state on failure
  so re-running them is safe.  Any other exception — or an exhausted budget —
  is recorded and re-raised (wrapped in :class:`~repro.errors.SchedulerError`)
  by the writer's backpressure wait, by :meth:`drain`, and by :meth:`close`,
  so a failed flush surfaces deterministically instead of hanging writers.
  The latch is explicit: only :meth:`clear_failure` resets it.
* **Quiescence** — :meth:`drain` blocks until every submitted task has
  finished; :meth:`close` drains, then shuts the pools down.  Both are
  idempotent, and once the scheduler is closed an index runs the same tasks
  on the writer's thread instead, so ``Dataset.close()`` is safe to call
  twice and the dataset stays writable.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import SchedulerError, TransientIOError
from ..faults import fire_fault
from ..obs import MetricsRegistry, StatsDictMixin, get_registry
from ..obs import tracer as _tracer

#: Retries each background task gets for *transient* I/O failures before the
#: failure latches (overridable per scheduler via ``retry_budget=``).
_DEFAULT_RETRY_BUDGET = 4

#: First-retry backoff in seconds; doubles per attempt, with deterministic
#: jitter in [0.5x, 1x).  Small because simulated-device hiccups clear
#: immediately; a real deployment would raise it by orders of magnitude.
_BACKOFF_BASE_SECONDS = 0.002


@dataclass
class SchedulerStats(StatsDictMixin):
    """Counters describing one scheduler's lifetime activity."""

    flushes_submitted: int = 0
    flushes_completed: int = 0
    merges_submitted: int = 0
    merges_completed: int = 0
    flush_retries: int = 0
    merge_retries: int = 0


class LSMIOScheduler:
    """Bounded worker pools executing LSM flushes and merges asynchronously."""

    def __init__(self, max_flush_workers: int = 2, max_merge_workers: int = 1,
                 metrics: Optional[MetricsRegistry] = None,
                 retry_budget: int = _DEFAULT_RETRY_BUDGET,
                 backoff_base: float = _BACKOFF_BASE_SECONDS) -> None:
        if max_flush_workers < 1:
            raise SchedulerError("max_flush_workers must be >= 1")
        if max_merge_workers < 1:
            raise SchedulerError("max_merge_workers must be >= 1")
        if retry_budget < 0:
            raise SchedulerError("retry_budget must be >= 0")
        self.retry_budget = retry_budget
        self.backoff_base = backoff_base
        self.max_flush_workers = max_flush_workers
        self.max_merge_workers = max_merge_workers
        self._flush_pool = ThreadPoolExecutor(
            max_workers=max_flush_workers, thread_name_prefix="repro-lsm-flush")
        self._merge_pool = ThreadPoolExecutor(
            max_workers=max_merge_workers, thread_name_prefix="repro-lsm-merge")
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._pending = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._failure: Optional[BaseException] = None  # guarded-by: _lock
        self.stats = SchedulerStats()
        metrics = metrics if metrics is not None else get_registry()
        self._pending_gauge = metrics.gauge("scheduler_pending_tasks")
        self._submitted_metrics = {
            False: metrics.counter("scheduler_tasks_submitted", kind="flush"),
            True: metrics.counter("scheduler_tasks_submitted", kind="merge"),
        }
        self._completed_metrics = {
            False: metrics.counter("scheduler_tasks_completed", kind="flush"),
            True: metrics.counter("scheduler_tasks_completed", kind="merge"),
        }
        self._retry_metrics = {
            False: metrics.counter("maintenance_retries_total", kind="flush"),
            True: metrics.counter("maintenance_retries_total", kind="merge"),
        }
        # Deterministic jitter stream: chaos runs with a fixed schedule must
        # back off identically, or they stop being replayable.
        self._retry_rng = random.Random(0x5EED)  # guarded-by: _lock

    # ------------------------------------------------------------------ submission

    @property
    def closed(self) -> bool:
        return self._closed

    def submit_flush(self, task: Callable[[], None],
                     on_abandoned: Optional[Callable[[], None]] = None) -> Future:
        """Queue one flush task (must be safe to run on any flush worker).

        ``on_abandoned`` runs exactly once if the submission terminally fails
        (non-transient error, or transient retries exhausted) — the hook for
        releasing bookkeeping the submitter tied to the task's completion.
        """
        return self._submit(self._flush_pool, task, is_merge=False,
                            on_abandoned=on_abandoned)

    def submit_merge(self, task: Callable[[], None],
                     on_abandoned: Optional[Callable[[], None]] = None) -> Future:
        """Queue one merge task."""
        return self._submit(self._merge_pool, task, is_merge=True,
                            on_abandoned=on_abandoned)

    def _submit(self, pool: ThreadPoolExecutor, task: Callable[[], None],
                is_merge: bool,
                on_abandoned: Optional[Callable[[], None]] = None) -> Future:
        with self._lock:
            if self._closed:
                raise SchedulerError("cannot submit work to a closed scheduler")
            self._pending += 1
            self._pending_gauge.set(self._pending)
            if is_merge:
                self.stats.merges_submitted += 1
            else:
                self.stats.flushes_submitted += 1
            self._submitted_metrics[is_merge].inc()
        try:
            # Carry the submitter's tracing context onto the worker thread:
            # a flush scheduled while an ingest span is open becomes its
            # child in the trace.  No-op (returns `task` itself) when
            # tracing is disabled.
            future = pool.submit(self._run, _tracer.wrap_context(task), is_merge,
                                 on_abandoned)
        except BaseException:
            with self._lock:
                self._pending -= 1
                self._pending_gauge.set(self._pending)
                self._idle.notify_all()
            raise
        return future

    def _run(self, task: Callable[[], None], is_merge: bool,
             on_abandoned: Optional[Callable[[], None]] = None) -> None:
        point = "scheduler.merge" if is_merge else "scheduler.flush"
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
                        if is_merge:
                            self.stats.merge_retries += 1
                        else:
                            self.stats.flush_retries += 1
                        jitter = 0.5 + 0.5 * self._retry_rng.random()
                    self._retry_metrics[is_merge].inc()
                    time.sleep(self.backoff_base * (2 ** (attempt - 1)) * jitter)
            with self._lock:
                if is_merge:
                    self.stats.merges_completed += 1
                else:
                    self.stats.flushes_completed += 1
                self._completed_metrics[is_merge].inc()
        except BaseException as exc:  # noqa: BLE001 - recorded, re-raised at drain
            with self._lock:
                if self._failure is None:
                    self._failure = exc
            if on_abandoned is not None:
                try:
                    on_abandoned()
                except BaseException:  # noqa: BLE001 - the original failure wins
                    pass
        finally:
            with self._lock:
                self._pending -= 1
                self._pending_gauge.set(self._pending)
                self._idle.notify_all()

    # ------------------------------------------------------------------ quiescence

    @property
    def pending(self) -> int:
        """Tasks submitted but not yet finished (queued or running)."""
        with self._lock:
            return self._pending

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

    def drain(self) -> None:
        """Block until every submitted flush/merge has finished.

        Tasks may submit follow-up work (a flush scheduling a merge) while we
        wait; the pending counter covers those too, so returning means the
        maintenance pipeline is genuinely quiet.  Raises
        :class:`~repro.errors.SchedulerError` if any task failed.
        """
        with self._idle:
            while self._pending:
                self._idle.wait(timeout=0.1)
                failure = self._failure
                if failure is not None:
                    break
        self.raise_if_failed()

    def close(self) -> None:
        """Drain, then shut the worker pools down.  Idempotent.

        A drain failure still shuts the pools down (no half-closed state),
        then re-raises, so callers in ``finally`` blocks always release the
        threads.
        """
        with self._lock:
            already_closed = self._closed
            self._closed = True
        if already_closed:
            self.raise_if_failed()
            return
        try:
            with self._idle:
                while self._pending:
                    self._idle.wait(timeout=0.1)
                    if self._failure is not None:
                        break
        finally:
            self._flush_pool.shutdown(wait=True)
            self._merge_pool.shutdown(wait=True)
        self.raise_if_failed()

    def __enter__(self) -> "LSMIOScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "closed" if self._closed else f"pending={self._pending}"
        return (f"LSMIOScheduler(flush_workers={self.max_flush_workers}, "
                f"merge_workers={self.max_merge_workers}, {state})")
