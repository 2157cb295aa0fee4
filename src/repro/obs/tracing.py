"""Structured tracing: a span tree over queries and LSM maintenance.

A *span* is one timed unit of work (``query.execute``, ``query.partition``,
``lsm.flush`` ...) with a parent, so a traced query unfolds into a tree:
parse → bind → optimize → per-partition execute → per-operator, and
background flushes/merges submitted while an ingest span is open attach
beneath it.  Design points:

* **Monotonic clocks.**  Span start/end come from ``time.perf_counter()``;
  a wall-clock anchor captured at import converts them to unix seconds for
  export, so durations are immune to wall-clock steps.
* **contextvars propagation.**  The "current span" lives in a
  :class:`contextvars.ContextVar`.  Thread pools do *not* inherit context
  automatically, so the query executor and the LSM scheduler wrap submitted
  tasks with :meth:`Tracer.wrap_context`, which snapshots the submitting
  context — a partition span lands under its query, and a background flush
  lands under the ingest span that sealed the memtable, even though both
  run on pool threads.
* **Disabled-by-default fast path.**  When tracing is off,
  :meth:`Tracer.span` returns one shared no-op object and
  :meth:`wrap_context` returns the callable unchanged: no allocation, no
  context copy, no lock — the overhead contract the parity tests assert.
* **Export.**  ``REPRO_TRACE=1`` (or ``true``/``on``/``yes``) records spans
  in a bounded in-memory ring only; any other non-empty value is treated as
  a file path and additionally appends one JSON object per line (spans and
  events), the format ``python -m repro.obs.validate`` checks in CI.
"""

from __future__ import annotations

import io
import itertools
import json
import threading
import time
from contextvars import ContextVar, copy_context
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..config import env_str

#: Environment variable controlling tracing: unset/empty = off, a truthy
#: flag = in-memory only, anything else = JSONL output path.
TRACE_ENV_VAR = "REPRO_TRACE"

_TRUTHY_FLAGS = {"1", "true", "on", "yes"}

#: Wall-clock anchor: ``unix_seconds = _WALL_ANCHOR + perf_counter_value``.
_WALL_ANCHOR = time.time() - time.perf_counter()


@dataclass
class Span:
    """One finished unit of traced work."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start: float
    end: float
    thread: str = ""
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "span",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "start_unix": _WALL_ANCHOR + self.start,
            "duration": self.duration,
            "thread": self.thread,
            "attributes": self.attributes,
        }


class _NullSpan:
    """Shared no-op stand-in returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attribute(self, name: str, value: Any) -> None:
        pass

    # Identity attributes so callers never need an enabled-check to format.
    trace_id = ""
    span_id = ""


NULL_SPAN = _NullSpan()

_current_span: "ContextVar[Optional[ActiveSpan]]" = ContextVar(
    "repro_current_span", default=None)


class ActiveSpan:
    """Context manager for one in-progress span.

    Ids are assigned at ``__enter__`` (a span opened under no parent starts
    a new trace); the finished :class:`Span` is handed to the tracer at
    ``__exit__``, where the context variable is restored so siblings nest
    correctly even across ``yield``-free recursion.
    """

    __slots__ = ("_tracer", "name", "attributes", "trace_id", "span_id",
                 "parent_id", "_start", "_token")

    def __init__(self, tracer: "Tracer", name: str, attributes: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attributes = attributes
        self.trace_id = ""
        self.span_id = ""
        self.parent_id: Optional[str] = None
        self._start = 0.0
        self._token = None

    def __enter__(self) -> "ActiveSpan":
        parent = _current_span.get()
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        else:
            self.trace_id = self._tracer._next_trace_id()
        self.span_id = self._tracer._next_span_id()
        self._token = _current_span.set(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        _current_span.reset(self._token)
        if exc is not None:
            self.attributes["error"] = repr(exc)
        self._tracer._record(Span(
            trace_id=self.trace_id, span_id=self.span_id, parent_id=self.parent_id,
            name=self.name, start=self._start, end=end,
            thread=threading.current_thread().name, attributes=self.attributes))
        return False

    def set_attribute(self, name: str, value: Any) -> None:
        self.attributes[name] = value


class Tracer:
    """Process-wide span recorder with a bounded in-memory buffer."""

    def __init__(self, max_spans: int = 50_000) -> None:
        self.max_spans = max_spans
        self._lock = threading.Lock()
        #: Export file I/O runs under its own (blocking-allowed) lock so the
        #: hot span-recording lock never covers an open()/write()/flush().
        self._export_lock = threading.Lock()
        self._spans: List[Span] = []  # guarded-by: _lock
        self._events: List[Dict[str, Any]] = []  # guarded-by: _lock
        self._ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._export_path: Optional[str] = None  # guarded-by: _export_lock
        self._export_file: Optional[io.TextIOBase] = None  # guarded-by: _export_lock
        #: Tri-state: None = follow the environment variable (resolved
        #: lazily, cached), True/False = explicitly configured.
        self._configured: Optional[bool] = None
        self._env_resolved = False
        self._env_enabled = False

    # -- enablement ------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        if self._configured is not None:
            return self._configured
        if not self._env_resolved:
            self._resolve_env()
        return self._env_enabled

    def _resolve_env(self) -> None:
        value = env_str(TRACE_ENV_VAR)
        with self._lock:
            self._env_resolved = True
            self._env_enabled = bool(value)
            if value and value.lower() not in _TRUTHY_FLAGS:
                with self._export_lock:
                    self._export_path = value

    def refresh_from_env(self) -> None:
        """Re-read ``REPRO_TRACE`` (tests flip the variable mid-process)."""
        self._close_export()
        with self._lock:
            self._env_resolved = False
            with self._export_lock:
                self._export_path = None
        self._configured = None

    def enable(self, export_path: Optional[str] = None) -> None:
        """Force tracing on (optionally exporting JSONL), ignoring the env."""
        self._configured = True
        if export_path is not None:
            self._close_export()
            with self._export_lock:
                self._export_path = export_path

    def disable(self) -> None:
        """Force tracing off, ignoring the environment variable."""
        self._configured = False
        self._close_export()

    # -- span API ----------------------------------------------------------------

    def span(self, name: str, **attributes: Any):
        """Open a span under the current context (no-op while disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return ActiveSpan(self, name, attributes)

    def wrap_context(self, fn: Callable) -> Callable:
        """Bind ``fn`` to a snapshot of the submitting thread's context.

        Worker pools start tasks in an empty context, which would orphan
        their spans; wrapping at submission carries the current span across
        the pool boundary.  Returns ``fn`` unchanged while disabled, keeping
        the disabled path allocation-free.
        """
        if not self.enabled:
            return fn
        context = copy_context()
        def bound(*args: Any, **kwargs: Any):
            return context.run(fn, *args, **kwargs)
        return bound

    def record_span(self, name: str, trace_id: str, parent_id: Optional[str],
                    start: float, end: float, **attributes: Any) -> None:
        """Record an already-measured span (per-operator probe results)."""
        if not self.enabled:
            return
        self._record(Span(trace_id=trace_id, span_id=self._next_span_id(),
                          parent_id=parent_id, name=name, start=start, end=end,
                          thread=threading.current_thread().name,
                          attributes=attributes))

    def record_event(self, name: str, **fields: Any) -> None:
        """Record a point-in-time structured event (see :mod:`repro.obs.events`)."""
        if not self.enabled:
            return
        span = _current_span.get()
        event = {
            "type": "event",
            "name": name,
            "time": time.perf_counter(),
            "time_unix": _WALL_ANCHOR + time.perf_counter(),
            "trace_id": span.trace_id if span is not None else None,
            "span_id": span.span_id if span is not None else None,
            "thread": threading.current_thread().name,
            "fields": fields,
        }
        with self._lock:
            self._events.append(event)
            if len(self._events) > self.max_spans:
                del self._events[: len(self._events) - self.max_spans]
        self._export(event)

    # -- inspection ---------------------------------------------------------------

    def spans(self, trace_id: Optional[str] = None) -> List[Span]:
        with self._lock:
            if trace_id is None:
                return list(self._spans)
            return [span for span in self._spans if span.trace_id == trace_id]

    def events(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        with self._lock:
            if name is None:
                return list(self._events)
            return [event for event in self._events if event["name"] == name]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._events.clear()

    # -- internals ----------------------------------------------------------------

    def _next_span_id(self) -> str:
        return f"s{next(self._ids):08x}"

    def _next_trace_id(self) -> str:
        return f"t{next(self._trace_ids):08x}"

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
            if len(self._spans) > self.max_spans:
                del self._spans[: len(self._spans) - self.max_spans]
        self._export(span.to_dict())

    def _export(self, payload: Dict[str, Any]) -> None:
        # Serialized by _export_lock alone: span/event state (_lock) is never
        # held across the file I/O below.
        with self._export_lock:
            if self._export_path is None:
                return
            if self._export_file is None:
                self._export_file = open(self._export_path, "a", encoding="utf-8")
            self._export_file.write(json.dumps(payload, default=str) + "\n")
            self._export_file.flush()

    def _close_export(self) -> None:
        with self._export_lock:
            if self._export_file is not None:
                self._export_file.close()
                self._export_file = None


#: Process-wide tracer every layer records into.
tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide :class:`Tracer`."""
    return tracer
