"""Dynamic lock-order tracker (opt-in via ``REPRO_LOCKTRACK=1``).

This module watches what the engine's locks actually *do*.  When
installed, ``threading.Lock`` and ``threading.RLock`` are replaced by
factories that wrap every lock created from engine code (``src/repro``,
excluding this package) in a tracked proxy.  Each creation:

* keys the lock as ``"Owner.attr"`` by reading the creation site
  (``self._read_lock = threading.Lock()`` inside ``LSMBTree.__init__``
  keys as ``LSMBTree._read_lock``) — the keys the hierarchy in
  :mod:`repro.analysis.lock_hierarchy` declares;
* is recorded, so the run can tell an engine lock with no declaration and
  a declaration no lock was created under.

Each proxy then maintains a per-thread stack of held locks and records a
directed edge *held → acquired* (with a witness stack, captured once per
edge) every time a thread acquires a lock while holding another, and
checks each such acquisition against the declared hierarchy — a
non-descending pair is reported even when no cycle ever materializes.

After the run, :meth:`LockTracker.problems` reports (a) cycles in the
accumulated acquisition graph — each one a potential deadlock, with the
witness stacks of its edges — (b) hierarchy violations, (c) undeclared
lock keys and (d) stale declarations.  The tier-1 conftest wires this into
pytest: ``REPRO_LOCKTRACK=1 pytest`` fails the session if any is found.

``threading.Condition`` needs no patching: a condition binds the lock it
is given, so conditions built over tracked locks are tracked for free.
Locks created by the stdlib (thread pools, queues, condition waiters)
come from non-engine frames and stay raw — so does the internal RLock of
a no-argument ``Condition()``, and a lock made through a name bound by
``from threading import Lock`` before the tracker was installed.  Neither
is ever recorded as created, so its declaration reads as stale.  The same
holds for a lock made while ``repro`` is imported (the module-level
tracer's): some test must build another instance for the run to see it.
"""

from __future__ import annotations

import linecache
import os
import re
import sys
import threading
import traceback
from typing import Any, Dict, List, Optional, Set, Tuple

from ..config import env_flag
from .lock_hierarchy import LOCK_HIERARCHY

#: Knob enabling the tracker under pytest (see tests/conftest.py).
LOCKTRACK_ENV_VAR = "REPRO_LOCKTRACK"

_ATTR_ASSIGN_RE = re.compile(r"self\.(\w+)\s*(?::[^=]+)?=")

_REPRO_FRAGMENT = f"{os.sep}repro{os.sep}"
_ANALYSIS_FRAGMENT = f"{os.sep}repro{os.sep}analysis{os.sep}"


def locktrack_enabled() -> bool:
    """Whether ``REPRO_LOCKTRACK`` asks for the tracker."""
    return env_flag(LOCKTRACK_ENV_VAR)


def _witness() -> str:
    """Compact engine-frames-only stack for edge reports."""
    frames = traceback.extract_stack()[:-3]
    relevant = [frame for frame in frames
                if _REPRO_FRAGMENT in frame.filename
                and _ANALYSIS_FRAGMENT not in frame.filename]
    shown = relevant if relevant else frames[-4:]
    return " <- ".join(
        f"{os.path.basename(frame.filename)}:{frame.lineno}({frame.name})"
        for frame in reversed(shown[-6:]))


class LockTracker:
    """Acquisition-graph recorder shared by every tracked lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._held = threading.local()
        #: (held_key, acquired_key) -> witness stack of the first occurrence.
        self._edges: Dict[Tuple[str, str], str] = {}
        #: Hierarchy violations: (held_key, acquired_key, detail, witness).
        self._violations: List[Tuple[str, str, str, str]] = []
        #: Keys of the engine locks created while installed.
        self._created: Set[str] = set()

    # -- wrapper callbacks -------------------------------------------------

    def note_created(self, key: str) -> None:
        with self._lock:
            self._created.add(key)

    def _stack(self) -> List[str]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def note_acquire(self, key: str) -> None:
        stack = self._stack()
        if stack:
            self._record_edge(stack[-1], key)
        stack.append(key)

    def note_release(self, key: str) -> None:
        stack = self._stack()
        if stack and stack[-1] == key:
            stack.pop()
        elif key in stack:
            # Out-of-order release (legal, e.g. hand-over-hand): drop the
            # innermost matching entry.
            stack.reverse()
            stack.remove(key)
            stack.reverse()

    def _record_edge(self, held: str, acquired: str) -> None:
        witness: Optional[str] = None
        with self._lock:
            if (held, acquired) not in self._edges:
                witness = _witness()
                self._edges[(held, acquired)] = witness
        held_decl = LOCK_HIERARCHY.get(held)
        acquired_decl = LOCK_HIERARCHY.get(acquired)
        if held_decl is not None and acquired_decl is not None:
            if acquired_decl.level >= held_decl.level:
                detail = (f"level {acquired_decl.level} acquired while holding "
                          f"level {held_decl.level} — levels must strictly descend")
                with self._lock:
                    if witness is None:
                        witness = self._edges[(held, acquired)]
                    self._violations.append((held, acquired, detail, witness))

    # -- reporting ---------------------------------------------------------

    def edges(self) -> Dict[Tuple[str, str], str]:
        with self._lock:
            return dict(self._edges)

    def cycles(self) -> List[List[str]]:
        """Strongly connected components of size > 1 (plus self-loops)."""
        graph: Dict[str, List[str]] = {}
        for (src, dst) in self.edges():
            graph.setdefault(src, []).append(dst)
            graph.setdefault(dst, [])
        index_counter = [0]
        indices: Dict[str, int] = {}
        lowlinks: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        sccs: List[List[str]] = []

        def strongconnect(node: str) -> None:
            # Iterative Tarjan: the engine graph is tiny, but recursion
            # depth must not depend on it.
            work = [(node, 0)]
            while work:
                current, child_index = work.pop()
                if child_index == 0:
                    indices[current] = lowlinks[current] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(current)
                    on_stack.add(current)
                recurse = False
                children = graph[current]
                for offset in range(child_index, len(children)):
                    child = children[offset]
                    if child not in indices:
                        work.append((current, offset + 1))
                        work.append((child, 0))
                        recurse = True
                        break
                    if child in on_stack:
                        lowlinks[current] = min(lowlinks[current], indices[child])
                if recurse:
                    continue
                if lowlinks[current] == indices[current]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == current:
                            break
                    sccs.append(component)
                if work:
                    parent = work[-1][0]
                    lowlinks[parent] = min(lowlinks[parent], lowlinks[current])

        for node in graph:
            if node not in indices:
                strongconnect(node)
        edges = self.edges()
        return [sorted(component) for component in sccs
                if len(component) > 1
                or (component[0], component[0]) in edges]

    def violations(self) -> List[Tuple[str, str, str, str]]:
        with self._lock:
            return list(self._violations)

    def problems(self) -> List[str]:
        """Human-readable failures; empty means the run was clean."""
        lines: List[str] = []
        edges = self.edges()
        for component in self.cycles():
            lines.append(f"lock-order cycle: {' -> '.join(component)}")
            for (src, dst), witness in sorted(edges.items()):
                if src in component and dst in component:
                    lines.append(f"  edge {src} -> {dst} at {witness}")
        for held, acquired, detail, witness in self.violations():
            lines.append(f"hierarchy violation: {held} -> {acquired}: {detail}")
            lines.append(f"  at {witness}")
        with self._lock:
            created = set(self._created)
        for key in sorted(created - LOCK_HIERARCHY.keys()):
            lines.append(f"undeclared lock: {key} — give it a level in "
                         f"analysis/lock_hierarchy.py")
        for key in sorted(LOCK_HIERARCHY.keys() - created):
            lines.append(f"stale declaration: no lock was created as {key}")
        return lines

    def report(self) -> str:
        edges = self.edges()
        with self._lock:
            created = len(self._created)
        lines = [f"locktrack: {created} lock keys created, "
                 f"{len(edges)} acquisition-order edges"]
        for (src, dst), witness in sorted(edges.items()):
            lines.append(f"  {src} -> {dst}  ({witness})")
        lines.extend(self.problems())
        return "\n".join(lines)

    def reset(self) -> None:
        with self._lock:
            self._edges.clear()
            self._violations.clear()
            self._created.clear()


class TrackedLock:
    """Proxy around a real ``threading.Lock`` reporting to a tracker."""

    def __init__(self, inner: Any, key: str, tracker: LockTracker) -> None:
        self._inner = inner
        self._key = key
        self._tracker = tracker

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._tracker.note_acquire(self._key)
        return got

    def release(self) -> None:
        self._tracker.note_release(self._key)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"<TrackedLock {self._key} {self._inner!r}>"


class TrackedRLock:
    """Proxy around a real ``threading.RLock``.

    Re-entrant acquisitions are counted here (safe: the counter is only
    touched while the inner lock is owned) so the tracker sees one logical
    acquire/release pair per outermost hold.  ``_release_save`` /
    ``_acquire_restore`` / ``_is_owned`` are implemented explicitly —
    ``threading.Condition`` lifts them off the lock object, and delegating
    to the inner RLock's versions would let ``Condition.wait`` bypass
    tracking entirely.
    """

    def __init__(self, inner: Any, key: str, tracker: LockTracker) -> None:
        self._inner = inner
        self._key = key
        self._tracker = tracker
        self._count = 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            if self._count == 0:
                self._tracker.note_acquire(self._key)
            self._count += 1
        return got

    def release(self) -> None:
        if self._count == 1:
            self._tracker.note_release(self._key)
        self._count -= 1
        self._inner.release()

    def __enter__(self) -> "TrackedRLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    def _is_owned(self) -> bool:
        return self._inner._is_owned()

    def _release_save(self) -> Tuple[int, Any]:
        count = self._count
        self._count = 0
        self._tracker.note_release(self._key)
        return (count, self._inner._release_save())

    def _acquire_restore(self, saved: Tuple[int, Any]) -> None:
        count, inner_state = saved
        self._inner._acquire_restore(inner_state)
        self._tracker.note_acquire(self._key)
        self._count = count

    def __repr__(self) -> str:
        return f"<TrackedRLock {self._key} {self._inner!r}>"


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

_tracker: Optional[LockTracker] = None
_originals: Dict[str, Any] = {}


def get_tracker() -> Optional[LockTracker]:
    """The installed tracker, or ``None`` when tracking is off."""
    return _tracker


def _should_track(filename: str) -> bool:
    return _REPRO_FRAGMENT in filename and _ANALYSIS_FRAGMENT not in filename


def _key_from_frame(frame: Any) -> str:
    self_obj = frame.f_locals.get("self")
    line = linecache.getline(frame.f_code.co_filename, frame.f_lineno)
    match = _ATTR_ASSIGN_RE.search(line)
    if self_obj is not None and match is not None:
        return f"{type(self_obj).__name__}.{match.group(1)}"
    return f"{os.path.basename(frame.f_code.co_filename)}:{frame.f_lineno}"


def install() -> LockTracker:
    """Patch ``threading.Lock``/``threading.RLock`` to track engine locks."""
    global _tracker
    if _tracker is not None:
        return _tracker
    tracker = LockTracker()
    _originals["Lock"] = threading.Lock
    _originals["RLock"] = threading.RLock

    def make_factory(original: Any, wrapper: type) -> Any:
        def factory() -> Any:
            inner = original()
            frame = sys._getframe(1)
            if frame is None or not _should_track(frame.f_code.co_filename):
                return inner
            key = _key_from_frame(frame)
            tracker.note_created(key)
            return wrapper(inner, key, tracker)
        return factory

    threading.Lock = make_factory(_originals["Lock"], TrackedLock)
    threading.RLock = make_factory(_originals["RLock"], TrackedRLock)
    _tracker = tracker
    return tracker


def uninstall() -> None:
    """Restore the real lock factories (existing wrappers keep working)."""
    global _tracker
    if _tracker is None:
        return
    threading.Lock = _originals.pop("Lock")
    threading.RLock = _originals.pop("RLock")
    _tracker = None
