"""Tests for the analysis layer itself: LOCK001 and the lock tracker.

LOCK001 gets positive fixtures (the blocking call is found) and negative
ones (clean code passes).  The locktrack tests drive the wrappers directly —
no monkeypatched ``threading`` needed — and cover what moved there from the
static rules: hierarchy descent, undeclared and stale keys, conditions over
declared locks.  The meta-test at the bottom
asserts the shipped tree is LOCK001-clean, which is what keeps every future
PR honest.
"""

import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.analysis import locktrack
from repro.analysis.lint import check_source, run_analysis
from repro.analysis.lock_hierarchy import LOCK_HIERARCHY
from repro.analysis.locktrack import LockTracker, TrackedLock, TrackedRLock

REPO_ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# LOCK001 — no blocking calls under a lock
# ---------------------------------------------------------------------------

class TestLock001:
    def test_sleep_under_lock_flagged(self):
        findings = check_source(
            "import threading, time\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def work(self):\n"
            "        with self._lock:\n"
            "            time.sleep(0.1)\n", "fixture.py")
        assert len(findings) == 1
        assert "time.sleep" in findings[0].message
        assert findings[0].line == 7
        assert findings[0].render().startswith("fixture.py:7: LOCK001 ")

    @pytest.mark.parametrize("call", [
        "open('x')", "fut.result()", "thread.join()",
        "handle.read()", "handle.flush()", "device.write_page(b'x')",
        "handle.write(b'x')", "handle.readline()", "handle.readlines()",
        "device.read_page(0)", "device.delete_file('x')",
    ])
    def test_other_blocking_calls_flagged(self, call):
        findings = check_source(
            "import threading\n"
            "class C:\n"
            "    def work(self, fut, thread, handle, device):\n"
            "        with self._lock:\n"
            f"            {call}\n", "fixture.py")
        assert len(findings) == 1

    def test_clean_body_and_str_join_pass(self):
        findings = check_source(
            "import threading\n"
            "class C:\n"
            "    def work(self, items):\n"
            "        with self._lock:\n"
            "            self.value = ','.join(items)\n"  # str.join has an arg
            "            self.count += 1\n", "fixture.py")
        assert findings == []

    def test_condition_wait_is_not_blocking(self):
        findings = check_source(
            "import threading\n"
            "class C:\n"
            "    def work(self):\n"
            "        with self._rotation_cond:\n"
            "            self._rotation_cond.wait(timeout=1)\n", "fixture.py")
        assert findings == []

    @pytest.mark.parametrize("attr, flagged", [("_maintenance_lock", False),
                                               ("_read_lock", True)])
    def test_only_allows_blocking_locks_are_exempt(self, attr, flagged):
        findings = check_source(
            "import threading, time\n"
            "class LSMBTree:\n"
            "    def work(self):\n"
            f"        with self.{attr}:\n"
            "            time.sleep(0.1)\n", "fixture.py")
        assert bool(findings) is flagged

    def test_nested_function_body_not_scanned(self):
        findings = check_source(
            "import threading, time\n"
            "class C:\n"
            "    def work(self):\n"
            "        with self._lock:\n"
            "            def later():\n"
            "                time.sleep(0.1)\n"
            "            self.callback = later\n", "fixture.py")
        assert findings == []

    def test_lambda_body_not_scanned(self):
        findings = check_source(
            "import threading, time\n"
            "class C:\n"
            "    def work(self):\n"
            "        with self._lock:\n"
            "            self.callback = lambda: time.sleep(0.1)\n", "fixture.py")
        assert findings == []

    @pytest.mark.parametrize("attr, flagged", [("_state_cond", True), ("_mutex", True),
                                               ("_file", False)])
    def test_lockish_names_mark_a_lock(self, attr, flagged):
        findings = check_source(
            "class C:\n"
            "    def work(self, handle):\n"
            f"        with self.{attr}:\n"
            "            handle.read()\n", "fixture.py")
        assert bool(findings) is flagged

    def test_run_analysis_walks_directories_and_sorts_findings(self, tmp_path):
        body = ("class C:\n"
                "    def work(self, handle):\n"
                "        with self._lock:\n"
                "            handle.flush()\n"
                "            handle.read()\n")
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "b.py").write_text(body, encoding="utf-8")
        (tmp_path / "a.py").write_text(body, encoding="utf-8")
        findings = run_analysis([tmp_path])
        assert [(Path(f.path).name, f.line) for f in findings] == [
            ("a.py", 4), ("a.py", 5), ("b.py", 4), ("b.py", 5)]


# ---------------------------------------------------------------------------
# locktrack — dynamic tracker unit tests
# ---------------------------------------------------------------------------

class TestLockTracker:
    def make_locks(self, tracker, *keys):
        return [TrackedLock(threading.Lock(), key, tracker) for key in keys]

    def test_no_cycle_on_consistent_order(self):
        tracker = LockTracker()
        a, b = self.make_locks(tracker, "T.a", "T.b")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert tracker.cycles() == []
        assert tracker.violations() == []
        assert ("T.a", "T.b") in tracker.edges()

    def test_cycle_detected_across_threads(self):
        tracker = LockTracker()
        a, b = self.make_locks(tracker, "T.a", "T.b")

        with a:
            with b:
                pass

        def inverted():
            with b:
                with a:
                    pass

        worker = threading.Thread(target=inverted)
        worker.start()
        worker.join()

        cycles = tracker.cycles()
        assert cycles == [["T.a", "T.b"]]
        problems = tracker.problems()
        assert any("lock-order cycle" in line for line in problems)
        assert any("edge" in line for line in problems)

    def test_self_cycle_on_same_key(self):
        tracker = LockTracker()
        a1 = TrackedLock(threading.Lock(), "T.a", tracker)
        a2 = TrackedLock(threading.Lock(), "T.a", tracker)
        with a1:
            with a2:
                pass
        assert tracker.cycles() == [["T.a"]]

    def test_hierarchy_violation_reported(self):
        tracker = LockTracker()
        # Tracer._lock is level 20, LSMBTree._maintenance_lock is level 100:
        # acquiring the maintenance lock under the tracer lock ascends.
        low = TrackedLock(threading.Lock(), "Tracer._lock", tracker)
        high = TrackedLock(threading.Lock(), "LSMBTree._maintenance_lock", tracker)
        with low:
            with high:
                pass
        violations = tracker.violations()
        assert len(violations) == 1
        assert violations[0][0] == "Tracer._lock"
        assert any("hierarchy violation" in line for line in tracker.problems())

    def test_descending_declared_acquisitions_pass(self):
        tracker = LockTracker()
        chain = self.make_locks(tracker, "LSMBTree._maintenance_lock",
                                "LSMBTree._rotation_cond", "WriteAheadLog._lock",
                                "Counter._lock")
        for lock in chain:
            lock.acquire()
        for lock in reversed(chain):
            lock.release()
        assert len(tracker.edges()) == 3
        assert tracker.violations() == []
        assert tracker._stack() == []

    def test_same_level_acquisition_is_a_violation(self):
        tracker = LockTracker()
        counter, gauge = self.make_locks(tracker, "Counter._lock", "Gauge._lock")
        with counter:
            with gauge:
                pass
        violations = tracker.violations()
        assert [(held, acquired) for held, acquired, _, _ in violations] == [
            ("Counter._lock", "Gauge._lock")]
        assert "strictly descend" in violations[0][2]

    def test_three_lock_cycle_found(self):
        tracker = LockTracker()
        a, b, c = self.make_locks(tracker, "T.a", "T.b", "T.c")
        for outer, inner in ((a, b), (b, c), (c, a)):
            with outer:
                with inner:
                    pass
        assert tracker.cycles() == [["T.a", "T.b", "T.c"]]

    def test_failed_try_acquire_records_nothing(self):
        tracker = LockTracker()
        (a,) = self.make_locks(tracker, "T.a")
        busy = threading.Lock()
        busy.acquire()
        b = TrackedLock(busy, "T.b", tracker)
        try:
            with a:
                assert b.acquire(blocking=False) is False
                assert tracker._stack() == ["T.a"]
        finally:
            busy.release()
        assert tracker.edges() == {}

    def test_out_of_order_release_keeps_the_stack_right(self):
        tracker = LockTracker()
        a, b, c = self.make_locks(tracker, "T.a", "T.b", "T.c")
        a.acquire()
        b.acquire()
        a.release()  # hand-over-hand: the outer lock goes first
        assert tracker._stack() == ["T.b"]
        with c:
            pass
        b.release()
        assert set(tracker.edges()) == {("T.a", "T.b"), ("T.b", "T.c")}
        assert tracker._stack() == []

    def test_undeclared_lock_is_a_problem(self):
        tracker = LockTracker()
        for key in LOCK_HIERARCHY:
            tracker.note_created(key)
        tracker.note_created("BufferCache._stats_lock")
        assert tracker.problems() == [
            "undeclared lock: BufferCache._stats_lock — give it a level in "
            "analysis/lock_hierarchy.py"]

    def test_declaration_never_created_is_stale(self):
        tracker = LockTracker()
        for key in LOCK_HIERARCHY:
            if key != "WriteAheadLog._lock":
                tracker.note_created(key)
        assert tracker.problems() == [
            "stale declaration: no lock was created as WriteAheadLog._lock"]

    def test_rlock_reentrancy_counts_once(self):
        tracker = LockTracker()
        outer = TrackedLock(threading.Lock(), "T.outer", tracker)
        rlock = TrackedRLock(threading.RLock(), "T.r", tracker)
        with outer:
            with rlock:
                with rlock:  # re-entrant: no second logical acquisition
                    pass
        assert set(tracker.edges()) == {("T.outer", "T.r")}
        assert ("T.r", "T.r") not in tracker.edges()
        assert tracker.cycles() == []

    def test_condition_over_tracked_lock_is_tracked(self):
        tracker = LockTracker()
        inner = TrackedLock(threading.Lock(), "T.cond", tracker)
        condition = threading.Condition(inner)
        hits = []

        def waiter():
            with condition:
                hits.append("waiting")
                condition.wait(timeout=5)
                hits.append("woken")

        worker = threading.Thread(target=waiter)
        worker.start()
        while "waiting" not in hits:
            pass
        with condition:
            condition.notify()
        worker.join()
        assert hits == ["waiting", "woken"]
        # Both threads acquired/released cleanly: no held locks remain.
        assert tracker._stack() == []

    def test_condition_wait_on_tracked_rlock_releases_and_restores(self):
        tracker = LockTracker()
        rlock = TrackedRLock(threading.RLock(), "T.r", tracker)
        condition = threading.Condition(rlock)
        hits = []

        def waiter():
            with condition:
                with condition:  # re-entrant hold across the wait
                    hits.append("waiting")
                    condition.wait(timeout=5)
                    hits.append((rlock._count, list(tracker._stack())))

        worker = threading.Thread(target=waiter)
        worker.start()
        while "waiting" not in hits:
            pass
        # The waiter's hold was fully released, so this does not block.
        with condition:
            assert tracker._stack() == ["T.r"]
            condition.notify()
        worker.join()
        assert hits == ["waiting", (2, ["T.r"])]
        assert tracker._stack() == []
        assert tracker.edges() == {}

    def test_install_wraps_engine_locks_only(self):
        # Under a REPRO_LOCKTRACK=1 session the conftest already installed
        # the tracker; leave it in place then (uninstalling mid-session
        # would stop tracking for the rest of the suite).
        already_installed = locktrack.get_tracker() is not None
        tracker = locktrack.install()
        try:
            # Created from repro engine code: the metrics lock becomes a
            # tracked wrapper keyed Owner.attr, and its creation is recorded.
            from repro.obs.metrics import Counter

            counter = Counter("probe_counter")
            assert isinstance(counter._lock, TrackedLock)
            assert counter._lock._key == "Counter._lock"
            assert not any("Counter._lock" in line for line in tracker.problems())
            # Created from test (non-engine) code: stays a raw lock.
            raw = threading.Lock()
            assert not isinstance(raw, TrackedLock)
        finally:
            if not already_installed:
                locktrack.uninstall()
        if not already_installed:
            assert locktrack.get_tracker() is None
            assert locktrack._originals == {}

    def test_reset_clears_state(self):
        tracker = LockTracker()
        a, b = self.make_locks(tracker, "T.a", "T.b")
        with a:
            with b:
                pass
        assert tracker.edges()
        tracker.reset()
        assert tracker.edges() == {}
        assert tracker.cycles() == []

    def test_reset_forgets_created_locks(self):
        tracker = LockTracker()
        for key in LOCK_HIERARCHY:
            tracker.note_created(key)
        assert tracker.problems() == []
        tracker.reset()
        assert tracker.problems() == [
            f"stale declaration: no lock was created as {key}"
            for key in sorted(LOCK_HIERARCHY)]

    def test_report_counts_created_keys_and_edges(self):
        tracker = LockTracker()
        a, b = self.make_locks(tracker, "T.a", "T.b")
        tracker.note_created("T.a")
        tracker.note_created("T.b")
        with a:
            with b:
                pass
        lines = tracker.report().splitlines()
        assert lines[0] == "locktrack: 2 lock keys created, 1 acquisition-order edges"
        assert lines[1].startswith("  T.a -> T.b  (")
        assert "undeclared lock: T.a — give it a level in analysis/lock_hierarchy.py" in lines

    def test_condition_over_declared_lock_is_tracked_under_its_key(self):
        from repro.lsm.scheduler import LSMIOScheduler

        already_installed = locktrack.get_tracker() is not None
        tracker = locktrack.install()
        try:
            scheduler = LSMIOScheduler()
            try:
                assert isinstance(scheduler._lock, TrackedLock)
                # The _idle condition wraps _lock: holding it is holding
                # LSMIOScheduler._lock, so it needs no declaration of its own.
                with scheduler._idle:
                    assert tracker._stack()[-1] == "LSMIOScheduler._lock"
            finally:
                scheduler.close()
            assert not any("LSMIOScheduler" in line for line in tracker.problems())
        finally:
            if not already_installed:
                locktrack.uninstall()


# ---------------------------------------------------------------------------
# hierarchy sanity + meta checks
# ---------------------------------------------------------------------------

class TestHierarchyTable:
    def test_keys_match_owner_attr(self):
        for key, decl in LOCK_HIERARCHY.items():
            assert key == f"{decl.owner}.{decl.attr}"
            assert decl.level > 0

    def test_blocking_exemptions_are_the_documented_two(self):
        blocking = sorted(key for key, decl in LOCK_HIERARCHY.items()
                          if decl.allows_blocking)
        assert blocking == ["LSMBTree._maintenance_lock", "Tracer._export_lock"]

    def test_every_declaration_says_why(self):
        assert [key for key, decl in LOCK_HIERARCHY.items() if not decl.doc.strip()] == []


class TestCliMeta:
    def run_cli(self, *args, cwd=None):
        import os

        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True, text=True, cwd=cwd or REPO_ROOT, env=env)

    def test_shipped_tree_is_clean(self):
        result = self.run_cli("src/")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean: no findings" in result.stdout

    def test_seeded_violation_fails(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import time\n"
            "class C:\n"
            "    def work(self):\n"
            "        with self._lock:\n"
            "            time.sleep(1)\n",
            encoding="utf-8")
        result = self.run_cli(str(bad))
        assert result.returncode == 1
        assert "LOCK001" in result.stdout

    def test_unparsable_file_fails_the_run(self, tmp_path):
        (tmp_path / "broken.py").write_text("def oops(:\n", encoding="utf-8")
        with pytest.raises(SyntaxError):
            run_analysis([tmp_path])
