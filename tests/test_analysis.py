"""Tests for the analysis layer itself: lint rules, suppressions, locktrack.

Each rule gets a positive fixture (the violation is found), a negative one
(clean code passes), and a suppression one (``# repro-lint: disable=RULE``
silences exactly that finding).  The locktrack tests drive the wrappers
directly — no monkeypatched ``threading`` needed — and the meta-test at the
bottom asserts the shipped tree is lint-clean, which is what keeps every
future PR honest.
"""

import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.analysis import locktrack
from repro.analysis.lint import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    run_analysis,
)
from repro.analysis.lock_hierarchy import LOCK_HIERARCHY, LockDecl
from repro.analysis.locktrack import LockTracker, TrackedLock, TrackedRLock
from repro.analysis.rules import default_rules
from repro.analysis.rules.knob_rules import KnobAccessorRule
from repro.analysis.rules.lock_rules import (
    BlockingUnderLockRule,
    GuardedByRule,
    LockHierarchyRule,
)
from repro.analysis.rules.obs_rules import MetricNameRule

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_source(tmp_path, source, rules, name="fixture.py", readme=""):
    """Write ``source`` into a temp module and run ``rules`` over it."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return run_analysis([tmp_path], rules, readme_text=readme, root=tmp_path)


def make_hierarchy(*decls):
    return {decl.key: decl for decl in decls}


# ---------------------------------------------------------------------------
# LOCK001 — no blocking calls under a lock
# ---------------------------------------------------------------------------

class TestLock001:
    def test_sleep_under_lock_flagged(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import threading, time\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def work(self):\n"
            "        with self._lock:\n"
            "            time.sleep(0.1)\n"
        ), [BlockingUnderLockRule(hierarchy={})])
        assert [f.rule_id for f in findings] == ["LOCK001"]
        assert "time.sleep" in findings[0].message
        assert findings[0].line == 7

    @pytest.mark.parametrize("call", [
        "open('x')", "fut.result()", "thread.join()",
        "handle.read()", "handle.flush()", "device.write_page(b'x')",
    ])
    def test_other_blocking_calls_flagged(self, tmp_path, call):
        findings = lint_source(tmp_path, (
            "import threading\n"
            "class C:\n"
            "    def work(self, fut, thread, handle, device):\n"
            "        with self._lock:\n"
            f"            {call}\n"
        ), [BlockingUnderLockRule(hierarchy={})])
        assert [f.rule_id for f in findings] == ["LOCK001"]

    def test_clean_body_and_str_join_pass(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import threading\n"
            "class C:\n"
            "    def work(self, items):\n"
            "        with self._lock:\n"
            "            self.value = ','.join(items)\n"  # str.join has an arg
            "            self.count += 1\n"
        ), [BlockingUnderLockRule(hierarchy={})])
        assert findings == []

    def test_condition_wait_is_not_blocking(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import threading\n"
            "class C:\n"
            "    def work(self):\n"
            "        with self._rotation_cond:\n"
            "            self._rotation_cond.wait(timeout=1)\n"
        ), [BlockingUnderLockRule(hierarchy={})])
        assert findings == []

    def test_allows_blocking_lock_exempt(self, tmp_path):
        hierarchy = make_hierarchy(LockDecl(
            "C", "_lock", 10, "lock", "fixture.py", allows_blocking=True))
        findings = lint_source(tmp_path, (
            "import threading, time\n"
            "class C:\n"
            "    def work(self):\n"
            "        with self._lock:\n"
            "            time.sleep(0.1)\n"
        ), [BlockingUnderLockRule(hierarchy=hierarchy)])
        assert findings == []

    def test_nested_function_body_not_scanned(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import threading, time\n"
            "class C:\n"
            "    def work(self):\n"
            "        with self._lock:\n"
            "            def later():\n"
            "                time.sleep(0.1)\n"
            "            self.callback = later\n"
        ), [BlockingUnderLockRule(hierarchy={})])
        assert findings == []

    def test_suppression(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import threading, time\n"
            "class C:\n"
            "    def work(self):\n"
            "        with self._lock:\n"
            "            time.sleep(0.1)  # repro-lint: disable=LOCK001\n"
        ), [BlockingUnderLockRule(hierarchy={})])
        assert findings == []


# ---------------------------------------------------------------------------
# LOCK002 — declared hierarchy, visible creations, descending order
# ---------------------------------------------------------------------------

class TestLock002:
    def test_undeclared_lock_flagged(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
        ), [LockHierarchyRule(hierarchy={}, check_stale=False)])
        assert [f.rule_id for f in findings] == ["LOCK002"]
        assert "C._lock" in findings[0].message

    def test_declared_lock_passes(self, tmp_path):
        hierarchy = make_hierarchy(LockDecl("C", "_lock", 10, "lock", "fixture.py"))
        findings = lint_source(tmp_path, (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
        ), [LockHierarchyRule(hierarchy=hierarchy)])
        assert findings == []

    def test_bare_lock_import_flagged(self, tmp_path):
        findings = lint_source(tmp_path, (
            "from threading import Lock\n"
        ), [LockHierarchyRule(hierarchy={}, check_stale=False)])
        assert len(findings) == 1
        assert "bare" in findings[0].message

    def test_noarg_condition_flagged(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._cond = threading.Condition()\n"
        ), [LockHierarchyRule(hierarchy={}, check_stale=False)])
        assert len(findings) == 1
        assert "internal RLock" in findings[0].message

    def test_condition_over_declared_lock_is_alias(self, tmp_path):
        hierarchy = make_hierarchy(LockDecl("C", "_lock", 10, "lock", "fixture.py"))
        findings = lint_source(tmp_path, (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._idle = threading.Condition(self._lock)\n"
        ), [LockHierarchyRule(hierarchy=hierarchy)])
        assert findings == []

    def test_ascending_nested_acquisition_flagged(self, tmp_path):
        hierarchy = make_hierarchy(
            LockDecl("C", "_low", 10, "lock", "fixture.py"),
            LockDecl("C", "_high", 90, "lock", "fixture.py"))
        findings = lint_source(tmp_path, (
            "import threading\n"
            "class C:\n"
            "    def work(self):\n"
            "        with self._low:\n"
            "            with self._high:\n"
            "                pass\n"
        ), [LockHierarchyRule(hierarchy=hierarchy, check_stale=False)])
        assert [f.rule_id for f in findings] == ["LOCK002"]
        assert "strictly descend" in findings[0].message

    def test_descending_nested_acquisition_passes(self, tmp_path):
        hierarchy = make_hierarchy(
            LockDecl("C", "_low", 10, "lock", "fixture.py"),
            LockDecl("C", "_high", 90, "lock", "fixture.py"))
        findings = lint_source(tmp_path, (
            "import threading\n"
            "class C:\n"
            "    def work(self):\n"
            "        with self._high:\n"
            "            with self._low:\n"
            "                pass\n"
        ), [LockHierarchyRule(hierarchy=hierarchy, check_stale=False)])
        assert findings == []

    def test_stale_declaration_flagged(self, tmp_path):
        hierarchy = make_hierarchy(LockDecl("Gone", "_lock", 10, "lock", "fixture.py"))
        findings = lint_source(tmp_path, (
            "import threading\n"
        ), [LockHierarchyRule(hierarchy=hierarchy)])
        assert len(findings) == 1
        assert "stale" in findings[0].message

    def test_suppression(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        # repro-lint: disable=LOCK002\n"
            "        self._lock = threading.Lock()\n"
        ), [LockHierarchyRule(hierarchy={}, check_stale=False)])
        assert findings == []


# ---------------------------------------------------------------------------
# LOCK003 — guarded-by annotations
# ---------------------------------------------------------------------------

class TestLock003:
    FIXTURE = (
        "import threading\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._items = []  # guarded-by: _lock\n"
        "    def good(self):\n"
        "        with self._lock:\n"
        "            self._items.append(1)\n"
        "    def bad(self):\n"
        "        self._items.append(2)\n"
        "    def reader(self):\n"
        "        return list(self._items)\n"
    )

    def test_unlocked_mutation_warns(self, tmp_path):
        findings = lint_source(tmp_path, self.FIXTURE, [GuardedByRule()])
        assert [f.rule_id for f in findings] == ["LOCK003"]
        assert findings[0].severity == SEVERITY_WARNING
        assert "bad()" in findings[0].message

    def test_reads_are_exempt(self, tmp_path):
        findings = lint_source(tmp_path, self.FIXTURE, [GuardedByRule()])
        assert all("reader" not in f.message for f in findings)

    def test_requires_lock_marker_exempts(self, tmp_path):
        fixture = self.FIXTURE.replace(
            "    def bad(self):\n",
            "    # requires-lock: _lock\n    def bad(self):\n")
        findings = lint_source(tmp_path, fixture, [GuardedByRule()])
        assert findings == []

    def test_annotation_on_preceding_line(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        # guarded-by: _lock\n"
            "        self._items = []\n"
            "    def bad(self):\n"
            "        self._items = []\n"
        ), [GuardedByRule()])
        assert len(findings) == 1

    def test_suppression(self, tmp_path):
        fixture = self.FIXTURE.replace(
            "        self._items.append(2)\n",
            "        self._items.append(2)  # repro-lint: disable=LOCK003\n")
        findings = lint_source(tmp_path, fixture, [GuardedByRule()])
        assert findings == []


# ---------------------------------------------------------------------------
# KNOB001 — env accessor discipline + README documentation
# ---------------------------------------------------------------------------

class TestKnob001:
    def test_direct_environ_read_flagged(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import os\n"
            "value = os.environ.get('REPRO_THING', '')\n"
        ), [KnobAccessorRule()])
        assert [f.rule_id for f in findings] == ["KNOB001"]
        assert "os.environ" in findings[0].message

    def test_os_getenv_flagged(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import os\n"
            "value = os.getenv('REPRO_THING')\n"
        ), [KnobAccessorRule()])
        assert len(findings) == 1

    def test_accessor_module_is_exempt(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import os\n"
            "def env_str(name, default=''):\n"
            "    return os.environ.get(name, default).strip()\n"
        ), [KnobAccessorRule()], name="config.py")
        assert findings == []

    def test_undocumented_knob_flagged(self, tmp_path):
        findings = lint_source(tmp_path, (
            "from repro.config import env_flag\n"
            "ENABLED = env_flag('REPRO_MYSTERY')\n"
        ), [KnobAccessorRule()], readme="| `REPRO_OTHER` | off | ... |")
        assert [f.rule_id for f in findings] == ["KNOB001"]
        assert "REPRO_MYSTERY" in findings[0].message

    def test_documented_knob_passes(self, tmp_path):
        findings = lint_source(tmp_path, (
            "from repro.config import env_flag\n"
            "ENABLED = env_flag('REPRO_MYSTERY')\n"
        ), [KnobAccessorRule()], readme="| `REPRO_MYSTERY` | off | ... |")
        assert findings == []

    def test_constant_indirection_resolved(self, tmp_path):
        findings = lint_source(tmp_path, (
            "from repro.config import env_str\n"
            "MY_ENV_VAR = 'REPRO_INDIRECT'\n"
            "value = env_str(MY_ENV_VAR)\n"
        ), [KnobAccessorRule()], readme="nothing documented")
        assert len(findings) == 1
        assert "REPRO_INDIRECT" in findings[0].message

    def test_suppression(self, tmp_path):
        findings = lint_source(tmp_path, (
            "import os\n"
            "value = os.environ.get('HOME')  # repro-lint: disable=KNOB001\n"
        ), [KnobAccessorRule()])
        assert findings == []


# ---------------------------------------------------------------------------
# OBS001 — metric naming and uniqueness
# ---------------------------------------------------------------------------

class TestObs001:
    def test_bad_name_flagged(self, tmp_path):
        findings = lint_source(tmp_path, (
            "def publish(registry):\n"
            "    registry.counter('Bad-Name.total')\n"
        ), [MetricNameRule()])
        assert [f.rule_id for f in findings] == ["OBS001"]
        assert "convention" in findings[0].message

    def test_kind_conflict_flagged(self, tmp_path):
        findings = lint_source(tmp_path, (
            "def publish(registry):\n"
            "    registry.counter('things_total')\n"
            "    registry.gauge('things_total')\n"
        ), [MetricNameRule()])
        assert len(findings) == 1
        assert "gauge" in findings[0].message and "counter" in findings[0].message

    def test_label_conflict_flagged(self, tmp_path):
        findings = lint_source(tmp_path, (
            "def publish(registry, kind):\n"
            "    registry.counter('tasks_total', kind=kind)\n"
            "    registry.counter('tasks_total')\n"
        ), [MetricNameRule()])
        assert len(findings) == 1
        assert "labels" in findings[0].message

    def test_consistent_reuse_passes(self, tmp_path):
        findings = lint_source(tmp_path, (
            "def publish(registry, kind):\n"
            "    registry.counter('tasks_total', kind=kind)\n"
            "    registry.counter('tasks_total', kind='merge')\n"
            "    registry.gauge('queue_depth')\n"
        ), [MetricNameRule()])
        assert findings == []

    def test_suppression(self, tmp_path):
        findings = lint_source(tmp_path, (
            "def publish(registry):\n"
            "    registry.counter('Bad-Name')  # repro-lint: disable=OBS001\n"
        ), [MetricNameRule()])
        assert findings == []


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
        assert tracker.problems() == []
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

    def test_install_wraps_engine_locks_only(self):
        # Under a REPRO_LOCKTRACK=1 session the conftest already installed
        # the tracker; leave it in place then (uninstalling mid-session
        # would stop tracking for the rest of the suite).
        already_installed = locktrack.get_tracker() is not None
        locktrack.install()
        try:
            # Created from repro engine code: the metrics lock becomes a
            # tracked wrapper keyed Owner.attr.
            from repro.obs.metrics import Counter

            counter = Counter("probe_counter")
            assert isinstance(counter._lock, TrackedLock)
            assert counter._lock._key == "Counter._lock"
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
        assert tracker.problems() == []


# ---------------------------------------------------------------------------
# hierarchy sanity + meta checks
# ---------------------------------------------------------------------------

class TestHierarchyTable:
    def test_keys_match_owner_attr(self):
        for key, decl in LOCK_HIERARCHY.items():
            assert key == f"{decl.owner}.{decl.attr}"
            assert decl.level > 0
            assert decl.kind in ("lock", "rlock", "condition")

    def test_blocking_exemptions_are_the_documented_two(self):
        blocking = sorted(key for key, decl in LOCK_HIERARCHY.items()
                          if decl.allows_blocking)
        assert blocking == ["LSMBTree._maintenance_lock", "Tracer._export_lock"]


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
            "import os\n"
            "value = os.environ.get('REPRO_SNEAKY', '')\n",
            encoding="utf-8")
        result = self.run_cli(str(bad))
        assert result.returncode == 1
        assert "KNOB001" in result.stdout

    def test_list_rules_names_all_shipped_rules(self):
        result = self.run_cli("--list-rules")
        assert result.returncode == 0
        for rule_id in ("LOCK001", "LOCK002", "LOCK003",
                        "KNOB001", "OBS001"):
            assert rule_id in result.stdout

    def test_every_engine_lock_is_declared(self):
        """Acceptance: every threading.Lock/RLock in src/repro has a level.

        Equivalent to LOCK002 reporting nothing across the tree, checked
        via the API so a regression pinpoints the lock in the assert.
        """
        findings = run_analysis([REPO_ROOT / "src" / "repro"],
                                [LockHierarchyRule()], readme_text="")
        assert [f.render() for f in findings] == []

    def test_default_rules_cover_required_ids(self):
        ids = {rule.rule_id for rule in default_rules()}
        assert {"LOCK001", "LOCK002", "LOCK003",
                "KNOB001", "OBS001"} <= ids

    def test_parse_error_is_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n", encoding="utf-8")
        findings = run_analysis([tmp_path], default_rules(), readme_text="")
        assert [f.rule_id for f in findings] == ["PARSE"]
        assert findings[0].severity == SEVERITY_ERROR
