"""Tier-1 suite hooks: opt-in dynamic lock-order tracking.

With ``REPRO_LOCKTRACK=1`` in the environment, every engine lock created
while the tests run is wrapped by :mod:`repro.analysis.locktrack`; after
the session the accumulated acquisition graph is checked for cycles and
lock-hierarchy violations, the created locks against the declared ones,
and any finding fails the run (exit status 3) even when every individual
test passed.  CI runs one tier-1 leg this way.

It also holds the ``isolated_injector`` fixture the fault-arming modules
share.
"""

import pytest

from repro.analysis import locktrack
from repro.config import env_str
from repro.faults import FAULTS_ENV_VAR, get_injector

_installed = False


@pytest.fixture
def isolated_injector():
    """The global fault injector, empty for the test; afterwards the
    ``REPRO_FAULTS`` env spec (the CI faulted leg) is restored."""
    injector = get_injector()
    injector.clear()
    yield injector
    injector.clear()
    spec = env_str(FAULTS_ENV_VAR)
    if spec:
        injector.load_spec(spec)


def pytest_configure(config):
    global _installed
    if locktrack.locktrack_enabled():
        locktrack.install()
        _installed = True


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _installed:
        return
    tracker = locktrack.get_tracker()
    if tracker is None:
        return
    terminalreporter.write_line(tracker.report())


def pytest_sessionfinish(session, exitstatus):
    if not _installed:
        return
    tracker = locktrack.get_tracker()
    if tracker is None:
        return
    problems = tracker.problems()
    if problems and exitstatus == 0:
        session.exitstatus = 3
