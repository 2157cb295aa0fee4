"""The names the benchmark pins under ``src/`` still exist.

``perfbench/`` is not collected by the tier-1 run, yet it reaches into the
engine by name: ``perfbench/trace.py`` wraps ``owner.__dict__[attribute]`` for
every entry of ``_targets()`` and ``perfbench/session.py`` reads a handful of
attributes off a ``StorageEnvironment``.  A rename under ``src/`` must fail
here, not at the next benchmark run.
"""

import pytest

from repro.core import StorageEnvironment


def test_every_traced_entry_point_is_defined_on_its_owner():
    trace = pytest.importorskip("perfbench.trace")
    missing = [f"{name}: {getattr(owner, '__name__', owner)}.{attribute}"
               for name, owner, attribute, _ in trace._targets()
               if attribute not in owner.__dict__]
    assert not missing


def test_what_the_session_reads_off_an_environment_exists():
    environment = StorageEnvironment()
    manager = environment.file_manager
    manager.create_file("f")
    assert manager.list_files() == ["f"]
    assert manager.num_pages("f") == 0
    assert manager.total_size() == 0
    assert environment.device.stats.bytes_written == 0
    before = environment.buffer_cache.stats_snapshot()
    delta = environment.buffer_cache.stats_snapshot().diff(before)
    assert (delta.hits, delta.misses) == (0, 0)
    assert environment.simulated_io_seconds() == 0.0
