"""Simulated storage devices with the paper's bandwidth/latency profiles.

The paper's experiments run on a SATA SSD (550/520 MB/s sequential
read/write) and an NVMe SSD (3400/2500 MB/s).  Re-running them on arbitrary
hardware would entangle the results with whatever disk happens to be under
the Python interpreter, so instead every byte that crosses the buffer-cache
boundary is *accounted* against a :class:`SimulatedStorageDevice`, and the
benchmarks report the resulting simulated I/O time next to the measured CPU
time.  The I/O-bound vs CPU-bound crossovers the paper observes (SATA
queries track storage size; NVMe queries expose CPU cost) emerge from the
same arithmetic.

Devices are shared by every partition living in one storage environment, so
with the parallel query executor multiple worker threads charge I/O
concurrently.  Two mechanisms support that:

* one locked cell per traffic class counts every byte and operation once;
  the device total and the ``device_*`` registry counters are read from the
  cells (a log record's bytes land in the ``"log"`` cell unless an
  :meth:`~SimulatedStorageDevice.io_class_scope` re-tags them), and
* :meth:`SimulatedStorageDevice.accounting_scope` opens a *thread-local*
  scope that additionally accumulates every operation recorded from the
  current thread.  The executor wraps each partition pipeline in a scope,
  giving exact per-partition byte counts without racy snapshot/diff windows.

``throttle`` optionally turns the simulated cost of each operation into a
real ``time.sleep`` (scaled by the throttle factor).  It exists so tests and
benchmarks can observe genuine wall-clock overlap when partitions execute in
parallel — sleeping releases the GIL, exactly like real device waits would.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from ..config import DEVICE_PROFILES, DeviceKind
from ..faults import fire_fault
from ..obs import MetricsRegistry, StatsDictMixin, get_registry


@dataclass
class IOStats(StatsDictMixin):
    """Cumulative I/O counters of one device (or one traffic class of it)."""

    bytes_read: int = 0
    bytes_written: int = 0
    read_ops: int = 0
    write_ops: int = 0

    def add(self, nbytes: int, write: bool) -> None:
        """Count one operation of ``nbytes``."""
        if write:
            self.bytes_written += nbytes
            self.write_ops += 1
        else:
            self.bytes_read += nbytes
            self.read_ops += 1


class _ThreadScopes(threading.local):
    """One thread's open scopes; a thread that never opened one reads the
    class attributes, so the hot path needs no ``getattr`` default."""

    io_class: Optional[str] = None
    scopes: Tuple[IOStats, ...] = ()


class SimulatedStorageDevice:
    """Accounts I/O volume and converts it into simulated seconds.

    The device does not store any data itself — files live in the
    :mod:`repro.storage.file_manager` — it only observes traffic.  Separate
    traffic classes (data, log, look-aside file) are tracked so experiments
    can attribute costs the way the paper discusses them (e.g. "ingestion
    was bottlenecked by flushing transaction log records").

    Thread-safe: counters are locked, and per-thread accounting scopes let
    concurrent partition pipelines keep exact private byte counts.
    """

    def __init__(self, kind: DeviceKind = DeviceKind.NVME_SSD, throttle: float = 0.0,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.kind = kind
        profile = DEVICE_PROFILES[kind]
        self.read_bandwidth = profile["read_bandwidth"]
        self.write_bandwidth = profile["write_bandwidth"]
        self.seek_latency = profile["seek_latency"]
        #: The ledger: one cell per traffic class.  Nothing else is stored —
        #: the device total (:attr:`stats`) is the sum of these cells, and the
        #: ``device_*`` counters read them.
        self.per_class: Dict[str, IOStats] = {}  # guarded-by: _lock
        #: Fraction of each operation's simulated seconds to actually sleep
        #: (0.0 = pure accounting; >1.0 stretches device time for tests that
        #: must observe wall-clock overlap).  Mutable at any time.
        self.throttle = throttle
        self._lock = threading.Lock()
        self._local = _ThreadScopes()
        self.metrics = metrics if metrics is not None else get_registry()

    # -- recording -------------------------------------------------------------

    def record_read(self, nbytes: int, io_class: str = "data") -> None:
        # Fault check precedes all accounting so an injected failure models
        # an operation that never reached the device (nothing half-charged).
        fire_fault("device.read")
        self._record(nbytes, io_class, write=False)

    def record_write(self, nbytes: int, io_class: str = "data") -> None:
        fire_fault("device.write")
        self._record(nbytes, io_class, write=True)

    def _record(self, nbytes: int, io_class: str, write: bool) -> None:
        """Charge one operation: the only code that adds to a device counter."""
        local = self._local
        io_class = local.io_class or io_class
        with self._lock:
            cell = self.per_class.get(io_class)
            if cell is None:
                cell = self.per_class[io_class] = IOStats()
                for field in ("bytes_read", "bytes_written", "read_ops", "write_ops"):
                    self.metrics.counter(f"device_{field}", io_class=io_class).follow(
                        self, cell, field)
            cell.add(nbytes, write)
        for scope in local.scopes:
            scope.add(nbytes, write)
        if self.throttle > 0.0:
            bandwidth = self.write_bandwidth if write else self.read_bandwidth
            time.sleep((nbytes / bandwidth + self.seek_latency) * self.throttle)

    @contextmanager
    def io_class_scope(self, io_class: str) -> Iterator[None]:
        """Re-tag every operation recorded *from this thread* while open.

        Background flush/merge workers wrap their work in
        ``io_class_scope("maintenance")`` so the device's per-class counters
        separate maintenance traffic from the foreground "data"/"log"
        classes — the accounting views that let benchmarks report how much
        device time the asynchronous LSM lifecycle moved off the ingest
        path.  Scopes are thread-local and restore the previous tag on exit,
        so nesting works and concurrent workers never see each other's tag.
        """
        previous = self._local.io_class
        self._local.io_class = io_class
        try:
            yield
        finally:
            self._local.io_class = previous

    @contextmanager
    def accounting_scope(self) -> Iterator[IOStats]:
        """Collect every operation recorded *from this thread* while open.

        Scopes nest, and each thread sees only its own stack, so concurrent
        partition workers get precise private counters while the shared
        global counters keep accumulating under the lock.
        """
        scope = IOStats()
        local = self._local
        local.scopes += (scope,)
        try:
            yield scope
        finally:
            # Drop by identity, not by value: IOStats compares by value, so
            # an equal-counter nested scope must not be dropped in its place.
            local.scopes = tuple(open_scope for open_scope in local.scopes
                                 if open_scope is not scope)

    # -- simulated time ----------------------------------------------------------

    def simulated_seconds(self, stats: IOStats = None) -> float:
        """Convert I/O counters into seconds on this device."""
        if stats is None:
            stats = self.stats
        read_time = stats.bytes_read / self.read_bandwidth + stats.read_ops * self.seek_latency
        write_time = stats.bytes_written / self.write_bandwidth + stats.write_ops * self.seek_latency
        return read_time + write_time

    # -- bookkeeping ----------------------------------------------------------------

    @property
    def stats(self) -> IOStats:
        """Total traffic of the device: the per-class cells summed into a fresh
        object on every read, so a kept one is a snapshot to
        :meth:`IOStats.diff` a later one against."""
        total = IOStats()
        with self._lock:
            for cell in self.per_class.values():
                total.bytes_read += cell.bytes_read
                total.bytes_written += cell.bytes_written
                total.read_ops += cell.read_ops
                total.write_ops += cell.write_ops
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"SimulatedStorageDevice({self.kind.value}, read={self.stats.bytes_read}B, "
            f"written={self.stats.bytes_written}B)"
        )
