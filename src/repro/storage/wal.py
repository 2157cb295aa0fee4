"""Write-ahead log for the LSM primary index.

AsterixDB uses a no-steal/no-force buffer policy with write-ahead logging
(paper §2.2): every insert/delete/upsert appends a log record before it is
applied to the in-memory component, and the log for a flushed component can
be truncated once the component's validity bit is set.  The paper observes
that continuous data-feed ingestion is bottlenecked by flushing these log
records to the device — which is why the Twitter feed experiment shows
little difference between SATA and NVMe — so the log charges its writes to
the simulated device under a dedicated ``"log"`` I/O class.  A record is
charged 28 header bytes, its key's UTF-8 text and its payload, counted once
in the log's own totals (which ``wal_records_appended`` / ``wal_bytes_written``
read) and once in the device's ``"log"`` cell (``device_*{io_class=log}``).

The log itself is an in-memory list of :class:`LogRecord`; durability in a
real deployment would come from fsyncing an append-only file, but crash
recovery in this reproduction (see :mod:`repro.lsm.recovery`) replays the
in-memory records of the "surviving" log, which exercises the same control
flow.
"""

from __future__ import annotations

import enum
import threading
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..faults import corrupt_payload, fire_fault
from ..obs import MetricsRegistry, get_registry
from .device import IOStats, SimulatedStorageDevice

#: Fixed per-record header overhead charged to the device (type, LSN, sizes).
_LOG_HEADER_BYTES = 28


def _crc_seed(record_type: "LogRecordType", dataset: str, partition: int) -> int:
    """CRC32 of the fields a record shares with every record of its type,
    dataset and partition: the start of each of their checksums."""
    crc = zlib.crc32(record_type.value.encode("utf-8"))
    crc = zlib.crc32(dataset.encode("utf-8"), crc)
    return zlib.crc32(str(partition).encode("utf-8"), crc)


class LogRecordType(enum.Enum):
    INSERT = "insert"
    DELETE = "delete"
    UPSERT = "upsert"
    FLUSH_START = "flush-start"
    FLUSH_END = "flush-end"

    # Members are singletons compared by identity; the identity hash keeps
    # the log's per-record seed lookup out of ``Enum.__hash__``'s frame.
    __hash__ = object.__hash__


@dataclass
class LogRecord:
    """One WAL entry."""

    __slots__ = ("lsn", "record_type", "dataset", "partition", "key", "payload", "crc")
    lsn: int
    record_type: LogRecordType
    dataset: str
    partition: int
    key: Any
    payload: Optional[bytes]
    #: CRC32 of the logical content at append time (LSN excluded, so it is
    #: computed before the log lock assigns one); a mismatch later marks the
    #: record as torn (see :meth:`WriteAheadLog.drop_torn_tail`).
    crc: int

    def content_crc(self) -> int:
        """Recompute the CRC32 of the record's current content."""
        key_bytes = b"" if self.key is None else str(self.key).encode("utf-8")
        crc = zlib.crc32(key_bytes, _crc_seed(self.record_type, self.dataset, self.partition))
        return zlib.crc32(self.payload, crc) if self.payload else crc


class WriteAheadLog:
    """Append-only log shared by all partitions of one node."""

    def __init__(self, device: Optional[SimulatedStorageDevice] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.device = device
        self._records: List[LogRecord] = []  # guarded-by: _lock
        #: The log's totals: records appended (``write_ops``, also the last
        #: LSN handed out) and their charged ``bytes_written``.
        self._appended = IOStats()  # guarded-by: _lock
        self._crc_seeds: Dict[Tuple[LogRecordType, str, int], int] = {}
        metrics = metrics if metrics is not None else get_registry()
        metrics.counter("wal_records_appended").follow(self, self._appended, "write_ops")
        metrics.counter("wal_bytes_written").follow(self, self._appended, "bytes_written")
        self._wal_checksum_failures = metrics.counter(
            "checksum_failures_total", kind="wal")
        # Background LSM maintenance appends FLUSH markers and truncates from
        # flush-worker threads while partition writers keep appending: LSN
        # assignment and the record list are guarded so no record is lost and
        # no LSN is handed out twice.
        self._lock = threading.Lock()

    # -- appending ---------------------------------------------------------------

    def append(self, record_type: LogRecordType, dataset: str, partition: int,
               key: Any = None, payload: Optional[bytes] = None) -> LogRecord:
        # The CRC covers the *original* content, and fault injection runs
        # before anything mutates: a corrupt rule stores a record whose bytes
        # no longer match its CRC (a torn record for recovery to drop), and
        # an injected device/transient failure raises before the record is
        # logged, so a failed append leaves no trace.
        seed = self._crc_seeds.get((record_type, dataset, partition))
        if seed is None:
            seed = self._crc_seeds[record_type, dataset, partition] = _crc_seed(
                record_type, dataset, partition)
        # A key is charged and checksummed as its UTF-8 text.
        key_bytes = b"" if key is None else str(key).encode("utf-8")
        crc = zlib.crc32(key_bytes, seed)
        size = _LOG_HEADER_BYTES + len(key_bytes)
        if payload:
            crc = zlib.crc32(payload, crc)
            size += len(payload)
            payload = corrupt_payload("wal.append", payload)
        else:
            fire_fault("wal.append")
        record = LogRecord(0, record_type, dataset, partition, key, payload, crc)
        if self.device is not None:
            self.device.record_write(size, io_class="log")
        with self._lock:
            appended = self._appended
            appended.add(size, True)
            record.lsn = appended.write_ops
            self._records.append(record)
        return record

    @property
    def last_lsn(self) -> int:
        return self._appended.write_ops

    def __len__(self) -> int:
        return len(self._records)

    # -- truncation -----------------------------------------------------------------

    def truncate_partition(self, dataset: str, partition: int, up_to_lsn: int) -> None:
        """Discard one partition's records with ``lsn <= up_to_lsn``.

        The log is shared by every partition of a node, so a flush may only
        retire *its own* partition's records: another partition's unflushed
        operations with smaller LSNs must survive for recovery.  This is the
        WAL half of the background-flush handoff — a sealed memtable records
        the last LSN it covers at seal time, and the flush that persists it
        truncates exactly that range once the component's footer (validity
        bit) is on disk.
        """
        def survives(record: LogRecord) -> bool:
            if record.dataset != dataset or record.partition != partition:
                return True
            if record.record_type in (LogRecordType.FLUSH_START, LogRecordType.FLUSH_END):
                return False  # markers are never replayed; drop them eagerly
            return record.lsn > up_to_lsn

        fire_fault("wal.truncate")
        with self._lock:
            self._records = [record for record in self._records if survives(record)]

    # -- recovery ----------------------------------------------------------------------

    def replay(self, dataset: Optional[str] = None,
               partition: Optional[int] = None) -> Iterator[LogRecord]:
        """Yield surviving log records in LSN order, optionally filtered.

        Iterates over a snapshot so that recovery — which appends new log
        records while re-applying the old ones — cannot chase its own tail.
        """
        with self._lock:
            snapshot = list(self._records)
        for record in snapshot:
            if dataset is not None and record.dataset != dataset:
                continue
            if partition is not None and record.partition != partition:
                continue
            if record.record_type in (LogRecordType.FLUSH_START, LogRecordType.FLUSH_END):
                continue
            yield record

    def drop_after(self, lsn: int) -> None:
        """Simulate losing the log tail in a crash (records with lsn > ``lsn``)."""
        with self._lock:
            self._records = [record for record in self._records if record.lsn <= lsn]

    def drop_torn_tail(self) -> int:
        """Truncate the log at the first record failing its CRC32 check.

        A real append-only log that loses power mid-write ends with a torn
        record; everything after it is unreadable garbage.  Recovery calls
        this before replaying: the log is scanned in LSN order and cut at the
        first mismatch.  Returns the number of records dropped.
        """
        with self._lock:
            dropped = 0
            for index, record in enumerate(self._records):
                if record.crc != record.content_crc():
                    dropped = len(self._records) - index
                    del self._records[index:]
                    break
        if dropped:
            self._wal_checksum_failures.inc(dropped)
        return dropped
