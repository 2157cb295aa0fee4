"""Central registry of fault-injection point names.

Every place in the engine that calls :func:`repro.faults.fire_fault` or
:func:`repro.faults.corrupt_payload` names a point registered here.  The
injector refuses a rule for an unregistered point, and an armed injector
refuses a fire site naming one; a test holds the README's fault-point table
to this registry.  Keeping the registry in one flat module also makes every
point discoverable at runtime (``repro.faults.fault_points()``), so chaos
tests can enumerate the fault surface instead of hard-coding it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class FaultPoint:
    """One named place where the engine consults the fault injector."""

    name: str
    description: str


#: Every injection point the engine exposes, in storage-stack order.
FAULT_POINTS: Tuple[FaultPoint, ...] = (
    FaultPoint("device.read",
               "Start of SimulatedStorageDevice.record_read, before counters."),
    FaultPoint("device.write",
               "Start of SimulatedStorageDevice.record_write, before counters."),
    FaultPoint("file.read_page",
               "File-manager page read; corrupt rules flip bytes in the "
               "uncompressed page before its checksum is verified."),
    FaultPoint("file.write_page",
               "Start of file-manager write_page, before any state changes."),
    FaultPoint("buffercache.miss",
               "Buffer-cache miss, before the backing file-manager fetch."),
    FaultPoint("wal.append",
               "WAL append before the record is logged; corrupt rules flip "
               "payload bytes so the record's CRC no longer matches (a torn "
               "record for recovery to truncate)."),
    FaultPoint("wal.truncate",
               "Start of WAL truncate/truncate_partition."),
    FaultPoint("scheduler.flush",
               "Before each attempt of a background flush task."),
    FaultPoint("scheduler.merge",
               "Before each attempt of a background merge task."),
    FaultPoint("cache.lookup",
               "Plan-cache / column-slice-cache lookup; injected errors "
               "degrade to a cache miss (re-plan / re-decode), never to a "
               "wrong answer."),
    FaultPoint("cache.store",
               "Plan-cache / column-slice-cache store; injected errors skip "
               "the store, so the entry is rebuilt on the next execution."),
)

_POINT_NAMES = frozenset(point.name for point in FAULT_POINTS)


def is_registered(name: str) -> bool:
    return name in _POINT_NAMES
