"""Crash recovery for LSM indexes (paper §2.2 and §3.1.2).

Recovery follows AsterixDB's protocol:

1. discover the component files of the index and inspect their validity —
   a component whose footer never made it to disk is INVALID and removed,
   with whatever auxiliary files it left;
2. reload the surviving VALID components, newest first — each re-opens its
   VALID auxiliary trees and rebuilds, from its primary tree, any tree a
   registered index lacks (:meth:`OnDiskComponent.attach_auxiliaries`; the
   component never "just runs without it"), reading its keys back for its
   key-hash fence — a corrupt page met on the way quarantines the
   component instead of failing recovery — and load the
   *newest* valid component's persisted schema into the tuple compactor
   ("As C0 is the newest valid flushed component, the recovery manager will
   read and load the schema S0 into memory");
3. replay the write-ahead log records that were not yet covered by a valid
   flush to rebuild the in-memory component;
4. flush the restored in-memory component, during which the tuple compactor
   operates normally.

Because the engine is single-process, "crash" in tests and examples means:
throw away the :class:`LSMBTree` object (its memtable and component list)
while keeping the page files and the WAL, then run :func:`recover_index`
over a freshly constructed index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import CorruptPageError, QuarantinedComponentError, ReproError
from ..schema import InferredSchema
from ..storage.wal import LogRecordType, WriteAheadLog
from ..types import Datatype
from .component import (MemEntry, OnDiskComponent, delete_component_files,
                        primary_component_files, read_component_metadata)
from .lsm_index import LSMBTree


@dataclass
class RecoveryReport:
    """What recovery did — surfaced to callers, tests, and examples."""

    valid_components: int = 0
    invalid_components_removed: int = 0
    replayed_log_records: int = 0
    #: WAL records dropped by torn-tail detection: the log is truncated at
    #: the first record whose CRC32 no longer matches (a crash mid-append).
    torn_records_dropped: int = 0
    schema_loaded: bool = False
    flushed_after_replay: bool = False
    removed_files: List[str] = field(default_factory=list)


def recover_index(index: LSMBTree, wal: Optional[WriteAheadLog] = None,
                  datatype: Optional[Datatype] = None) -> RecoveryReport:
    """Bring a freshly constructed index back to its pre-crash state.

    Parameters
    ----------
    index:
        A new :class:`LSMBTree` configured identically to the crashed one
        (same name, partition, buffer cache, callback, policies).
    wal:
        The surviving write-ahead log; when omitted, only component
        discovery/validation happens.
    datatype:
        Declared datatype used to deserialize persisted schemas.

    Replayed inserts and upserts put their logged payloads back into the
    memtable as they are: the memtable holds nothing but those bytes.
    """
    report = RecoveryReport()
    recovered: List[OnDiskComponent] = []
    for file_name in primary_component_files(index.buffer_cache, index.file_prefix()):
        metadata = read_component_metadata(index.buffer_cache, file_name)
        if metadata is None:
            # INVALID component: remove it and any auxiliary files it left.
            report.invalid_components_removed += 1
            report.removed_files.extend(delete_component_files(index.buffer_cache, file_name))
            continue
        schema = None
        if metadata.schema_bytes:
            schema = InferredSchema.from_bytes(metadata.schema_bytes, datatype)
        component = OnDiskComponent(metadata.component_id, file_name, index.buffer_cache,
                                    metadata, schema=schema, valid=True)
        try:
            component.attach_auxiliaries(index.secondary_indexes)
        except CorruptPageError as exc:
            # Like a corrupt page met by a read: the component stays, and
            # every read that needs it raises QuarantinedComponentError.
            index.quarantine(component, exc)
        recovered.append(component)
    recovered.sort(key=lambda component: component.component_id, reverse=True)
    index.components = recovered
    report.valid_components = len(recovered)
    if recovered:
        index._next_sequence = recovered[0].component_id.max_seq + 1

    # Load the newest valid component's schema into the tuple compactor.
    if recovered and recovered[0].schema is not None:
        index.flush_callback.load_schema(recovered[0].schema)
        report.schema_loaded = True

    # Replay the surviving log records into the in-memory component —
    # after cutting the log at the first torn (checksum-failing) record,
    # which models everything a real log would lose after a mid-append
    # power cut.  Only records *behind* the tear replay.
    if wal is not None:
        report.torn_records_dropped = wal.drop_torn_tail()
        for record in wal.replay(dataset=index.name, partition=index.partition):
            report.replayed_log_records += 1
            if record.record_type is LogRecordType.DELETE:
                try:
                    index.delete(record.key)
                except ReproError:
                    # The deleted record's anti-schema may be unavailable if
                    # its insert is also being replayed later; fall back to a
                    # plain anti-matter entry.
                    index.memory_component.put(MemEntry(record.key, is_antimatter=True))
                continue
            if record.record_type is LogRecordType.INSERT:
                index.insert(record.key, record.payload)
                continue
            try:
                index.upsert(record.key, record.payload)
            except QuarantinedComponentError:
                # The superseded version sits in a component quarantined
                # at re-open: its anti-schema cannot be read, so the
                # upsert lands without one, like a delete above.
                index.memory_component.put(MemEntry(record.key, is_antimatter=False,
                                                    encoded=record.payload))

    if not index.memory_component.is_empty:
        index.flush()
        report.flushed_after_replay = True
    return report

