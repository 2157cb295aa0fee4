"""The LSM B+-tree primary index (one per dataset partition).

This is the storage engine the paper builds on (§2.2): writes go to an
in-memory component; when it exceeds its memory budget the *tree manager*
flushes it into an immutable on-disk component; on-disk components are
periodically merged according to a merge policy; deletes insert anti-matter
entries; upserts are a delete followed by an insert with the same key.

The tuple compactor does not live here — it is attached as a
:class:`~repro.lsm.lifecycle.FlushCallback`, so the index stays agnostic of
record formats: it stores opaque payload bytes and returns them together
with the schema snapshot of the component they came from.
"""

from __future__ import annotations

import heapq
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from ..btree import LeafEntry, leaf_head
from ..btree.pages import LEAF_HEADER_SIZE
from ..errors import (
    ComponentStateError,
    CorruptPageError,
    DuplicateKeyError,
    EncodingError,
    KeyNotFoundError,
    RecordTooLargeError,
    SchedulerError,
)
from ..obs import (COMPONENT_QUARANTINED, MetricsRegistry, StatsDictMixin,
                   emit_event, get_registry)
from ..obs import tracer as _tracer
from ..schema import InferredSchema
from ..storage.buffer_cache import BufferCache
from ..storage.wal import LogRecordType, WriteAheadLog
from ..types import index_key_range
from .component import (ComponentWriter, InMemoryComponent, MemEntry, OnDiskComponent,
                        delete_component_files, merged_secondary_entries)
from .component_id import ComponentId
from .lifecycle import FlushCallback
from .merge_policy import MergePolicy, NoMergePolicy
from .scheduler import LSMIOScheduler

#: Backpressure: while a merge of an index is pending, its writer also
#: stalls once this many on-disk components pile up (merge debt), so
#: ingestion cannot outrun maintenance indefinitely.
MAX_MERGE_DEBT = 12


@dataclass(eq=False)  # hashed by identity: memtable entries cache values by definition
class SecondaryIndexDef:
    """Definition of one secondary index over the primary index's records.

    ``extractor`` receives the stored payload bytes and the component's
    schema and returns the field's value; the index files it under its
    :func:`~repro.types.index_key`, and skips the record when that is None.
    ``field_path`` is the indexed field's path when the index covers a plain
    field access — the optimizer matches WHERE conjuncts against it.  Field
    statistics (min/max/count for the cost model) live per component in
    ``component.secondary_stats`` and are aggregated by
    :meth:`LSMBTree.secondary_statistics`.
    """

    name: str
    extractor: Callable[[bytes, Optional[InferredSchema]], Any]
    field_path: Optional[Tuple[str, ...]] = None


@dataclass
class IngestStats(StatsDictMixin):
    """Counters describing one index's ingestion activity."""

    _DERIVED = ("write_amplification",)

    inserts: int = 0
    deletes: int = 0
    upserts: int = 0
    flushes: int = 0
    merges: int = 0
    maintenance_point_lookups: int = 0
    bytes_flushed: int = 0
    bytes_merged: int = 0
    #: Wall seconds the writer spent blocked in backpressure waits (sealed
    #: memtables at the cap, or merge debt); only a scheduler's workers can
    #: fall behind a writer, so always 0.0 without one.
    ingest_stall_seconds: float = 0.0

    @property
    def write_amplification(self) -> float:
        """Maintenance bytes written per flushed byte (1.0 = no merges)."""
        if self.bytes_flushed == 0:
            return 0.0
        return (self.bytes_flushed + self.bytes_merged) / self.bytes_flushed


@dataclass
class SealedMemtable:
    """An immutable, flush-pending in-memory component.

    Sealed at memtable rotation and by :meth:`LSMBTree.flush`: the writer
    moves its mutable memtable here and installs a fresh empty one; a flush
    only ever persists a sealed memtable.  ``up_to_lsn`` records the last
    WAL position the sealed entries cover, so the flush that persists them
    truncates exactly that prefix of the partition's log — entries logged
    after the seal (living in newer memtables) survive for crash recovery.
    """

    memtable: InMemoryComponent
    up_to_lsn: int


@dataclass
class SearchResult:
    """One record a point lookup or an index probe returns: its stored bytes
    and the schema of the component they came from (None for a memtable
    row, which is uncompacted)."""

    key: Any
    payload: bytes
    schema: Optional[InferredSchema] = None


_KEY = attrgetter("key")


class MemtableRun:
    """One memtable snapshot as a run of the reconcile: its entries in key
    order (the snapshot is sorted in place), their keys, and where its
    anti-matter entries sit."""

    __slots__ = ("entries", "keys", "antimatter")

    def __init__(self, entries: List[MemEntry]) -> None:
        entries.sort(key=_KEY)
        self.entries = entries
        self.keys = [entry.key for entry in entries]
        self.antimatter = [index for index, entry in enumerate(entries) if entry.is_antimatter]


class LSMBTree:
    """LSM-tree of immutable B+-tree components plus one in-memory component."""

    def __init__(self, name: str, partition: int, buffer_cache: BufferCache,
                 memory_budget: int, merge_policy: Optional[MergePolicy] = None,
                 flush_callback: Optional[FlushCallback] = None,
                 wal: Optional[WriteAheadLog] = None,
                 scheduler: Optional[LSMIOScheduler] = None,
                 max_sealed_memtables: int = 2,
                 metrics: Optional[MetricsRegistry] = None,
                 column_cache=None) -> None:
        self.name = name
        self.partition = partition
        self.buffer_cache = buffer_cache
        self.memory_budget = memory_budget
        self.merge_policy = merge_policy or NoMergePolicy()
        self.flush_callback = flush_callback or FlushCallback()
        self.wal = wal
        #: Where maintenance tasks run: on this scheduler's workers, or —
        #: ``None`` — on the thread that triggered them (:meth:`_submit_or_run`).
        #: The scheduler also counts this index's submissions; the index
        #: asks it (:meth:`drain_maintenance`, backpressure) instead of
        #: keeping counts of its own.
        self.scheduler = scheduler
        self.max_sealed_memtables = max_sealed_memtables
        #: Decoded column-slice cache shared by the owning environment's
        #: datasets (:class:`repro.cache.ColumnSliceCache`), or None.  The
        #: index only *invalidates* it (:meth:`_evict_slices`); population
        #: happens on the scan path via ``component_source``.
        self.column_cache = column_cache
        self.memory_component = InMemoryComponent()
        #: Sealed (immutable, flush-pending) memtables, oldest first: what
        #: every flush consumes.  Flushed strictly in order so component
        #: sequence numbers keep encoding recency.
        # guarded-by: _rotation_cond
        self.sealed_memtables: List[SealedMemtable] = []
        #: On-disk components, newest first.
        self.components: List[OnDiskComponent] = []
        self.secondary_indexes: List[SecondaryIndexDef] = []
        #: (component list, statistics) by index (:meth:`secondary_statistics`).
        self._statistics: Dict[SecondaryIndexDef, Tuple[List[OnDiskComponent], Any]] = {}
        self.stats = IngestStats()
        # Lifecycle counters in the shared metrics registry: cross-partition
        # totals of what each index's self.stats keeps.
        metrics = metrics if metrics is not None else get_registry()
        for field in ("flushes", "merges", "bytes_flushed", "bytes_merged",
                      "ingest_stall_seconds"):
            metrics.counter(f"lsm_{field}").follow(self, self.stats, field)
        self._seals_metric = metrics.counter("lsm_memtable_seals")
        self._sealed_gauge = metrics.gauge("lsm_sealed_memtables")
        self._next_sequence = 0
        # Reader bookkeeping: scans/probes snapshot the component list, so a
        # merge must not delete merged-away component *files* while any
        # reader's snapshot may still reference them.  Deletions observed
        # while readers are active are deferred and drained by the last
        # reader to finish (a lightweight stand-in for AsterixDB's
        # reference-counted component lifecycle).
        self._read_lock = threading.Lock()
        self._active_reads = 0  # guarded-by: _read_lock
        self._deferred_drops: List[OnDiskComponent] = []  # guarded-by: _read_lock
        # Maintenance bookkeeping.  The maintenance lock serializes all
        # structure-mutating operations (flush, merge, CREATE INDEX) of this
        # index — the background pools parallelize *across* partitions,
        # never within one.
        # The rotation condition guards the sealed-memtable list, and is
        # what backpressured writers wait on: a flush notifies it when it
        # pops a sealed memtable, a merge task when it has run.
        self._maintenance_lock = threading.Lock()
        # An explicit plain Lock (not Condition()'s implicit RLock) so the
        # dynamic lock tracker sees rotation acquisitions.
        self._rotation_cond = threading.Condition(threading.Lock())

    # ------------------------------------------------------------------ naming

    def file_prefix(self) -> str:
        """What every component file of this index starts with; the
        component id's ``file_suffix`` follows."""
        return f"{self.name}_p{self.partition}_c"

    # ------------------------------------------------------------------ write path

    def insert(self, key: Any, encoded: bytes) -> None:
        """Insert a new record's encoding (data feeds and loads; key assumed fresh)."""
        self._check_fits_page(key, encoded)
        self._log(LogRecordType.INSERT, key, encoded)
        self.memory_component.put(MemEntry(key, is_antimatter=False, encoded=encoded))
        self.stats.inserts += 1
        self._flush_if_full()

    def delete(self, key: Any) -> None:
        """Delete by key, inserting an anti-matter entry (paper §2.2, §3.2.2)."""
        self._check_fits_page(key, b"")
        if self.flush_callback.needs_antischema:
            antischema = self._antischema_for(key)
            if antischema is _NOT_FOUND:
                raise KeyNotFoundError(f"cannot delete unknown key {key!r}")
        else:
            antischema = None
        self._log(LogRecordType.DELETE, key, b"")
        self.memory_component.put(MemEntry(key, is_antimatter=True, antischema=antischema))
        self.stats.deletes += 1
        self._flush_if_full()

    def upsert(self, key: Any, encoded: bytes) -> None:
        """Upsert = delete (if present) followed by an insert with the same key."""
        self._check_fits_page(key, encoded)
        if self.flush_callback.needs_antischema:
            antischema = self._antischema_for(key)
            if antischema is _NOT_FOUND:
                antischema = None
        else:
            antischema = None
        self._log(LogRecordType.UPSERT, key, encoded)
        self.memory_component.put(
            MemEntry(key, is_antimatter=False, encoded=encoded, antischema=antischema)
        )
        self.stats.upserts += 1
        self._flush_if_full()

    def _antischema_for(self, key: Any):
        """Fetch the anti-schema of the record version ``key`` currently has:
        its stored payload bytes.

        Follows the paper's §3.2.2 maintenance protocol: a point lookup
        retrieves the old record so its schema can be decremented during the
        next flush.  The components' key-hash fences answer the common "key
        does not exist yet" case without reading a page; only a lookup that
        finds a live stored version counts in ``maintenance_point_lookups``.
        """
        entry = self._memory_lookup(key)
        if entry is not None:
            if entry.is_antimatter:
                return _NOT_FOUND
            if self.memory_component.get(key) is entry:
                # The old version only ever lived in the mutable memtable: it
                # was never observed by the schema, so carry forward whatever
                # it was itself carrying.
                return entry.antischema
            # A sealed version *will* be observed by the schema: its flush is
            # ordered before the mutable memtable's flush, so by the time this
            # new entry's anti-schema is processed the old version has been
            # counted — decrement it like a disk-resident version, by the
            # bytes the schema will observe.
            return entry.encoded

        # Guarded like the query paths: with background maintenance a merge
        # worker may retire components concurrently with this writer-thread
        # lookup, and the read guard keeps the snapshotted components' files
        # alive until the lookup finishes.
        with self.read_guard():
            result = self._search_disk(key)
            if result is None:
                return _NOT_FOUND
            self.stats.maintenance_point_lookups += 1
            return result.payload

    def _memory_lookup(self, key: Any) -> Optional[MemEntry]:
        """Newest in-memory version of ``key``: mutable, then sealed memtables."""
        entry = self.memory_component.get(key)
        if entry is not None:
            return entry
        for sealed in reversed(list(self.sealed_memtables)):  # newest first
            entry = sealed.memtable.get(key)
            if entry is not None:
                return entry
        return None

    def _check_fits_page(self, key: Any, encoded: bytes) -> None:
        """Reject an entry no leaf page can hold, where it arrives.

        What a flush writes is never larger than ``encoded`` (compaction only
        removes inline field names), so an entry that passes here can always
        be persisted; one that does not would fail every flush of its
        memtable, which is re-queued on failure — wedging the partition.  A
        key the codec cannot encode as a primary key (a boolean, an integer
        outside int64, ``bytes``, which it writes as an index key) raises
        :class:`~repro.errors.EncodingError`, as from :func:`leaf_head`, the
        head the bulk loader packs; a delete is checked with an empty value.
        """
        if isinstance(key, bytes):
            raise EncodingError(f"primary key {key[:16]!r} is bytes: only an index key can be")
        size = LEAF_HEADER_SIZE + len(leaf_head(key, False, len(encoded))) + len(encoded)
        if size > self.buffer_cache.page_size:
            raise RecordTooLargeError(
                f"record for key {key!r} needs {size} bytes of a leaf page, "
                f"the page size is {self.buffer_cache.page_size}")

    def _log(self, record_type: LogRecordType, key: Any, payload: bytes) -> None:
        if self.wal is not None:
            self.wal.append(record_type, self.name, self.partition, key=key, payload=payload)

    def _flush_if_full(self) -> None:
        if self.memory_component.size_bytes >= self.memory_budget:
            self._submit_or_run(self._rotate)

    # ------------------------------------------------------------------ where maintenance runs

    def _submit_or_run(self, ready: Callable[[], bool], merge: bool = False) -> None:
        """Run one flush or merge task — the only place that decides where.

        While a scheduler is configured and accepting work, ``ready()``
        says whether there is work (False = nothing to do), the scheduler
        counts the submission and a worker runs the task; the scheduler
        retries its transient failures and latches the rest.  Otherwise —
        no scheduler, a closed one, or one that closed between the check
        and the submission — the same work runs right here through the
        public :meth:`flush` / :meth:`maybe_merge`, and a failure reaches
        the caller directly: un-retried and un-latched.
        """
        scheduler = self.scheduler
        if scheduler is not None and not scheduler.closed:
            if not ready():
                return
            try:
                if merge:
                    scheduler.submit_merge(self, self._background_merge)
                else:
                    scheduler.submit_flush(self, self._background_flush)
                return
            except SchedulerError:
                pass
        (self.maybe_merge if merge else self.flush)()

    # ------------------------------------------------------------------ seal -> build -> install

    def _seal(self) -> bool:
        """Move the mutable memtable to the sealed queue; False when empty.

        # requires-lock: _rotation_cond
        """
        if self.memory_component.is_empty:
            return False
        # Ordering contract with readers: the memtable is appended to the
        # sealed list *before* the fresh mutable one is installed, and
        # readers snapshot the mutable memtable *before* the sealed list —
        # so every entry is visible in at least one snapshot (duplicates
        # reconcile by recency rank).
        self.sealed_memtables.append(SealedMemtable(
            self.memory_component, self.wal.last_lsn if self.wal is not None else 0))
        self.memory_component = InMemoryComponent()
        self._seals_metric.inc()
        self._sealed_gauge.set(len(self.sealed_memtables))
        return True

    def _rotate(self) -> bool:
        """Seal the mutable memtable for a flush worker, after backpressure.

        Writer backpressure (AsterixDB-style) lives here: when the sealed
        queue is at ``max_sealed_memtables``, or merge debt has piled past
        :data:`MAX_MERGE_DEBT` components while a merge is pending, the
        writer blocks until the workers catch up.  A failed background
        operation surfaces as :class:`~repro.errors.SchedulerError` instead
        of hanging.
        """
        stall_started: Optional[float] = None
        with self._rotation_cond:
            while (len(self.sealed_memtables) >= self.max_sealed_memtables
                   or self._merge_debt_exceeded()):
                self.scheduler.raise_if_failed()
                if stall_started is None:
                    stall_started = time.perf_counter()
                self._rotation_cond.wait(timeout=0.05)
            if stall_started is not None:
                stalled = time.perf_counter() - stall_started
                self.stats.ingest_stall_seconds += stalled
            return self._seal()

    def _merge_debt_exceeded(self) -> bool:
        """True while components have piled up past the debt cap and a merge
        is pending — never true without a merge in flight (no deadlock)."""
        return (len(self.components) >= MAX_MERGE_DEBT
                and self.scheduler.pending(self, "merge") > 0)

    def flush(self, fail_before_footer: bool = False) -> Optional[OnDiskComponent]:
        """Persist everything in memory: a synchronous barrier.

        Waits out in-flight maintenance, seals the mutable memtable,
        persists every sealed memtable oldest first on the caller's thread
        (including one a failed earlier flush left behind), and waits again
        so a merge handed to the scheduler has settled before returning —
        ``flush_all()`` and feed ``close()`` see the same state wherever
        maintenance runs.  Returns the newest component written, if any.
        """
        self.drain_maintenance()
        with self._rotation_cond:
            self._seal()
        component = None
        with self._maintenance_lock:
            while self.sealed_memtables:
                component = self._flush_oldest_sealed(fail_before_footer)
        self.drain_maintenance()
        return component

    def _flush_oldest_sealed(self, fail_before_footer: bool = False) -> Optional[OnDiskComponent]:
        """Persist the oldest sealed memtable; caller holds the maintenance lock.

        Flush tasks are anonymous — whoever runs one takes the *oldest*
        sealed memtable, so per-index flush order matches seal order (and
        component sequence numbers keep encoding recency) even with several
        flush workers.
        """
        with self._rotation_cond:
            if not self.sealed_memtables:
                return None
            sealed = self.sealed_memtables[0]
        component = self._flush_memtable(sealed.memtable, sealed.up_to_lsn, fail_before_footer)
        # Pop only after the on-disk component is installed (and while still
        # holding the maintenance lock, so the next flush cannot observe this
        # memtable again): readers always find the entries in the sealed
        # snapshot or the component snapshot.  The merge comes after the pop,
        # so a merge that fails inline cannot make a retry flush it twice.
        with self._rotation_cond:
            self.sealed_memtables.pop(0)
            self._sealed_gauge.set(len(self.sealed_memtables))
            self._rotation_cond.notify_all()
        self._submit_or_run(self._wants_merge, merge=True)
        return component

    def _flush_memtable(self, memtable: InMemoryComponent, up_to_lsn: int,
                        fail_before_footer: bool = False) -> OnDiskComponent:
        """Turn one immutable memtable into the next on-disk component.

        ``up_to_lsn`` is the last WAL position the memtable covers (recorded
        at seal time; 0 for a bulk load, whose rows were never logged).
        """
        component_id = ComponentId.flushed(self._next_sequence)
        callback = self.flush_callback

        def produce():
            callback.begin_flush(component_id)
            leaf_entries: List[LeafEntry] = []
            for entry in memtable.sorted_entries():
                if entry.antischema is not None:
                    callback.process_antischema(entry.antischema)
                if entry.is_antimatter:
                    leaf_entries.append(LeafEntry(entry.key, b"", is_antimatter=True))
                else:
                    payload = callback.transform_record(entry.key, entry.encoded)
                    leaf_entries.append(LeafEntry(entry.key, payload, is_antimatter=False))
            schema_bytes, schema = callback.end_flush()
            if self.wal is not None:
                self.wal.append(LogRecordType.FLUSH_START, self.name, self.partition)
            return leaf_entries, schema_bytes, schema, None

        def truncate_log():
            # Per-partition truncation: the log is shared across partitions,
            # and only the sealed prefix of *this* partition's records is
            # covered by the new component — entries logged after the seal
            # live in newer memtables.  Truncating before the install is
            # safe — the component's validity bit is already on disk — and
            # keeps the install the last, infallible step.
            self.wal.append(LogRecordType.FLUSH_END, self.name, self.partition)
            self.wal.truncate_partition(self.name, self.partition, up_to_lsn)

        return self._build_and_install(
            component_id, produce, commit=truncate_log if self.wal is not None else None,
            fail_before_footer=fail_before_footer)

    def _build_and_install(self, component_id: ComponentId,
                           produce: Callable[[], Tuple[List[LeafEntry], bytes, Optional[InferredSchema],
                                                       Optional[Dict[str, List[LeafEntry]]]]],
                           replacing: Sequence[OnDiskComponent] = (),
                           commit: Optional[Callable[[], None]] = None,
                           fail_before_footer: bool = False) -> OnDiskComponent:
        """The one way a primary component comes into existence.

        Flush, bulk load and merge differ only in what they feed this:
        ``produce()`` returns the sorted leaf entries, the schema to persist
        (a flush grows the callback's state on the way) and — from a merge
        only — each secondary index's prepared entries
        (:meth:`OnDiskComponent.attach_auxiliaries`); ``commit()`` is the
        caller's last fallible step, and ``replacing`` names the components
        the new one supersedes — a merge's inputs; empty for a flush or
        load, which add one.

        Everything before the install is rolled back on failure (callback
        state restored, every partial file deleted), so the caller — or the
        scheduler — can retry from scratch.  The one exception is the
        simulated crash (``fail_before_footer``), which must leave its
        partial file behind for recovery: a crashed process cannot clean up.
        """
        callback = self.flush_callback
        callback_state = callback.snapshot_state()
        file_name = self.file_prefix() + component_id.file_suffix
        with _tracer.span("lsm.merge" if replacing else "lsm.flush", index=self.name,
                          partition=self.partition, inputs=len(replacing)) as span:
            try:
                entries, schema_bytes, schema, secondary = produce()
                self._evict_slices(file_name)
                metadata = ComponentWriter(self.buffer_cache, file_name).write(
                    component_id, entries, schema_bytes, fail_before_footer=fail_before_footer)
                component = OnDiskComponent(component_id, file_name, self.buffer_cache,
                                            metadata, schema=schema, valid=True)
                component.attach_auxiliaries(self.secondary_indexes, entries, secondary)
                if commit is not None:
                    commit()
            except BaseException:
                callback.restore_state(callback_state)
                if not fail_before_footer:
                    delete_component_files(self.buffer_cache, file_name)
                raise

            # Commit point: pure in-memory bookkeeping, nothing below can
            # fail, so a retried task never observes a half-committed
            # operation.  The new list goes in with a single assignment, so
            # a concurrent scan snapshotting `self.components` never sees an
            # intermediate state (some inputs removed, result not yet in).
            replaced = {id(existing) for existing in replacing}
            position = next((index for index, existing in enumerate(self.components)
                             if id(existing) in replaced), 0)
            components = [existing for existing in self.components if id(existing) not in replaced]
            components.insert(position, component)
            self.components = components
            for existing in replacing:
                self._drop_component(existing)
            size = component.size_bytes()
            if replacing:
                self.stats.merges += 1
                self.stats.bytes_merged += size
            else:
                self._next_sequence += 1
                self.stats.flushes += 1
                self.stats.bytes_flushed += size
            span.set_attribute("component", file_name)
            span.set_attribute("bytes", size)
        return component

    # ------------------------------------------------------------------ on a worker

    def _wants_merge(self) -> bool:
        """Whether the merge policy would merge the current components."""
        return len(self.merge_policy.select_merge(self.components)) >= 2

    def _background_flush(self) -> None:
        """Flush the oldest sealed memtable (runs on a flush worker)."""
        with self._maintenance_lock, self._maintenance_io_scope():
            self._flush_oldest_sealed()

    def _background_merge(self) -> None:
        """Re-evaluate the merge policy and merge (runs on a merge worker),
        then wake writers a merge debt holds back."""
        try:
            with self._maintenance_lock, self._maintenance_io_scope():
                self.maybe_merge()
        finally:
            with self._rotation_cond:
                self._rotation_cond.notify_all()

    def _maintenance_io_scope(self):
        """Tag this worker's device traffic with the "maintenance" I/O class."""
        return self.buffer_cache.file_manager.device.io_class_scope("maintenance")

    def resume_maintenance(self) -> int:
        """Give every orphaned sealed memtable a flush task again.

        When a background flush exhausts its retry budget, its task dies with
        the sealed memtable still queued and nothing would ever flush it.
        Called by :meth:`~repro.core.dataset.Dataset.resume_maintenance`
        after ``clear_failure()``; returns the number of orphans it found:
        sealed memtables beyond the flushes the scheduler still has pending.
        """
        scheduler = self.scheduler
        with self._rotation_cond:
            pending = scheduler.pending(self, "flush") if scheduler is not None else 0
            orphaned = max(0, len(self.sealed_memtables) - pending)
        for _ in range(orphaned):
            self._submit_or_run(_ready)
        return orphaned

    def drain_maintenance(self) -> None:
        """Block until no submitted flush or merge of this index is outstanding.

        The deterministic quiescence point of the lifecycle:
        ``Dataset.close()``/``flush_all()`` call this so post-drain state
        (component counts, stats, WAL) is the same wherever maintenance
        runs.  Raises :class:`~repro.errors.SchedulerError` if maintenance
        failed — also after the fact: an abandoned submission stops being
        pending but leaves the failure latched.  Without a scheduler every
        task ran on its caller, so there is nothing to wait for.
        """
        if self.scheduler is not None:
            self.scheduler.drain(self)

    # ------------------------------------------------------------------ bulk load

    def load(self, rows: Sequence[Tuple[Any, bytes]]) -> Optional[OnDiskComponent]:
        """Bulk-load pre-encoded records into a single on-disk component.

        This is AsterixDB's LOAD path (paper §4.3): the rows are sorted by
        primary key, the B+-tree is built bottom-up in one pass, and the
        tuple compactor infers the schema and compacts records during that
        pass, leaving one component with one schema.  It is a flush of a
        memtable that was never logged (loads are not logged in AsterixDB
        either) and never visible: a failed load leaves nothing behind.
        """
        if not self.memory_component.is_empty or self.sealed_memtables or self.components:
            raise ComponentStateError("bulk load requires an empty index")
        memtable = InMemoryComponent()
        for key, encoded in rows:
            if memtable.get(key) is not None:
                raise DuplicateKeyError(f"bulk load saw duplicate primary key {key!r}")
            self._check_fits_page(key, encoded)
            memtable.put(MemEntry(key, is_antimatter=False, encoded=encoded))
        if memtable.is_empty:
            return None
        with self._maintenance_lock:
            component = self._flush_memtable(memtable, up_to_lsn=0)
        self.stats.inserts += len(memtable)
        return component

    # ------------------------------------------------------------------ merge

    def maybe_merge(self) -> Optional[OnDiskComponent]:
        """Ask the merge policy whether to merge; perform the merge if so."""
        selected = self.merge_policy.select_merge(self.components)
        if len(selected) < 2:
            return None
        return self.merge(selected)

    def merge(self, selected: Sequence[OnDiskComponent]) -> OnDiskComponent:
        """Merge ``selected`` (contiguous, newest first) into one component.

        For duplicate keys the entry from the most recent component wins; a
        winning anti-matter entry annihilates the older record and is itself
        dropped when nothing older than the merged range remains — otherwise
        it must keep shadowing (paper Figure 4b).  A merge mutates nothing
        until the install, so the inputs stay live if it fails and a retried
        merge task re-selects from scratch.

        The reconcile also records which input each surviving live key came
        from, and every merged secondary tree is derived from the inputs'
        trees of the same index (:func:`merged_secondary_entries`): no
        payload is opened to re-extract an indexed value.
        """
        selected = list(selected)
        for component in selected:
            if not component.valid:
                raise ComponentStateError("cannot merge an INVALID component")
        merged_id = ComponentId.merged([component.component_id for component in selected])
        oldest_selected = min(component.component_id for component in selected)
        keep_antimatter = any(component.component_id < oldest_selected
                              for component in self.components)

        def produce():
            entries: List[LeafEntry] = []
            winners: Dict[Any, int] = {}  # live key -> rank of the input it survives from
            for rank, leaf, start, stop in _reconcile([component.leaves()
                                                       for component in selected]):
                for entry in leaf.entries(start, stop):
                    if not entry.is_antimatter:
                        winners[entry.key] = rank
                    elif not keep_antimatter:
                        continue
                    entries.append(entry)
            secondary = {definition.name: merged_secondary_entries(selected, definition.name, winners)
                         for definition in self.secondary_indexes}
            schema_bytes, schema = self.flush_callback.select_merge_schema(selected)
            return entries, schema_bytes, schema, secondary

        return self._build_and_install(merged_id, produce, replacing=selected)

    def _drop_component(self, component: OnDiskComponent) -> None:
        with self._read_lock:
            self._deferred_drops.append(component)
        self._drain_drops()

    def _drain_drops(self) -> None:
        """Delete the files of dropped components no reader can still hold.

        A concurrent scan/probe may still hold a merged-away component in
        its snapshot; it stays readable (and VALID) until the last reader
        finishes and deletes its files here — the moral equivalent of
        AsterixDB's ref-counted component lifecycle.
        """
        with self._read_lock:
            if self._active_reads:
                return
            drained, self._deferred_drops = self._deferred_drops, []
        for component in drained:
            component.valid = False
            # Evict decoded slices before the files go away: a cached read
            # must never resurrect a merged-away component.
            self._evict_slices(component.file_name)
            delete_component_files(self.buffer_cache, component.file_name)

    def _evict_slices(self, file_name: str) -> None:
        """Drop a component file's decoded column slices: the one eviction
        hook, called when the component leaves the tree (drop), when it is
        quarantined, and before a component file of that name is written —
        a dataset re-created under the same name writes the same file names
        again, and slices of the old files must not describe the new ones."""
        if self.column_cache is not None:
            self.column_cache.invalidate_component(file_name)

    @contextmanager
    def read_guard(self):
        """Mark a component-list reader as active for the enclosed block.

        Ordering contract with :meth:`merge`: readers increment the counter
        *before* snapshotting ``self.components``; merge swaps the list
        *before* checking the counter in :meth:`_drain_drops`.  Any
        snapshot that can still reference a merged-away component was
        therefore taken by a reader the merge sees as active, and the
        component's files are deferred instead of deleted mid-read.
        """
        with self._read_lock:
            self._active_reads += 1
        try:
            yield
        finally:
            with self._read_lock:
                self._active_reads -= 1
            self._drain_drops()

    # ------------------------------------------------------------------ auxiliary indexes

    def add_secondary_index(self, definition: SecondaryIndexDef) -> None:
        """Register a secondary index, backfilling existing on-disk components.

        Newly flushed/merged components index themselves as they are built;
        components that already exist are scanned once here so that
        ``CREATE INDEX`` works on datasets with data (AsterixDB's bulk
        secondary-index build).  Backfill and registration happen under the
        maintenance lock, so a flush or merge in flight either installs its
        component before the backfill sees the list or builds it against
        the new definition list — never a live component without the tree.
        """
        self.drain_maintenance()
        with self._maintenance_lock:
            if self.secondary_index_def(definition.name) is not None:
                raise ComponentStateError(f"secondary index {definition.name!r} already exists")
            try:
                for component in self.components:
                    component.attach_auxiliaries([definition], list(component.scan()))
            except Exception:
                # Atomic create: a backfill failure (a write fault, a payload
                # the extractor cannot read) must not leave a half-built index.
                for component in self.components:
                    component.drop_secondary_index(definition.name)
                raise
            self.secondary_indexes.append(definition)

    def secondary_index_def(self, index_name: str) -> Optional[SecondaryIndexDef]:
        for definition in self.secondary_indexes:
            if definition.name == index_name:
                return definition
        return None

    def secondary_statistics(self, index_name: str):
        """Aggregated field statistics of one index across live components.

        Per-component statistics are summed, so the total reflects the
        entries actually present in the index's trees — merges replace the
        merged-away components' contribution instead of double-counting.
        Keys shadowed across components (or by unflushed memtable writes)
        still contribute once per indexed version; the cost model only needs
        an estimate.  Returns None for an unknown index.

        Derived once per component list (flush, merge and recovery install
        a new one) and shared: read it, never mutate it.
        """
        definition = self.secondary_index_def(index_name)
        if definition is None:
            return None
        components = self.components
        cached = self._statistics.get(definition)
        if cached is not None and cached[0] is components:
            return cached[1]
        from ..datasets.stats import FieldStatistics

        merged = FieldStatistics(field_path=definition.field_path or ())
        for component in components:
            merged = merged.merge(component.secondary_stats[index_name])
        self._statistics[definition] = (components, merged)
        return merged

    def secondary_candidate_keys(self, index_name: str, low: Any, high: Any,
                                 low_inclusive: bool = True,
                                 high_inclusive: bool = True) -> Set[Any]:
        """Distinct primary keys of which some version — in a memtable,
        mutable or sealed, or in a component's ``.ix`` tree — has its indexed
        value in the given range.

        The bounds are encoded once, as one interval of index keys
        (:func:`index_key_range`); a memtable is judged by its column of the
        index's keys (:meth:`InMemoryComponent.secondary_keys`), a component
        by :meth:`OnDiskComponent.secondary_keys`: the same byte comparisons.
        Candidates, not answers: a key may have been re-written or deleted
        since the version that placed it in the range, so callers must look
        up its *newest* version and re-check the predicate (the executor's
        residual filter does exactly that).  The snapshots are taken in
        :meth:`scan`'s order, so a concurrent flush cannot hide a version.
        """
        definition = self.secondary_index_def(index_name)
        if definition is None:
            raise KeyNotFoundError(f"unknown secondary index {index_name!r}")
        keys: Set[Any] = set()
        bounds = index_key_range(low, high, low_inclusive, high_inclusive)
        if bounds is None:  # e.g. bounds of two ranks: no value lies between them
            return keys
        for memtable in self._memtables():
            keys.update(memtable.secondary_keys(definition, *bounds))
        components = list(self.components)
        self._raise_if_quarantined(components)
        for component in components:
            try:
                keys.update(component.secondary_keys(index_name, *bounds))
            except CorruptPageError as exc:
                self._quarantine_component(component, exc)
        return keys

    def probe(self, index_name: str, low: Any, high: Any, low_inclusive: bool = True,
              high_inclusive: bool = True) -> Iterator[SearchResult]:
        """Index-probe candidates in primary-key order, as a scan yields them.

        Yields the newest live version of every key
        :meth:`secondary_candidate_keys` returns, looked up newest first:
        the memtables, then the components.  Only in-range memtable entries
        become candidates; an entry's indexed value is extracted once, by
        the first probe that needs it, into its memtable's column.  The stream
        is a *superset* of the true answer (Luo & Carey's validation):
        callers must re-apply the predicate, because a candidate's newest
        version may no longer satisfy it.  One read guard spans the
        candidate keys and the lookups.
        """
        with self.read_guard():
            keys = sorted(self.secondary_candidate_keys(index_name, low, high,
                                                        low_inclusive, high_inclusive))
            for key in keys:
                entry = self._memory_lookup(key)
                if entry is None:
                    result = self._search_disk(key)
                    if result is not None:
                        yield result
                elif not entry.is_antimatter:
                    yield SearchResult(key, entry.encoded)

    # ------------------------------------------------------------------ read path

    def search(self, key: Any) -> Optional[SearchResult]:
        """Point lookup: memtable first, then components newest to oldest.

        The disk lookup is guarded like scans: the component-list snapshot
        inside ``_search_disk`` must keep its files alive across a concurrent
        merge.  A memtable hit reads no file.  A key a flush moves between
        the two lookups is found on disk: the flush installs its component
        before it drops the sealed memtable.
        """
        entry = self._memory_lookup(key)
        if entry is not None:
            return None if entry.is_antimatter else SearchResult(key, entry.encoded)
        with self.read_guard():
            return self._search_disk(key)

    def _search_disk(self, key: Any) -> Optional[SearchResult]:
        components = list(self.components)
        self._raise_if_quarantined(components)
        for component in components:
            try:
                found = component.search(key)
            except CorruptPageError as exc:
                self._quarantine_component(component, exc)
            if found is None:
                continue
            if found.is_antimatter:
                return None
            return SearchResult(key, found.value, component.schema)
        return None

    # ------------------------------------------------------------------ quarantine

    def quarantined_components(self) -> Dict[str, str]:
        """Quarantined live components' file names with their failure reasons."""
        return {component.file_name: component.quarantine_reason
                for component in list(self.components)
                if component.quarantine_reason is not None}

    def _raise_if_quarantined(self, components: Sequence[OnDiskComponent]) -> None:
        """Fail fast when a read snapshot includes a quarantined component.

        A query whose snapshot needs a corrupt, replica-less component can
        only be answered wrong; the typed error is the correct outcome.
        """
        for component in components:
            if component.quarantine_reason is not None:
                raise component.quarantined_error()

    def _quarantine_component(self, component: OnDiskComponent,
                              exc: CorruptPageError) -> None:
        """Record a corrupt component and surface the typed error."""
        self.quarantine(component, exc)
        raise component.quarantined_error() from exc

    def quarantine(self, component: OnDiskComponent, exc: CorruptPageError) -> None:
        """Record ``component`` as corrupt: every later read touching it
        raises :class:`~repro.errors.QuarantinedComponentError`.  Recovery
        calls this for a component it could not re-open whole."""
        with self._read_lock:
            first_offender = component.quarantine_reason is None
            component.quarantine_reason = str(exc)
        if first_offender:
            # A corrupt component's decoded slices must not outlive its
            # quarantine: evict them so every later read goes through
            # _raise_if_quarantined instead of a warm cache.
            self._evict_slices(component.file_name)
            emit_event(COMPONENT_QUARANTINED, dataset=self.name,
                       partition=self.partition, component=component.file_name,
                       reason=str(exc))

    def scan(self, component_source=None) -> Iterator[Tuple[Optional[OnDiskComponent], Any, int, int]]:
        """Full scan in key order, as live runs: ``(component, run, start,
        stop)`` says rows ``start .. stop - 1`` of ``run`` are the newest
        versions of their keys, none of them anti-matter.

        A run is a key-sorted slice of one source that no other source
        interleaves (see :func:`_reconcile`): a :class:`MemtableRun`
        (``component`` is None), or a run ``component_source`` yields for
        an on-disk ``component`` — by default its B+-tree leaves
        (:class:`~repro.btree.pages.LeafNode`).  ``component_source`` is the
        column-slice cache hook: its runs must cover the component's rows in
        key order, each with ``keys`` and ``antimatter`` like a leaf.

        All sources are snapshotted up front so the scan stays consistent
        while a concurrent flush runs, and the order matters: the mutable
        memtable first (sealing appends to the sealed list *before*
        installing a fresh mutable memtable), then the sealed memtables (a
        flush installs the on-disk component *before* popping the sealed
        source), then the component list — so a scan sees every entry in at
        least one snapshot (duplicates reconcile by recency rank), never in
        none.  The read guard keeps concurrent merges from deleting
        snapshotted components' files while this generator is live.
        """
        with self.read_guard():
            memory_runs = [MemtableRun(memtable.snapshot()) for memtable in self._memtables()]
            components = list(self.components)
            self._raise_if_quarantined(components)
            runs_of = component_source or OnDiskComponent.leaves

            def component_runs(component: OnDiskComponent):
                try:
                    yield from runs_of(component)
                except CorruptPageError as exc:
                    self._quarantine_component(component, exc)

            # Sources newest first: mutable memtable, sealed memtables, then
            # components; a source's position is its recency rank.
            sources: List[Any] = [[run] for run in memory_runs]
            sources.extend(component_runs(component) for component in components)
            owners: List[Optional[OnDiskComponent]] = [None] * len(memory_runs) + components
            for rank, run, start, stop in _reconcile(sources):
                antimatter = run.antimatter
                if antimatter:  # a winning anti-matter row hides its key
                    for position in antimatter[bisect_left(antimatter, start):]:
                        if position >= stop:
                            break
                        if position > start:
                            yield owners[rank], run, start, position
                        start = position + 1
                if start < stop:
                    yield owners[rank], run, start, stop

    # ------------------------------------------------------------------ inspection

    def storage_size(self) -> int:
        """Total on-disk bytes of the valid components' primary B+-tree
        files.  Secondary-index files are not counted."""
        return sum(component.size_bytes() for component in self.components)

    def component_count(self) -> int:
        return len(self.components)

    def _memtables(self) -> List[InMemoryComponent]:
        """The in-memory components, newest first: the mutable memtable is
        taken *before* the sealed list (see :meth:`scan`)."""
        memtables = [self.memory_component]
        memtables.extend(sealed.memtable for sealed in reversed(list(self.sealed_memtables)))
        return memtables

    def record_count(self) -> int:
        """Live records across disk components and the memtables, from their
        counters: no page reads, no sort.  A key in memory counts once, when
        its newest version is live (sealed memtables' keys are checked
        against newer memtables'); one in several components, or in a
        component and a memtable, counts once per copy."""
        disk = sum(component.record_count for component in list(self.components))
        memtables = self._memtables()
        memory = memtables[0].live
        newer: Set[Any] = set()
        for newest, older in zip(memtables, memtables[1:]):
            newer.update(newest.keys())
            memory += older.live_outside(newer)
        return disk + memory

    def exact_count(self) -> int:
        """Exact number of live records (reconciles shadowed/deleted keys)."""
        return sum(stop - start for _, _, start, stop in self.scan())


_NOT_FOUND = object()


def _ready() -> bool:
    """The ``ready`` check of a submission that always has work."""
    return True


def _reconcile(sources: Sequence[Iterable[Any]]) -> Iterator[Tuple[int, Any, int, int]]:
    """Newest-wins merge of key-sorted runs: the one reconcile scans, counts
    and merges share.

    ``sources`` are ordered newest first (a source's position is its recency
    rank); each yields *runs* in key order — objects whose ``keys`` list is
    sorted, unique, and above every key of the source's earlier runs.
    Yields ``(rank, run, start, stop)``: rows ``start .. stop - 1`` of one
    run of source ``rank`` are the newest versions of their keys, and the
    slices arrive in key order.  Anti-matter winners are included; what to
    do with one is the consumer's call (a scan hides the key, a merge keeps
    the entry while anything older remains).

    Each step emits the largest slice of the smallest head whose keys sit
    below every other source's head key, found by one bisect.  A key that
    heads several sources is resolved newest first, one key at a time: the
    newest row is emitted and every older source steps past it.
    """
    cursors: List[List[Any]] = []  # per rank: [run, position, remaining runs]
    heap: List[Tuple[Any, int]] = []  # (head key, rank); ranks are distinct

    def advance(rank: int, position: int) -> None:
        cursor = cursors[rank]
        run = cursor[0]
        if run is None or position >= len(run.keys):
            run = next((run for run in cursor[2] if run.keys), None)
            if run is None:
                return
            cursor[0], position = run, 0
        cursor[1] = position
        heapq.heappush(heap, (run.keys[position], rank))

    for rank, source in enumerate(sources):
        cursors.append([None, 0, iter(source)])
        advance(rank, 0)
    while heap:
        key, rank = heapq.heappop(heap)
        run, start = cursors[rank][0], cursors[rank][1]
        if not heap:
            stop = len(run.keys)
        elif heap[0][0] == key:
            stop = start + 1
            while heap and heap[0][0] == key:
                _, older = heapq.heappop(heap)
                advance(older, cursors[older][1] + 1)
        else:
            stop = bisect_left(run.keys, heap[0][0], start + 1)
        yield rank, run, start, stop
        advance(rank, stop)

