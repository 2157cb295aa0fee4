"""LSM components: the mutable in-memory component and immutable on-disk ones.

The in-memory component accumulates inserts, deletes (anti-matter entries),
and upserts until its encoded size exceeds the configured memory budget; a
flush then turns it into an on-disk component — an immutable B+-tree page
file followed by a metadata section and a one-page footer.

The footer doubles as the paper's *validity bit* (§2.2): it is the very last
page written during a flush or merge, so a component file without a
complete, well-formed footer is exactly an INVALID component and is removed
during crash recovery.  The metadata section holds the B+-tree shape, the
key range, basic statistics, and — for datasets with the tuple compactor
enabled — the serialized schema snapshot that covers the component
(paper §3.1: "the component's inferred in-memory schema is persisted in the
component's Metadata Page before setting the component as VALID").

The component owns what hangs off it: its secondary index trees
(:meth:`OnDiskComponent.attach_auxiliaries` builds or re-opens them; only
this module knows their file names), each index's field statistics, its
key-hash fence, the reason it was quarantined, and how its files die
(:func:`delete_component_files`).

The *key-hash fence* is the sorted ``hash()`` of every key the primary tree
holds, anti-matter keys included: one ``array("q")`` per component, 8 bytes
a key, kept in memory only (``str`` hashes differ between processes) and
rebuilt from the primary tree's leaves when a component is re-opened.
Equal keys hash equal, so a key whose hash is not in the fence is not in
the tree: :meth:`OnDiskComponent.search` answers it without reading a page.
A collision (``hash(-1) == hash(-2)``) only costs the descent it would have
cost anyway.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..btree import BTree, BTreeInfo, BulkLoader, LeafEntry
from ..btree.keycodec import decode_key, encode_key, index_primary_key
from ..btree.pages import LeafNode
from ..errors import ComponentStateError, QuarantinedComponentError, StorageError
from ..schema import InferredSchema
from ..storage.buffer_cache import BufferCache
from ..types import index_key
from ..types.values import index_value_end
from .component_id import ComponentId

_FOOTER_MAGIC = 0x4C534D43  # "LSMC"
_FOOTER = struct.Struct("<IIIII")  # magic, valid, metadata_start, metadata_pages, metadata_length

#: What follows a component's own file name, before the index's name, in a
#: secondary index file's name.
_IX_INFIX = ".ix."

#: The sort key of memtable and leaf entries alike.
_ENTRY_KEY = attrgetter("key")


@dataclass
class MemEntry:
    """One entry of the in-memory component."""

    key: Any
    is_antimatter: bool
    #: The record's in-memory encoding (uncompacted): the only form of it
    #: the memtable keeps.
    encoded: bytes = b""
    #: Anti-schema of the record version this entry supersedes (delete/upsert
    #: over a record the schema has counted or will count): that version's
    #: stored payload bytes — compacted from a disk component, uncompacted
    #: from a sealed memtable.  Processed by the tuple compactor at flush
    #: time and never written to disk.
    antischema: Optional[bytes] = None

    @property
    def size_bytes(self) -> int:
        return len(self.encoded) + 64  # entry payload + bookkeeping overhead


class InMemoryComponent:
    """The mutable component receiving all writes (one per partition index).

    It counts its live (not anti-matter) entries as they are put.  For each
    secondary index a probe asks about, it keeps a *column*: key -> the
    :func:`~repro.types.index_key` its entry is filed under.  The first
    probe fills it; then puts log their keys, and a probe re-reads only the
    keys logged since, publishing a new column with one assignment.  The
    log never holds more keys than the memtable has entries: a put that
    would make it longer drops the columns and the log, and the next probe
    fills its column afresh.
    """

    def __init__(self) -> None:
        self._entries: Dict[Any, MemEntry] = {}
        self.size_bytes = 0
        self.live = 0  # entries that are not anti-matter
        #: ``(columns, log)``, replaced as one: ``columns`` maps an index
        #: definition to ``(column, log position it reflects)``, ``None``
        #: while the first probe fills it; ``log`` holds the keys
        #: put since a column was asked for.
        self._columns: Tuple[Dict[Any, Any], List[Any]] = ({}, [])

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def get(self, key: Any) -> Optional[MemEntry]:
        return self._entries.get(key)

    def put(self, entry: MemEntry) -> None:
        existing = self._entries.get(entry.key)
        if existing is not None:
            self.size_bytes -= existing.size_bytes
            self.live -= not existing.is_antimatter
            if existing.is_antimatter and entry.antischema is None:
                # A re-insert over a delete in this memtable: the deleted
                # version's decrement is still owed at this memtable's flush.
                entry.antischema = existing.antischema
        self._entries[entry.key] = entry
        self.size_bytes += entry.size_bytes
        self.live += not entry.is_antimatter
        columns, log = self._columns
        if columns:  # after the store: a probe that misses the log sees the entry
            log.append(entry.key)
            if len(log) > len(self._entries):
                self._columns = ({}, [])

    def snapshot(self) -> List[MemEntry]:
        """The entries, unordered, as a *snapshot*: the copy of the entry
        dict is a single C-level operation (atomic under the GIL), so
        concurrent readers — parallel query workers scanning while another
        partition of the same dataset flushes — never observe a half-mutated
        dict."""
        return list(self._entries.values())

    def keys(self):
        """A live view of the keys.  ``set.update`` and ``&`` over it run in
        C without releasing the GIL, so they see the dict whole, as
        :meth:`snapshot` does."""
        return self._entries.keys()

    def live_outside(self, keys: Set[Any]) -> int:
        """Live entries whose key is not in ``keys`` (of a sealed memtable)."""
        entries = self._entries
        return self.live - sum(1 for key in entries.keys() & keys
                               if not entries[key].is_antimatter)

    def sorted_entries(self) -> List[MemEntry]:
        """A :meth:`snapshot` in key order (the flush path sorts once here)."""
        entries = self.snapshot()
        entries.sort(key=_ENTRY_KEY)
        return entries

    def secondary_keys(self, definition: Any, lo: bytes, hi: bytes) -> List[Any]:
        """Keys whose index key for the secondary index ``definition`` is in
        ``[lo, hi)`` (:func:`~repro.types.index_key_range`): one pass over
        its column."""
        return [key for key, value in self._column(definition).items() if lo <= value < hi]

    def _column(self, definition: Any) -> Dict[Any, bytes]:
        """``definition``'s column, up to date with every finished put."""
        columns, log = self._columns  # a put that drops them leaves these whole
        state = columns.get(definition)
        if state is None:
            # Registered first: a put the snapshot misses is logged past ``done``.
            columns[definition] = None
            done = len(log)
            column: Dict[Any, bytes] = {}
            changed: Iterator[MemEntry] = iter(self.snapshot())
        else:
            column, start = state
            done = len(log)
            if start == done:
                return column
            column = dict(column)
            entries = self._entries
            changed = (entries[key] for key in set(log[start:done]))
        extractor = definition.extractor
        for entry in changed:
            key = None if entry.is_antimatter else index_key(extractor(entry.encoded, None))
            if key is None:
                column.pop(entry.key, None)
            else:
                column[entry.key] = key
        columns[definition] = (column, done)
        return column


@dataclass
class ComponentMetadata:
    """Everything persisted in a component's metadata section."""

    component_id: ComponentId
    btree_info: BTreeInfo
    entry_count: int
    record_count: int
    antimatter_count: int
    min_key: Any = None
    max_key: Any = None
    schema_bytes: bytes = b""

    def to_bytes(self) -> bytes:
        def _key_blob(key: Any) -> bytes:
            if key is None:
                return struct.pack("<I", 0)
            payload = encode_key(key)
            return struct.pack("<I", len(payload)) + payload

        header = struct.pack(
            "<iiIIIIIII",
            self.component_id.min_seq,
            self.component_id.max_seq,
            self.btree_info.root_page,
            self.btree_info.leaf_count,
            self.btree_info.page_count,
            self.btree_info.entry_count,
            self.entry_count,
            self.record_count,
            self.antimatter_count,
        )
        schema_blob = struct.pack("<I", len(self.schema_bytes)) + self.schema_bytes
        return header + _key_blob(self.min_key) + _key_blob(self.max_key) + schema_blob

    @classmethod
    def from_bytes(cls, payload: bytes) -> "ComponentMetadata":
        values = struct.unpack_from("<iiIIIIIII", payload, 0)
        cursor = struct.calcsize("<iiIIIIIII")

        def _read_key(cursor: int) -> Tuple[Any, int]:
            (length,) = struct.unpack_from("<I", payload, cursor)
            cursor += 4
            if length == 0:
                return None, cursor
            key, _ = decode_key(payload, cursor)
            return key, cursor + length

        min_key, cursor = _read_key(cursor)
        max_key, cursor = _read_key(cursor)
        (schema_length,) = struct.unpack_from("<I", payload, cursor)
        cursor += 4
        schema_bytes = payload[cursor:cursor + schema_length]
        return cls(
            component_id=ComponentId(values[0], values[1]),
            btree_info=BTreeInfo(root_page=values[2], leaf_count=values[3],
                                 page_count=values[4], entry_count=values[5]),
            entry_count=values[6],
            record_count=values[7],
            antimatter_count=values[8],
            min_key=min_key,
            max_key=max_key,
            schema_bytes=schema_bytes,
        )


class OnDiskComponent:
    """One immutable, flushed or merged LSM component."""

    def __init__(self, component_id: ComponentId, file_name: str,
                 buffer_cache: BufferCache, metadata: ComponentMetadata,
                 schema: Optional[InferredSchema] = None, valid: bool = False) -> None:
        self.component_id = component_id
        self.file_name = file_name
        self.buffer_cache = buffer_cache
        self.metadata = metadata
        self.schema = schema
        self.valid = valid
        self.btree = BTree(buffer_cache, file_name, metadata.btree_info)
        #: Per secondary index name: this component's opened B+-tree and the
        #: indexed field's statistics for the cost model.  A live component
        #: has a tree for every index registered on its LSM index.
        self.secondary_trees: Dict[str, BTree] = {}
        self.secondary_stats: Dict[str, Any] = {}
        #: The key-hash fence (see the module docstring), set by
        #: :meth:`attach_auxiliaries` before the component goes live.
        self.key_hashes: Optional[array] = None
        #: Why reads of this component fail — one of its pages failed its
        #: CRC32 check — or None.  With no replica to route to, every read
        #: touching a quarantined component raises QuarantinedComponentError:
        #: a typed error beats silently missing rows.
        self.quarantine_reason: Optional[str] = None

    # -- convenience -----------------------------------------------------------------

    @property
    def record_count(self) -> int:
        return self.metadata.record_count

    @property
    def entry_count(self) -> int:
        return self.metadata.entry_count

    def size_bytes(self) -> int:
        return self.buffer_cache.file_manager.file_size(self.file_name)

    def search(self, key: Any) -> Optional[LeafEntry]:
        """The entry stored for ``key`` (anti-matter included) or None; a
        key the fence rules out costs no page read."""
        if not self.valid:
            raise ComponentStateError(f"component {self.component_id} is not VALID")
        hashes = self.key_hashes
        code = hash(key)
        at = bisect_left(hashes, code)
        if at == len(hashes) or hashes[at] != code:
            return None
        return self.btree.search(key)

    def scan(self) -> Iterator[LeafEntry]:
        if not self.valid:
            raise ComponentStateError(f"component {self.component_id} is not VALID")
        return self.btree.scan_all()

    def leaves(self) -> Iterator[LeafNode]:
        """The primary tree's leaves in key order: the component's runs."""
        if not self.valid:
            raise ComponentStateError(f"component {self.component_id} is not VALID")
        return self.btree.leaves()

    def quarantined_error(self) -> QuarantinedComponentError:
        return QuarantinedComponentError(
            f"component {self.file_name} is quarantined: {self.quarantine_reason}",
            component_name=self.file_name)

    # -- auxiliary trees -------------------------------------------------------------

    def attach_auxiliaries(self, definitions: Sequence[Any],
                           entries: Optional[Sequence[LeafEntry]] = None,
                           secondary: Optional[Dict[str, List[LeafEntry]]] = None) -> None:
        """Attach one tree of index keys (:func:`_secondary_entries`) per
        secondary index definition, then build the key-hash fence.

        How each tree's entries are found depends on who built the component:

        * a **flush** or **bulk load** passes ``entries``, the primary tree's
          leaf entries; each secondary tree calls its index's extractor once
          per live entry (the payloads just written);
        * a **merge** also passes ``secondary``, each index's entries already
          prepared from the merged inputs' own trees
          (:func:`merged_secondary_entries`), so no payload is opened;
        * a **CREATE INDEX backfill** passes ``entries`` scanned off the
          primary tree: one extractor call per stored record;
        * **crash recovery** passes neither: a file left VALID before the
          crash is re-opened, and one that is missing or INVALID is rebuilt
          from a scan of the primary tree, which holds everything an
          auxiliary tree does.

        The fence hashes the keys of ``entries``; a re-open that rebuilt no
        tree reads them back off the primary tree's leaves (the keys only:
        no :class:`LeafEntry` is made).  There it can meet a corrupt page:
        the :class:`~repro.errors.CorruptPageError` propagates like any
        other read's, and recovery quarantines the component.

        Secondary trees are written through :class:`ComponentWriter` too,
        so they carry their own footer and metadata and re-open without a
        rebuild.  A failure leaves what was written so far for the caller
        to delete (:func:`delete_component_files`, or
        :meth:`drop_secondary_index` after a failed backfill).
        """
        from ..datasets.stats import FieldStatistics

        reopen = entries is None
        for definition in definitions:
            file_name = self.file_name + _IX_INFIX + definition.name
            metadata = read_component_metadata(self.buffer_cache, file_name) if reopen else None
            if metadata is None:
                if entries is None:
                    entries = list(self.scan())
                derived = (secondary[definition.name] if secondary is not None
                           else _secondary_entries(definition, entries, self.schema))
                metadata = ComponentWriter(self.buffer_cache, file_name).write(
                    self.component_id, derived)
            # The tree is sorted on index keys: the field's least and greatest
            # head the key range its metadata records, beside the count.
            statistics = FieldStatistics(definition.field_path or (), metadata.record_count)
            if metadata.min_key is not None:
                statistics.min_key = metadata.min_key[:index_value_end(metadata.min_key)]
                statistics.max_key = metadata.max_key[:index_value_end(metadata.max_key)]
            self.secondary_trees[definition.name] = BTree(
                self.buffer_cache, file_name, metadata.btree_info)
            self.secondary_stats[definition.name] = statistics
        if entries is None:
            keys = chain.from_iterable(leaf.keys for leaf in self.btree.leaves())
        else:
            keys = map(_ENTRY_KEY, entries)
        self.key_hashes = array("q", sorted(map(hash, keys)))

    def drop_secondary_index(self, index_name: str) -> None:
        """Forget one secondary index: tree, statistics and file, attached or
        half-written — the rollback of a failed CREATE INDEX backfill."""
        self.secondary_trees.pop(index_name, None)
        self.secondary_stats.pop(index_name, None)
        _delete_file(self.buffer_cache, self.file_name + _IX_INFIX + index_name)

    def secondary_tree(self, index_name: str) -> BTree:
        """The tree of one secondary index; every live component has one."""
        tree = self.secondary_trees.get(index_name)
        if tree is None:
            raise ComponentStateError(
                f"component {self.file_name} has no tree for index {index_name!r}")
        return tree

    def secondary_keys(self, index_name: str, lo: bytes, hi: bytes) -> List[Any]:
        """Primary keys whose index key this component files in ``[lo, hi)``
        (:func:`~repro.types.index_key_range`)."""
        return [index_primary_key(entry.key) for entry in
                self.secondary_tree(index_name).range_scan(lo, hi, include_high=False)]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "VALID" if self.valid else "INVALID"
        return f"OnDiskComponent({self.component_id}, {state}, records={self.record_count})"


class ComponentWriter:
    """Builds one on-disk component file: B+-tree, metadata section, footer."""

    def __init__(self, buffer_cache: BufferCache, file_name: str) -> None:
        self.buffer_cache = buffer_cache
        self.file_name = file_name
        self.page_size = buffer_cache.page_size

    def write(self, component_id: ComponentId, entries: List[LeafEntry],
              schema_bytes: bytes = b"",
              fail_before_footer: bool = False) -> ComponentMetadata:
        """Write the whole component; returns its metadata.

        ``fail_before_footer`` aborts just before the footer page is written,
        leaving the component INVALID on disk — used by crash-recovery tests
        to model a crash in the middle of a flush (paper §3.1.2).
        """
        # Component files are write-once; an existing file is a leftover
        # from a failed earlier attempt (e.g. a transient I/O fault mid
        # flush).  Resuming into it would violate the sequential-write
        # invariant, so recreate from scratch — that is what makes
        # flush/merge tasks safely retryable.
        _delete_file(self.buffer_cache, self.file_name)
        self.buffer_cache.file_manager.create_file(self.file_name)
        info = BulkLoader(self.buffer_cache, self.file_name).build(entries)

        record_count = sum(1 for entry in entries if not entry.is_antimatter)
        antimatter_count = len(entries) - record_count
        metadata = ComponentMetadata(
            component_id=component_id,
            btree_info=info,
            entry_count=len(entries),
            record_count=record_count,
            antimatter_count=antimatter_count,
            min_key=entries[0].key if entries else None,
            max_key=entries[-1].key if entries else None,
            schema_bytes=schema_bytes,
        )
        metadata_blob = metadata.to_bytes()
        metadata_start = info.page_count
        metadata_pages = self._write_metadata(metadata_blob, metadata_start)
        if fail_before_footer:
            raise ComponentStateError("simulated crash before component validation")
        footer = _FOOTER.pack(_FOOTER_MAGIC, 1, metadata_start, metadata_pages, len(metadata_blob))
        footer_page = footer + b"\x00" * (self.page_size - len(footer))
        self.buffer_cache.write_page(self.file_name, metadata_start + metadata_pages, footer_page)
        return metadata

    def _write_metadata(self, blob: bytes, start_page: int) -> int:
        pages = 0
        for offset in range(0, max(len(blob), 1), self.page_size):
            chunk = blob[offset:offset + self.page_size]
            page = chunk + b"\x00" * (self.page_size - len(chunk))
            self.buffer_cache.write_page(self.file_name, start_page + pages, page)
            pages += 1
        return pages


def merged_secondary_entries(inputs: Sequence[OnDiskComponent], index_name: str,
                             winners: Dict[Any, int]) -> List[LeafEntry]:
    """A merged component's entries for one secondary index, from its
    inputs' trees of that index: the union, in key order, of every input's
    index keys whose primary key survived the merge from that same input
    (``winners[key]`` is the surviving input's position in ``inputs``; a key
    whose newest version is anti-matter is absent).  The keys are written
    as they were read: bytes in, bytes out.

    Raises :class:`ComponentStateError` when an input has no tree for the
    index (:meth:`OnDiskComponent.secondary_tree`).
    """
    merged: List[bytes] = []
    for position, component in enumerate(inputs):
        merged.extend(key for leaf in component.secondary_tree(index_name).leaves()
                      for key in leaf.keys if winners.get(index_primary_key(key)) == position)
    merged.sort()
    return [LeafEntry(key, b"") for key in merged]


def _secondary_entries(definition: Any, entries: Sequence[LeafEntry],
                       schema: Optional[InferredSchema]) -> List[LeafEntry]:
    """One secondary index's leaf entries for a component: each live entry's
    :func:`~repro.types.index_key` with its primary key's bytes appended, in
    order, key-only — a reader takes the primary key from the key's end."""
    keyed = []
    for entry in entries:
        if entry.is_antimatter:
            continue
        key = index_key(definition.extractor(entry.value, schema))
        if key is not None:
            keyed.append(key + encode_key(entry.key))
    keyed.sort()
    return [LeafEntry(key, b"") for key in keyed]


def _delete_file(buffer_cache: BufferCache, file_name: str) -> None:
    manager = buffer_cache.file_manager
    if manager.exists(file_name):
        buffer_cache.invalidate_file(file_name)
        manager.delete_file(file_name)


def primary_component_files(buffer_cache: BufferCache, prefix: str) -> List[str]:
    """The primary component files under ``prefix`` (an index's
    :meth:`~repro.lsm.LSMBTree.file_prefix`).  A file is auxiliary by what
    follows the component's own name — after the prefix, a component id and
    nothing else — never by a substring of the whole name: a dataset may
    well be called ``logs.pkg``."""
    return [name for name in buffer_cache.file_manager.list_files()
            if name.startswith(prefix) and "." not in name[len(prefix):]]


def delete_component_files(buffer_cache: BufferCache, file_name: str) -> List[str]:
    """Delete a component's primary file and whatever auxiliary files exist
    beside it, attached to a component object or not — the one way a
    component's files go: a dropped (merged-away) component, the clean-up
    after a failed build, and an INVALID component found by recovery.
    Returns the names deleted."""
    doomed = [name for name in buffer_cache.file_manager.list_files()
              if name == file_name or name.startswith(file_name + ".")]
    for name in doomed:
        _delete_file(buffer_cache, name)
    return doomed


def read_component_metadata(buffer_cache: BufferCache, file_name: str) -> Optional[ComponentMetadata]:
    """Load a component's metadata, or ``None`` when the component is INVALID.

    A component is INVALID when its footer page is missing or malformed —
    i.e. the flush/merge that was writing it never completed.
    """
    manager = buffer_cache.file_manager
    if not manager.exists(file_name):
        return None
    page_count = manager.num_pages(file_name)
    if page_count == 0:
        return None
    try:
        footer_page = buffer_cache.read_page(file_name, page_count - 1)
    except StorageError:
        return None
    magic, valid, metadata_start, metadata_pages, metadata_length = _FOOTER.unpack_from(footer_page, 0)
    if magic != _FOOTER_MAGIC or not valid:
        return None
    blob = bytearray()
    for page_no in range(metadata_start, metadata_start + metadata_pages):
        blob += buffer_cache.read_page(file_name, page_no)
    return ComponentMetadata.from_bytes(bytes(blob[:metadata_length]))
