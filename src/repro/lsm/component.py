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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..btree import BTree, BTreeInfo, BulkLoader, LeafEntry
from ..errors import ComponentStateError, StorageError
from ..schema import InferredSchema
from ..storage.buffer_cache import BufferCache
from .component_id import ComponentId

_FOOTER_MAGIC = 0x4C534D43  # "LSMC"
_FOOTER = struct.Struct("<IIIII")  # magic, valid, metadata_start, metadata_pages, metadata_length


@dataclass
class MemEntry:
    """One entry of the in-memory component."""

    key: Any
    is_antimatter: bool
    record: Optional[Dict[str, Any]] = None
    encoded: bytes = b""
    #: Anti-schema of the record version this entry supersedes (delete/upsert
    #: over an already-flushed record); processed by the tuple compactor at
    #: flush time and never written to disk.
    antischema: Optional[Dict[str, Any]] = None

    @property
    def size_bytes(self) -> int:
        return len(self.encoded) + 64  # entry payload + bookkeeping overhead


class InMemoryComponent:
    """The mutable component receiving all writes (one per partition index)."""

    def __init__(self) -> None:
        self._entries: Dict[Any, MemEntry] = {}
        self.size_bytes = 0

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
        self._entries[entry.key] = entry
        self.size_bytes += entry.size_bytes

    def sorted_entries(self) -> List[MemEntry]:
        """Entries in key order (the flush path sorts once here).

        The returned list is a *snapshot*: the copy of the entry dict is a
        single C-level operation (atomic under the GIL), so concurrent
        readers — parallel query workers scanning while another partition of
        the same dataset flushes — never observe a half-mutated dict.
        """
        entries = list(self._entries.values())
        entries.sort(key=lambda entry: entry.key)
        return entries


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
        from ..btree.keycodec import encode_key

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
        from ..btree.keycodec import decode_key

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
        #: Optional key-only B+-tree used to cheapen upsert existence checks.
        self.primary_key_index: Optional[BTree] = None
        self.primary_key_file: Optional[str] = None
        #: Per secondary index name: this component's index file, its opened
        #: B+-tree, and the indexed field's statistics for the cost model.
        self.secondary_files: Dict[str, str] = {}
        self.secondary_trees: Dict[str, BTree] = {}
        self.secondary_stats: Dict[str, Any] = {}

    # -- convenience -----------------------------------------------------------------

    @property
    def record_count(self) -> int:
        return self.metadata.record_count

    @property
    def entry_count(self) -> int:
        return self.metadata.entry_count

    def size_bytes(self) -> int:
        total = self.buffer_cache.file_manager.file_size(self.file_name)
        if self.primary_key_file is not None:
            total += self.buffer_cache.file_manager.file_size(self.primary_key_file)
        return total

    def search(self, key: Any) -> Optional[LeafEntry]:
        if not self.valid:
            raise ComponentStateError(f"component {self.component_id} is not VALID")
        return self.btree.search(key)

    def scan(self) -> Iterator[LeafEntry]:
        if not self.valid:
            raise ComponentStateError(f"component {self.component_id} is not VALID")
        return self.btree.scan_all()

    def key_may_exist(self, key: Any) -> bool:
        """Existence check served by the primary-key index when present."""
        if self.primary_key_index is not None:
            return self.primary_key_index.search(key) is not None
        return self.search(key) is not None

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
        manager = self.buffer_cache.file_manager
        if manager.exists(self.file_name):
            # Component files are write-once; an existing file is a leftover
            # from a failed earlier attempt (e.g. a transient I/O fault mid
            # flush).  Resuming into it would violate the sequential-write
            # invariant, so recreate from scratch — that is what makes
            # flush/merge tasks safely retryable.
            self.buffer_cache.invalidate_file(self.file_name)
            manager.delete_file(self.file_name)
        manager.create_file(self.file_name)
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


def delete_component_files(buffer_cache: BufferCache, file_name: str) -> List[str]:
    """Delete a component's primary file and whatever auxiliary files
    (``.pk``, ``.ix.*``) exist beside it, registered on a component object or
    not — the clean-up after a failed build and of an INVALID component
    found by recovery.  Returns the names deleted."""
    manager = buffer_cache.file_manager
    doomed = [name for name in manager.list_files()
              if name == file_name or name.startswith(file_name + ".")]
    for name in doomed:
        buffer_cache.invalidate_file(name)
        manager.delete_file(name)
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
