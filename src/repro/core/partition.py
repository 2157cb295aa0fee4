"""One data partition of a dataset: primary LSM index + record codec.

A partition owns its primary LSM B+-tree (and, through it, the per-component
primary-key and secondary indexes), encodes incoming records with the
dataset's record-format codec, and — when the dataset enables the tuple
compactor — hosts the partition-local :class:`~repro.core.TupleCompactor`
whose schema is entirely independent of other partitions' schemas
(paper §3.4.1).

It is also the only translator between the two: the LSM index hands out
stored rows — a :class:`~repro.lsm.lsm_index.SearchResult` from lookups and
probes, runs of rows from scans — and this class opens their bytes as record
views through the codec, memtable rows and component rows alike
(:meth:`Partition.scan_runs`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..cache import SliceChunk, cached_component_scan
from ..cache.column_cache import paths_cache_key
from ..config import DatasetConfig
from ..lsm import LSMBTree, LSMIOScheduler, SecondaryIndexDef, make_merge_policy, recover_index
from ..lsm.lifecycle import FlushCallback
from ..schema import InferredSchema
from ..types import Datatype
from ..vector import extractor_for
from .environment import StorageEnvironment
from .formats import RecordFormatCodec
from .tuple_compactor import TupleCompactor


class Partition:
    """A single hash-partition of a dataset on one node."""

    def __init__(self, config: DatasetConfig, partition_id: int,
                 environment: StorageEnvironment, datatype: Optional[Datatype],
                 scheduler: Optional[LSMIOScheduler] = None) -> None:
        self.config = config
        self.partition_id = partition_id
        self.environment = environment
        self.datatype = datatype
        self.codec = RecordFormatCodec(config.storage_format, datatype)
        if config.tuple_compactor_enabled:
            self.compactor: Optional[TupleCompactor] = TupleCompactor(datatype)
            callback: FlushCallback = self.compactor
        else:
            self.compactor = None
            callback = FlushCallback()
        merge_policy = make_merge_policy(config.lsm.merge_policy,
                                         config.lsm.max_tolerable_component_count)
        self.index = LSMBTree(
            name=config.name,
            partition=partition_id,
            buffer_cache=environment.buffer_cache,
            memory_budget=config.lsm.memory_component_budget,
            merge_policy=merge_policy,
            flush_callback=callback,
            wal=environment.wal,
            scheduler=scheduler,
            max_sealed_memtables=config.lsm.max_sealed_memtables,
            metrics=environment.metrics,
            column_cache=environment.column_cache,
        )

    # ------------------------------------------------------------------ writes

    def _key_of(self, record: Dict[str, Any]) -> Any:
        try:
            return record[self.config.primary_key]
        except KeyError as exc:
            raise KeyError(f"record is missing the primary key {self.config.primary_key!r}") from exc

    def insert(self, record: Dict[str, Any]) -> None:
        self.index.insert(self._key_of(record), self.codec.encode(record))

    def upsert(self, record: Dict[str, Any]) -> None:
        self.index.upsert(self._key_of(record), self.codec.encode(record))

    def delete(self, key: Any) -> None:
        self.index.delete(key)

    def bulk_load(self, records: Sequence[Dict[str, Any]]) -> None:
        rows = [(self._key_of(record), self.codec.encode(record)) for record in records]
        self.index.load(rows)

    def flush(self) -> None:
        self.index.flush()

    # ------------------------------------------------------------------ reads

    def search(self, key: Any) -> Optional[Dict[str, Any]]:
        result = self.index.search(key)
        if result is None:
            return None
        return self.codec.view(result.payload, result.schema).materialize()

    def scan_runs(self, paths: Sequence[Tuple[Any, ...]] = (), extractor: Any = None,
                  slice_stats: Any = None) -> Iterator[Tuple[Any, Any, int, int]]:
        """A full scan as the LSM index's live runs, in key order: one
        ``(columns, views, start, stop)`` per run — rows ``start .. stop - 1``
        of either ``columns`` or ``views``, the other None.

        Given an ``extractor`` (compiled for ``paths``) and an enabled
        column-slice cache, on-disk components are scanned through the cache
        and their rows arrive decoded: ``columns`` holds one sequence of
        values per path, the cached chunk's own lists, handed out by
        reference — read them, never mutate them.  Every other run —
        memtable rows, and all rows otherwise — arrives as a list of record
        ``views`` over the stored bytes.
        """
        view = self.codec.view
        cache = self.environment.column_cache
        source = None
        if extractor is not None and cache.enabled:
            pkey = paths_cache_key(paths)

            def source(component):
                return cached_component_scan(
                    cache, component, lambda payload: view(payload, component.schema),
                    extractor, pkey, slice_stats)

        for component, run, start, stop in self.index.scan(component_source=source):
            if component is None:  # a memtable run: uncompacted, no schema needed
                views = [view(entry.encoded) for entry in run.entries[start:stop]]
            elif type(run) is SliceChunk:
                yield run.columns, None, start, stop
                continue
            else:  # a B+-tree leaf
                views = [view(entry.value, component.schema)
                         for entry in run.entries(start, stop)]
            yield None, views, 0, len(views)

    def scan_views(self) -> Iterator[Any]:
        """Yield a record view per live record."""
        for _, views, _, _ in self.scan_runs():
            yield from views

    def scan_records(self) -> Iterator[Dict[str, Any]]:
        for view in self.scan_views():
            yield view.materialize()

    # ------------------------------------------------------------------ secondary indexes

    def create_secondary_index(self, name: str, field_path: Tuple[str, ...]) -> None:
        codec = self.codec
        field_path = tuple(field_path)
        # Built once per index: flushes, merges and probes all read the
        # indexed field through it.  Vector-based records go through the
        # path's shared extractor; ADM views navigate by offsets and have no
        # consolidated access.
        if self.config.storage_format.uses_vector_format:
            extract = extractor_for((field_path,)).extract

            def extractor(payload: bytes, schema: Optional[InferredSchema]) -> Any:
                return extract(codec.view(payload, schema))[0]
        else:
            def extractor(payload: bytes, schema: Optional[InferredSchema]) -> Any:
                return codec.view(payload, schema).get_field(*field_path)

        self.index.add_secondary_index(SecondaryIndexDef(
            name=name, extractor=extractor, field_path=field_path))

    def list_secondary_indexes(self) -> List[Tuple[str, Tuple[str, ...]]]:
        """``(name, field_path)`` of every secondary index on this partition."""
        return [(definition.name, definition.field_path or ())
                for definition in self.index.secondary_indexes]

    def index_statistics(self, index_name: str):
        """The named index's :class:`~repro.datasets.stats.FieldStatistics`,
        aggregated over this partition's live components."""
        return self.index.secondary_statistics(index_name)

    def probe_views(self, index_name: str, low: Any, high: Any,
                    low_inclusive: bool = True, high_inclusive: bool = True) -> Iterator[Any]:
        """Candidate record views for an index probe (the query engine's
        source): the rows of :meth:`LSMBTree.probe`, in primary-key order —
        a *superset* of the true answer, so callers must re-apply the
        predicate."""
        view = self.codec.view
        for result in self.index.probe(index_name, low, high, low_inclusive, high_inclusive):
            yield view(result.payload, result.schema)

    # ------------------------------------------------------------------ maintenance & stats

    def current_schema(self) -> Optional[InferredSchema]:
        if self.compactor is not None:
            return self.compactor.schema
        return None

    def storage_size(self) -> int:
        return self.index.storage_size()

    def record_count(self) -> int:
        """Exact live-record count (reconciling updates and deletes)."""
        return self.index.exact_count()

    def recover(self) -> "Partition":
        """Re-activate this partition after a simulated crash.

        The partition object must be freshly constructed (empty memtable, no
        components); recovery re-discovers valid components, reloads the
        newest schema, replays the WAL, and flushes (paper §3.1.2).
        """
        recover_index(self.index, wal=self.environment.wal, datatype=self.datatype)
        return self
