"""Dataset: the public, AsterixDB-like entry point of the library.

A dataset is created from a :class:`~repro.config.DatasetConfig` (the
equivalent of ``CREATE DATASET ... WITH {"tuple-compactor-enabled": true}``,
paper Figure 8) over one or more storage environments.  Records are
hash-partitioned on the primary key across the dataset's partitions
(paper §2.2); every partition runs its own LSM index and — for inferred
datasets — its own tuple compactor with its own, independently grown schema
(§3.4.1).

The query engine (:mod:`repro.query`) executes jobs against the dataset's
partitions; this class only exposes the storage-level API: ingest, point
lookups, scans, secondary indexes, bulk load, flush, and statistics.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..cache import PhysicalPlan, PlanCache
from ..config import DatasetConfig, StorageFormat
from ..errors import DatasetError, SchemaViolationError, TypeError_
from ..lsm import LSMIOScheduler
from ..obs import MetricsRegistry
from ..obs import tracer as _tracer
from ..schema import InferredSchema
from ..types import Datatype, open_only_primary_key
from .environment import StorageEnvironment
from .partition import Partition


def hash_partition(key: Any, partition_count: int) -> int:
    """Deterministic hash partitioning of a primary key.

    Python's builtin ``hash`` is salted per process for strings, which would
    make experiments irreproducible, so integers use a Knuth-style multiply
    and strings a small FNV-1a.
    """
    if isinstance(key, bool) or not isinstance(key, (int, str)):
        key = str(key)
    if isinstance(key, int):
        return (key * 2654435761 & 0xFFFFFFFF) % partition_count
    digest = 2166136261
    for byte in key.encode("utf-8"):
        digest = ((digest ^ byte) * 16777619) & 0xFFFFFFFF
    return digest % partition_count


class Dataset:
    """A logical dataset spread over one or more partitions."""

    def __init__(self, config: DatasetConfig, environments: Sequence[StorageEnvironment],
                 partitions_per_environment: int = 1,
                 datatype: Optional[Datatype] = None) -> None:
        if not environments:
            raise DatasetError("a dataset needs at least one storage environment")
        # The environment's StorageConfig is the physical truth (device
        # profile, page size, compression): sync it into the dataset config
        # so consumers like the access-path cost model never price against
        # stale defaults.
        if config.storage is not environments[0].config:
            from dataclasses import replace

            config = replace(config, storage=environments[0].config)
        self.config = config
        self.datatype = datatype if datatype is not None else open_only_primary_key(
            f"{config.name}Type", config.primary_key)
        self._admitted_key_types: Set[type] = set()
        self.environments = list(environments)
        # Background LSM lifecycle: when enabled, all partitions share one
        # bounded scheduler that runs flushes and merges off the ingest path.
        self.scheduler: Optional[LSMIOScheduler] = None
        if config.lsm.background_maintenance:
            self.scheduler = LSMIOScheduler(metrics=environments[0].metrics)
        self._closed = False
        #: Trace id of the most recent traced query (see :meth:`last_trace`).
        self._last_trace_id: Optional[str] = None
        #: Bounded LRU of compiled physical plans (see :meth:`query`);
        #: replace it with ``PlanCache(capacity=0)`` to disable plan caching.
        self.plan_cache = PlanCache(metrics=environments[0].metrics)
        self.partitions: List[Partition] = []
        partition_id = 0
        for environment in self.environments:
            for _ in range(partitions_per_environment):
                self.partitions.append(Partition(config, partition_id, environment,
                                                 self.datatype, scheduler=self.scheduler))
                partition_id += 1

    # ------------------------------------------------------------------ factory

    @classmethod
    def create(cls, name: str, storage_format: StorageFormat = StorageFormat.OPEN,
               environment: Optional[StorageEnvironment] = None,
               datatype: Optional[Datatype] = None, primary_key: str = "id",
               partitions: int = 1, **config_overrides) -> "Dataset":
        """Single-node convenience factory (most examples and tests use this)."""
        from dataclasses import replace

        config = replace(DatasetConfig(name=name, primary_key=primary_key,
                                       storage_format=storage_format), **config_overrides)
        return cls(config, [environment or StorageEnvironment()],
                   partitions_per_environment=partitions, datatype=datatype)

    # ------------------------------------------------------------------ writes

    @property
    def partition_count(self) -> int:
        return len(self.partitions)

    def _partition_for(self, key: Any) -> Partition:
        return self.partitions[hash_partition(key, self.partition_count)]

    def _key_of(self, record: Dict[str, Any]) -> Any:
        try:
            return record[self.config.primary_key]
        except KeyError as exc:
            raise DatasetError(
                f"record is missing the primary key field {self.config.primary_key!r}"
            ) from exc

    def insert(self, record: Dict[str, Any]) -> None:
        self._partition_for(self._key_of(record)).insert(record)

    def insert_all(self, records: Iterable[Dict[str, Any]]) -> int:
        count = 0
        for record in records:
            self.insert(record)
            count += 1
        return count

    def upsert(self, record: Dict[str, Any]) -> None:
        self._partition_for(self._key_of(record)).upsert(record)

    def _check_key(self, key: Any) -> None:
        """Refuse a key the declared primary-key type refuses in a record: it
        could never share an order with the stored keys, and every later
        flush would fail.  An ``int``, ``float`` or ``str`` key's check
        depends on its type alone, so it runs once per type."""
        kind = type(key)
        if kind not in self._admitted_key_types:
            self.datatype.validate_field(self.config.primary_key, key)
            if kind in (int, float, str):
                self._admitted_key_types.add(kind)

    def delete(self, key: Any) -> None:
        self._check_key(key)
        self._partition_for(key).delete(key)

    def bulk_load(self, records: Iterable[Dict[str, Any]]) -> None:
        """Bulk load (sort + bottom-up B+-tree build per partition, §4.3)."""
        buckets: List[List[Dict[str, Any]]] = [[] for _ in self.partitions]
        for record in records:
            buckets[hash_partition(self._key_of(record), self.partition_count)].append(record)
        for partition, bucket in zip(self.partitions, buckets):
            partition.bulk_load(bucket)

    def flush_all(self) -> None:
        for partition in self.partitions:
            partition.flush()

    # ------------------------------------------------------------------ lifecycle

    @property
    def background_maintenance(self) -> bool:
        """Whether this dataset runs flushes/merges on a background scheduler."""
        return self.scheduler is not None

    def drain(self) -> None:
        """Wait for all in-flight background flushes/merges to finish.

        A quiescence barrier, not a flush: whatever is still in the mutable
        memtables stays there (call :meth:`flush_all` to persist it).  No-op
        in synchronous mode.  Raises :class:`~repro.errors.SchedulerError`
        if a background operation failed.
        """
        for partition in self.partitions:
            partition.index.drain_maintenance()

    def resume_maintenance(self) -> Optional[BaseException]:
        """Acknowledge a background maintenance failure and resume.

        The scheduler's failure latch is explicit: a flush/merge that dies
        (retry budget exhausted, or a non-transient error) keeps surfacing
        through ``drain()``/ingest backpressure until cleared here.  Clears
        the latch, then resubmits flush tasks for any sealed memtables the
        dead task orphaned, so the pipeline makes progress again.  Returns
        the cleared exception (``None`` when nothing had failed).  No-op in
        synchronous mode.
        """
        if self.scheduler is None:
            return None
        failure = self.scheduler.clear_failure()
        for partition in self.partitions:
            partition.index.resume_maintenance()
        return failure

    def close(self) -> None:
        """Quiesce background maintenance deterministically.  Idempotent.

        Drains every partition's in-flight flushes and merges, then shuts
        the scheduler's worker pools down.  The dataset remains readable —
        and even writable: post-close flushes and merges are the same tasks,
        run on the writer's thread.
        """
        if self._closed:
            return
        self._closed = True
        if self.scheduler is None:
            return
        try:
            self.drain()
        finally:
            self.scheduler.close()

    def __enter__(self) -> "Dataset":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ reads

    def get(self, key: Any) -> Optional[Dict[str, Any]]:
        try:
            self._check_key(key)
        except (SchemaViolationError, TypeError_):
            return None  # no stored record has such a key
        return self._partition_for(key).search(key)

    def scan(self) -> Iterator[Dict[str, Any]]:
        for partition in self.partitions:
            yield from partition.scan_records()

    def count(self) -> int:
        return sum(partition.record_count() for partition in self.partitions)

    def approximate_record_count(self) -> int:
        """Record count from counters only — no page reads, no sort: each
        component's metadata and each memtable's live count.

        Slightly over-counts keys that are shadowed across components; used
        by the optimizer's cost model, which must not do I/O while planning.
        """
        return sum(partition.index.record_count() for partition in self.partitions)

    # ------------------------------------------------------------------ SQL++

    def query(self, text: str, executor: Optional[Any] = None, **executor_options):
        """Compile and run a SQL++ query string against this dataset.

        The text is compiled by :mod:`repro.sqlpp` into a
        :class:`~repro.query.plan.QuerySpec` and executed with a
        :class:`~repro.query.QueryExecutor` (a fresh one per call unless
        ``executor`` is given; ``executor_options`` — e.g.
        ``cold_cache=True`` or ``parallelism=4`` — configure the fresh one;
        partitions fan out across a worker pool, one worker per partition by
        default, and ``parallelism=1`` runs them sequentially).  Returns the
        executor's :class:`~repro.query.QueryResult`.  Malformed queries
        raise :class:`~repro.errors.SqlppError` with line/column info.

        The FROM clause's dataset name is deliberately *not* matched against
        this dataset's name: the paper's query texts say ``FROM Tweets``
        while benchmark datasets carry configuration-mangled names, so the
        name acts purely as documentation and the alias binds to whatever
        dataset the method is called on.

        Physical plans are memoized in :attr:`plan_cache`, keyed by the
        statement's shape (:attr:`repro.sqlpp.lexer.Lexed.shape`) and the
        executor's plan signature: a text of a seen shape skips parse → bind
        → rewrite → compile (``stats.plan_source == "cache"``) and runs with
        its own literals.  No plan holds the access path: every run costs a
        full scan against the index probes its literals and the dataset's
        indexes and statistics allow.
        """
        from ..query.executor import ExecutionStats, QueryResult

        result, plan = self._run(text, self._runner(executor, executor_options))
        if result is None:  # CREATE INDEX: ``plan`` is the compiled statement
            if executor is not None or executor_options:
                raise DatasetError("CREATE INDEX does not take an executor")
            self.create_index(plan.index_name, plan.field_path)
            return QueryResult(rows=[], stats=ExecutionStats())
        return result

    @staticmethod
    def _runner(executor: Optional[Any], executor_options: Dict[str, Any]):
        """The executor a statement runs on: the caller's, or a fresh one."""
        from ..query.executor import QueryExecutor

        if executor is not None and executor_options:
            raise DatasetError(
                "pass either a prebuilt executor or executor options, not both")
        return executor if executor is not None else QueryExecutor(**executor_options)

    def _plan(self, text: str, runner: Any) -> Tuple[Any, Optional[str], Tuple[Any, ...]]:
        """The one road from a SQL++ statement to its physical plan.

        Returns the :class:`~repro.cache.PhysicalPlan`
        ``runner.prepare_physical`` built, where it came from — ``"cache"``
        (plan-cache hit: parse, bind and compile all skipped) or
        ``"compiled"`` — and the run's parameters.  :meth:`query` and
        :meth:`explain` both plan here, so this is the only place a statement
        is lexed for the plan cache's key and the cache probed or filled.  A
        CREATE INDEX statement has no plan: its compiled form comes back in
        the plan's place, with source ``None``.
        """
        from ..sqlpp.lexer import Lexed

        lexed = Lexed(text)
        key = (lexed.shape, runner.plan_signature())
        physical = self.plan_cache.get(key)
        if physical is not None:
            return physical, "cache", lexed.params()
        from ..sqlpp import CompiledCreateIndex
        from ..sqlpp import compile as compile_sqlpp

        compiled = compile_sqlpp(text, lexed)
        if isinstance(compiled, CompiledCreateIndex):
            return compiled, None, ()
        physical = runner.prepare_physical(self, compiled.spec)
        self.plan_cache.put(key, physical)
        return physical, "compiled", compiled.params

    def _run(self, text: str, runner: Any,
             planned: Optional[Tuple[Any, ...]] = None) -> Tuple[Any, Any]:
        """Plan ``text`` (unless the caller brings what :meth:`_plan`
        returned for it) and execute it under one ``query`` span; returns the
        result, stamped with the plan's source, and the plan that ran.  A
        CREATE INDEX statement runs nothing here: ``(None, compiled)``."""
        with _tracer.span("query", text=text.strip()[:200]) as span:
            if span.trace_id:
                self._last_trace_id = span.trace_id
            physical, source, params = planned or self._plan(text, runner)
            if not isinstance(physical, PhysicalPlan):
                return None, physical
            result = runner.execute_physical(self, physical, params)
            result.stats.plan_source = source
            return result, physical

    def explain(self, text: str, analyze: bool = False, executor: Optional[Any] = None,
                **executor_options: Any) -> str:
        """Render the plan (access path, pipeline, costs) for the SQL++
        statement ``text``; see :mod:`repro.query.explain`.

        The plan rendered is the one :meth:`query` would run with the same
        ``executor``/``executor_options`` (e.g. ``access_path="scan"``,
        ``parallelism=1``, ``cold_cache=True``) — it comes from the same
        planner call and the same plan cache.  With ``analyze=True`` that
        plan is *executed* and per-operator actual rows, wall time, and bytes
        are rendered next to the optimizer's estimates — including the
        estimated-vs-actual cardinality error.
        """
        from ..query.explain import explain as explain_plan

        return explain_plan(self, text, analyze=analyze, executor=executor,
                            **executor_options)

    # ------------------------------------------------------------------ observability

    @property
    def metrics(self) -> MetricsRegistry:
        """The metrics registry this dataset's environments publish into."""
        return self.environments[0].metrics

    def metrics_snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-serializable snapshot of the dataset's metrics registry."""
        return self.metrics.snapshot()

    def last_trace(self) -> List[Dict[str, Any]]:
        """Spans of the most recent traced query, as exported dicts.

        Empty when tracing is disabled (``REPRO_TRACE`` unset and the tracer
        not enabled programmatically) or no query has run yet.  Spans are
        returned in completion order; each carries ``span_id``/``parent_id``
        so callers can rebuild the tree.
        """
        if self._last_trace_id is None:
            return []
        return [span.to_dict() for span in _tracer.spans(self._last_trace_id)]

    # ------------------------------------------------------------------ secondary indexes

    def create_index(self, name: str, field_path: Any) -> None:
        """``CREATE INDEX name ON <this dataset> (field.path)``.

        ``field_path`` is a dotted string (``"user.followers_count"``) or a
        sequence of steps.  Existing components are backfilled, so the index
        may be created before or after data is loaded.
        """
        path = self._normalize_field_path(field_path)
        if not path:
            raise DatasetError("create_index needs a non-empty field path")
        for partition in self.partitions:
            partition.create_secondary_index(name, path)

    def list_secondary_indexes(self) -> List[Tuple[str, Tuple[str, ...]]]:
        """``(name, field_path)`` of every secondary index (same on all partitions)."""
        return self.partitions[0].list_secondary_indexes()

    def index_statistics(self, index_name: str):
        """Dataset-wide field statistics of one index (partition stats merged)."""
        merged = None
        for partition in self.partitions:
            statistics = partition.index_statistics(index_name)
            if statistics is None:
                continue
            merged = statistics if merged is None else merged.merge(statistics)
        return merged

    @staticmethod
    def _normalize_field_path(field_path: Any) -> Tuple[str, ...]:
        if isinstance(field_path, str):
            return tuple(step for step in field_path.split(".") if step)
        return tuple(field_path)

    # ------------------------------------------------------------------ schemas & stats

    def schemas(self) -> Dict[int, Optional[InferredSchema]]:
        """Per-partition schemas (the schema-broadcast payload of §3.4.1)."""
        return {partition.partition_id: partition.current_schema() for partition in self.partitions}

    def storage_size(self) -> int:
        return sum(partition.storage_size() for partition in self.partitions)

    def ingest_stats(self) -> Dict[str, float]:
        totals = {"inserts": 0, "deletes": 0, "upserts": 0, "flushes": 0, "merges": 0,
                  "maintenance_point_lookups": 0, "bytes_flushed": 0, "bytes_merged": 0,
                  "ingest_stall_seconds": 0.0}
        for partition in self.partitions:
            stats = partition.index.stats
            for field_name in totals:
                totals[field_name] += getattr(stats, field_name)
        return totals

    def describe_schema(self, partition_id: int = 0) -> str:
        schema = self.partitions[partition_id].current_schema()
        if schema is None:
            return "<no inferred schema: tuple compactor disabled>"
        return schema.describe()
