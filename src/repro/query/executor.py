"""Query executor: parallel per-partition pipelines + a coordinator stage.

Execution follows the paper's Hyracks job model (Figure 5): every partition
runs the same local pipeline (scan → let → unnest → select → partial
aggregation / projection); results then flow through a conceptual exchange
to a coordinator stage that merges partial aggregates, applies global
ordering and LIMIT, and returns the rows.

Partitions genuinely fan out across a worker pool (§2.2: one LSM index per
partition, jobs run against all of them concurrently).  The ``parallelism``
knob controls the pool width — the default is one worker per partition, and
``parallelism=1`` runs the partitions inline in partition order, preserving
the historical sequential behaviour exactly.  Whatever the pool width,
per-partition outputs are merged in partition-id order, so the returned
rows are identical across parallelism settings by construction.

Pieces of the paper's machinery made explicit here:

* **Schema broadcast** (§3.4.1): when the plan repartitions data (group-by,
  global sort, aggregation) and the dataset stores compacted records, each
  partition's schema is serialized and "broadcast" to every other partition
  before execution.  The broadcast bytes are recorded in the execution
  stats; local-only plans skip it, exactly as the paper describes.
* **I/O accounting**: each partition worker opens a thread-local accounting
  scope on its environment's simulated device, so byte counts are exact and
  per-partition even while workers share one device — no snapshot/diff
  window over shared counters.
* **Early cancellation**: ``LIMIT`` without ``ORDER BY`` stops work through
  a thread-safe token.  A partition's output is only used when the
  partitions *before* it (in partition-id order) did not already satisfy
  the limit, so the token cancels exactly the partitions whose rows cannot
  appear in the answer — result parity with the sequential run is kept by
  construction.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..cache import PhysicalPlan
from ..config import env_int
from ..core.dataset import Dataset
from ..errors import QueryDeadlineError, QueryError
from ..obs import CARDINALITY_MISESTIMATE, NULL_SPAN, StatsDictMixin, emit_event
from ..obs import tracer as _tracer
from .batch_compile import BatchQueryPlan, PushdownUnnest, compile_query
from .operators import (
    BatchGroupByOperator,
    BatchLetOperator,
    BatchProjectOperator,
    BatchPushdownUnnestOperator,
    BatchScanOperator,
    BatchSelectOperator,
    BatchUnnestOperator,
    finalize_groups,
    merge_partials,
    order_and_limit,
    sort_candidates,
    sort_key,
)
from .optimizer import AccessPathChoice, Optimizer, choose_access_path
from .plan import QuerySpec

#: Environment variable overriding the *default* worker count (an explicit
#: ``parallelism=`` argument always wins).  CI runs the suite once with
#: ``REPRO_PARALLELISM=1`` to keep the sequential path covered.
PARALLELISM_ENV_VAR = "REPRO_PARALLELISM"

#: Environment variable overriding the default batch size (>= 1; ``1``
#: stress-tests the chunking logic).
BATCH_SIZE_ENV_VAR = "REPRO_BATCH_SIZE"

#: Records per ColumnBatch when nothing overrides it.
DEFAULT_BATCH_SIZE = 1024


@dataclass
class OperatorStats(StatsDictMixin):
    """Measured cost of one operator within one partition's pipeline.

    ``seconds`` is *inclusive* time — the wall clock spent pulling rows out
    of this operator, which includes everything upstream of it (the same
    convention as PostgreSQL's ``EXPLAIN ANALYZE`` actual times).  Only
    populated when the executor instruments (``analyze=True`` or tracing
    enabled); the disabled fast path never builds probes.
    """

    operator: str
    rows_out: int = 0
    seconds: float = 0.0
    #: Device bytes attributed to this operator (only the source operator
    #: reads pages; downstream operators show 0).
    bytes_read: int = 0
    #: Column batches pulled through this stage (``rows_out`` counts rows,
    #: summed across batches; terminal stages drain in one call and show 0).
    batches: int = 0
    #: perf_counter stamps of the first/last pull (span synthesis).
    start: float = 0.0
    end: float = 0.0


class _OperatorProbe:
    """Iterator wrapper counting rows and inclusive wall time of one stage.

    Items are column batches: ``rows_out`` counts rows (``len()`` of each
    batch), ``batches`` counts the pulls."""

    __slots__ = ("_source", "stats")

    def __init__(self, source: Iterator, name: str) -> None:
        self._source = iter(source)
        self.stats = OperatorStats(operator=name)

    def __iter__(self) -> "_OperatorProbe":
        return self

    def __next__(self):
        stats = self.stats
        started = time.perf_counter()
        if stats.start == 0.0:
            stats.start = started
        try:
            item = next(self._source)
        except StopIteration:
            stats.end = time.perf_counter()
            stats.seconds += stats.end - started
            raise
        now = time.perf_counter()
        stats.seconds += now - started
        stats.end = now
        stats.rows_out += len(item)
        stats.batches += 1
        return item


@dataclass
class PartitionStats(StatsDictMixin):
    """Measured cost of one partition's local pipeline."""

    partition_id: int
    seconds: float = 0.0
    records_scanned: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    simulated_io_seconds: float = 0.0
    #: True when the LIMIT cancellation token stopped (or skipped) this
    #: partition because earlier partitions already satisfied the limit.
    cancelled: bool = False
    #: Column batches the partition's scan emitted.
    batches: int = 0
    #: Per-operator actuals, pipeline order (instrumented runs only).
    operators: List[OperatorStats] = field(default_factory=list)
    #: Buffer-cache activity of this partition's pipeline (instrumented
    #: runs only; shared caches mean cross-partition attribution is the
    #: environment's, summed at the execution level).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Column-slice cache rows served / decoded by this partition's scan
    #: (always collected — the scan counts them anyway).
    slice_hits: int = 0
    slice_misses: int = 0


@dataclass
class ExecutionStats(StatsDictMixin):
    """Measured and simulated costs of one query execution."""

    _DERIVED = ("sequential_equivalent_seconds", "measured_speedup",
                "cache_hit_ratio", "cardinality_error")

    wall_seconds: float = 0.0
    #: Measured time of the coordinator stage (merge partials / global sort /
    #: LIMIT) — captured explicitly, not inferred from a subtraction.
    coordinator_seconds: float = 0.0
    #: Worker-pool width the execution actually used.
    parallelism: int = 1
    records_scanned: int = 0
    rows_returned: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    simulated_io_seconds: float = 0.0
    schema_broadcast_bytes: int = 0
    schema_broadcasts: int = 0
    #: Records per ColumnBatch.
    batch_size: int = 0
    #: Column batches scanned across all partitions.
    batches_processed: int = 0
    per_partition: List[PartitionStats] = field(default_factory=list)
    #: Access path the optimizer chose: "FullScan" or "IndexProbe".
    access_path: str = "FullScan"
    #: Secondary index probed, when ``access_path == "IndexProbe"``.
    index_name: Optional[str] = None
    #: Optimizer's cardinality estimate at the access path (rows expected to
    #: match the WHERE clause); ``None`` when the cost model had no estimate.
    estimated_rows: Optional[float] = None
    #: Measured rows surviving the filter stage (instrumented runs only).
    actual_matched_rows: Optional[int] = None
    #: Buffer-cache activity during the execution (instrumented runs only).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Column-slice cache rows served from / decoded into the cache across
    #: all partitions (full scans; zero for index probes).
    slice_cache_hits: int = 0
    slice_cache_misses: int = 0
    #: Where the physical plan came from: "cache" (plan-cache hit — parse,
    #: bind, and optimize were all skipped), "compiled" (cache miss or a
    #: cache-bypassing path), or None when the executor was driven with a
    #: prebuilt QuerySpec directly.
    plan_source: Optional[str] = None

    @property
    def cache_hit_ratio(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def cardinality_error(self) -> Optional[float]:
        """Estimated-vs-actual row-count divergence factor (>= 1.0).

        Computed with +1 smoothing so zero estimates/actuals stay finite:
        ``(max(est, act) + 1) / (min(est, act) + 1)``.  ``None`` until an
        instrumented run measured the actual cardinality.
        """
        if self.estimated_rows is None or self.actual_matched_rows is None:
            return None
        high = max(self.estimated_rows, float(self.actual_matched_rows))
        low = min(self.estimated_rows, float(self.actual_matched_rows))
        return (high + 1.0) / (low + 1.0)

    def operator_totals(self) -> List[OperatorStats]:
        """Per-operator actuals summed across partitions, pipeline order.

        ``seconds`` sums each partition's inclusive time, so with parallel
        workers it exceeds wall time — it reads as "total operator work",
        like PostgreSQL's actual-time-times-loops."""
        totals: Dict[str, OperatorStats] = {}
        order: List[str] = []
        for partition in self.per_partition:
            for op_stats in partition.operators:
                aggregate = totals.get(op_stats.operator)
                if aggregate is None:
                    totals[op_stats.operator] = OperatorStats(
                        operator=op_stats.operator, rows_out=op_stats.rows_out,
                        seconds=op_stats.seconds, bytes_read=op_stats.bytes_read,
                        batches=op_stats.batches)
                    order.append(op_stats.operator)
                else:
                    aggregate.rows_out += op_stats.rows_out
                    aggregate.seconds += op_stats.seconds
                    aggregate.bytes_read += op_stats.bytes_read
                    aggregate.batches += op_stats.batches
        return [totals[name] for name in order]

    @property
    def per_partition_seconds(self) -> List[float]:
        """Per-partition pipeline seconds, in partition order."""
        return [partition.seconds for partition in self.per_partition]

    @property
    def sequential_equivalent_seconds(self) -> float:
        """What a one-worker run of the same partition work would cost
        (sum of measured partition times plus the measured coordinator)."""
        if not self.per_partition:
            return self.wall_seconds
        return sum(self.per_partition_seconds) + self.coordinator_seconds

    @property
    def measured_speedup(self) -> float:
        """Sequential-equivalent time over the measured wall time."""
        if self.wall_seconds <= 0.0:
            return 1.0
        return self.sequential_equivalent_seconds / self.wall_seconds


@dataclass
class QueryResult:
    rows: List[Dict[str, Any]]
    stats: ExecutionStats
    #: The optimizer's access-path decision (costs, candidates) for EXPLAIN
    #: surfaces and benchmark assertions.
    access_path: Optional[AccessPathChoice] = None

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


class LimitCancellation:
    """Thread-safe early-cancel token for LIMIT without ORDER BY.

    The coordinator concatenates partition outputs in partition-id order and
    truncates to the limit, so partition ``k``'s rows reach the answer only
    if partitions ``0..k-1`` contribute fewer than ``limit`` rows.  A worker
    may therefore stop (or never start) once every earlier partition has
    completed and their combined row count satisfies the limit — the exact
    thread-safe generalization of the sequential loop's early ``break``.
    """

    def __init__(self, limit: int, partition_count: int) -> None:
        self.limit = limit
        self._lock = threading.Lock()
        # guarded-by: _lock
        self._completed: List[Optional[int]] = [None] * partition_count

    def mark_complete(self, index: int, row_count: int) -> None:
        with self._lock:
            self._completed[index] = row_count

    def satisfied_before(self, index: int) -> bool:
        """True when partitions ``0..index-1`` already fill the limit."""
        with self._lock:
            total = 0
            for count in self._completed[:index]:
                if count is None:
                    return False
                total += count
                if total >= self.limit:
                    return True
            return False


class _DeadlineGuard:
    """Per-query deadline shared by every partition worker.

    Cooperative cancellation in the same spirit as :class:`LimitCancellation`:
    the pipeline checks the guard at every batch boundary, and the first
    worker to notice expiry flips ``expired`` — a plain bool write (atomic
    under the GIL, and this is advisory: a sibling that misses the flip just
    hits its own clock check) — so its siblings fail fast instead of each
    running out the full clock.
    """

    __slots__ = ("seconds", "deadline_at", "expired")

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.deadline_at = time.perf_counter() + seconds
        self.expired = False

    def check(self) -> None:
        if self.expired or time.perf_counter() >= self.deadline_at:
            self.expired = True
            raise QueryDeadlineError(
                f"query exceeded its {self.seconds:g}s deadline")

    def guarded(self, source: Iterator) -> Iterator:
        """Wrap a pipeline iterator, checking the clock on every pull (one
        pull is a whole ColumnBatch)."""
        for item in source:
            self.check()
            yield item


class QueryExecutor:
    """Executes :class:`~repro.query.plan.QuerySpec` objects against datasets."""

    def __init__(self, consolidate_field_access: bool = True,
                 pushdown_through_unnest: bool = True,
                 cold_cache: bool = False,
                 access_path: str = "auto",
                 parallelism: Optional[int] = None,
                 analyze: bool = False,
                 batch_size: Optional[int] = None,
                 deadline: Optional[float] = None) -> None:
        self.optimizer = Optimizer(consolidate_field_access, pushdown_through_unnest)
        #: Drop buffer caches before running (used to make query benchmarks
        #: I/O-bound like the paper's cold runs).
        self.cold_cache = cold_cache
        #: Access-path policy: "auto" (cost-based), "scan" (force full scans),
        #: or "index" (probe whenever an indexed predicate exists).
        self.access_path = access_path
        #: Worker-pool width.  ``None`` means one worker per partition
        #: (overridable via the ``REPRO_PARALLELISM`` environment variable);
        #: ``1`` runs partitions inline, sequentially, in partition order.
        self.parallelism = parallelism
        #: Collect per-operator actuals (rows, inclusive time, bytes, cache
        #: activity) for EXPLAIN ANALYZE.  Off by default: the probes cost a
        #: perf_counter call per batch pulled, which the plain path must not
        #: pay.  Instrumentation also engages while tracing is enabled.
        self.analyze = analyze
        # Env-knob reads are hoisted out of the per-query hot path: each knob
        # is read (through the repro.config accessors) exactly once, here, and
        # invalid values fail fast at construction instead of at execute.
        #: Records per ColumnBatch (>= 1): the argument, else
        #: ``REPRO_BATCH_SIZE``, else ``DEFAULT_BATCH_SIZE``.
        self.batch_size = self._read_batch_size(batch_size)
        #: Per-query deadline in seconds; queries that exceed it raise
        #: :class:`~repro.errors.QueryDeadlineError` cooperatively at batch
        #: boundaries.  ``None`` = no deadline; ``0`` expires immediately
        #: (tests).
        if deadline is not None and deadline < 0:
            raise QueryError(f"query deadline must be >= 0 seconds, got {deadline}")
        self.deadline = None if deadline is None else float(deadline)
        self._env_parallelism = self._read_env_parallelism()

    # ------------------------------------------------------------------ public API

    def execute(self, dataset: Dataset, spec: QuerySpec) -> QueryResult:
        with _tracer.span("query.execute", dataset=dataset.config.name) as execute_span:
            result = self._execute(dataset, spec)
            execute_span.set_attribute("rows", len(result.rows))
            execute_span.set_attribute("access_path", result.stats.access_path)
            return result

    def execute_physical(self, dataset: Dataset, physical: PhysicalPlan) -> QueryResult:
        """Run a previously prepared :class:`PhysicalPlan` (plan-cache hits).

        Skips parse/bind (never entered) *and* optimize (cached); everything
        downstream — partition fan-out, stats, metrics — is identical to
        :meth:`execute`.
        """
        with _tracer.span("query.execute", dataset=dataset.config.name) as execute_span:
            result = self._execute(dataset, physical.spec, physical=physical)
            execute_span.set_attribute("rows", len(result.rows))
            execute_span.set_attribute("access_path", result.stats.access_path)
            return result

    def execute_prepared(self, dataset: Dataset,
                         spec: QuerySpec) -> Tuple[QueryResult, PhysicalPlan]:
        """Optimize *and* run ``spec``, returning the plan alongside the result.

        The plan-cache miss path: :meth:`prepare_physical` runs inside the
        ``query.execute`` span (so traces keep ``query.optimize`` nested
        exactly as :meth:`execute` does) and the resulting plan is handed
        back for the caller to cache.
        """
        with _tracer.span("query.execute", dataset=dataset.config.name) as execute_span:
            physical = self.prepare_physical(dataset, spec)
            result = self._execute(dataset, physical.spec, physical=physical)
            execute_span.set_attribute("rows", len(result.rows))
            execute_span.set_attribute("access_path", result.stats.access_path)
            return result, physical

    def prepare_physical(self, dataset: Dataset, spec: QuerySpec) -> PhysicalPlan:
        """Optimize ``spec`` down to the physical plan without executing it.

        The returned plan is immutable and shared safely across executions
        and threads; pair it with :meth:`execute_physical`.  Cache keys must
        include :meth:`plan_signature` — the plan bakes in this executor's
        optimizer flags and access-path policy.  A query the pipeline cannot
        run raises :class:`~repro.errors.QueryError` here, before any I/O.
        """
        with _tracer.span("query.optimize"):
            access_plan = self.optimizer.plan(
                spec, dataset.config.storage_format.uses_vector_format)
            effective_spec = access_plan.effective_spec(spec)
            choice = choose_access_path(effective_spec, dataset, force=self.access_path)
        return PhysicalPlan(spec=effective_spec, access_plan=access_plan, choice=choice,
                            batch_plan=compile_query(effective_spec, access_plan))

    def plan_signature(self) -> Tuple:
        """The plan-relevant part of this executor's configuration.

        Two executors with equal signatures produce interchangeable
        :class:`PhysicalPlan` objects for the same spec and dataset state,
        so the signature is part of every plan-cache key.
        """
        return (self.optimizer.consolidate_field_access,
                self.optimizer.pushdown_through_unnest, self.access_path)

    def _execute(self, dataset: Dataset, spec: QuerySpec,
                 physical: Optional[PhysicalPlan] = None) -> QueryResult:
        stats = ExecutionStats()
        if physical is None:
            physical = self.prepare_physical(dataset, spec)
        spec = physical.spec
        choice = physical.choice
        batch_plan: BatchQueryPlan = physical.batch_plan
        stats.access_path = choice.path.name
        if choice.uses_index:
            stats.index_name = choice.path.index_name
        stats.estimated_rows = choice.estimated_rows
        stats.batch_size = self.batch_size

        if self.cold_cache:
            for environment in {id(env): env for env in dataset.environments}.values():
                environment.drop_caches()

        instrument = self.analyze or _tracer.enabled
        environments = list({id(env): env for env in dataset.environments}.values())
        caches_before = ([environment.buffer_cache.stats_snapshot()
                          for environment in environments] if instrument else None)

        parallelism = self._resolve_parallelism(dataset)
        stats.parallelism = parallelism
        started = time.perf_counter()

        if spec.repartitions:
            self._broadcast_schemas(dataset, stats)

        token: Optional[LimitCancellation] = None
        if (spec.limit is not None and not spec.is_aggregation and not spec.order_by
                and dataset.partition_count > 1):
            token = LimitCancellation(spec.limit, dataset.partition_count)

        guard = _DeadlineGuard(self.deadline) if self.deadline is not None else None

        outputs: List[Tuple[str, Any]] = [None] * dataset.partition_count
        if parallelism <= 1:
            for index, partition in enumerate(dataset.partitions):
                outputs[index], partition_stats = self._run_partition(
                    index, partition, spec, choice, token, instrument,
                    batch_plan, guard)
                stats.per_partition.append(partition_stats)
        else:
            with ThreadPoolExecutor(max_workers=parallelism,
                                    thread_name_prefix="repro-query") as pool:
                # wrap_context per submission: each worker needs its own
                # context copy (a Context can only be entered once at a
                # time), and the no-op path returns the method unchanged.
                futures = [pool.submit(_tracer.wrap_context(self._run_partition),
                                       index, partition, spec, choice,
                                       token, instrument, batch_plan, guard)
                           for index, partition in enumerate(dataset.partitions)]
                for index, future in enumerate(futures):
                    outputs[index], partition_stats = future.result()
                    stats.per_partition.append(partition_stats)
        if guard is not None:
            guard.check()

        coordinator_started = time.perf_counter()
        with _tracer.span("query.coordinator"):
            rows = self._coordinator_stage(spec, outputs)
        ended = time.perf_counter()
        stats.coordinator_seconds = ended - coordinator_started
        stats.wall_seconds = ended - started
        stats.rows_returned = len(rows)
        for partition_stats in stats.per_partition:
            stats.records_scanned += partition_stats.records_scanned
            stats.bytes_read += partition_stats.bytes_read
            stats.bytes_written += partition_stats.bytes_written
            stats.simulated_io_seconds += partition_stats.simulated_io_seconds
            stats.batches_processed += partition_stats.batches
            stats.slice_cache_hits += partition_stats.slice_hits
            stats.slice_cache_misses += partition_stats.slice_misses

        if instrument:
            for environment, before in zip(environments, caches_before):
                cache_delta = environment.buffer_cache.stats_snapshot().diff(before)
                stats.cache_hits += cache_delta.hits
                stats.cache_misses += cache_delta.misses
            self._measure_cardinality(dataset, stats)
        self._publish_metrics(dataset, stats)
        return QueryResult(rows, stats, access_path=choice)

    def _measure_cardinality(self, dataset: Dataset, stats: ExecutionStats) -> None:
        """Record actual matched rows; warn on >10x estimate divergence.

        "Matched rows" are the rows leaving the filter stage (the last
        pipeline operator before projection/grouping), the measured analog
        of the cost model's selectivity-based estimate — the feedback signal
        ROADMAP item 5's adaptive statistics will consume.
        """
        matched = 0
        measured = False
        for partition in stats.per_partition:
            if len(partition.operators) >= 2:
                # [-1] is the terminal stage (PROJECT / GROUP BY / SORT);
                # [-2] is the last pipeline operator — SELECT when a WHERE
                # clause exists, otherwise the scan/unnest feeding it.
                matched += partition.operators[-2].rows_out
                measured = True
        if not measured:
            return
        stats.actual_matched_rows = matched
        error = stats.cardinality_error
        if self.analyze and error is not None and error > 10.0:
            emit_event(CARDINALITY_MISESTIMATE,
                       dataset=dataset.config.name,
                       access_path=stats.access_path,
                       index=stats.index_name,
                       estimated_rows=round(stats.estimated_rows, 1),
                       actual_rows=matched,
                       error_factor=round(error, 1))

    @staticmethod
    def _publish_metrics(dataset: Dataset, stats: ExecutionStats) -> None:
        registry = dataset.metrics
        registry.counter("queries_executed").inc()
        registry.counter("query_rows_returned").inc(stats.rows_returned)
        registry.counter("query_records_scanned").inc(stats.records_scanned)
        registry.histogram("query_wall_seconds").observe(stats.wall_seconds)
        registry.counter("query_batches_processed").inc(stats.batches_processed)

    @staticmethod
    def _read_batch_size(size: Optional[int]) -> int:
        if size is None:
            try:
                size = env_int(BATCH_SIZE_ENV_VAR)
            except ValueError as exc:
                raise QueryError(str(exc))
            if size is None:
                return DEFAULT_BATCH_SIZE
        if size < 1:
            raise QueryError(f"batch size must be >= 1, got {size}")
        return size

    def _read_env_parallelism(self) -> Optional[int]:
        if self.parallelism is not None:
            return None
        try:
            return env_int(PARALLELISM_ENV_VAR)
        except ValueError as exc:
            raise QueryError(str(exc))

    def _resolve_parallelism(self, dataset: Dataset) -> int:
        requested = self.parallelism
        if requested is None:
            requested = self._env_parallelism
            if requested is None:
                requested = dataset.partition_count
        if requested < 1:
            raise QueryError(f"parallelism must be >= 1, got {requested}")
        return min(requested, dataset.partition_count)

    # ------------------------------------------------------------------ local stage

    def _run_partition(self, index: int, partition, spec: QuerySpec,
                       choice: AccessPathChoice,
                       token: Optional[LimitCancellation],
                       instrument: bool,
                       batch_plan: BatchQueryPlan,
                       guard: Optional[_DeadlineGuard] = None):
        """One partition's full local pipeline (runs on a worker thread)."""
        partition_stats = PartitionStats(partition_id=partition.partition_id)
        partition_started = time.perf_counter()
        if guard is not None:
            guard.check()
        if token is not None and token.satisfied_before(index):
            partition_stats.cancelled = True
            partition_stats.seconds = time.perf_counter() - partition_started
            return ("plain", []), partition_stats

        device = partition.environment.device
        with _tracer.span("query.partition",
                          partition=partition.partition_id) as partition_span:
            with device.accounting_scope() as io_scope:
                pipeline, scan, probes = self._local_pipeline(
                    partition, spec, choice, batch_plan, instrument)
                if guard is not None:
                    pipeline = guard.guarded(pipeline)
                stage_started = time.perf_counter()
                if spec.is_aggregation:
                    partial = BatchGroupByOperator(pipeline, batch_plan.group_keys,
                                                   spec.aggregates,
                                                   batch_plan.aggregate_args).run()
                    output = ("partial", partial)
                    terminal = ("GROUP BY (partial)", len(partial))
                elif spec.order_by:
                    candidates = self._collect_ordered(pipeline, batch_plan, spec)
                    output = ("ordered", candidates)
                    terminal = ("SORT+PROJECT", len(candidates))
                else:
                    abort_check = (lambda: token.satisfied_before(index)) if token else None
                    rows, aborted = self._collect_plain(pipeline, batch_plan, spec,
                                                        abort_check)
                    partition_stats.cancelled = aborted
                    if token is not None and not aborted:
                        token.mark_complete(index, len(rows))
                    output = ("plain", rows)
                    terminal = ("PROJECT", len(rows))
            partition_span.set_attribute("rows_scanned", scan.records_scanned)
        partition_stats.seconds = time.perf_counter() - partition_started
        partition_stats.records_scanned = scan.records_scanned
        partition_stats.batches = scan.batches_emitted
        partition_stats.slice_hits = scan.slice_stats.hits
        partition_stats.slice_misses = scan.slice_stats.misses
        partition_stats.bytes_read = io_scope.bytes_read
        partition_stats.bytes_written = io_scope.bytes_written
        partition_stats.simulated_io_seconds = device.simulated_seconds(io_scope)
        if instrument:
            # All page reads happen while the source operator pulls pages;
            # downstream operators only touch decoded rows.
            probes[0].stats.bytes_read = io_scope.bytes_read
            operators = [probe.stats for probe in probes]
            operators.append(_terminal_stats(*terminal, stage_started))
            for op_stats in operators:
                partition_stats.operators.append(op_stats)
                self._synthesize_operator_span(op_stats, partition_span)
        return output, partition_stats

    @staticmethod
    def _synthesize_operator_span(op_stats: OperatorStats, partition_span) -> None:
        """Record a per-operator span under the partition span (tracing only).

        Operator timing is collected by iterator probes, not context
        managers, so the spans are synthesized after the fact from the
        probes' first/last pull stamps."""
        if not _tracer.enabled or partition_span is NULL_SPAN or op_stats.start == 0.0:
            return
        _tracer.record_span(f"operator.{op_stats.operator}",
                            trace_id=partition_span.trace_id,
                            parent_id=partition_span.span_id,
                            start=op_stats.start, end=op_stats.end,
                            rows=op_stats.rows_out,
                            seconds=round(op_stats.seconds, 6))

    def _local_pipeline(self, partition, spec: QuerySpec, choice: AccessPathChoice,
                        batch_plan: BatchQueryPlan, instrument: bool):
        """Build the local operator chain; with ``instrument``, each stage is
        wrapped in an :class:`_OperatorProbe` and the probe list is returned
        (pipeline order) for EXPLAIN ANALYZE / trace synthesis."""
        probes: List[_OperatorProbe] = []

        def tap(source: Iterator, name: str) -> Iterator:
            if not instrument:
                return source
            probe = _OperatorProbe(source, name)
            probes.append(probe)
            return probe

        batch_size = self.batch_size
        if spec.limit is not None and not spec.is_aggregation and not spec.order_by:
            # Plain LIMIT: chunking by at most `limit` keeps the scan lazy —
            # it stops within one batch of the limit being satisfied (it may
            # overshoot by less than one batch when a WHERE filters rows).
            batch_size = min(batch_size, spec.limit)
        probe = choice.path if choice.uses_index else None
        scan = BatchScanOperator(partition, spec.record_var, batch_plan.scan_paths,
                                 batch_size, batch_plan.extractor, probe=probe,
                                 use_slice_cache=not batch_plan.needs_views)
        scan_name = (f"IndexProbe({choice.path.index_name})" if choice.uses_index
                     else "FullScan")
        pipeline: Iterator = tap(iter(scan), scan_name)
        if batch_plan.lets:
            pipeline = tap(iter(BatchLetOperator(pipeline, batch_plan.lets)), "LET")
        for position, unnest in enumerate(batch_plan.unnests):
            if isinstance(unnest, PushdownUnnest):
                stage = BatchPushdownUnnestOperator(pipeline, spec.record_var,
                                                    unnest.item_var, unnest.pushdown_paths)
            else:
                stage = BatchUnnestOperator(pipeline, unnest.item_var, unnest.collection)
            name = "UNNEST" if len(batch_plan.unnests) == 1 else f"UNNEST[{position}]"
            pipeline = tap(iter(stage), name)
        if batch_plan.where is not None:
            pipeline = tap(iter(BatchSelectOperator(pipeline, batch_plan.where)), "SELECT")
        return pipeline, scan, probes

    def _collect_plain(self, pipeline: Iterator, batch_plan: BatchQueryPlan,
                       spec: QuerySpec,
                       abort_check=None) -> Tuple[List[Dict[str, Any]], bool]:
        """Project rows up to the limit; abort (checked per batch) when the
        token says the partitions before this one already satisfy it."""
        rows: List[Dict[str, Any]] = []
        for block in BatchProjectOperator(pipeline, batch_plan.projections):
            rows.extend(block)
            if spec.limit is not None and len(rows) >= spec.limit:
                return rows[:spec.limit], False
            if abort_check is not None and abort_check():
                return rows, True
        return rows, False

    def _collect_ordered(self, pipeline: Iterator, batch_plan: BatchQueryPlan,
                         spec: QuerySpec):
        """Project rows while remembering their sort keys (evaluated
        pre-projection, columnwise) as ``(sort_key, row)`` candidates."""
        candidates = []
        for batch in pipeline:
            key_columns = [evaluate(batch) for evaluate in batch_plan.order_keys]
            projection_columns = [(name, evaluate(batch))
                                  for name, evaluate in batch_plan.projections]
            for index in range(len(batch)):
                keys = [sort_key(column[index]) for column in key_columns]
                row = {}
                for name, column in projection_columns:
                    value = column[index]
                    if hasattr(value, "materialize"):
                        value = value.materialize()
                    row[name] = value
                candidates.append((keys, row))
        if spec.limit is not None and len(candidates) > spec.limit:
            # Per-partition top-k: under the coordinator's stable comparator a
            # row beyond this partition's local top-`limit` can never reach
            # the global answer, so only `limit` candidates cross the
            # exchange and the coordinator sorts parallelism*limit rows.
            candidates = sort_candidates(candidates, spec.order_by, spec.limit)
        return candidates

    # ------------------------------------------------------------------ coordinator stage

    def _coordinator_stage(self, spec: QuerySpec, outputs: Sequence[Tuple[str, Any]]):
        """Merge per-partition outputs, always in partition-id order, so the
        result is independent of worker scheduling."""
        if spec.is_aggregation:
            partials = [payload for _, payload in outputs]
            merged = merge_partials(partials, spec.aggregates)
            rows = finalize_groups(merged, spec)
            return order_and_limit(rows, spec)
        if spec.order_by:
            candidates: List[Tuple[Sequence[Any], Dict[str, Any]]] = []
            for _, payload in outputs:
                candidates.extend(payload)
            return [row for _, row in sort_candidates(candidates, spec.order_by, spec.limit)]
        plain_rows: List[Dict[str, Any]] = []
        for _, payload in outputs:
            plain_rows.extend(payload)
            if spec.limit is not None and len(plain_rows) >= spec.limit:
                break
        if spec.limit is not None:
            return plain_rows[:spec.limit]
        return plain_rows

    # ------------------------------------------------------------------ schema broadcast

    def _broadcast_schemas(self, dataset: Dataset, stats: ExecutionStats) -> None:
        """Serialize each partition's schema to every other partition (§3.4.1)."""
        if not dataset.config.storage_format.uses_vector_format:
            return
        if dataset.partition_count <= 1:
            return
        schemas = dataset.schemas()
        payloads = {partition_id: schema.to_bytes()
                    for partition_id, schema in schemas.items() if schema is not None}
        if not payloads:
            return
        receivers = dataset.partition_count - 1
        stats.schema_broadcasts += 1
        stats.schema_broadcast_bytes += sum(len(payload) for payload in payloads.values()) * receivers


def _terminal_stats(name: str, rows_out: int, started: float) -> OperatorStats:
    """Stats for a materializing terminal stage (GROUP BY / sort / project).

    These stages drain their input inside one call rather than being pulled
    batch by batch, so they are timed around the drain instead of per ``next()``;
    ``seconds`` stays inclusive, consistent with the probe convention."""
    ended = time.perf_counter()
    return OperatorStats(operator=name, rows_out=rows_out,
                         seconds=ended - started, start=started, end=ended)
