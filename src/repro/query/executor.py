"""Query executor: parallel per-partition pipelines + a coordinator stage.

Execution follows the paper's Hyracks job model (Figure 5): each run costs
the access path once, then every partition opens that scan or index probe
and folds the compiled plan's stage list over it
(:class:`~repro.query.batch_compile.Stage`: LET / UNNEST / SELECT over
column batches, then a terminal projection, sort or partial aggregation)
into one local pipeline; results
then flow through a conceptual exchange to a coordinator stage that merges
partial aggregates, applies global ordering and LIMIT, and returns the rows.
:meth:`QueryExecutor.prepare_physical` is the one planner — EXPLAIN,
prepared statements and the plan cache all hold what it returns — and
:class:`ExecutionStats` is the one cost record: every stage is timed on
every run (two clock reads per batch), and EXPLAIN ANALYZE, the tracer's
``operator.*`` spans and the metrics registry all read that record.

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
from ..core.dataset import Dataset
from ..errors import QueryDeadlineError, QueryError
from ..obs import NULL_SPAN, StatsDictMixin
from ..obs import tracer as _tracer
from ..types import deep_copy
from .batch_compile import compile_query
from .operators import (
    BatchScanOperator,
    finalize_groups,
    merge_partials,
    order_and_limit,
    sort_candidates,
)
from .optimizer import AccessPathChoice, Optimizer, choose_access_path
from .plan import QuerySpec

#: Records per ColumnBatch unless the executor is given another ``batch_size``.
DEFAULT_BATCH_SIZE = 1024


@dataclass
class OperatorStats(StatsDictMixin):
    """Measured cost of one operator within one partition's pipeline.

    ``seconds`` is *inclusive* time — the wall clock spent pulling rows out
    of this operator, which includes everything upstream of it (the same
    convention as PostgreSQL's ``EXPLAIN ANALYZE`` actual times).  Measured
    on every run: a stage costs two clock reads per batch pulled.
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
    #: Per-operator actuals, one per plan stage in pipeline order (empty
    #: only for a partition the LIMIT token skipped before it started).
    operators: List[OperatorStats] = field(default_factory=list)
    #: Column-slice cache rows served / decoded by this partition's scan.
    slice_hits: int = 0
    slice_misses: int = 0


def _partition_total(attribute: str, doc: str) -> property:
    return property(lambda self: sum(getattr(partition, attribute)
                                     for partition in self.per_partition), doc=doc)


@dataclass
class ExecutionStats(StatsDictMixin):
    """Measured and simulated costs of one query execution: the one cost
    record EXPLAIN ANALYZE, the tracer's operator spans and the metrics
    registry read.  Whatever sums over partitions is derived from
    ``per_partition``, never stored beside it."""

    _DERIVED = ("records_scanned", "bytes_read", "bytes_written", "simulated_io_seconds",
                "batches_processed", "slice_cache_hits", "slice_cache_misses",
                "sequential_equivalent_seconds", "measured_speedup",
                "cache_hit_ratio", "cardinality_error")

    wall_seconds: float = 0.0
    #: Measured time of the coordinator stage (merge partials / global sort /
    #: LIMIT) — captured explicitly, not inferred from a subtraction.
    coordinator_seconds: float = 0.0
    #: Worker-pool width the execution actually used.
    parallelism: int = 1
    rows_returned: int = 0
    schema_broadcast_bytes: int = 0
    schema_broadcasts: int = 0
    #: Records per ColumnBatch.
    batch_size: int = 0
    per_partition: List[PartitionStats] = field(default_factory=list)
    #: Access path the optimizer chose: "FullScan" or "IndexProbe".
    access_path: str = "FullScan"
    #: Secondary index probed, when ``access_path == "IndexProbe"``.
    index_name: Optional[str] = None
    #: Optimizer's cardinality estimate at the access path (rows expected to
    #: match the WHERE clause); ``None`` when the cost model had no estimate.
    estimated_rows: Optional[float] = None
    #: Measured rows surviving the filter stage; ``None`` when a LIMIT or the
    #: cancellation token stopped a partition before its scan ran dry.
    actual_matched_rows: Optional[int] = None
    #: Buffer-cache activity of the dataset's environments during the
    #: execution (shared caches: concurrent work on them is counted too).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Where the physical plan came from: "cache" (plan-cache hit — parse,
    #: bind, and optimize were all skipped), "compiled" (cache miss or a
    #: cache-bypassing path), or None when the executor was driven with a
    #: prebuilt QuerySpec directly.
    plan_source: Optional[str] = None

    records_scanned = _partition_total(
        "records_scanned", "Records (or index-probe candidates) examined.")
    bytes_read = _partition_total("bytes_read", "Device bytes the partition pipelines read.")
    bytes_written = _partition_total("bytes_written", "Device bytes written inside the pipelines.")
    simulated_io_seconds = _partition_total("simulated_io_seconds", "Simulated device time.")
    batches_processed = _partition_total("batches", "Column batches the scans emitted.")
    slice_cache_hits = _partition_total(
        "slice_hits", "Rows served from the column-slice cache (full scans only).")
    slice_cache_misses = _partition_total(
        "slice_misses", "Rows decoded into the column-slice cache (full scans only).")

    @property
    def cache_hit_ratio(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def cardinality_error(self) -> Optional[float]:
        """Estimated-vs-actual row-count divergence factor (>= 1.0).

        Computed with +1 smoothing so zero estimates/actuals stay finite:
        ``(max(est, act) + 1) / (min(est, act) + 1)``.  ``None`` without an
        estimate or a measured actual cardinality.
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
    #: The access-path decision this run made (costs, candidates), for
    #: EXPLAIN ANALYZE and benchmark assertions.
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
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 deadline: Optional[float] = None) -> None:
        #: Optimizer rewrites (paper §3.4.2); both off is the Figure 23
        #: "Inferred (un-op)" plan.
        self.consolidate_field_access = consolidate_field_access
        self.pushdown_through_unnest = pushdown_through_unnest
        #: Drop buffer caches before running (used to make query benchmarks
        #: I/O-bound like the paper's cold runs).
        self.cold_cache = cold_cache
        #: Access-path policy: "auto" (cost-based), "scan" (force full scans),
        #: or "index" (probe whenever an indexed predicate exists).
        self.access_path = access_path
        #: Worker-pool width.  ``None`` means one worker per partition;
        #: ``1`` runs partitions inline, sequentially, in partition order.
        self.parallelism = parallelism
        if batch_size < 1:
            raise QueryError(f"batch size must be >= 1, got {batch_size}")
        #: Records per ColumnBatch.
        self.batch_size = batch_size
        #: Per-query deadline in seconds; queries that exceed it raise
        #: :class:`~repro.errors.QueryDeadlineError` cooperatively at batch
        #: boundaries.  ``None`` = no deadline; ``0`` expires immediately
        #: (tests).
        if deadline is not None and deadline < 0:
            raise QueryError(f"query deadline must be >= 0 seconds, got {deadline}")
        self.deadline = None if deadline is None else float(deadline)

    # ------------------------------------------------------------------ public API

    def execute(self, dataset: Dataset, spec: QuerySpec) -> QueryResult:
        """Optimize and run ``spec``."""
        return self._spanned(dataset, spec=spec)[0]

    def execute_physical(self, dataset: Dataset, physical: PhysicalPlan) -> QueryResult:
        """Run a plan :meth:`prepare_physical` returned (now or on an earlier
        call: the plan cache and prepared statements hold such plans)."""
        return self._spanned(dataset, physical=physical)[0]

    def execute_prepared(self, dataset: Dataset,
                         spec: QuerySpec) -> Tuple[QueryResult, PhysicalPlan]:
        """:meth:`execute`, returning the plan it ran alongside the result."""
        return self._spanned(dataset, spec=spec)

    def _spanned(self, dataset: Dataset, spec: Optional[QuerySpec] = None,
                 physical: Optional[PhysicalPlan] = None) -> Tuple[QueryResult, PhysicalPlan]:
        """The one ``query.execute`` span: plan ``spec`` unless the caller
        brought a plan, run it, label the span with the outcome."""
        with _tracer.span("query.execute", dataset=dataset.config.name) as execute_span:
            if physical is None:
                physical = self.prepare_physical(dataset, spec)
            result = self._execute(dataset, physical)
            execute_span.set_attribute("rows", len(result.rows))
            execute_span.set_attribute("access_path", result.stats.access_path)
            return result, physical

    def prepare_physical(self, dataset: Dataset, spec: QuerySpec) -> PhysicalPlan:
        """Rewrite and compile ``spec`` down to the physical plan without
        executing it.

        The engine's one planner: execution, EXPLAIN, prepared statements
        and the plan cache all hold what this returns, so what is shown or
        cached is what runs.  The plan depends only on ``spec``, the
        dataset's storage format and this executor's optimizer flags — the
        access path is costed per run — so it is immutable and shared safely
        across executions, threads and dataset changes; pair it with
        :meth:`execute_physical`.  Cache keys must include
        :meth:`plan_signature`.  A query the pipeline cannot run raises
        :class:`~repro.errors.QueryError` here, before any I/O.
        """
        with _tracer.span("query.optimize"):
            access_plan = Optimizer(self.consolidate_field_access,
                                    self.pushdown_through_unnest).plan(
                spec, dataset.config.storage_format.uses_vector_format)
            effective_spec = access_plan.effective_spec(spec)
            return PhysicalPlan(spec=effective_spec,
                                batch_plan=compile_query(effective_spec, access_plan))

    def plan_signature(self) -> Tuple:
        """The plan-relevant part of this executor's configuration.

        Two executors with equal signatures produce interchangeable
        :class:`PhysicalPlan` objects for the same spec, so the signature is
        part of every plan-cache key.
        """
        return (self.consolidate_field_access, self.pushdown_through_unnest)

    def _execute(self, dataset: Dataset, physical: PhysicalPlan) -> QueryResult:
        spec = physical.spec
        # Costed once per run, before any partition starts, against the
        # dataset as it is now: every partition runs the same access path.
        choice = choose_access_path(spec, dataset, force=self.access_path)
        stats = ExecutionStats(access_path=choice.path.name,
                               index_name=choice.path.index_name if choice.uses_index else None,
                               estimated_rows=choice.estimated_rows,
                               batch_size=self.batch_size,
                               parallelism=self._resolve_parallelism(dataset))
        environments = list({id(env): env for env in dataset.environments}.values())
        if self.cold_cache:
            for environment in environments:
                environment.drop_caches()
        caches_before = [environment.buffer_cache.stats_snapshot()
                         for environment in environments]
        started = time.perf_counter()

        if spec.repartitions:
            self._broadcast_schemas(dataset, stats)

        token: Optional[LimitCancellation] = None
        if physical.batch_plan.plain_limit is not None and dataset.partition_count > 1:
            token = LimitCancellation(spec.limit, dataset.partition_count)

        guard = _DeadlineGuard(self.deadline) if self.deadline is not None else None

        outputs: List[Any] = []
        if stats.parallelism <= 1:
            for index, partition in enumerate(dataset.partitions):
                output, partition_stats = self._run_partition(
                    index, partition, physical, choice, token, guard)
                outputs.append(output)
                stats.per_partition.append(partition_stats)
        else:
            with ThreadPoolExecutor(max_workers=stats.parallelism,
                                    thread_name_prefix="repro-query") as pool:
                # wrap_context per submission: each worker needs its own
                # context copy (a Context can only be entered once at a
                # time), and the no-op path returns the method unchanged.
                futures = [pool.submit(_tracer.wrap_context(self._run_partition),
                                       index, partition, physical, choice, token, guard)
                           for index, partition in enumerate(dataset.partitions)]
                for future in futures:
                    output, partition_stats = future.result()
                    outputs.append(output)
                    stats.per_partition.append(partition_stats)
        if guard is not None:
            guard.check()

        coordinator_started = time.perf_counter()
        with _tracer.span("query.coordinator"):
            rows = self._coordinator_stage(spec, outputs)
            if not physical.batch_plan.needs_views and not choice.uses_index:
                # The plan read the column-slice cache, whose values travel
                # by reference all the way here: the result leaves as its
                # own copy, so mutating it can never reach a cached slice.
                rows = deep_copy(rows)
        ended = time.perf_counter()
        stats.coordinator_seconds = ended - coordinator_started
        stats.wall_seconds = ended - started
        stats.rows_returned = len(rows)
        for environment, before in zip(environments, caches_before):
            cache_delta = environment.buffer_cache.stats_snapshot().diff(before)
            stats.cache_hits += cache_delta.hits
            stats.cache_misses += cache_delta.misses
        stats.actual_matched_rows = self._matched_rows(physical.batch_plan.plain_limit, stats)
        self._publish_metrics(dataset, stats)
        return QueryResult(rows, stats, access_path=choice)

    @staticmethod
    def _matched_rows(plain_limit: Optional[int], stats: ExecutionStats) -> Optional[int]:
        """Rows that left the filter stage, summed over the partitions — the
        measured analog of the cost model's selectivity-based estimate, and
        the feedback signal adaptive statistics would consume.

        ``None`` when any partition stopped before its scan ran dry (its
        LIMIT filled, or the cancellation token stopped or skipped it): the
        rows counted so far say nothing about how many match the predicate.
        """
        matched = 0
        for partition in stats.per_partition:
            if partition.cancelled or (plain_limit is not None
                                       and partition.operators[-1].rows_out >= plain_limit):
                return None
            # [-1] is the terminal stage (PROJECT / GROUP BY / SORT); [-2] is
            # the last pipeline operator, whose rows passed every WHERE
            # conjunct: a SELECT, an UNNEST of the records a SELECT before it
            # kept, or the scan/unnest when there is no WHERE clause.
            matched += partition.operators[-2].rows_out
        return matched

    @staticmethod
    def _publish_metrics(dataset: Dataset, stats: ExecutionStats) -> None:
        registry = dataset.metrics
        registry.counter("queries_executed").inc()
        registry.counter("query_rows_returned").inc(stats.rows_returned)
        registry.counter("query_records_scanned").inc(stats.records_scanned)
        registry.histogram("query_wall_seconds").observe(stats.wall_seconds)
        registry.counter("query_batches_processed").inc(stats.batches_processed)

    def _resolve_parallelism(self, dataset: Dataset) -> int:
        requested = self.parallelism
        if requested is None:
            requested = dataset.partition_count
        if requested < 1:
            raise QueryError(f"parallelism must be >= 1, got {requested}")
        return min(requested, dataset.partition_count)

    # ------------------------------------------------------------------ local stage

    def _run_partition(self, index: int, partition, physical: PhysicalPlan,
                       choice: AccessPathChoice, token: Optional[LimitCancellation],
                       guard: Optional[_DeadlineGuard]):
        """One partition's full local pipeline (runs on a worker thread)."""
        partition_stats = PartitionStats(partition_id=partition.partition_id)
        partition_started = time.perf_counter()
        if guard is not None:
            guard.check()
        if token is not None and token.satisfied_before(index):
            partition_stats.cancelled = True
            partition_stats.seconds = time.perf_counter() - partition_started
            return [], partition_stats

        device = partition.environment.device
        terminal = physical.batch_plan.stages[-1]
        with _tracer.span("query.partition",
                          partition=partition.partition_id) as partition_span:
            with device.accounting_scope() as io_scope:
                scan, probes = self._local_pipeline(partition, physical, choice)
                pipeline: Iterator = probes[-1]
                if guard is not None:
                    pipeline = guard.guarded(pipeline)
                if token is not None:
                    pipeline = self._until_satisfied(pipeline, token, index, partition_stats)
                # The terminal stage drains its input inside one call rather
                # than being pulled batch by batch, so it is timed around the
                # drain; ``seconds`` stays inclusive like the probes'.
                stage_started = time.perf_counter()
                output = terminal.operator(pipeline)
                stage_ended = time.perf_counter()
                if token is not None and not partition_stats.cancelled:
                    token.mark_complete(index, len(output))
            partition_span.set_attribute("rows_scanned", scan.records_scanned)
        partition_stats.seconds = time.perf_counter() - partition_started
        partition_stats.records_scanned = scan.records_scanned
        partition_stats.batches = scan.batches_emitted
        partition_stats.slice_hits = scan.slice_stats.hits
        partition_stats.slice_misses = scan.slice_stats.misses
        partition_stats.bytes_read = io_scope.bytes_read
        partition_stats.bytes_written = io_scope.bytes_written
        partition_stats.simulated_io_seconds = device.simulated_seconds(io_scope)
        # All page reads happen while the source operator pulls pages;
        # downstream operators only touch decoded rows.
        probes[0].stats.bytes_read = io_scope.bytes_read
        partition_stats.operators = [probe.stats for probe in probes]
        partition_stats.operators.append(OperatorStats(
            operator=terminal.name, rows_out=len(output),
            seconds=stage_ended - stage_started, start=stage_started, end=stage_ended))
        if _tracer.enabled and partition_span is not NULL_SPAN:
            # Operator timing comes from iterator probes, not context
            # managers, so the spans are synthesized after the fact from the
            # same record, stamped with the probes' first/last pull.
            for op_stats in partition_stats.operators:
                if op_stats.start:
                    _tracer.record_span(f"operator.{op_stats.operator}",
                                        trace_id=partition_span.trace_id,
                                        parent_id=partition_span.span_id,
                                        start=op_stats.start, end=op_stats.end,
                                        rows=op_stats.rows_out,
                                        seconds=round(op_stats.seconds, 6))
        return output, partition_stats

    @staticmethod
    def _until_satisfied(pipeline: Iterator, token: LimitCancellation, index: int,
                         partition_stats: PartitionStats) -> Iterator:
        """Stop pulling (checked per batch) once the partitions before this
        one fill the LIMIT: nothing this partition finds can reach the answer."""
        for batch in pipeline:
            yield batch
            if token.satisfied_before(index):
                partition_stats.cancelled = True
                return

    def _local_pipeline(self, partition, physical: PhysicalPlan, choice: AccessPathChoice):
        """Open the scan ``choice`` names and fold the plan's stage list over
        it into this partition's operator chain, each step behind an
        :class:`_OperatorProbe` named after it; returns the scan and the
        probes in pipeline order (the last is the chain's tail)."""
        spec, batch_plan = physical.spec, physical.batch_plan
        batch_size = self.batch_size
        if batch_plan.plain_limit is not None:
            # Plain LIMIT: chunking by at most `limit` keeps the scan lazy —
            # it stops within one batch of the limit being satisfied (it may
            # overshoot by less than one batch when a WHERE filters rows).
            batch_size = min(batch_size, batch_plan.plain_limit)
        *operators, _ = batch_plan.stages
        scan = BatchScanOperator(partition, spec.record_var, batch_plan.scan_paths,
                                 batch_size, batch_plan.extractor,
                                 probe=choice.path if choice.uses_index else None,
                                 use_slice_cache=not batch_plan.needs_views)
        probes = [_OperatorProbe(scan, choice.stage_name)]
        for stage in operators:
            probes.append(_OperatorProbe(stage.operator(probes[-1]), stage.name))
        return scan, probes

    # ------------------------------------------------------------------ coordinator stage

    def _coordinator_stage(self, spec: QuerySpec, outputs: Sequence[Any]):
        """Merge per-partition payloads (what each plan's terminal stage
        returned), always in partition-id order, so the result is independent
        of worker scheduling."""
        if spec.is_aggregation:
            merged = merge_partials(outputs, spec.aggregates)
            rows = finalize_groups(merged, spec)
            return order_and_limit(rows, spec)
        if spec.order_by:
            candidates: List[Tuple[Sequence[Any], Dict[str, Any]]] = []
            for payload in outputs:
                candidates.extend(payload)
            return [row for _, row in sort_candidates(candidates, spec.order_by, spec.limit)]
        plain_rows: List[Dict[str, Any]] = []
        for payload in outputs:
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
