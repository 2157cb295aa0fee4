"""Physical operators: one pipeline of :class:`ColumnBatch` iterators per partition.

A compiled job (paper Figure 5) is a chain of operators per partition —
scan, assign/let, unnest, select, project, pre-aggregation — connected to a
coordinator stage through an exchange.  Each stage here is a Python iterator
of column batches, which keeps the pipeline lazy: a LIMIT without ORDER BY
stops scanning as soon as it is satisfied.  The stages evaluate the query's
*compiled* expressions (see :mod:`repro.query.batch_compile`) over column
lists, so untouched fields are never materialized.

The scan is where the paper's field-access consolidation happens: for a
vector-based format it fills one column per requested path with a single
``get_values()`` walk per record (paper §3.4.2).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..cache import SliceScanStats
from ..types import AMultiset, MISSING, Missing, collection_items, sort_key
from ..vector.batch import ColumnBatch
from .aggregates import get_aggregate
from .expressions import access_path, is_absent
from .plan import AggregateSpec, IndexProbe, OrderKey, QuerySpec


def merge_partials(partials: Sequence[Dict[Tuple[Any, ...], List[Any]]],
                   aggregates: Sequence[AggregateSpec]) -> Dict[Tuple[Any, ...], List[Any]]:
    """Coordinator-side merge of per-partition partial aggregation states."""
    functions = [get_aggregate(spec.function) for spec in aggregates]
    merged: Dict[Tuple[Any, ...], List[Any]] = {}
    for partial in partials:
        for key, states in partial.items():
            existing = merged.get(key)
            if existing is None:
                merged[key] = list(states)
            else:
                merged[key] = [function.merge(current, incoming)
                               for function, current, incoming in zip(functions, existing, states)]
    return merged


def finalize_groups(groups: Dict[Tuple[Any, ...], List[Any]], spec: QuerySpec) -> List[Dict[str, Any]]:
    """Turn merged group states into output rows.

    Aggregates without GROUP BY make one row even over no input (SQL: count
    0, every other aggregate null) — what each function's fresh state
    finalizes to."""
    functions = [get_aggregate(aggregate.function) for aggregate in spec.aggregates]
    if not groups and not spec.group_keys:
        groups = {(): [function.create() for function in functions]}
    rows = []
    for key, states in groups.items():
        row: Dict[str, Any] = {}
        for (name, _), part in zip(spec.group_keys, key):
            row[name] = part.original if isinstance(part, _HashableKey) else part
        for aggregate, function, state in zip(spec.aggregates, functions, states):
            row[aggregate.output] = function.finalize(state)
        rows.append(row)
    return rows


def sort_candidates(candidates: List[Tuple[Sequence[Any], Any]], order_by: Sequence[OrderKey],
                    limit: Optional[int] = None) -> List[Tuple[Sequence[Any], Any]]:
    """The one ORDER BY + LIMIT: ``candidates`` pair a row with its keys, one
    :func:`sort_key` per ``order_by`` entry.

    Stable per-key passes, least-significant key first, so each key honours
    its own ASC/DESC direction and ties keep their input order.  The
    per-partition top-k, the coordinator's global sort and the grouped
    :func:`order_and_limit` all sort here, so they apply the exact same
    comparator — which is what makes the top-k truncation safe.
    """
    for position in range(len(order_by) - 1, -1, -1):
        candidates = sorted(candidates, key=lambda pair, p=position: pair[0][p],
                            reverse=order_by[position].descending)
    return candidates if limit is None else candidates[:limit]


def order_and_limit(rows: List[Dict[str, Any]], spec: QuerySpec) -> List[Dict[str, Any]]:
    """ORDER BY and LIMIT of a grouped query: its keys name output columns."""
    candidates = [([sort_key(row.get(key.expr_or_column)) for key in spec.order_by], row)
                  for row in rows]
    return [row for _, row in sort_candidates(candidates, spec.order_by, spec.limit)]


class _HashableKey:
    """Hashable stand-in for an unhashable (list/dict/multiset) group-key part.

    Hashing and equality use the converted tuple form so grouping still
    merges identical keys across partitions, while the first-seen original
    value is preserved for :func:`finalize_groups` — GROUP BY on a list- or
    object-valued key returns the original lists/dicts, not tuples.
    """

    __slots__ = ("original", "_converted")

    def __init__(self, original: Any, converted: Any) -> None:
        self.original = original
        self._converted = converted

    def __hash__(self) -> int:
        return hash(self._converted)

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, _HashableKey):
            return self._converted == other._converted
        return self._converted == other

    def __repr__(self) -> str:
        return f"_HashableKey({self.original!r})"


#: The key kinds :func:`_key_column` converts: the unhashable ones and MISSING.
_CONVERTED_KINDS = (list, dict, AMultiset, Missing)


def _hashable(value: Any) -> Any:
    converted = _converted(value)
    if converted is value:
        return value
    return _HashableKey(value, converted)


def _converted(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_converted(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((key, _converted(item)) for key, item in value.items()))
    if isinstance(value, AMultiset):
        return tuple(sorted((repr(item) for item in value.items)))
    return value


# ---------------------------------------------------------------------------
# partition pipeline stages
# ---------------------------------------------------------------------------


def unnest_items(collection: Any) -> List[Any]:
    """The items an UNNEST iterates: SQL++ treats a non-collection value as a
    singleton collection and an absent one as empty."""
    items = collection_items(collection)
    if items is not None:
        return items
    return [] if is_absent(collection) else [collection]


def unnest_batch(batch: ColumnBatch, item_lists: Sequence[Sequence[Any]],
                 item_var: str) -> Tuple[List[int], ColumnBatch]:
    """One row per item: row ``i`` of ``batch`` replicated once per item of
    ``item_lists[i]``, the item bound whole in the column ``(item_var, ())``
    exactly like a LET name (overriding any column of that name).  Returns
    each output row's source row and the flattened batch — the step shared by
    the generic UNNEST and a quantifier's item batch."""
    indices: List[int] = []
    items: List[Any] = []
    for row, row_items in enumerate(item_lists):
        indices.extend([row] * len(row_items))
        items.extend(row_items)
    flattened = batch.take(indices)
    flattened.columns[(item_var, ())] = items
    return indices, flattened


class BatchScanOperator:
    """Data source: chunks a partition's scan runs into ColumnBatches.

    Also the index-probe source when ``probe`` is given (candidate views
    instead of a full scan).  The candidates are a superset of the answer
    (the newest version of a key an older, in-range version made a
    candidate — see ``LSMBTree.probe``), so the probe's residual predicate
    (the query's full WHERE clause) is always re-applied by the SELECT
    downstream.

    The ``extractor`` resolves every requested path of a record in one pass
    (a single trie-guided walk for vector-based records), and full scans may
    be served from the decoded column-slice cache instead.  Plans without
    consolidated access request no paths here: their evaluators call
    ``get_field`` on ``batch.views`` where the query uses the value.
    """

    def __init__(self, partition, record_var: str, scan_paths: Sequence[Tuple[Any, ...]],
                 batch_size: int, extractor, probe: Optional[IndexProbe] = None,
                 use_slice_cache: bool = False, params: Sequence[Any] = ()) -> None:
        self.partition = partition
        self.record_var = record_var
        self.scan_paths = list(scan_paths)
        self.batch_size = max(1, batch_size)
        self.extractor = extractor
        self.probe = probe
        #: Serve full scans through the environment's decoded column-slice
        #: cache.  Only set for plans that never read ``batch.views`` (the
        #: executor checks ``BatchQueryPlan.needs_views``): their batches
        #: are built column-first with ``views=None``.
        self.use_slice_cache = use_slice_cache
        #: The run's parameters, handed to every batch.
        self.params = params
        #: Records (or index-probe candidates) examined.
        self.records_scanned = 0
        self.batches_emitted = 0
        #: Column-slice cache row hits/misses of this scan (EXPLAIN ANALYZE).
        self.slice_stats = SliceScanStats()

    def _runs(self) -> Iterator[Tuple[Any, Any, int, int]]:
        """``(columns, views, start, stop)`` runs (:meth:`Partition.scan_runs`):
        rows ``start .. stop - 1`` of the decoded ``columns`` the slice cache
        served, or of the record ``views`` to extract from."""
        if self.probe is not None:
            probe = self.probe
            candidates = self.partition.probe_views(probe.index_name, probe.low, probe.high,
                                                    probe.low_inclusive, probe.high_inclusive)
            # A batch's worth of candidates per run keeps the probe as lazy
            # as the batches it fills.
            runs = iter(lambda: list(islice(candidates, self.batch_size)), [])
            return ((None, views, 0, len(views)) for views in runs)
        if self.use_slice_cache:
            return self.partition.scan_runs(self.scan_paths, self.extractor, self.slice_stats)
        return self.partition.scan_runs()

    def __iter__(self) -> Iterator[ColumnBatch]:
        """Fill each batch run by run: a decoded run's columns by one
        ``extend`` of a slice per column, a run of views by one extract per
        row.  Every batch but the last holds exactly ``batch_size`` rows."""
        size = self.batch_size
        extract = self.extractor.extract if self.scan_paths else None
        columns: List[List[Any]] = [[] for _ in self.scan_paths]
        views: List[Any] = []
        filled = 0
        for run_columns, run_views, start, stop in self._runs():
            while start < stop:
                end = min(stop, start + size - filled)
                if run_columns is not None:
                    for column, values in zip(columns, run_columns):
                        column.extend(values[start:end])
                else:
                    taken = run_views[start:end]
                    if extract is not None:
                        for view in taken:
                            for column, value in zip(columns, extract(view)):
                                column.append(value)
                    views.extend(taken)
                filled += end - start
                start = end
                if filled == size:
                    yield self._emit(columns, views, filled)
                    columns = [[] for _ in self.scan_paths]
                    views = []
                    filled = 0
        if filled:
            yield self._emit(columns, views, filled)

    def _emit(self, columns: List[List[Any]], views: List[Any], length: int) -> ColumnBatch:
        self.batches_emitted += 1
        self.records_scanned += length
        keyed = {(self.record_var, tuple(path)): column
                 for path, column in zip(self.scan_paths, columns)}
        return ColumnBatch(None if self.use_slice_cache else views, keyed, length,
                           self.params)


class BatchLetOperator:
    """LET clauses as computed columns, keyed ``(name, ())`` like a whole var."""

    def __init__(self, child: Iterator[ColumnBatch],
                 lets: Sequence[Tuple[str, Any]]) -> None:
        self.child = child
        self.lets = lets

    def __iter__(self) -> Iterator[ColumnBatch]:
        for batch in self.child:
            for name, evaluate in self.lets:
                batch.columns[(name, ())] = evaluate(batch)
            yield batch


class BatchUnnestOperator:
    """UNNEST a collection column: replicate rows, bind the item as a column.

    The item is keyed ``(item_var, ())`` exactly like a LET name, so whole-item
    uses, field accesses on the item and further UNNESTs over it compile
    like any other bound variable.
    """

    def __init__(self, child: Iterator[ColumnBatch], item_var: str, collection) -> None:
        self.child = child
        self.item_var = item_var
        self.collection = collection

    def __iter__(self) -> Iterator[ColumnBatch]:
        for batch in self.child:
            item_lists = [unnest_items(collection) for collection in self.collection(batch)]
            indices, flattened = unnest_batch(batch, item_lists, self.item_var)
            if indices:
                yield flattened


class BatchPushdownUnnestOperator:
    """Flatten a pushed-down UNNEST (paper §3.4.2): the scan extracted only the
    requested scalars of each item — aligned wildcard columns on the record
    variable — and this stage fans them out into item columns keyed
    ``(item_var, item_path)`` without ever materializing the item objects.

    Aligned list values produce one output row per item (MISSING-padded when
    a column is short); a non-list value at the wildcard prefix unnests as a
    SQL++ singleton collection.
    """

    def __init__(self, child: Iterator[ColumnBatch], record_var: str, item_var: str,
                 pushdown_paths: Dict[Tuple[Any, ...], Tuple[Any, ...]]) -> None:
        self.child = child
        self.record_var = record_var
        self.item_var = item_var
        self.pushdown_paths = pushdown_paths

    def __iter__(self) -> Iterator[ColumnBatch]:
        for batch in self.child:
            flattened = self._flatten(batch)
            if flattened.length:
                yield flattened

    def _flatten(self, batch: ColumnBatch) -> ColumnBatch:
        full_columns = {item_path: batch.columns[(self.record_var, full_path)]
                        for item_path, full_path in self.pushdown_paths.items()}
        indices: List[int] = []
        item_columns: Dict[Tuple[Any, ...], List[Any]] = {
            item_path: [] for item_path in self.pushdown_paths}
        for row in range(batch.length):
            row_values = {item_path: column[row]
                          for item_path, column in full_columns.items()}
            length = 0
            scalar: Any = None
            has_scalar = False
            for value in row_values.values():
                if isinstance(value, list):
                    length = max(length, len(value))
                else:
                    has_scalar = True
                    scalar = value
            if has_scalar and length == 0:
                for item in unnest_items(scalar):
                    indices.append(row)
                    for item_path, column in item_columns.items():
                        column.append(access_path(item, item_path))
                continue
            for index in range(length):
                indices.append(row)
                for item_path, column in item_columns.items():
                    values = row_values[item_path]
                    column.append(values[index]
                                  if isinstance(values, list) and index < len(values)
                                  else MISSING)
        flattened = batch.take(indices)
        for item_path, column in item_columns.items():
            flattened.columns[(self.item_var, item_path)] = column
        return flattened


class BatchSelectOperator:
    """WHERE filter over a predicate column."""

    def __init__(self, child: Iterator[ColumnBatch], predicate) -> None:
        self.child = child
        self.predicate = predicate

    def __iter__(self) -> Iterator[ColumnBatch]:
        for batch in self.child:
            column = self.predicate(batch)
            indices = [row for row, value in enumerate(column)
                       if not is_absent(value) and value]
            if len(indices) == batch.length:
                yield batch
            elif indices:
                yield batch.take(indices)


# ---------------------------------------------------------------------------
# terminal stages: drain the pipeline into the partition's payload
# ---------------------------------------------------------------------------


def _project(batch: ColumnBatch, projections: Sequence[Tuple[str, Any]]) -> List[Dict[str, Any]]:
    """SELECT projections of one batch, as output rows."""
    columns = [(name, evaluate(batch)) for name, evaluate in projections]
    rows = []
    for row in range(batch.length):
        out: Dict[str, Any] = {}
        for name, column in columns:
            value = column[row]
            if hasattr(value, "materialize"):
                value = value.materialize()
            out[name] = value
        rows.append(out)
    return rows


def project_rows(child: Iterator[ColumnBatch], projections: Sequence[Tuple[str, Any]],
                 limit: Optional[int] = None) -> List[Dict[str, Any]]:
    """PROJECT: output rows in scan order, pulling no batch past ``limit``."""
    rows: List[Dict[str, Any]] = []
    for batch in child:
        rows.extend(_project(batch, projections))
        if limit is not None and len(rows) >= limit:
            return rows[:limit]
    return rows


def project_sorted(child: Iterator[ColumnBatch], projections: Sequence[Tuple[str, Any]],
                   order_keys: Sequence[Any], order_by: Sequence[OrderKey],
                   limit: Optional[int] = None) -> List[Tuple[Sequence[Any], Dict[str, Any]]]:
    """SORT+PROJECT: rows with their sort keys (evaluated pre-projection,
    columnwise) as the ``(keys, row)`` candidates :func:`sort_candidates` takes."""
    candidates: List[Tuple[Sequence[Any], Dict[str, Any]]] = []
    for batch in child:
        key_columns = [evaluate(batch) for evaluate in order_keys]
        candidates.extend(([sort_key(column[index]) for column in key_columns], row)
                          for index, row in enumerate(_project(batch, projections)))
    if limit is not None and len(candidates) > limit:
        # Per-partition top-k: under the coordinator's stable comparator a
        # row beyond this partition's local top-`limit` can never reach
        # the global answer, so only `limit` candidates cross the
        # exchange and the coordinator sorts parallelism*limit rows.
        candidates = sort_candidates(candidates, order_by, limit)
    return candidates


def _key_column(column: List[Any]) -> List[Any]:
    """A GROUP BY key column as hashable parts (MISSING kept as itself): the
    column itself unless it holds a list, dict, multiset or MISSING, and then
    converted whole by :func:`_hashable`."""
    if any(issubclass(kind, _CONVERTED_KINDS) for kind in set(map(type, column))):
        return list(map(_hashable, column))
    return column


def group_partials(child: Iterator[ColumnBatch], group_keys: Sequence[Tuple[str, Any]],
                   aggregates: Sequence[AggregateSpec],
                   argument_evals: Sequence[Optional[Any]]) -> Dict[Tuple[Any, ...], List[Any]]:
    """GROUP BY (partial): per-partition hash aggregation into mergeable states.

    This is the local half of the parallel aggregation in paper Figure 5:
    the ``{key tuple: [states]}`` partials arrive at the coordinator over the
    (conceptual) hash-partition exchange, where :func:`merge_partials` and
    :func:`finalize_groups` combine them.

    Per batch, one pass sorts the row indices into groups by key, then each
    aggregate folds a group's argument values in one ``fold`` call (without
    GROUP BY, the whole column; COUNT(*) merges the row count).  The states
    are bit-identical to folding row by row: groups keep first-appearance
    order (and the first-seen key object), a group's values are folded in
    row order (so floats add in the same order and the first minimum or
    maximum is kept), a key with a MISSING part is skipped while NULL is a
    group of its own, True, 1 and 1.0 are one group, and a bad value raises
    the same exception type.
    """
    functions = [get_aggregate(spec.function) for spec in aggregates]
    groups: Dict[Tuple[Any, ...], List[Any]] = {}
    for batch in child:
        key_columns = [evaluate(batch) for _, evaluate in group_keys]
        columns = [evaluate(batch) if evaluate is not None else None for evaluate in argument_evals]
        buckets: Dict[Tuple[Any, ...], Optional[List[int]]] = {(): None}
        if key_columns:
            hashable = [_key_column(column) for column in key_columns]
            buckets = defaultdict(list)
            for row, key in enumerate(zip(*hashable)):
                buckets[key].append(row)
            if any(new is not old for new, old in zip(hashable, key_columns)):
                # Only a converted column can hold MISSING.
                for key in [key for key in buckets if MISSING in key]:
                    del buckets[key]
        for key, rows in buckets.items():
            states = groups.get(key)
            if states is None:
                states = groups[key] = [function.create() for function in functions]
            for index, (function, column) in enumerate(zip(functions, columns)):
                if column is None:  # COUNT(*)
                    states[index] = function.merge(states[index],
                                                   batch.length if rows is None else len(rows))
                else:
                    states[index] = function.fold(states[index], column if rows is None
                                                  else [column[row] for row in rows])
    return groups
