"""Reference model of query evaluation: the oracle the engine is checked against.

A deliberately naive evaluator over plain dict records: nested loops for
LET / UNNEST / WHERE on the ``Expr.evaluate`` interpreter, one partial
aggregation per partition, then the coordinator functions the engine itself
uses (``merge_partials`` / ``finalize_groups`` / ``order_and_limit``).  It
shares no code with the partition pipeline — no column batches, no compiled
evaluators, no optimizer rewrites, no storage — so agreement with it is
evidence, not tautology.  Records are wrapped in ``DictRecordView`` only so
that ``t.a[*].b`` wildcard steps (WoS Q3/Q4) navigate plain dicts.
"""

from typing import Any, Dict, Iterable, Iterator, List, Sequence

from repro.core.dataset import hash_partition
from repro.core.formats import DictRecordView
from repro.query import QuerySpec, get_aggregate
from repro.query.expressions import is_absent
from repro.query.operators import (_hashable, _orderable, finalize_groups, merge_partials,
                                   order_and_limit)
from repro.types import AMultiset, Missing


def partition_records(records: Iterable[Dict[str, Any]], partitions: int = 1,
                      key: str = "id") -> List[List[Dict[str, Any]]]:
    """Group records the way a dataset stores them: hash-partitioned on the
    primary key, each partition in key order (the engine's scan order)."""
    buckets: List[List[Dict[str, Any]]] = [[] for _ in range(partitions)]
    for record in sorted(records, key=lambda record: record[key]):
        buckets[hash_partition(record[key], partitions)].append(record)
    return buckets


def _items(collection: Any) -> List[Any]:
    if isinstance(collection, AMultiset):
        return list(collection.items)
    if isinstance(collection, (list, tuple)):
        return list(collection)
    return [] if is_absent(collection) else [collection]


def _bindings(spec: QuerySpec, records: Sequence[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
    """One environment per (record, unnested items...) combination passing WHERE."""
    for record in records:
        env = {spec.record_var: DictRecordView(record)}
        for clause in spec.lets:
            env[clause.name] = clause.expr.evaluate(env)
        envs = [env]
        for clause in spec.unnests:
            envs = [{**outer, clause.item_var: item} for outer in envs
                    for item in _items(clause.collection.evaluate(outer))]
        for env in envs:
            verdict = True if spec.where is None else spec.where.evaluate(env)
            if not is_absent(verdict) and verdict:
                yield env


def _partial(spec: QuerySpec, records: Sequence[Dict[str, Any]]) -> Dict[Any, List[Any]]:
    functions = [get_aggregate(aggregate.function) for aggregate in spec.aggregates]
    groups: Dict[Any, List[Any]] = {}
    for env in _bindings(spec, records):
        key = tuple(expr.evaluate(env) for _, expr in spec.group_keys)
        if any(isinstance(part, Missing) for part in key):
            continue
        states = groups.setdefault(tuple(_hashable(part) for part in key),
                                   [function.create() for function in functions])
        for index, (function, aggregate) in enumerate(zip(functions, spec.aggregates)):
            value = True if aggregate.argument is None else aggregate.argument.evaluate(env)
            states[index] = function.accumulate(states[index], value)
    return groups


def reference_rows(spec: QuerySpec,
                   partitions: Sequence[Sequence[Dict[str, Any]]]) -> List[Dict[str, Any]]:
    """The rows ``spec`` returns over ``partitions`` (see :func:`partition_records`)."""
    if spec.is_aggregation:
        merged = merge_partials([_partial(spec, records) for records in partitions],
                                spec.aggregates)
        return order_and_limit(finalize_groups(merged, spec), spec)
    candidates = []
    for records in partitions:
        for env in _bindings(spec, records):
            sort_key = []
            for key in spec.order_by:
                value = key.expr_or_column.evaluate(env)
                sort_key.append((is_absent(value), _orderable(value)))
            values = [(name, expr.evaluate(env)) for name, expr in spec.projections]
            candidates.append((sort_key, {
                name: value.record if isinstance(value, DictRecordView) else value
                for name, value in values}))
    for position in range(len(spec.order_by) - 1, -1, -1):
        candidates.sort(key=lambda pair: pair[0][position],
                        reverse=spec.order_by[position].descending)
    rows = [row for _, row in candidates]
    return rows if spec.limit is None else rows[:spec.limit]
