"""Reference model of query evaluation: the oracle the engine is checked against.

A deliberately naive evaluator over plain dict records: a tree-walking
expression interpreter (:func:`evaluate` — one environment dict per binding,
short-circuiting connectives, a Python loop per quantifier), nested loops for
LET / UNNEST / WHERE, one partial aggregation per partition, then the
coordinator functions the engine itself uses (``merge_partials`` /
``finalize_groups`` / ``order_and_limit``).  With the engine it shares the
operator and function *tables* (``Comparison._OPS``, ``Arithmetic._OPS``,
``_FUNCTIONS``), the ``sort_key`` ordering and path navigation
(``DictRecordView`` is ``repro.types.navigate``, itself held to the vector
walk by the property suite) — and no evaluation code: no column batches, no
compiled evaluators, no optimizer rewrites, no storage.  Agreement with it
is evidence, not tautology.

It also keeps the dict side of the tuple compactor's delete maintenance
(paper §3.2.2): :func:`extract_antischema` builds a record's skeleton and
:func:`remove_antischema` walks it by name, decrementing an
``InferredSchema`` — the oracle the engine's one-pass
``InferredSchema.remove`` over stored bytes is checked against, counter for
counter.
"""

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.core.dataset import hash_partition
from repro.core.formats import DictRecordView
from repro.errors import QueryError, SchemaError
from repro.query import (And, Arithmetic, Comparison, Exists, FieldAccess, Func, IsTest, Literal,
                         Not, Or, QuerySpec, Var, get_aggregate)
from repro.query.expressions import _FUNCTIONS
from repro.query.operators import (_hashable, finalize_groups, merge_partials, order_and_limit,
                                   sort_key)
from repro.schema import CollectionNode, InferredSchema, ObjectNode, SchemaNode, UnionNode
from repro.types import (ADate, ADateTime, AMultiset, APoint, ATime, MISSING, Missing, TypeTag,
                         navigate, type_tag_of)


def _absent(value: Any) -> bool:
    return value is None or isinstance(value, Missing)


def _items(collection: Any) -> Any:
    """A collection's items, or None for a value that is not a collection."""
    if isinstance(collection, AMultiset):
        return list(collection.items)
    return list(collection) if isinstance(collection, (list, tuple)) else None


def evaluate(expr: Any, env: Dict[str, Any]) -> Any:
    """The value of ``expr`` where ``env`` maps variable names to plain values
    (the scan variable to a ``DictRecordView``)."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in env:
            raise QueryError(f"unbound variable ${expr.name}")
        return env[expr.name]
    if isinstance(expr, FieldAccess):
        value = env.get(expr.source, MISSING)
        if isinstance(value, DictRecordView):
            return value.get_field(*expr.path)
        return navigate(value, expr.path)
    if isinstance(expr, (Comparison, Arithmetic)):
        left, right = evaluate(expr.left, env), evaluate(expr.right, env)
        if _absent(left) or _absent(right):
            return MISSING
        try:
            return expr._OPS[expr.op](left, right)
        except TypeError:
            return MISSING
    if isinstance(expr, And):
        for operand in expr.operands:
            value = evaluate(operand, env)
            if _absent(value) or not value:
                return False
        return True
    if isinstance(expr, Or):
        return any(not _absent(value) and bool(value)
                   for value in (evaluate(operand, env) for operand in expr.operands))
    if isinstance(expr, Not):
        value = evaluate(expr.operand, env)
        return MISSING if _absent(value) else not value
    if isinstance(expr, IsTest):
        value = evaluate(expr.operand, env)
        result = {"null": value is None, "missing": isinstance(value, Missing),
                  "unknown": _absent(value)}[expr.kind]
        return not result if expr.negated else result
    if isinstance(expr, Func):
        values = [evaluate(argument, env) for argument in expr.args]
        if values and _absent(values[0]):
            return MISSING
        return _FUNCTIONS[expr.name](*values)
    if isinstance(expr, Exists):
        inner = dict(env)
        for item in _items(evaluate(expr.collection, env)) or ():
            inner[expr.item_var] = item
            value = evaluate(expr.predicate, inner)
            if not _absent(value) and value:
                return True
        return False
    raise QueryError(f"the reference model cannot evaluate {type(expr).__name__}")


def partition_records(records: Iterable[Dict[str, Any]], partitions: int = 1,
                      key: str = "id") -> List[List[Dict[str, Any]]]:
    """Group records the way a dataset stores them: hash-partitioned on the
    primary key, each partition in key order (the engine's scan order)."""
    buckets: List[List[Dict[str, Any]]] = [[] for _ in range(partitions)]
    for record in sorted(records, key=lambda record: record[key]):
        buckets[hash_partition(record[key], partitions)].append(record)
    return buckets


def _unnested(collection: Any) -> List[Any]:
    items = _items(collection)
    if items is not None:
        return items
    return [] if _absent(collection) else [collection]


def _bindings(spec: QuerySpec, records: Sequence[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
    """One environment per (record, unnested items...) combination passing WHERE."""
    for record in records:
        env = {spec.record_var: DictRecordView(record)}
        for clause in spec.lets:
            env[clause.name] = evaluate(clause.expr, env)
        envs = [env]
        for clause in spec.unnests:
            envs = [{**outer, clause.item_var: item} for outer in envs
                    for item in _unnested(evaluate(clause.collection, outer))]
        for env in envs:
            verdict = True if spec.where is None else evaluate(spec.where, env)
            if not _absent(verdict) and verdict:
                yield env


def _partial(spec: QuerySpec, records: Sequence[Dict[str, Any]]) -> Dict[Any, List[Any]]:
    functions = [get_aggregate(aggregate.function) for aggregate in spec.aggregates]
    groups: Dict[Any, List[Any]] = {}
    for env in _bindings(spec, records):
        key = tuple(evaluate(expr, env) for _, expr in spec.group_keys)
        if any(isinstance(part, Missing) for part in key):
            continue
        states = groups.setdefault(tuple(_hashable(part) for part in key),
                                   [function.create() for function in functions])
        for index, (function, aggregate) in enumerate(zip(functions, spec.aggregates)):
            value = True if aggregate.argument is None else evaluate(aggregate.argument, env)
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
            keys = [sort_key(evaluate(key.expr_or_column, env)) for key in spec.order_by]
            values = [(name, evaluate(expr, env)) for name, expr in spec.projections]
            candidates.append((keys, {
                name: value.record if isinstance(value, DictRecordView) else value
                for name, value in values}))
    for position in range(len(spec.order_by) - 1, -1, -1):
        candidates.sort(key=lambda pair: pair[0][position],
                        reverse=spec.order_by[position].descending)
    rows = [row for _, row in candidates]
    return rows if spec.limit is None else rows[:spec.limit]


# ---------------------------------------------------------------------------
# anti-schema maintenance, dict side
# ---------------------------------------------------------------------------

#: Placeholder scalar per type tag; values are irrelevant, the type matters.
_PLACEHOLDERS = {
    TypeTag.BOOLEAN: False,
    TypeTag.INT64: 0,
    TypeTag.DOUBLE: 0.0,
    TypeTag.STRING: "",
    TypeTag.BINARY: b"",
    TypeTag.DATE: ADate(0),
    TypeTag.TIME: ATime(0),
    TypeTag.DATETIME: ADateTime(0),
    TypeTag.POINT: APoint(0.0, 0.0),
}


def extract_antischema(record: Dict[str, Any]) -> Dict[str, Any]:
    """``record``'s anti-schema: same names, nesting and value *types*, every
    scalar replaced by a placeholder (what ``VectorRecordView.structure()``
    returns for its stored bytes)."""
    return {name: _strip(value) for name, value in record.items() if not isinstance(value, Missing)}


def _strip(value: Any) -> Any:
    if value is None or isinstance(value, Missing):
        return value
    if isinstance(value, dict):
        return {name: _strip(child) for name, child in value.items() if not isinstance(child, Missing)}
    if isinstance(value, AMultiset):
        return AMultiset(_strip(item) for item in value.items)
    if isinstance(value, (list, tuple)):
        return [_strip(item) for item in value]
    # Unmapped scalars (UUID etc.) keep their value: still correct, just larger.
    return _PLACEHOLDERS.get(type_tag_of(value), value)


def remove_antischema(schema: InferredSchema, antischema: Dict[str, Any]) -> None:
    """Decrement ``schema`` by a dict anti-schema, walking it by name: prune
    what reaches zero, collapse a union left with one branch (Figure 11)."""
    if not isinstance(antischema, dict):
        raise SchemaError("only object records can be removed")
    schema.root.decrement()
    _remove_object_fields(schema, schema.root, antischema, is_root=True)
    schema.version += 1


def _remove_object_fields(schema: InferredSchema, node: ObjectNode, record: Dict[str, Any],
                          is_root: bool) -> None:
    skip = schema._declared_root_names() if is_root else set()
    for name, value in record.items():
        if name in skip or isinstance(value, Missing):
            continue
        field_name_id = schema.dictionary.lookup(name)
        if field_name_id is None:
            raise SchemaError(f"anti-schema references unknown field {name!r}")
        child = node.child(field_name_id)
        if child is None:
            raise SchemaError(f"anti-schema references untracked field {name!r}")
        replacement = _remove_value(schema, child, value)
        if replacement is None:
            node.remove_child(field_name_id)
        else:
            node.set_child(field_name_id, replacement)


def _remove_value(schema: InferredSchema, node: SchemaNode, value: Any) -> Optional[SchemaNode]:
    tag = type_tag_of(value)
    if isinstance(node, UnionNode):
        option = node.option(tag)
        if option is None:
            raise SchemaError(f"anti-schema type {tag.name} absent from union")
        replacement = _remove_value(schema, option, value)
        if replacement is None:
            node.remove_option(tag)
        else:
            node.set_option(replacement)
        node.decrement()
        if node.is_dead or not node.options:
            return None
        return node.collapse_if_single()
    if node.tag is not tag:
        raise SchemaError(f"anti-schema type {tag.name} does not match schema node {node.tag.name}")
    if isinstance(node, ObjectNode):
        _remove_object_fields(schema, node, value, is_root=False)
    elif isinstance(node, CollectionNode):
        for item in value:
            if node.item is None:
                raise SchemaError("anti-schema removes items from an empty collection node")
            node.item = _remove_value(schema, node.item, item)
    node.decrement()
    return None if node.is_dead else node
