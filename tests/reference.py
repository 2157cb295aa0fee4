"""Reference model of query evaluation: the oracle the engine is checked against.

A deliberately naive evaluator over plain dict records: a tree-walking
expression interpreter (:func:`evaluate` — one environment dict per binding,
short-circuiting connectives, a Python loop per quantifier), nested loops for
LET / UNNEST / WHERE, one partial aggregation per partition, then the
coordinator functions the engine itself uses (``merge_partials`` /
``finalize_groups`` / ``order_and_limit``).  With the engine it shares the
operator and function *tables* (``Comparison._OPS``, ``Arithmetic._OPS``,
``_FUNCTIONS``), the ``sort_key`` ordering and path navigation
(``repro.types.navigate``, which the property suite holds the vector walk
and the ADM view to) — and no evaluation code: no column batches, no
compiled evaluators, no optimizer rewrites, no storage.  Agreement with it
is evidence, not tautology.

It also keeps the dict side of the tuple compactor's delete maintenance
(paper §3.2.2): :func:`extract_antischema` builds a record's skeleton and
:func:`remove_antischema` walks it by name, decrementing an
``InferredSchema`` — the oracle the engine's one-pass
``InferredSchema.remove`` over stored bytes is checked against, counter for
counter.  :class:`WalkedSchema` is the oracle of the flush-time plans: an
``InferredSchema`` that keeps none, so ``infer_and_compact`` walks every
record it is given.

It keeps the LSM index's record count as a reconcile of snapshots
(:func:`reference_record_count`), the oracle of the counters the memtables
keep.  And it keeps the character-at-a-time SQL++ lexer the engine used before its
one-regex scanner: :func:`reference_tokenize`, the oracle the scanner's
tokens and errors are checked against, position for position.
"""

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.core.dataset import hash_partition
from repro.errors import QueryError, SchemaError, SqlppError
from repro.query import (And, Arithmetic, Comparison, Exists, FieldAccess, Func, IsTest, Literal,
                         Not, Or, QuerySpec, Var, get_aggregate)
from repro.query.expressions import _FUNCTIONS
from repro.query.operators import _hashable, finalize_groups, merge_partials, order_and_limit
from repro.sqlpp.lexer import KEYWORDS, Token
from repro.schema import CollectionNode, InferredSchema, ObjectNode, SchemaNode, UnionNode
from repro.types import (ADate, ADateTime, AMultiset, APoint, ATime, MISSING, Missing, TypeTag,
                         navigate, sort_key, type_tag_of)


def _absent(value: Any) -> bool:
    return value is None or isinstance(value, Missing)


def _items(collection: Any) -> Any:
    """A collection's items, or None for a value that is not a collection."""
    if isinstance(collection, AMultiset):
        return list(collection.items)
    return list(collection) if isinstance(collection, (list, tuple)) else None


def evaluate(expr: Any, env: Dict[str, Any]) -> Any:
    """The value of ``expr`` where ``env`` maps variable names to plain values
    (the scan variable to its record dict)."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in env:
            raise QueryError(f"unbound variable ${expr.name}")
        return env[expr.name]
    if isinstance(expr, FieldAccess):
        return navigate(env.get(expr.source, MISSING), expr.path)
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
        env = {spec.record_var: record}
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
            states[index] = function.fold(states[index], [value])
    return groups


def reference_rows(spec: QuerySpec,
                   partitions: Sequence[Sequence[Dict[str, Any]]]) -> List[Dict[str, Any]]:
    """The rows ``spec`` returns over ``partitions`` (see :func:`partition_records`)."""
    if spec.is_aggregation:
        merged = merge_partials([_partial(spec, records) for records in partitions],
                                spec.aggregates)
        if not merged and not spec.group_keys:
            # Aggregates without GROUP BY make one row even over no input:
            # count 0, listify an empty list, every other aggregate null.
            return [{aggregate.output: {"count": 0, "listify": []}.get(aggregate.function)
                     for aggregate in spec.aggregates}]
        return order_and_limit(finalize_groups(merged, spec), spec)
    candidates = []
    for records in partitions:
        for env in _bindings(spec, records):
            keys = [sort_key(evaluate(key.expr_or_column, env)) for key in spec.order_by]
            values = [(name, evaluate(expr, env)) for name, expr in spec.projections]
            candidates.append((keys, dict(values)))
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
    schema.drop_plans()
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


class WalkedSchema(InferredSchema):
    """An ``InferredSchema`` that never keeps a flush-time plan: every record
    ``infer_and_compact`` folds into it is walked."""

    def keep_plan(self, layout: bytes, trail: List[int], ids: bytes) -> None:
        pass


def assert_same_schema(planned: InferredSchema, walked: InferredSchema) -> None:
    """``planned`` holds what ``walked`` holds: every counter, the bytes a
    component persists, and the version."""
    assert planned.structurally_equal(walked, compare_counters=True)
    assert planned.to_bytes() == walked.to_bytes()
    assert planned.version == walked.version


# ---------------------------------------------------------------------------
# the LSM index's record count
# ---------------------------------------------------------------------------

def reference_memtable_live(memtable: Any) -> int:
    """Entries of one memtable that are not anti-matter, by a snapshot."""
    return sum(1 for entry in memtable.snapshot() if not entry.is_antimatter)


def reference_record_count(index: Any) -> int:
    """Live records of an ``LSMBTree``: each disk component's record count,
    plus the in-memory keys whose newest version (the mutable memtable's,
    then the sealed memtables' newest first) is live — the memtables'
    entries merged by key and sorted, as the engine once counted them."""
    merged: Dict[Any, Any] = {}
    for sealed in index.sealed_memtables:  # oldest -> newest
        merged.update((entry.key, entry) for entry in sealed.memtable.snapshot())
    merged.update((entry.key, entry) for entry in index.memory_component.snapshot())
    memory = sum(1 for entry in sorted(merged.values(), key=lambda entry: entry.key)
                 if not entry.is_antimatter)
    return sum(component.record_count for component in index.components) + memory


# ---------------------------------------------------------------------------
# the character-at-a-time lexer
# ---------------------------------------------------------------------------

_TWO_CHAR_OPS = ("<=", ">=", "!=", "<>")
_ONE_CHAR_OPS = "=<>+-*/%()[],.;"
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", "'": "'", '"': '"',
            "/": "/", "b": "\b", "f": "\f"}


class _ReferenceLexer:
    """Single-pass scanner over a query string, one character at a time."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.position = 0
        self.line = 1
        self.column = 1

    def tokens(self) -> List[Token]:
        result: List[Token] = []
        while True:
            token = self.next_token()
            result.append(token)
            if token.kind == "eof":
                return result

    def next_token(self) -> Token:
        self._skip_trivia()
        if self.position >= len(self.source):
            return Token("eof", "", self.line, self.column)
        line, column = self.line, self.column
        char = self.source[self.position]
        if char.isalpha() or char == "_":
            return self._word(line, column)
        if char.isdigit():
            return self._number(line, column)
        if char in "'\"":
            return self._string(line, column)
        two = self.source[self.position:self.position + 2]
        if two in _TWO_CHAR_OPS:
            self._advance(2)
            return Token("op", two, line, column)
        if char in _ONE_CHAR_OPS:
            self._advance(1)
            return Token("op", char, line, column)
        raise SqlppError(f"unexpected character {char!r}", line, column, char)

    def _word(self, line: int, column: int) -> Token:
        start = self.position
        while (self.position < len(self.source)
               and (self.source[self.position].isalnum() or self.source[self.position] == "_")):
            self._advance(1)
        text = self.source[start:self.position]
        upper = text.upper()
        if upper in KEYWORDS:
            return Token("keyword", upper, line, column, value=text)
        return Token("ident", text, line, column, value=text)

    def _number(self, line: int, column: int) -> Token:
        start = self.position
        self._digits()
        is_float = False
        if self._current() == "." and self._peek_at(1).isdigit():
            is_float = True
            self._advance(1)
            self._digits()
        if self._current() in "eE":
            after = self._peek_at(1)
            sign = 1 if after in "+-" else 0
            if self.source[self.position + 1 + sign:self.position + 2 + sign].isdigit():
                is_float = True
                self._advance(1 + sign)
                self._digits()
        text = self.source[start:self.position]
        return Token("number", text, line, column,
                     value=float(text) if is_float else int(text))

    def _string(self, line: int, column: int) -> Token:
        quote = self.source[self.position]
        self._advance(1)
        pieces: List[str] = []
        while True:
            if self.position >= len(self.source):
                raise SqlppError("unterminated string literal", line, column, quote)
            char = self.source[self.position]
            if char == quote:
                self._advance(1)
                break
            if char == "\\":
                escape = self._peek_at(1)
                if escape not in _ESCAPES:
                    raise SqlppError(f"unknown escape sequence \\{escape}",
                                     self.line, self.column, "\\" + escape)
                pieces.append(_ESCAPES[escape])
                self._advance(2)
                continue
            pieces.append(char)
            self._advance(1)
        literal = "".join(pieces)
        return Token("string", quote + literal + quote, line, column, value=literal)

    def _digits(self) -> None:
        while self._current().isdigit():
            self._advance(1)

    def _skip_trivia(self) -> None:
        while self.position < len(self.source):
            char = self.source[self.position]
            if char in " \t\r\n":
                self._advance(1)
            elif self.source.startswith("--", self.position):
                while self.position < len(self.source) and self.source[self.position] != "\n":
                    self._advance(1)
            elif self.source.startswith("/*", self.position):
                line, column = self.line, self.column
                self._advance(2)
                while not self.source.startswith("*/", self.position):
                    if self.position >= len(self.source):
                        raise SqlppError("unterminated block comment", line, column, "/*")
                    self._advance(1)
                self._advance(2)
            else:
                return

    def _current(self) -> str:
        return self.source[self.position] if self.position < len(self.source) else "\0"

    def _peek_at(self, offset: int) -> str:
        index = self.position + offset
        return self.source[index] if index < len(self.source) else "\0"

    def _advance(self, count: int) -> None:
        for _ in range(count):
            if self.source[self.position] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.position += 1


def reference_tokenize(source: str) -> List[Token]:
    """``source``'s tokens, one character at a time; raises :class:`SqlppError`
    on lexical errors (and ``ValueError`` on a digit ``int`` cannot read, such
    as ``'²'``: the one case the engine's scanner deliberately differs on)."""
    return _ReferenceLexer(source).tokens()
