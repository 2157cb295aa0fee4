"""Binder: turns a SQL++ AST into the engine's :class:`QuerySpec`.

The binder is deliberately a *translator*, not a second planner: it resolves
names against the query's variable scope (FROM alias, UNNEST aliases, LET
names), maps AST expressions onto the existing
:mod:`repro.query.expressions` node classes, and assembles the
:class:`~repro.query.plan.QuerySpec` — so parsed queries flow unchanged
through the optimizer's consolidation/pushdown rewrites and the partitioned
executor.

Binding errors are :class:`~repro.errors.SqlppError` with the position of
the offending AST node (unbound identifiers, unknown functions, aggregates
outside SELECT, SELECT items missing from GROUP BY, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Set, Tuple

from ..errors import QueryError, SqlppError
from ..query.expressions import (
    And,
    Arithmetic,
    Comparison,
    Exists,
    Expr,
    FieldAccess,
    Func,
    IsTest,
    Literal,
    Not,
    Or,
    Var,
)
from ..query.plan import AggregateSpec, LetClause, OrderKey, QuerySpec, UnnestClause
from ..types import MISSING
from . import ast

#: Aggregate function names (the ``repro.query.aggregates`` registry).
AGGREGATE_NAMES = frozenset({"count", "sum", "min", "max", "avg", "listify"})

#: SQL++ spellings accepted for the engine's builtin scalar functions.
FUNCTION_ALIASES = {
    "lower": "lowercase",
    "upper": "uppercase",
    "len": "length",
}


@dataclass
class CompiledQuery:
    """A bound query: the FROM dataset name plus the executable plan, whose
    literals read their values from ``params`` by slot."""

    dataset: str
    spec: QuerySpec
    params: Tuple[Any, ...] = ()


@dataclass
class CompiledCreateIndex:
    """A bound CREATE INDEX statement: the target dataset, index name, path."""

    dataset: str
    index_name: str
    field_path: Tuple[str, ...]


def _error(node: ast.Node, message: str, token: Optional[str] = None) -> "SqlppError":
    raise SqlppError(message, node.line, node.column, token)


def _implicit_name(expr: ast.Expr) -> Optional[str]:
    """The name an unaliased item gets: an identifier's, or a path's last field."""
    if isinstance(expr, ast.Ident):
        return expr.name
    if isinstance(expr, ast.Path):
        for step in reversed(expr.steps):
            if isinstance(step, str) and step != "*":
                return step
    return None


class Binder:
    """Binds one parsed query; create a fresh instance per query."""

    def __init__(self, query: ast.Query) -> None:
        self.query = query
        self.scope: Set[str] = set()

    # ------------------------------------------------------------------ entry

    def bind(self) -> CompiledQuery:
        query = self.query
        record_var = query.from_clause.alias
        self.scope.add(record_var)

        spec = QuerySpec(record_var=record_var)
        for let in query.lets:
            if let.name in self.scope:
                _error(let, f"variable {let.name!r} is already bound")
            spec.lets.append(LetClause(let.name, self.bind_expr(let.expr)))
            self.scope.add(let.name)
        for unnest in query.unnests:
            collection = self.bind_expr(unnest.collection)
            if unnest.alias in self.scope:
                _error(unnest, f"variable {unnest.alias!r} is already bound")
            spec.unnests.append(UnnestClause(collection, unnest.alias))
            self.scope.add(unnest.alias)
        if query.where is not None:
            spec.where = self.bind_expr(query.where)

        group_keys = [(self._group_alias(key), key.expr) for key in query.group_by]
        self._bind_select(spec, group_keys)
        self._bind_order_by(spec)
        if query.limit is not None:
            spec.limit = query.limit.value

        if not spec.is_aggregation and not spec.projections:
            spec.projections = [("record", Var(record_var))]
        return CompiledQuery(dataset=query.from_clause.dataset, spec=spec)

    # ------------------------------------------------------------------ SELECT

    def _group_alias(self, key: ast.GroupKey) -> str:
        alias = key.alias or _implicit_name(key.expr)
        if alias is None:
            _error(key, "GROUP BY expression needs an AS alias")
        return alias

    def _bind_select(self, spec: QuerySpec, group_keys: List[Tuple[str, ast.Expr]]) -> None:
        select = self.query.select
        grouped = bool(group_keys) or self._has_aggregate(select)

        if not grouped:
            if select.kind == "star":
                spec.projections.append(("record", Var(spec.record_var)))
            elif select.kind == "value":
                spec.projections.append(("value", self.bind_expr(select.value)))
            else:
                for index, item in enumerate(select.items):
                    spec.projections.append((item.alias or _implicit_name(item.expr)
                                             or f"${index + 1}",
                                             self.bind_expr(item.expr)))
            return

        # Aggregation: bind the group keys, then fold every SELECT item into
        # either an aggregate output or a (possibly renamed) group key.
        bound_keys: List[Tuple[str, Expr]] = [(alias, self.bind_expr(expr))
                                              for alias, expr in group_keys]
        if select.kind == "star":
            _error(select, "SELECT * cannot be combined with GROUP BY / aggregates")
        items: Sequence[ast.SelectItem]
        if select.kind == "value":
            items = (ast.SelectItem(expr=select.value, alias=None,
                                    line=select.line, column=select.column),)
        else:
            items = select.items

        for item in items:
            expr = item.expr
            if isinstance(expr, ast.Call) and expr.name.lower() in AGGREGATE_NAMES:
                spec.aggregates.append(self._bind_aggregate(expr, item.alias))
                continue
            matched = self._match_group_key(expr, group_keys)
            if matched is None:
                _error(item, "SELECT item is neither an aggregate nor a GROUP BY key")
            if item.alias and item.alias != group_keys[matched][0]:
                bound_keys[matched] = (item.alias, bound_keys[matched][1])
            continue
        spec.group_keys.extend(bound_keys)

    def _has_aggregate(self, select: ast.SelectClause) -> bool:
        candidates: List[ast.Expr] = []
        if select.kind == "value" and select.value is not None:
            candidates.append(select.value)
        candidates.extend(item.expr for item in select.items)
        return any(isinstance(expr, ast.Call) and expr.name.lower() in AGGREGATE_NAMES
                   for expr in candidates)

    def _match_group_key(self, expr: ast.Expr,
                         group_keys: List[Tuple[str, ast.Expr]]) -> Optional[int]:
        for index, (alias, key_expr) in enumerate(group_keys):
            if expr == key_expr:
                return index
            if isinstance(expr, ast.Ident) and expr.name == alias:
                return index
        return None

    def _bind_aggregate(self, call: ast.Call, alias: Optional[str]) -> AggregateSpec:
        name = call.name.lower()
        output = alias or name
        if call.star or not call.args:
            if name != "count":
                _error(call, f"aggregate {name}() needs an argument", call.name)
            return AggregateSpec(output, "count", None)
        if len(call.args) != 1:
            _error(call, f"aggregate {name}() takes exactly one argument", call.name)
        argument = self.bind_expr(call.args[0])
        if name == "count":
            return AggregateSpec(output, "count", argument)
        return AggregateSpec(output, name, argument)

    # ------------------------------------------------------------------ ORDER BY

    def _bind_order_by(self, spec: QuerySpec) -> None:
        group_aliases = {name for name, _ in spec.group_keys}
        outputs = group_aliases | {agg.output for agg in spec.aggregates}
        for item in self.query.order_by:
            if spec.is_aggregation:
                if isinstance(item.expr, ast.Ident) and item.expr.name in outputs:
                    spec.order_by.append(OrderKey(item.expr.name, item.descending))
                    continue
                matched = self._match_group_key(item.expr,
                                                [(name, key.expr) for (name, _), key
                                                 in zip(spec.group_keys, self.query.group_by)])
                if matched is not None:
                    spec.order_by.append(OrderKey(spec.group_keys[matched][0],
                                                  item.descending))
                    continue
                _error(item, "ORDER BY of a grouped query must name an output column")
            else:
                spec.order_by.append(OrderKey(self.bind_expr(item.expr), item.descending))

    # ------------------------------------------------------------------ expressions

    def bind_expr(self, expr: ast.Expr) -> Expr:
        if isinstance(expr, (ast.NumberLit, ast.StringLit)):
            return Literal(expr.value, expr.slot)
        if isinstance(expr, ast.BoolLit):
            return Literal(expr.value)
        if isinstance(expr, ast.NullLit):
            return Literal(None)
        if isinstance(expr, ast.MissingLit):
            return Literal(MISSING)
        if isinstance(expr, ast.Ident):
            if expr.name not in self.scope:
                _error(expr, f"unbound identifier {expr.name!r}", expr.name)
            return Var(expr.name)
        if isinstance(expr, ast.Path):
            return self._bind_path(expr)
        if isinstance(expr, ast.BinOp):
            left, right = self.bind_expr(expr.left), self.bind_expr(expr.right)
            if expr.op in ("+", "-", "*", "/", "%"):
                return Arithmetic(expr.op, left, right)
            op = "!=" if expr.op == "<>" else expr.op
            return Comparison(op, left, right)
        if isinstance(expr, ast.AndExpr):
            return And(*[self.bind_expr(operand) for operand in expr.operands])
        if isinstance(expr, ast.OrExpr):
            return Or(*[self.bind_expr(operand) for operand in expr.operands])
        if isinstance(expr, ast.NotExpr):
            return Not(self.bind_expr(expr.operand))
        if isinstance(expr, ast.NegExpr):
            operand = expr.operand
            if isinstance(operand, ast.NumberLit):
                return Literal(-operand.value)
            return Arithmetic("-", Literal(0), self.bind_expr(operand))
        if isinstance(expr, ast.Call):
            return self._bind_call(expr)
        if isinstance(expr, ast.Quantified):
            collection = self.bind_expr(expr.collection)
            if expr.var in self.scope:
                _error(expr, f"variable {expr.var!r} is already bound", expr.var)
            self.scope.add(expr.var)
            try:
                predicate = self.bind_expr(expr.predicate)
            finally:
                self.scope.discard(expr.var)
            return Exists(collection, expr.var, predicate)
        if isinstance(expr, ast.ExistsExpr):
            # EXISTS coll == "coll is a non-empty collection"; array_count
            # yields MISSING for non-collections, so the comparison stays
            # non-true for absent/malformed operands (SQL++ semantics).
            return Comparison(">", Func("array_count", self.bind_expr(expr.operand)),
                              Literal(0))
        if isinstance(expr, ast.IsTest):
            return IsTest(self.bind_expr(expr.operand), expr.kind, expr.negated)
        _error(expr, f"cannot bind expression of type {type(expr).__name__}")

    def _bind_path(self, path: ast.Path) -> Expr:
        if not isinstance(path.base, ast.Ident):
            _error(path, "a field path must start from a bound variable")
        name = path.base.name
        if name not in self.scope:
            _error(path.base, f"unbound identifier {name!r}", name)
        return FieldAccess(name, path.steps)

    def _bind_call(self, call: ast.Call) -> Expr:
        name = call.name.lower()
        name = FUNCTION_ALIASES.get(name, name)
        if name in AGGREGATE_NAMES:
            _error(call, f"aggregate function {name}() is only allowed as a "
                   "top-level SELECT item", call.name)
        if call.star:
            _error(call, f"{name}(*) is not a valid call; only count(*) may use *",
                   call.name)
        args = [self.bind_expr(argument) for argument in call.args]
        try:
            return Func(name, *args)
        except QueryError:
            _error(call, f"unknown function {call.name!r}", call.name)


def bind(query: ast.Query) -> CompiledQuery:
    """Bind a parsed query to an executable :class:`CompiledQuery`."""
    return Binder(query).bind()


def bind_statement(statement: ast.Node):
    """Bind a parsed statement (query or DDL) to its compiled form."""
    if isinstance(statement, ast.CreateIndex):
        if not statement.field_path:
            _error(statement, "CREATE INDEX needs a non-empty field path")
        return CompiledCreateIndex(dataset=statement.dataset, index_name=statement.name,
                                   field_path=statement.field_path)
    return bind(statement)
