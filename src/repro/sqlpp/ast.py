"""Abstract syntax tree for the SQL++ front-end, plus a canonical unparser.

Every node is a plain dataclass with structural equality; source positions
(``line``/``column``) ride along for error reporting but are excluded from
equality so that ``parse(unparse(parse(text)))`` yields an *equal* AST — the
round-trip property the test suite checks.

The tree mirrors the textual grammar, not the logical plan: the binder
(:mod:`repro.sqlpp.binder`) is what turns it into a
:class:`~repro.query.plan.QuerySpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple, Union

#: Path steps are field names (``str``), array indexes (``int``), or the
#: wildcard ``"*"`` (``t.addresses[*].country``).
PathStep = Union[str, int]


@dataclass
class Node:
    """Base class: position fields shared by every AST node."""

    line: int = field(default=0, compare=False, repr=False)
    column: int = field(default=0, compare=False, repr=False)


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

@dataclass
class Expr(Node):
    pass


@dataclass
class NumberLit(Expr):
    value: Union[int, float] = 0
    #: Where a plan reads the value (``Token.slot``); equality ignores it.
    slot: Optional[int] = field(default=None, compare=False, repr=False)


@dataclass
class StringLit(Expr):
    value: str = ""
    slot: Optional[int] = field(default=None, compare=False, repr=False)


@dataclass
class BoolLit(Expr):
    value: bool = False


@dataclass
class NullLit(Expr):
    pass


@dataclass
class MissingLit(Expr):
    pass


@dataclass
class Ident(Expr):
    """A bare identifier — a variable reference or an output-column name."""

    name: str = ""


@dataclass
class Path(Expr):
    """``base.step.step[0][*]...`` — field/index navigation from a variable."""

    base: Expr = field(default_factory=Ident)
    steps: Tuple[PathStep, ...] = ()


@dataclass
class BinOp(Expr):
    """Comparison or arithmetic binary operator."""

    op: str = "="
    left: Expr = field(default_factory=Ident)
    right: Expr = field(default_factory=Ident)


@dataclass
class AndExpr(Expr):
    operands: Tuple[Expr, ...] = ()


@dataclass
class OrExpr(Expr):
    operands: Tuple[Expr, ...] = ()


@dataclass
class NotExpr(Expr):
    operand: Expr = field(default_factory=Ident)


@dataclass
class NegExpr(Expr):
    """Unary minus."""

    operand: Expr = field(default_factory=Ident)


@dataclass
class Call(Expr):
    """Function call; ``star`` marks ``count(*)``."""

    name: str = ""
    args: Tuple[Expr, ...] = ()
    star: bool = False


@dataclass
class Quantified(Expr):
    """``SOME var IN collection SATISFIES predicate``."""

    var: str = ""
    collection: Expr = field(default_factory=Ident)
    predicate: Expr = field(default_factory=Ident)


@dataclass
class ExistsExpr(Expr):
    """``EXISTS collection`` — true iff the collection is non-empty."""

    operand: Expr = field(default_factory=Ident)


@dataclass
class IsTest(Expr):
    """``expr IS [NOT] NULL | MISSING | UNKNOWN``."""

    operand: Expr = field(default_factory=Ident)
    kind: str = "unknown"          # "null" | "missing" | "unknown"
    negated: bool = False


# ---------------------------------------------------------------------------
# clauses
# ---------------------------------------------------------------------------

@dataclass
class SelectItem(Node):
    expr: Expr = field(default_factory=Ident)
    alias: Optional[str] = None


@dataclass
class SelectClause(Node):
    """``SELECT *`` | ``SELECT VALUE expr`` | ``SELECT item, ...``."""

    kind: str = "star"             # "star" | "value" | "items"
    value: Optional[Expr] = None
    items: Tuple[SelectItem, ...] = ()


@dataclass
class FromClause(Node):
    dataset: str = ""
    alias: str = ""


@dataclass
class UnnestClause(Node):
    collection: Expr = field(default_factory=Ident)
    alias: str = ""


@dataclass
class LetClause(Node):
    name: str = ""
    expr: Expr = field(default_factory=Ident)


@dataclass
class GroupKey(Node):
    expr: Expr = field(default_factory=Ident)
    alias: Optional[str] = None


@dataclass
class OrderItem(Node):
    expr: Expr = field(default_factory=Ident)
    descending: bool = False


@dataclass
class Query(Node):
    """One parsed SQL++ query (clauses in source order where it matters)."""

    select: SelectClause = field(default_factory=SelectClause)
    from_clause: FromClause = field(default_factory=FromClause)
    lets: Tuple[LetClause, ...] = ()
    unnests: Tuple[UnnestClause, ...] = ()
    where: Optional[Expr] = None
    group_by: Tuple[GroupKey, ...] = ()
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[NumberLit] = None


@dataclass
class CreateIndex(Node):
    """``CREATE INDEX <name> ON <dataset> (<field.path>)`` — DDL statement."""

    name: str = ""
    dataset: str = ""
    field_path: Tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# unparser
# ---------------------------------------------------------------------------

_ATOMIC = (NumberLit, StringLit, BoolLit, NullLit, MissingLit, Ident, Path, Call)


def _escape(text: str) -> str:
    out = []
    for char in text:
        if char == "\\":
            out.append("\\\\")
        elif char == "'":
            out.append("\\'")
        elif char == "\n":
            out.append("\\n")
        elif char == "\t":
            out.append("\\t")
        elif char == "\r":
            out.append("\\r")
        else:
            out.append(char)
    return "".join(out)


def _operand(expr: Expr) -> str:
    """Unparse a subexpression, parenthesizing anything non-atomic so the
    canonical text re-parses to exactly the same tree."""
    text = unparse_expr(expr)
    return text if isinstance(expr, _ATOMIC) else f"({text})"


def unparse_expr(expr: Expr) -> str:
    if isinstance(expr, NumberLit):
        return repr(expr.value)
    if isinstance(expr, StringLit):
        return f"'{_escape(expr.value)}'"
    if isinstance(expr, BoolLit):
        return "TRUE" if expr.value else "FALSE"
    if isinstance(expr, NullLit):
        return "NULL"
    if isinstance(expr, MissingLit):
        return "MISSING"
    if isinstance(expr, Ident):
        return expr.name
    if isinstance(expr, Path):
        pieces = [_operand(expr.base) if not isinstance(expr.base, Ident) else expr.base.name]
        for step in expr.steps:
            if step == "*":
                pieces.append("[*]")
            elif isinstance(step, int):
                pieces.append(f"[{step}]")
            else:
                pieces.append(f".{step}")
        return "".join(pieces)
    if isinstance(expr, BinOp):
        return f"{_operand(expr.left)} {expr.op} {_operand(expr.right)}"
    if isinstance(expr, AndExpr):
        return " AND ".join(_operand(op) for op in expr.operands)
    if isinstance(expr, OrExpr):
        return " OR ".join(_operand(op) for op in expr.operands)
    if isinstance(expr, NotExpr):
        return f"NOT {_operand(expr.operand)}"
    if isinstance(expr, NegExpr):
        return f"- {_operand(expr.operand)}"
    if isinstance(expr, Call):
        if expr.star:
            return f"{expr.name}(*)"
        return f"{expr.name}({', '.join(unparse_expr(arg) for arg in expr.args)})"
    if isinstance(expr, Quantified):
        return (f"SOME {expr.var} IN {_operand(expr.collection)} "
                f"SATISFIES {unparse_expr(expr.predicate)}")
    if isinstance(expr, ExistsExpr):
        return f"EXISTS {_operand(expr.operand)}"
    if isinstance(expr, IsTest):
        negation = "NOT " if expr.negated else ""
        return f"{_operand(expr.operand)} IS {negation}{expr.kind.upper()}"
    raise TypeError(f"cannot unparse {type(expr).__name__}")


def unparse(query: "Node") -> str:
    """Render a :class:`Query` (or :class:`CreateIndex`) back to canonical SQL++."""
    if isinstance(query, CreateIndex):
        return (f"CREATE INDEX {query.name} ON {query.dataset} "
                f"({'.'.join(query.field_path)})")
    parts = []
    select = query.select
    if select.kind == "star":
        parts.append("SELECT *")
    elif select.kind == "value":
        parts.append(f"SELECT VALUE {unparse_expr(select.value)}")
    else:
        rendered = ", ".join(
            unparse_expr(item.expr) + (f" AS {item.alias}" if item.alias else "")
            for item in select.items)
        parts.append(f"SELECT {rendered}")
    parts.append(f"FROM {query.from_clause.dataset} AS {query.from_clause.alias}")
    for let in query.lets:
        parts.append(f"LET {let.name} = {unparse_expr(let.expr)}")
    for unnest in query.unnests:
        parts.append(f"UNNEST {unparse_expr(unnest.collection)} AS {unnest.alias}")
    if query.where is not None:
        parts.append(f"WHERE {unparse_expr(query.where)}")
    if query.group_by:
        rendered = ", ".join(
            unparse_expr(key.expr) + (f" AS {key.alias}" if key.alias else "")
            for key in query.group_by)
        parts.append(f"GROUP BY {rendered}")
    if query.order_by:
        rendered = ", ".join(
            unparse_expr(item.expr) + (" DESC" if item.descending else "")
            for item in query.order_by)
        parts.append(f"ORDER BY {rendered}")
    if query.limit is not None:
        parts.append(f"LIMIT {unparse_expr(query.limit)}")
    return "\n".join(parts)
