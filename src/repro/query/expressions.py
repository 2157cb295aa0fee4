"""Expression trees: the slice of SQL++ the paper's experiment queries need.

Field access (``t.user.name``), comparisons, boolean connectives,
arithmetic, and a handful of builtin functions (``length``, ``lowercase``,
``array_count``, ``array_contains``, ``is_array``...).  The classes here are
data: they say what a query computes, not how.  The engine has exactly one
way to compute it — :func:`repro.query.batch_compile.compile_expr` turns a
tree into a column evaluator — and this module holds the tables that
evaluator applies (``Comparison._OPS``, ``Arithmetic._OPS``, ``_FUNCTIONS``)
plus :func:`access_path`.

SQL++'s MISSING semantics: accessing an absent field yields ``MISSING`` and
any comparison or function over MISSING/NULL evaluates to a non-true value,
so predicates silently drop such records — exactly how the Twitter Q3
hashtag filter behaves on tweets without hashtags.

The tests' reference model (``tests/reference.py``) interprets the same
trees with a tree walk of its own; it shares these tables with the compiler
and nothing else.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..errors import QueryError
from ..types import MISSING, Missing, collection_items, navigate


def is_absent(value: Any) -> bool:
    """True for MISSING and NULL (SQL++ 'unknown' values)."""
    return value is None or isinstance(value, Missing)


class Expr:
    """Base expression."""

    def children(self) -> Sequence["Expr"]:
        return ()

    def walk(self):
        yield self
        for child in self.children():
            yield from child.walk()


class Literal(Expr):
    """A constant.  One bound from a statement's text has a ``slot``: a run
    reads it from its parameters; ``value`` is what the compiled text wrote."""

    def __init__(self, value: Any, slot: Optional[int] = None) -> None:
        self.value = value
        self.slot = slot

    def value_in(self, params: Sequence[Any]) -> Any:
        """The value a run with parameters ``params`` reads."""
        return self.value if self.slot is None else params[self.slot]

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


class Var(Expr):
    """Reference to a bound variable (scan record, unnest item, alias)."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"Var({self.name})"


class FieldAccess(Expr):
    """``$var.path[0].path[1]...`` — access into a record view or dict."""

    def __init__(self, source: str, path: Sequence[Any]) -> None:
        self.source = source
        self.path = tuple(path)

    def __repr__(self) -> str:
        return f"FieldAccess({self.source}, {'.'.join(map(str, self.path))})"


def access_path(value: Any, path: Tuple[Any, ...]) -> Any:
    """``path`` into a bound value: a record view answers it itself, anything
    else — an UNNEST item, a LET value — is a plain value to navigate."""
    if hasattr(value, "get_field"):
        return value.get_field(*path)
    return navigate(value, path)


class Comparison(Expr):
    _OPS: Dict[str, Callable[[Any, Any], bool]] = {
        "=": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in self._OPS:
            raise QueryError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class And(Expr):
    def __init__(self, *operands: Expr) -> None:
        self.operands = operands

    def children(self) -> Sequence[Expr]:
        return self.operands


class Or(Expr):
    def __init__(self, *operands: Expr) -> None:
        self.operands = operands

    def children(self) -> Sequence[Expr]:
        return self.operands


class Not(Expr):
    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def children(self) -> Sequence[Expr]:
        return (self.operand,)


class IsTest(Expr):
    """SQL++ ``IS [NOT] NULL | MISSING | UNKNOWN`` membership tests.

    Unlike comparisons, IS tests never propagate MISSING — they exist to
    *observe* absence, so they always return a boolean (``missing IS NULL``
    is false here: NULL and MISSING stay distinguishable, which is what the
    tuple compactor's MISSING-vs-NULL storage distinction relies on).
    """

    KINDS = ("null", "missing", "unknown")

    def __init__(self, operand: Expr, kind: str, negated: bool = False) -> None:
        if kind not in self.KINDS:
            raise QueryError(f"unknown IS test {kind!r}")
        self.operand = operand
        self.kind = kind
        self.negated = negated

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def __repr__(self) -> str:
        negation = "NOT " if self.negated else ""
        return f"({self.operand!r} IS {negation}{self.kind.upper()})"


class Arithmetic(Expr):
    _OPS = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b if b else None,
        "%": lambda a, b: a % b if b else None,
    }

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in self._OPS:
            raise QueryError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)


def _array_count(value: Any) -> Any:
    items = collection_items(value)
    return MISSING if items is None else len(items)


_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "length": lambda value: len(value) if isinstance(value, (str, bytes)) else MISSING,
    "lowercase": lambda value: value.lower() if isinstance(value, str) else MISSING,
    "uppercase": lambda value: value.upper() if isinstance(value, str) else MISSING,
    "abs": lambda value: abs(value) if isinstance(value, (int, float)) else MISSING,
    "is_array": lambda value: collection_items(value) is not None,
    "array_count": _array_count,
    "array_contains": lambda value, needle: needle in (collection_items(value) or []),
    "array_distinct": lambda value: sorted(set(collection_items(value) or []), key=repr),
    "to_string": lambda value: str(value),
}


def register_function(name: str, implementation: Callable[..., Any]) -> None:
    """Register a custom scalar function usable from :class:`Func`.

    ``implementation`` must not mutate its arguments: a plan that reads the
    column-slice cache passes it the cached values themselves."""
    _FUNCTIONS[name] = implementation


class Func(Expr):
    """Builtin scalar function call (``length``, ``lowercase``, ...)."""

    def __init__(self, name: str, *args: Expr) -> None:
        if name not in _FUNCTIONS:
            raise QueryError(f"unknown function {name!r}")
        self.name = name
        self.args = args

    def children(self) -> Sequence[Expr]:
        return self.args

    def __repr__(self) -> str:
        return f"Func({self.name})"


class Exists(Expr):
    """``SOME item IN collection SATISFIES predicate`` (the Twitter Q3 shape)."""

    def __init__(self, collection: Expr, item_var: str, predicate: Expr) -> None:
        self.collection = collection
        self.item_var = item_var
        self.predicate = predicate

    def children(self) -> Sequence[Expr]:
        return (self.collection, self.predicate)


def render_expr(expr: Expr, params: Sequence[Any] = ()) -> str:
    """Render an expression tree back to readable SQL++-ish text (EXPLAIN),
    its literals as a run with parameters ``params`` reads them."""
    if isinstance(expr, Literal):
        return repr(expr.value_in(params))
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, FieldAccess):
        steps = "".join(f"[{step}]" if not isinstance(step, str) or step == "*"
                        else f".{step}" for step in expr.path)
        return f"{expr.source}{steps}"
    if isinstance(expr, Comparison):
        return f"{render_expr(expr.left, params)} {expr.op} {render_expr(expr.right, params)}"
    if isinstance(expr, Arithmetic):
        return f"({render_expr(expr.left, params)} {expr.op} {render_expr(expr.right, params)})"
    if isinstance(expr, And):
        return " AND ".join(f"({render_expr(operand, params)})" for operand in expr.operands)
    if isinstance(expr, Or):
        return " OR ".join(f"({render_expr(operand, params)})" for operand in expr.operands)
    if isinstance(expr, Not):
        return f"NOT ({render_expr(expr.operand, params)})"
    if isinstance(expr, IsTest):
        negation = "NOT " if expr.negated else ""
        return f"{render_expr(expr.operand, params)} IS {negation}{expr.kind.upper()}"
    if isinstance(expr, Func):
        return f"{expr.name}({', '.join(render_expr(argument, params) for argument in expr.args)})"
    if isinstance(expr, Exists):
        return (f"SOME {expr.item_var} IN {render_expr(expr.collection, params)} "
                f"SATISFIES {render_expr(expr.predicate, params)}")
    return repr(expr)
