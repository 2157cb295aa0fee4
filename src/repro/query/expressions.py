"""Expression tree evaluated by the query operators.

Expressions mirror the slice of SQL++ the paper's experiment queries need:
field access (``t.user.name``), comparisons, boolean connectives,
arithmetic, and a handful of builtin functions (``length``, ``lowercase``,
``array_count``, ``array_contains``, ``is_array``...).  SQL++'s MISSING
semantics are preserved: accessing an absent field yields ``MISSING`` and
any comparison or function over MISSING/NULL evaluates to a non-true value,
so predicates silently drop such records — exactly how the Twitter Q3
hashtag filter behaves on tweets without hashtags.

The partition pipelines do not call :meth:`Expr.evaluate`: they run the
column evaluators :mod:`repro.query.batch_compile` builds from these trees.
``evaluate`` is the interpreter of the coordinator's ORDER BY over output
rows and of the tests' reference model (``tests/reference.py``), where the
environment maps variable names to plain values.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import QueryError
from ..types import AMultiset, MISSING, Missing


def is_absent(value: Any) -> bool:
    """True for MISSING and NULL (SQL++ 'unknown' values)."""
    return value is None or isinstance(value, Missing)


class Expr:
    """Base expression."""

    def evaluate(self, env: Dict[str, Any]) -> Any:
        raise NotImplementedError

    def children(self) -> Sequence["Expr"]:
        return ()

    def walk(self):
        yield self
        for child in self.children():
            yield from child.walk()


class Literal(Expr):
    def __init__(self, value: Any) -> None:
        self.value = value

    def evaluate(self, env: Dict[str, Any]) -> Any:
        return self.value

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


class Var(Expr):
    """Reference to a bound variable (scan record, unnest item, alias)."""

    def __init__(self, name: str) -> None:
        self.name = name

    def evaluate(self, env: Dict[str, Any]) -> Any:
        if self.name not in env:
            raise QueryError(f"unbound variable ${self.name}")
        return env[self.name]

    def __repr__(self) -> str:
        return f"Var({self.name})"


class FieldAccess(Expr):
    """``$var.path[0].path[1]...`` — access into a record view or dict."""

    def __init__(self, source: str, path: Sequence[Any]) -> None:
        self.source = source
        self.path = tuple(path)

    def evaluate(self, env: Dict[str, Any]) -> Any:
        return access_path(env.get(self.source, MISSING), self.path)

    def __repr__(self) -> str:
        return f"FieldAccess({self.source}, {'.'.join(map(str, self.path))})"


def access_path(value: Any, path: Tuple[Any, ...]) -> Any:
    """Navigate ``path`` into a record view, dict, or collection value."""
    if not path:
        return value
    if hasattr(value, "get_field"):
        return value.get_field(*path)
    current = value
    for step in path:
        if is_absent(current):
            return MISSING
        if isinstance(step, str):
            if isinstance(current, dict) and step in current:
                current = current[step]
            else:
                return MISSING
        else:
            items = current.items if isinstance(current, AMultiset) else current
            if not isinstance(items, (list, tuple)) or not isinstance(step, int):
                return MISSING
            if step < 0 or step >= len(items):
                return MISSING
            current = items[step]
    return current


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

    def evaluate(self, env: Dict[str, Any]) -> Any:
        left = self.left.evaluate(env)
        right = self.right.evaluate(env)
        if is_absent(left) or is_absent(right):
            return MISSING
        try:
            return self._OPS[self.op](left, right)
        except TypeError:
            return MISSING

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class And(Expr):
    def __init__(self, *operands: Expr) -> None:
        self.operands = operands

    def children(self) -> Sequence[Expr]:
        return self.operands

    def evaluate(self, env: Dict[str, Any]) -> Any:
        for operand in self.operands:
            value = operand.evaluate(env)
            if is_absent(value) or not value:
                return False
        return True


class Or(Expr):
    def __init__(self, *operands: Expr) -> None:
        self.operands = operands

    def children(self) -> Sequence[Expr]:
        return self.operands

    def evaluate(self, env: Dict[str, Any]) -> Any:
        return any(not is_absent(value) and bool(value)
                   for value in (operand.evaluate(env) for operand in self.operands))


class Not(Expr):
    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def evaluate(self, env: Dict[str, Any]) -> Any:
        value = self.operand.evaluate(env)
        if is_absent(value):
            return MISSING
        return not value


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

    def evaluate(self, env: Dict[str, Any]) -> Any:
        value = self.operand.evaluate(env)
        if self.kind == "null":
            result = value is None
        elif self.kind == "missing":
            result = isinstance(value, Missing)
        else:
            result = is_absent(value)
        return not result if self.negated else result

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

    def evaluate(self, env: Dict[str, Any]) -> Any:
        left = self.left.evaluate(env)
        right = self.right.evaluate(env)
        if is_absent(left) or is_absent(right):
            return MISSING
        try:
            return self._OPS[self.op](left, right)
        except TypeError:
            return MISSING


def _collection_items(value: Any) -> Optional[List[Any]]:
    if isinstance(value, AMultiset):
        return list(value.items)
    if isinstance(value, (list, tuple)):
        return list(value)
    return None


_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "length": lambda value: len(value) if isinstance(value, (str, bytes)) else MISSING,
    "lowercase": lambda value: value.lower() if isinstance(value, str) else MISSING,
    "uppercase": lambda value: value.upper() if isinstance(value, str) else MISSING,
    "abs": lambda value: abs(value) if isinstance(value, (int, float)) else MISSING,
    "is_array": lambda value: _collection_items(value) is not None,
    "array_count": lambda value: len(_collection_items(value) or []) if _collection_items(value) is not None else MISSING,
    "array_contains": lambda value, needle: needle in (_collection_items(value) or []),
    "array_distinct": lambda value: sorted(set(_collection_items(value) or []), key=repr),
    "to_string": lambda value: str(value),
}


def register_function(name: str, implementation: Callable[..., Any]) -> None:
    """Register a custom scalar function usable from :class:`Func`."""
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

    def evaluate(self, env: Dict[str, Any]) -> Any:
        values = [argument.evaluate(env) for argument in self.args]
        if values and is_absent(values[0]):
            return MISSING
        return _FUNCTIONS[self.name](*values)

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

    def evaluate(self, env: Dict[str, Any]) -> Any:
        items = _collection_items(self.collection.evaluate(env))
        if items is None:
            return False
        inner = dict(env)
        for item in items:
            inner[self.item_var] = item
            value = self.predicate.evaluate(inner)
            if not is_absent(value) and value:
                return True
        return False


# -- convenience constructors used by workload query definitions ----------------

def field(source: str, *path: Any) -> FieldAccess:
    return FieldAccess(source, path)


def lit(value: Any) -> Literal:
    return Literal(value)
