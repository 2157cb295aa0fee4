"""Aggregate functions with partial (per-partition) aggregation support.

Queries in the paper repartition data for parallel aggregation (paper
Figure 5: per-partition sort/group operators feeding a hash exchange).  The
executor therefore computes *partial* aggregates per partition and merges
them at the coordinator, which is why every aggregate here exposes the
``create / fold / merge / finalize`` quartet instead of one function over
all rows.  ``fold(state, values)`` folds a group's argument values, in row
order, in one call; folding them one at a time gives the same state.
"""

from __future__ import annotations

from functools import partial, reduce
from operator import add
from typing import Any, Callable, Dict, List, Sequence

from ..errors import QueryError
from ..types import Missing

_NUMBERS = frozenset((int, float))


def _present(values: Sequence[Any]) -> Sequence[Any]:
    """``values`` without NULL and MISSING — ``values`` itself when it holds
    only ``int`` and ``float``, so a numeric column is never filtered."""
    if _NUMBERS.issuperset(map(type, values)):
        return values
    return [value for value in values if value is not None and not isinstance(value, Missing)]


class Aggregate:
    """Base class of all aggregate functions."""

    name = "abstract"
    #: Whether the aggregate needs an input expression (COUNT(*) does not).
    needs_input = True

    def create(self) -> Any:
        raise NotImplementedError

    def fold(self, state: Any, values: Sequence[Any]) -> Any:
        raise NotImplementedError

    def merge(self, state: Any, other: Any) -> Any:
        raise NotImplementedError

    def finalize(self, state: Any) -> Any:
        raise NotImplementedError


class CountAggregate(Aggregate):
    """``COUNT(*)`` / ``COUNT(expr)`` (rows where the expression is present)."""

    name = "count"
    needs_input = False

    def create(self) -> int:
        return 0

    def fold(self, state: int, values: Sequence[Any]) -> int:
        return state + len(_present(values))

    def merge(self, state: int, other: int) -> int:
        return state + other

    def finalize(self, state: int) -> int:
        return state


class _Reduction(Aggregate):
    """SUM, MIN and MAX: NULL until the first present value, then ``reduce``
    over the state and every present value, left to right."""

    reduce: Callable[[Sequence[Any]], Any]

    def create(self):
        return None

    def fold(self, state, values):
        values = _present(values)
        if state is not None:
            values = (state, *values)
        return self.reduce(values) if values else None

    def merge(self, state, other):
        return self.fold(state, (other,))

    def finalize(self, state):
        return state


class SumAggregate(_Reduction):
    name = "sum"
    # A left fold, never sum(): from Python 3.12 sum() compensates float error.
    reduce = staticmethod(partial(reduce, add))


class MinAggregate(_Reduction):
    name = "min"
    reduce = staticmethod(min)


class MaxAggregate(_Reduction):
    name = "max"
    reduce = staticmethod(max)


class AvgAggregate(Aggregate):
    """AVG as a mergeable (sum, count) pair."""

    name = "avg"

    def create(self):
        return (0.0, 0)

    def fold(self, state, values):
        values = _present(values)
        total, count = state
        return (reduce(add, values, total), count + len(values))

    def merge(self, state, other):
        return (state[0] + other[0], state[1] + other[1])

    def finalize(self, state):
        total, count = state
        if count == 0:
            return None
        return total / count


class ListifyAggregate(Aggregate):
    """``GROUP AS`` / ``listify``: collect the group's values into a list."""

    name = "listify"

    def create(self) -> List[Any]:
        return []

    def fold(self, state: List[Any], values: Sequence[Any]) -> List[Any]:
        state.extend(_present(values))
        return state

    def merge(self, state: List[Any], other: List[Any]) -> List[Any]:
        state.extend(other)
        return state

    def finalize(self, state: List[Any]) -> List[Any]:
        return state


_REGISTRY: Dict[str, Aggregate] = {
    aggregate.name: aggregate for aggregate in (
        CountAggregate(), SumAggregate(), MinAggregate(), MaxAggregate(),
        AvgAggregate(), ListifyAggregate(),
    )
}


def get_aggregate(name: str) -> Aggregate:
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise QueryError(f"unknown aggregate function {name!r}") from exc
