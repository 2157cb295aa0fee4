"""Partitioned query engine: expressions, operators, optimizer, executor."""

from .aggregates import get_aggregate
from .batch_compile import BatchQueryPlan
from .executor import (
    DEFAULT_BATCH_SIZE,
    ExecutionStats,
    LimitCancellation,
    OperatorStats,
    PartitionStats,
    QueryExecutor,
    QueryResult,
)
from .explain import explain
from .expressions import (
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
    register_function,
    render_expr,
)
from .optimizer import (
    AccessPathChoice,
    AccessPlan,
    Optimizer,
    choose_access_path,
    extract_key_range,
)
from .plan import (
    AggregateSpec,
    FullScan,
    IndexProbe,
    OrderKey,
    QuerySpec,
    UnnestClause,
)

__all__ = [
    "QueryExecutor",
    "QueryResult",
    "DEFAULT_BATCH_SIZE",
    "BatchQueryPlan",
    "ExecutionStats",
    "OperatorStats",
    "PartitionStats",
    "LimitCancellation",
    "Optimizer",
    "AccessPlan",
    "AccessPathChoice",
    "FullScan",
    "IndexProbe",
    "choose_access_path",
    "extract_key_range",
    "explain",
    "render_expr",
    "QuerySpec",
    "UnnestClause",
    "AggregateSpec",
    "OrderKey",
    "Expr",
    "Var",
    "Literal",
    "FieldAccess",
    "Comparison",
    "And",
    "Or",
    "Not",
    "Arithmetic",
    "IsTest",
    "Func",
    "Exists",
    "register_function",
    "get_aggregate",
]
