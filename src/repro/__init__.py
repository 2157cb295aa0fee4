"""repro — a reproduction of "An LSM-based Tuple Compaction Framework for
Apache AsterixDB" (Alkowaileet, Alsubaiee, Carey; PVLDB 13(9), 2020).

The package implements, from scratch and in Python:

* an LSM B+-tree document-store storage engine with flush/merge lifecycles,
  anti-matter deletes, merge policies, WAL + crash recovery, page-level
  compression with look-aside files, and per-component auxiliary indexes;
* the paper's tuple compaction framework: flush-time schema inference, a
  counter-maintained schema tree structure, and record compaction;
* the vector-based physical record format with consolidated field access;
* a partitioned, operator-based query engine with the optimizer rewrites
  the paper relies on (field-access consolidation/pushdown, schema
  broadcast for repartitioning queries);
* synthetic Twitter/Web-of-Science/Sensors workload generators and the
  benchmark harness that regenerates every table and figure of the paper's
  evaluation section.

* a SQL++ text front-end (lexer, recursive-descent parser, AST, binder)
  compiling query strings into the engine's executable plans, plus
  ``CREATE INDEX`` DDL — the one way a query is stated;
* cost-based access-path selection: WHERE predicates over secondary-indexed
  fields are routed through an index probe or a full scan, whichever the
  device-profile cost model prices cheaper, with an ``explain()`` surface
  showing the decision.

Quick start::

    from repro import Dataset, StorageFormat

    dataset = Dataset.create("Employee", StorageFormat.INFERRED)
    dataset.insert({"id": 1, "name": "Ann", "age": 26})
    dataset.flush_all()
    print(dataset.describe_schema())
    for row in dataset.query("SELECT e.name AS name FROM Employee AS e WHERE e.age < 30"):
        print(row)
"""

from .config import (
    ClusterConfig,
    DatasetConfig,
    DeviceKind,
    LSMConfig,
    StorageConfig,
    StorageFormat,
)
from .cache import ColumnSliceCache, PlanCache
from .core import Dataset, Partition, StorageEnvironment, TupleCompactor
from .errors import (
    CorruptPageError,
    FaultSpecError,
    PermanentIOError,
    QuarantinedComponentError,
    QueryDeadlineError,
    ReproError,
    SchedulerError,
    SqlppError,
    TransientIOError,
)
from .faults import FAULTS_ENV_VAR, FaultInjector, fault_points, get_injector
from .lsm import LSMIOScheduler
from .obs import (
    MetricsRegistry,
    TRACE_ENV_VAR,
    get_registry,
    get_tracer,
    metrics_delta,
)
from .sqlpp import CompiledCreateIndex, CompiledQuery, parse, unparse
from .sqlpp import compile as compile_sqlpp
from .schema import InferredSchema
from .types import (
    ADate,
    ADateTime,
    AMultiset,
    APoint,
    ATime,
    Datatype,
    FieldDeclaration,
    MISSING,
    TypeTag,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "StorageFormat",
    "DeviceKind",
    "DatasetConfig",
    "StorageConfig",
    "LSMConfig",
    "ClusterConfig",
    "Dataset",
    "Partition",
    "StorageEnvironment",
    "TupleCompactor",
    "PlanCache",
    "ColumnSliceCache",
    "InferredSchema",
    "ReproError",
    "SchedulerError",
    "SqlppError",
    "TransientIOError",
    "PermanentIOError",
    "CorruptPageError",
    "QuarantinedComponentError",
    "FaultSpecError",
    "QueryDeadlineError",
    "FaultInjector",
    "get_injector",
    "fault_points",
    "FAULTS_ENV_VAR",
    "LSMIOScheduler",
    "MetricsRegistry",
    "get_registry",
    "get_tracer",
    "metrics_delta",
    "TRACE_ENV_VAR",
    "parse",
    "unparse",
    "compile_sqlpp",
    "CompiledQuery",
    "CompiledCreateIndex",
    "TypeTag",
    "Datatype",
    "FieldDeclaration",
    "ADate",
    "ADateTime",
    "ATime",
    "APoint",
    "AMultiset",
    "MISSING",
]
