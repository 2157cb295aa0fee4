"""LSM storage engine: components, flush/merge, policies, recovery."""

from .component import (
    ComponentMetadata,
    ComponentWriter,
    InMemoryComponent,
    MemEntry,
    OnDiskComponent,
    read_component_metadata,
)
from .component_id import ComponentId
from .lifecycle import FlushCallback
from .lsm_index import (
    IngestStats,
    LSMBTree,
    SealedMemtable,
    SearchResult,
    SecondaryIndexDef,
)
from .merge_policy import (
    MergePolicy,
    NoMergePolicy,
    PrefixMergePolicy,
    make_merge_policy,
)
from .recovery import RecoveryReport, recover_index
from .scheduler import LSMIOScheduler

__all__ = [
    "ComponentId",
    "ComponentMetadata",
    "ComponentWriter",
    "InMemoryComponent",
    "MemEntry",
    "OnDiskComponent",
    "read_component_metadata",
    "FlushCallback",
    "LSMBTree",
    "SearchResult",
    "SecondaryIndexDef",
    "IngestStats",
    "MergePolicy",
    "NoMergePolicy",
    "PrefixMergePolicy",
    "make_merge_policy",
    "RecoveryReport",
    "recover_index",
    "SealedMemtable",
    "LSMIOScheduler",
]
