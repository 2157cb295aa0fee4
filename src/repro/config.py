"""Configuration objects shared across the storage engine and the cluster.

The paper's experiments vary a small number of knobs — the storage format
(open / closed / inferred / schema-less vector-based), whether page-level
compression is enabled, the storage device the data lives on, the LSM
memory budget and merge policy, and the number of partitions.  This module
groups those knobs into small frozen dataclasses so a whole experiment can
be described declaratively and reproduced from its configuration alone.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field
from typing import Optional

#: Flag values :func:`env_flag` accepts as "on".
_TRUTHY_FLAGS = ("1", "true", "on", "yes")


def env_str(name: str, default: str = "") -> str:
    """Read one ``REPRO_*`` knob as a stripped string.

    This module is the engine's *single* environment accessor: every other
    module reads its knobs through :func:`env_str` / :func:`env_flag`
    instead of touching ``os.environ`` directly, and names each knob in a
    ``*_ENV_VAR`` constant; a test holds both to the README knob table.
    """
    return os.environ.get(name, default).strip()


def env_flag(name: str) -> bool:
    """Whether a ``REPRO_*`` on/off knob is set to a truthy flag value."""
    return env_str(name).lower() in _TRUTHY_FLAGS


class StorageFormat(enum.Enum):
    """Physical record format used by a dataset's primary index.

    * ``OPEN`` — AsterixDB-style self-describing ADM records where every
      undeclared field stores its name and type inline (the paper's
      schema-less baseline; what MongoDB/Couchbase do).
    * ``CLOSED`` — ADM records whose fields are all pre-declared, so field
      names live in the metadata catalog instead of in each record.
    * ``INFERRED`` — the paper's contribution: vector-based records that are
      compacted against a schema inferred by the tuple compactor during LSM
      flushes.
    * ``SL_VB`` — "schema-less vector-based": vector-based records without
      schema inference or compaction.  Used by the Figure 21 ablation to
      separate the encoding win from the compaction win.
    """

    OPEN = "open"
    CLOSED = "closed"
    INFERRED = "inferred"
    SL_VB = "sl-vb"

    @property
    def uses_vector_format(self) -> bool:
        """Whether records are physically stored in the vector-based format."""
        return self in (StorageFormat.INFERRED, StorageFormat.SL_VB)


class DeviceKind(enum.Enum):
    """Storage device classes evaluated in the paper."""

    SATA_SSD = "sata-ssd"
    NVME_SSD = "nvme-ssd"
    IN_MEMORY = "in-memory"


#: Sequential bandwidths quoted in the paper's experiment setup (bytes/second).
DEVICE_PROFILES = {
    DeviceKind.SATA_SSD: {
        "read_bandwidth": 550 * 1024 * 1024,
        "write_bandwidth": 520 * 1024 * 1024,
        "seek_latency": 80e-6,
    },
    DeviceKind.NVME_SSD: {
        "read_bandwidth": 3400 * 1024 * 1024,
        "write_bandwidth": 2500 * 1024 * 1024,
        "seek_latency": 15e-6,
    },
    DeviceKind.IN_MEMORY: {
        "read_bandwidth": 20 * 1024 * 1024 * 1024,
        "write_bandwidth": 20 * 1024 * 1024 * 1024,
        "seek_latency": 0.0,
    },
}


@dataclass(frozen=True)
class StorageConfig:
    """Knobs of the storage substrate (pages, cache, device, compression)."""

    page_size: int = 16 * 1024
    buffer_cache_pages: int = 4096
    device_kind: DeviceKind = DeviceKind.NVME_SSD
    compression: Optional[str] = None  # codec name, e.g. "zlib"; None = off
    #: Fraction of every operation's *simulated* device seconds to spend in a
    #: real ``time.sleep`` (0.0 = pure accounting).  Sleeping releases the
    #: GIL, so tests and scale-out benchmarks use this to make the wall-clock
    #: benefit of parallel partition execution observable and deterministic.
    io_throttle: float = 0.0

    def __post_init__(self) -> None:
        if self.page_size <= 256:
            raise ValueError(f"page_size must be > 256 bytes, got {self.page_size}")
        if self.buffer_cache_pages <= 0:
            raise ValueError("buffer_cache_pages must be positive")
        if self.io_throttle < 0:
            raise ValueError("io_throttle must be >= 0")


@dataclass(frozen=True)
class LSMConfig:
    """Knobs of the LSM tree manager."""

    #: Size, in bytes of encoded records, after which the in-memory component
    #: is flushed to disk.
    memory_component_budget: int = 8 * 1024 * 1024
    #: Merge policy name: "prefix" or "none".
    merge_policy: str = "prefix"
    #: Prefix policy: merge once this many mergeable components accumulate.
    max_tolerable_component_count: int = 5
    #: Run flushes and merges on a background scheduler (AsterixDB-style
    #: asynchronous LSM lifecycle) instead of inline on the writer's thread.
    #: The setting only picks *where* a flush or merge task runs — the
    #: lifecycle (seal, build, install) is one path, so both settings write
    #: the same entries in the same flush order.
    background_maintenance: bool = False
    #: Backpressure: how many *sealed* (immutable, flush-pending) memtables a
    #: partition may accumulate before its writer blocks waiting for a flush
    #: to complete (AsterixDB's "wait for the flush to finish" behaviour).
    max_sealed_memtables: int = 2

    def __post_init__(self) -> None:
        if self.max_sealed_memtables < 1:
            raise ValueError("max_sealed_memtables must be >= 1")


@dataclass(frozen=True)
class DatasetConfig:
    """Everything needed to create a dataset (paper §2.1 + §3)."""

    name: str
    primary_key: str = "id"
    storage_format: StorageFormat = StorageFormat.OPEN
    storage: StorageConfig = field(default_factory=StorageConfig)
    lsm: LSMConfig = field(default_factory=LSMConfig)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("dataset name must be non-empty")
        if not self.primary_key:
            raise ValueError("primary_key must be non-empty")

    @property
    def tuple_compactor_enabled(self) -> bool:
        """The ``{"tuple-compactor-enabled": true}`` WITH-clause of Figure 8:
        what the inferred format is."""
        return self.storage_format is StorageFormat.INFERRED


@dataclass(frozen=True)
class ClusterConfig:
    """Topology of a simulated AsterixDB cluster (paper Figure 3)."""

    node_count: int = 1
    partitions_per_node: int = 2

    def __post_init__(self) -> None:
        if self.node_count <= 0:
            raise ValueError("node_count must be positive")
        if self.partitions_per_node <= 0:
            raise ValueError("partitions_per_node must be positive")

    @property
    def total_partitions(self) -> int:
        return self.node_count * self.partitions_per_node
