"""Per-node storage environment: device, file manager, buffer cache, WAL.

In AsterixDB (paper Figure 3) each node controller owns a buffer cache, an
in-memory-component memory budget, and a transaction log that its data
partitions share, while each partition manages its own files on its own
storage device.  A :class:`StorageEnvironment` bundles exactly those per-node
resources, so it *is* the node: a multi-node cluster is one
:class:`~repro.core.Dataset` over N environments, with a fixed number of
partitions on each::

    Dataset(config, [StorageEnvironment(storage) for _ in range(n)],
            partitions_per_environment=p)
"""

from __future__ import annotations

from typing import Optional

from ..cache import ColumnSliceCache
from ..config import DeviceKind, StorageConfig
from ..obs import MetricsRegistry, get_registry
from ..storage import (
    BufferCache,
    FileManager,
    SimulatedStorageDevice,
    WriteAheadLog,
    get_codec,
)


class StorageEnvironment:
    """Everything a node needs to host dataset partitions."""

    def __init__(self, storage_config: Optional[StorageConfig] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.config = storage_config or StorageConfig()
        #: Metrics registry every component of this environment publishes
        #: into; defaults to the process-wide registry so cluster-level
        #: consumers see one coherent snapshot (pass a fresh registry for
        #: isolation in tests).
        self.metrics = metrics if metrics is not None else get_registry()
        self.device = SimulatedStorageDevice(self.config.device_kind,
                                             throttle=self.config.io_throttle,
                                             metrics=self.metrics)
        self.file_manager = FileManager(self.device, self.config.page_size,
                                        get_codec(self.config.compression))
        self.buffer_cache = BufferCache(self.file_manager, self.config.buffer_cache_pages,
                                        metrics=self.metrics)
        self.wal = WriteAheadLog(self.device, metrics=self.metrics)
        #: Decoded column-slice cache shared by this environment's datasets
        #: (32 MiB; install ``ColumnSliceCache(capacity_bytes=0)`` before
        #: creating a dataset to disable it).  Sits above the buffer cache:
        #: warm scans skip page reads entirely, and the LSM component
        #: lifecycle invalidates entries eagerly.
        self.column_cache = ColumnSliceCache(metrics=self.metrics)

    # -- reporting -------------------------------------------------------------

    def storage_size(self) -> int:
        """Total bytes stored across every file of this environment."""
        return self.file_manager.total_size()

    def simulated_io_seconds(self) -> float:
        return self.device.simulated_seconds()

    def drop_caches(self) -> None:
        """Empty the buffer and column-slice caches (cold-start a query
        experiment: the next scan pays full page-read *and* decode cost)."""
        self.buffer_cache.clear()
        self.column_cache.clear()

    @classmethod
    def for_device(cls, device_kind: DeviceKind, compression: Optional[str] = None,
                   page_size: int = 16 * 1024,
                   buffer_cache_pages: int = 4096) -> "StorageEnvironment":
        """Convenience factory used heavily by benchmarks and examples."""
        return cls(StorageConfig(page_size=page_size, buffer_cache_pages=buffer_cache_pages,
                                 device_kind=device_kind, compression=compression))
