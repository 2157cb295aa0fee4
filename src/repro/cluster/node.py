"""Node controller: one worker node of the simulated cluster (paper Figure 3).

Each node controller owns a storage environment (buffer cache, transaction
log, simulated storage device) and hosts a fixed number of data partitions
per dataset.
"""

from __future__ import annotations

from typing import Optional

from ..config import StorageConfig
from ..core.environment import StorageEnvironment


class NodeController:
    """One worker node (NC) of the cluster."""

    def __init__(self, node_id: int, storage_config: Optional[StorageConfig] = None,
                 partitions_per_node: int = 2) -> None:
        self.node_id = node_id
        self.partitions_per_node = partitions_per_node
        self.environment = StorageEnvironment(storage_config, node_id=node_id)

    # -- reporting ---------------------------------------------------------------------

    def storage_size(self) -> int:
        return self.environment.storage_size()

    def simulated_io_seconds(self) -> float:
        return self.environment.simulated_io_seconds()

    def maintenance_io_seconds(self) -> float:
        """Simulated device seconds spent on background flush/merge traffic.

        Background maintenance workers tag their I/O with the "maintenance"
        class (see :meth:`~repro.storage.SimulatedStorageDevice.io_class_scope`),
        so this isolates the device time the asynchronous LSM lifecycle moved
        off this node's ingest path.  Zero under synchronous maintenance.
        """
        device = self.environment.device
        stats = device.per_class.get("maintenance")
        if stats is None:
            return 0.0
        return device.simulated_seconds(stats)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"NodeController(node_id={self.node_id}, partitions={self.partitions_per_node})"
