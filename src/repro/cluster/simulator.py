"""Cluster simulator: N node controllers + a cluster controller in one process.

The paper's scale-out experiments (Figures 25–26) run AsterixDB on 4/8/16/32
EC2 nodes, scaling the ingested Twitter data proportionally, and show that
storage, ingestion, and query times scale linearly while the schema
broadcast introduced for repartitioning queries stays negligible.  This
simulator reproduces the topology of paper Figure 3 in one process: each
node controller owns an independent storage environment; datasets span all
nodes with a fixed number of partitions per node; ingestion hash-partitions
records across nodes; and queries execute the same job against every
partition.

Queries fan out over a real worker pool (one worker per partition by
default — see :class:`~repro.query.QueryExecutor`), so the *parallel* time
reported for a query is the wall clock actually measured, not a simulated
maximum.  The *sequential-equivalent* time (sum of measured per-partition
pipeline times plus the measured coordinator stage) is reported next to it,
and their ratio is the measured speedup the scale-out benchmarks assert on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..config import ClusterConfig, DatasetConfig, StorageConfig, StorageFormat
from ..core.dataset import Dataset
from ..errors import ClusterError
from ..obs import StatsDictMixin
from ..query import QueryExecutor, QueryResult
from ..types import Datatype, open_only_primary_key
from .node import NodeController


@dataclass
class ClusterQueryReport(StatsDictMixin):
    """Query execution summary with scale-out-relevant timings."""

    #: The embedded result (rows) stays out of the JSON export; its stats
    #: are exported through ``result.stats.to_dict()`` by callers that want
    #: them.
    _EXCLUDE = ("result",)

    result: QueryResult
    #: Sum of measured per-partition pipeline times + measured coordinator
    #: time (what one worker would have spent doing all the partition work),
    #: plus the *unslept* simulated device time done back-to-back.
    sequential_seconds: float
    #: Measured wall time of the fanned-out execution, plus each node's
    #: share of the *unslept* simulated device time (devices are per-node,
    #: so their simulated seconds accrue in parallel across the cluster).
    #: "Unslept" keeps the columns comparable under the latency-realism
    #: throttle: throttled devices already turn simulated seconds into real
    #: sleeps inside the measured times, so re-adding them would double-count.
    parallel_seconds: float
    simulated_io_seconds: float
    schema_broadcast_bytes: int
    #: Measured wall seconds of the parallel run (no simulated I/O share).
    measured_wall_seconds: float = 0.0
    #: sequential_seconds / measured wall — >1 means real overlap happened.
    measured_speedup: float = 1.0
    #: Worker-pool width the execution used.
    parallelism: int = 1


class ClusterSimulator:
    """A shared-nothing cluster of :class:`NodeController` instances."""

    def __init__(self, cluster_config: Optional[ClusterConfig] = None,
                 storage_config: Optional[StorageConfig] = None) -> None:
        self.config = cluster_config or ClusterConfig()
        self.storage_config = storage_config or StorageConfig()
        self.nodes: List[NodeController] = [
            NodeController(node_id, self.storage_config, self.config.partitions_per_node)
            for node_id in range(self.config.node_count)
        ]
        self.datasets: Dict[str, Dataset] = {}

    # ------------------------------------------------------------------ datasets

    def create_dataset(self, name: str, storage_format: StorageFormat = StorageFormat.OPEN,
                       datatype: Optional[Datatype] = None, primary_key: str = "id",
                       dataset_config: Optional[DatasetConfig] = None,
                       background_maintenance: Optional[bool] = None) -> Dataset:
        """Create a dataset spread over every node's partitions.

        ``background_maintenance`` forces the asynchronous LSM lifecycle on
        (or off) for this dataset; ``None`` keeps the config's setting.
        """
        if name in self.datasets:
            raise ClusterError(f"dataset {name!r} already exists in this cluster")
        config = dataset_config or DatasetConfig(
            name=name, primary_key=primary_key, storage_format=storage_format,
            storage=self.storage_config,
        )
        if background_maintenance is not None:
            from dataclasses import replace

            config = replace(config, lsm=replace(
                config.lsm, background_maintenance=background_maintenance))
        datatype = datatype or open_only_primary_key(f"{name}Type", primary_key)
        dataset = Dataset(config, [node.environment for node in self.nodes],
                          partitions_per_environment=self.config.partitions_per_node,
                          datatype=datatype)
        self.datasets[name] = dataset
        return dataset

    def dataset(self, name: str) -> Dataset:
        try:
            return self.datasets[name]
        except KeyError as exc:
            raise ClusterError(f"unknown dataset {name!r}") from exc

    # ------------------------------------------------------------------ lifecycle

    def drain(self) -> None:
        """Wait for every dataset's background maintenance to go quiet."""
        for dataset in self.datasets.values():
            dataset.drain()

    def close(self) -> None:
        """Quiesce and close every dataset in the cluster.  Idempotent."""
        for dataset in self.datasets.values():
            dataset.close()

    def __enter__(self) -> "ClusterSimulator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ cluster-wide metrics

    def total_storage_size(self) -> int:
        return sum(node.storage_size() for node in self.nodes)

    def per_node_storage_sizes(self) -> List[int]:
        return [node.storage_size() for node in self.nodes]

    def total_partitions(self) -> int:
        return self.config.total_partitions

    def metrics_snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Snapshot of the registry the cluster's nodes publish into.

        Node environments default to the process-wide registry, so one
        snapshot covers every node; with per-environment registries this
        returns the first node's (callers wanting per-node detail iterate
        ``node.environment.metrics`` themselves).
        """
        return self.nodes[0].environment.metrics.snapshot()

    def set_io_throttle(self, throttle: float) -> None:
        """Dial every node device's latency realism knob (see
        :class:`~repro.storage.SimulatedStorageDevice`).  Benchmarks enable
        it after ingestion so only queries pay the real sleeps."""
        for node in self.nodes:
            node.environment.device.throttle = throttle

    # ------------------------------------------------------------------ queries

    def execute(self, dataset_name: str, text: str,
                executor: Optional[QueryExecutor] = None,
                parallelism: Optional[int] = None) -> ClusterQueryReport:
        """Run the SQL++ query ``text`` against all partitions on a real
        worker pool."""
        dataset = self.dataset(dataset_name)
        if executor is None:
            executor = QueryExecutor(parallelism=parallelism)
        elif parallelism is not None:
            raise ClusterError("pass either a prebuilt executor or parallelism, not both")
        result = dataset.query(text, executor=executor)
        stats = result.stats
        throttle = max((node.environment.device.throttle for node in self.nodes), default=0.0)
        unslept_io = stats.simulated_io_seconds * max(0.0, 1.0 - throttle)
        return ClusterQueryReport(
            result=result,
            sequential_seconds=stats.sequential_equivalent_seconds + unslept_io,
            parallel_seconds=stats.wall_seconds + unslept_io / max(len(self.nodes), 1),
            simulated_io_seconds=stats.simulated_io_seconds,
            schema_broadcast_bytes=stats.schema_broadcast_bytes,
            measured_wall_seconds=stats.wall_seconds,
            measured_speedup=stats.measured_speedup,
            parallelism=stats.parallelism,
        )
