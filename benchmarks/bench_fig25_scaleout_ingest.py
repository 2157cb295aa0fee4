"""Figure 25 — scale-out storage size and ingestion time.

The paper scales the Twitter workload proportionally with the cluster size
(4/8/16/32 EC2 nodes, compressed datasets only) and shows per-configuration
totals growing linearly: the inferred dataset keeps the lowest storage
footprint and the highest ingest rate at every cluster size.

Each node is one :class:`~repro.core.StorageEnvironment` (its own buffer
cache, log and device), and a cluster is one dataset over N of them with two
partitions each.  Every node runs in one process, so the node counts are
scaled down (1/2/4) and the checked shapes are: (i) total storage grows
roughly linearly with node count (data volume is proportional), (ii) at
every cluster size the storage ordering inferred < closed < open holds, and
(iii) the per-node write volume stays roughly constant — the "linear
scale-out" claim expressed in the substrate's faithful currency.
"""

from dataclasses import replace

from harness import (
    lifecycle_columns,
    lifecycle_json,
    mb,
    print_table,
    records_for,
    scale_factor,
    shape_check,
)

from repro.cluster import DataFeed
from repro.config import DatasetConfig, LSMConfig, StorageConfig, StorageFormat
from repro.core import Dataset, StorageEnvironment
from repro.datasets import twitter
from repro.storage import IOStats

NODE_COUNTS = (1, 2, 4)
RECORDS_PER_NODE = max(150, int(400 * scale_factor()))
_FORMATS = {"open": StorageFormat.OPEN, "closed": StorageFormat.CLOSED,
            "inferred": StorageFormat.INFERRED}


def build_cluster(nodes: int, format_name: str, io_throttle: float = 0.0,
                  ingest_throttle: float = 0.0,
                  background_maintenance: bool = False, per_partition_ingest: bool = False,
                  memory_budget=None):
    """Build and ingest one scale-out cluster: a ``tweets`` dataset with two
    partitions on each of ``nodes`` storage environments.

    ``io_throttle`` dials in the devices' latency realism *after* ingestion
    (so only queries pay real sleeps) — the Figure 26 query benchmark uses
    it to make parallel partition execution measurable in wall-clock time.
    ``ingest_throttle`` applies the realism *during* ingestion instead,
    which is what makes the background-lifecycle overlap below measurable;
    ``background_maintenance``/``per_partition_ingest`` select the
    asynchronous LSM lifecycle and the per-partition ingest threads, and
    ``memory_budget`` shrinks the memtables so flushes happen mid-feed.
    """
    storage = StorageConfig(page_size=8 * 1024, buffer_cache_pages=2048, compression="snappy",
                            io_throttle=ingest_throttle)
    datatype = None
    if format_name == "closed":
        from harness import closed_datatype_for

        datatype = closed_datatype_for("twitter", records_for("twitter", RECORDS_PER_NODE))
    lsm = LSMConfig(background_maintenance=background_maintenance)
    if memory_budget is not None:
        lsm = replace(lsm, memory_component_budget=memory_budget,
                      max_tolerable_component_count=3)
    config = DatasetConfig(name="tweets", storage_format=_FORMATS[format_name],
                           storage=storage, lsm=lsm)
    dataset = Dataset(config, [StorageEnvironment(storage) for _ in range(nodes)],
                      partitions_per_environment=2, datatype=datatype)
    feed = DataFeed(dataset, per_partition_ingest=per_partition_ingest)
    report = feed.run(twitter.generate(RECORDS_PER_NODE * nodes))
    feed.close()
    if io_throttle:
        for environment in dataset.environments:
            environment.device.throttle = io_throttle
    return dataset, report


def _storage_size(dataset: Dataset) -> int:
    return sum(environment.storage_size() for environment in dataset.environments)


def _maintenance_io_seconds(dataset: Dataset):
    """Simulated device seconds of each node's background flush/merge
    traffic: the maintenance workers tag their I/O with the "maintenance"
    class, so this is the time the asynchronous LSM lifecycle moved off
    the ingest path (none under synchronous maintenance)."""
    return [environment.device.simulated_seconds(
                environment.device.per_class.get("maintenance", IOStats()))
            for environment in dataset.environments]


def _figure25():
    rows = []
    storage = {}
    reports = []
    for nodes in NODE_COUNTS:
        for format_name in _FORMATS:
            dataset, report = build_cluster(nodes, format_name)
            total = _storage_size(dataset)
            storage[(nodes, format_name)] = total
            reports.append(({"nodes": nodes, "format": format_name}, report))
            rows.append({"Nodes": nodes, "Format": format_name,
                         "Records": RECORDS_PER_NODE * nodes,
                         "Total size (MB)": mb(total),
                         "Per-node size (MB)": mb(total / nodes),
                         "Ingest wall (s)": report.wall_seconds,
                         "Simulated write I/O (s)": report.simulated_io_seconds,
                         **lifecycle_columns(report)})
    return rows, storage, reports


def test_fig25_scaleout_storage_and_ingest(benchmark):
    rows, storage, reports = benchmark.pedantic(_figure25, rounds=1, iterations=1)
    print_table("Figure 25 — scale-out storage and ingestion (compressed datasets)", rows)
    benchmark.extra_info["lifecycle"] = [
        lifecycle_json(report, **extra) for extra, report in reports]
    for nodes in NODE_COUNTS:
        shape_check(f"{nodes} nodes: inferred < closed < open storage",
                    storage[(nodes, "inferred")] < storage[(nodes, "closed")] < storage[(nodes, "open")])
    for format_name in _FORMATS:
        small = storage[(NODE_COUNTS[0], format_name)]
        large = storage[(NODE_COUNTS[-1], format_name)]
        scale = NODE_COUNTS[-1] / NODE_COUNTS[0]
        shape_check(f"{format_name}: storage grows roughly linearly with cluster size",
                    0.6 * scale < large / small < 1.6 * scale)


_OVERLAP_THROTTLE = 40.0


def _figure25b():
    """Background vs synchronous ingest on the 2-node (4-partition) cluster,
    with device latency realism on *during* the feed."""
    results = {}
    for label, background, per_partition in (("synchronous", False, False),
                                             ("background", True, True)):
        dataset, report = build_cluster(
            2, "inferred", ingest_throttle=_OVERLAP_THROTTLE,
            background_maintenance=background, per_partition_ingest=per_partition,
            memory_budget=24 * 1024)
        results[label] = (dataset, report)
    rows = [{"Mode": label, "Ingest threads": report.ingest_threads,
             "Ingest wall (s)": report.wall_seconds,
             # Device time the async lifecycle moved off the ingest path
             # (tagged by the maintenance workers; 0 in synchronous mode).
             "Maintenance I/O (s)": sum(_maintenance_io_seconds(dataset)),
             **lifecycle_columns(report)}
            for label, (dataset, report) in results.items()]
    return rows, results


def test_fig25b_background_ingest_overlap(benchmark):
    rows, results = benchmark.pedantic(_figure25b, rounds=1, iterations=1)
    print_table("Figure 25b — scale-out feed: background LSM lifecycle vs "
                f"synchronous (SATA realism x{_OVERLAP_THROTTLE})", rows)
    sync_dataset, sync_report = results["synchronous"]
    bg_dataset, bg_report = results["background"]
    benchmark.extra_info["wall_seconds"] = {
        "synchronous": sync_report.wall_seconds, "background": bg_report.wall_seconds}
    shape_check("background flush/merge with per-partition ingest beats the "
                "synchronous sequential pipeline on wall time",
                bg_report.wall_seconds < sync_report.wall_seconds * 0.8)
    shape_check("background maintenance device traffic is tagged per node",
                sum(_maintenance_io_seconds(bg_dataset)) > 0.0
                and all(seconds == 0.0 for seconds in _maintenance_io_seconds(sync_dataset)))
    sync_rows = sorted(row["id"] for row in sync_dataset.scan())
    bg_rows = sorted(row["id"] for row in bg_dataset.scan())
    shape_check("post-ingest row sets are identical across modes", sync_rows == bg_rows)
    bg_dataset.close()
