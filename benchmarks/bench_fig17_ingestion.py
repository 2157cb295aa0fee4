"""Figure 17 — data ingestion performance.

* (a) continuous data-feed ingestion of the Twitter workload (insert-only),
  SATA vs NVMe, uncompressed vs compressed;
* (b) the same feed with 50 % updates (every other operation upserts a
  previously ingested record), which exercises the point lookups the tuple
  compactor needs to fetch anti-schemas;
* (c) bulk-loading the WoS workload (sort + bottom-up B+-tree build).

Faithfulness note: the paper's ingest win
for the inferred configuration comes from cheaper *Java* record construction
and from writing smaller LSM components.  In this pure-Python substrate the
CPU side inverts (schema inference + compaction in Python outweigh the
cheaper vector construction), so the shape checks below target the part the
substrate models faithfully — the write volume / simulated device time,
where inferred writes the least — and the update-workload behaviour
(inferred pays for anti-schema point lookups, open/closed do not), while the
measured wall-clock columns are printed for transparency.
"""

from harness import (
    DeviceKind,
    build_dataset,
    lifecycle_columns,
    lifecycle_json,
    print_table,
    scale_factor,
    shape_check,
)

from repro import Dataset, LSMConfig, StorageEnvironment, StorageFormat
from repro.cluster import DataFeed
from repro.config import StorageConfig
from repro.datasets import twitter

_FORMATS = ("open", "closed", "inferred")


def _feed_insert_only():
    rows = []
    io_seconds = {}
    reports = []
    for device in (DeviceKind.SATA_SSD, DeviceKind.NVME_SSD):
        for compression in (None, "snappy"):
            for format_name in _FORMATS:
                built = build_dataset("twitter", format_name, compression=compression,
                                      device=device, method="feed", cache=False)
                report = built.ingest_report
                io_seconds[(device, compression, format_name)] = report.simulated_io_seconds
                reports.append(({"device": device.value,
                                 "compression": compression or "none",
                                 "format": format_name}, report))
                rows.append({"Device": device.value, "Compression": compression or "none",
                             "Format": format_name,
                             "Wall (s)": report.wall_seconds,
                             "Simulated write I/O (s)": report.simulated_io_seconds,
                             "Data bytes written": report.data_bytes_written,
                             **lifecycle_columns(report)})
    return rows, io_seconds, reports


def test_fig17a_feed_insert_only(benchmark):
    rows, io_seconds, reports = benchmark.pedantic(_feed_insert_only, rounds=1, iterations=1)
    print_table("Figure 17a — Twitter data feed, insert-only", rows)
    benchmark.extra_info["lifecycle"] = [
        lifecycle_json(report, **extra) for extra, report in reports]
    for device in (DeviceKind.SATA_SSD, DeviceKind.NVME_SSD):
        for compression in (None, "snappy"):
            inferred = io_seconds[(device, compression, "inferred")]
            open_ = io_seconds[(device, compression, "open")]
            shape_check(
                f"{device.value}/{compression}: inferred writes less than open (smaller components)",
                inferred < open_,
            )


def _feed_with_updates():
    rows = []
    times = {}
    for format_name in _FORMATS:
        for update_ratio in (0.0, 0.5):
            built = build_dataset("twitter", format_name, device=DeviceKind.NVME_SSD,
                                  method="feed", update_ratio=update_ratio, cache=False)
            seconds = built.ingest_report.total_seconds
            times[(format_name, update_ratio)] = seconds
            rows.append({"Format": format_name,
                         "Updates": f"{int(update_ratio * 100)}%",
                         "Ingest time (s)": seconds,
                         "Upserts": built.ingest_report.updates,
                         "Maintenance lookups": built.dataset.ingest_stats()["maintenance_point_lookups"],
                         **lifecycle_columns(built.ingest_report)})
    return rows, times


def test_fig17b_feed_with_updates(benchmark):
    rows, times = benchmark.pedantic(_feed_with_updates, rounds=1, iterations=1)
    print_table("Figure 17b — Twitter data feed with 50% updates (NVMe)", rows)
    inferred_penalty = times[("inferred", 0.5)] / times[("inferred", 0.0)]
    shape_check("inferred pays a visible update penalty (anti-schema point lookups)",
                inferred_penalty > 1.05)
    # Note: the 50%-update feed performs ~1.5x the operations of the insert-only
    # feed for every format; the *extra* inferred-only cost is the maintenance
    # lookups, which the printed column makes visible.
    shape_check("open/closed perform no maintenance point lookups",
                all(row["Maintenance lookups"] == 0 for row in rows if row["Format"] != "inferred"))


def _bulkload():
    rows = []
    sizes = {}
    for device in (DeviceKind.SATA_SSD, DeviceKind.NVME_SSD):
        for format_name in _FORMATS:
            built = build_dataset("wos", format_name, device=device, method="load", cache=False)
            sizes[(device, format_name)] = built.storage_size
            rows.append({"Device": device.value, "Format": format_name,
                         "Bulk-load wall (s)": built.ingest_wall_seconds,
                         "Simulated write I/O (s)": built.environment.simulated_io_seconds(),
                         "Loaded size (bytes)": built.storage_size})
    return rows, sizes


def test_fig17c_wos_bulkload(benchmark):
    rows, sizes = benchmark.pedantic(_bulkload, rounds=1, iterations=1)
    print_table("Figure 17c — WoS bulk load", rows)
    for device in (DeviceKind.SATA_SSD, DeviceKind.NVME_SSD):
        shape_check(f"{device.value}: the single loaded inferred component is the smallest",
                    sizes[(device, "inferred")] < sizes[(device, "closed")] < sizes[(device, "open")])
    # Each load produces exactly one component per partition (single inferred schema).
    single = build_dataset("wos", "inferred", method="load", cache=False)
    shape_check("bulk load builds one on-disk component",
                all(partition.index.component_count() == 1
                    for partition in single.dataset.partitions))


# ---------------------------------------------------------------------------
# Figure 17d (extension) — background LSM lifecycle vs the synchronous pipeline
# ---------------------------------------------------------------------------

_OVERLAP_PARTITIONS = 4
_OVERLAP_THROTTLE = 40.0


def _overlap_feed(background: bool):
    """One throttled multi-partition feed run, synchronous or backgrounded.

    ``io_throttle`` turns simulated device seconds into real GIL-releasing
    sleeps *during ingestion*, so the wall-clock columns genuinely measure
    whether flushes/merges overlap the ingest path (they cannot in the
    synchronous pipeline, where every insert stalls inside the flush)."""
    environment = StorageEnvironment(StorageConfig(
        page_size=8 * 1024, buffer_cache_pages=2048,
        device_kind=DeviceKind.SATA_SSD, io_throttle=_OVERLAP_THROTTLE))
    dataset = Dataset.create(
        f"fig17d_{'bg' if background else 'sync'}", StorageFormat.INFERRED,
        environment=environment, partitions=_OVERLAP_PARTITIONS,
        lsm=LSMConfig(background_maintenance=background,
                      memory_component_budget=24 * 1024,
                      max_sealed_memtables=3,
                      max_tolerable_component_count=3))
    feed = DataFeed(dataset, per_partition_ingest=background)
    count = max(150, int(300 * scale_factor()))
    report = feed.run(twitter.generate(count))
    feed.close()
    return dataset, report


def _background_overlap():
    sync_dataset, sync_report = _overlap_feed(background=False)
    bg_dataset, bg_report = _overlap_feed(background=True)
    rows = []
    for label, dataset, report in (("synchronous", sync_dataset, sync_report),
                                   ("background", bg_dataset, bg_report)):
        rows.append({"Mode": label, "Ingest threads": report.ingest_threads,
                     "Wall (s)": report.wall_seconds,
                     "Records/s": report.records_ingested / max(report.wall_seconds, 1e-9),
                     **lifecycle_columns(report)})
    return rows, (sync_dataset, sync_report), (bg_dataset, bg_report)


def test_fig17d_background_lifecycle_overlap(benchmark):
    rows, (sync_dataset, sync_report), (bg_dataset, bg_report) = benchmark.pedantic(
        _background_overlap, rounds=1, iterations=1)
    print_table("Figure 17d — background flush/merge vs synchronous pipeline "
                f"(SATA, io_throttle={_OVERLAP_THROTTLE})", rows)
    benchmark.extra_info["background"] = lifecycle_json(
        bg_report, wall_seconds=bg_report.wall_seconds)
    benchmark.extra_info["synchronous"] = lifecycle_json(
        sync_report, wall_seconds=sync_report.wall_seconds)

    shape_check("background flush/merge with per-partition ingest beats the "
                "synchronous sequential pipeline on wall time",
                bg_report.wall_seconds < sync_report.wall_seconds * 0.8)
    shape_check("both modes ingested the same records",
                bg_report.records_ingested == sync_report.records_ingested)
    shape_check("post-ingest row sets are identical across modes",
                sorted(row["id"] for row in bg_dataset.scan())
                == sorted(row["id"] for row in sync_dataset.scan()))
    shape_check("post-ingest ingest_stats record counts agree",
                bg_dataset.ingest_stats()["inserts"]
                == sync_dataset.ingest_stats()["inserts"])
    bg_dataset.close()
