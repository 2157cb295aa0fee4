#!/usr/bin/env python3
"""Social-media analytics: open vs inferred storage on a Twitter-like feed.

Mirrors the paper's headline scenario — a data scientist ingests a stream of
tweets without declaring any schema — and compares the two ways this library
can store them:

* ``OPEN``     — self-describing ADM records (what MongoDB/Couchbase do);
* ``INFERRED`` — vector-based records compacted by the tuple compactor.

The script ingests the same synthetic tweet stream into both datasets
through a data feed, compares on-disk sizes (with and without page
compression), and runs the paper's Twitter Q2 and Q3 analytics queries
against both, reporting wall-clock and simulated-I/O times.

Run with::

    python examples/twitter_analytics.py [record_count]
"""

import sys

from repro import Dataset, DeviceKind, LSMConfig, StorageEnvironment, StorageFormat
from repro.cluster import DataFeed
from repro.datasets import twitter
from repro.query import QueryExecutor


def build(storage_format: StorageFormat, compression, records):
    environment = StorageEnvironment.for_device(DeviceKind.SATA_SSD, compression=compression)
    # Ingest with the asynchronous LSM lifecycle: flushes/merges run on a
    # background scheduler and, with several partitions, one ingest thread
    # per partition keeps the feed overlapping with maintenance.
    dataset = Dataset.create(f"tweets_{storage_format.value}_{compression or 'raw'}",
                             storage_format, environment=environment, partitions=2,
                             lsm=LSMConfig(background_maintenance=True))
    feed = DataFeed(dataset, per_partition_ingest=True)
    report = feed.run(records)
    feed.close()
    return dataset, report


def main() -> None:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    records = list(twitter.generate(count))
    print(f"Ingesting {count} tweet-like records into four datasets...\n")

    configurations = [
        (StorageFormat.OPEN, None, "open, uncompressed"),
        (StorageFormat.OPEN, "snappy", "open, compressed"),
        (StorageFormat.INFERRED, None, "inferred (tuple compactor), uncompressed"),
        (StorageFormat.INFERRED, "snappy", "inferred (tuple compactor), compressed"),
    ]

    datasets = {}
    print(f"{'configuration':45s} {'on-disk size':>14s} {'ingest time':>12s}")
    for storage_format, compression, label in configurations:
        dataset, report = build(storage_format, compression, records)
        datasets[label] = dataset
        print(f"{label:45s} {dataset.storage_size():>12,} B {report.total_seconds:>10.2f} s")
    print()

    executor = QueryExecutor(cold_cache=True)
    for query_name in ("Q2", "Q3"):
        # The queries run from their Appendix A SQL++ text: Dataset.query()
        # compiles the string through repro.sqlpp into the engine's plan.
        print(f"== Twitter {query_name} ==")
        print("   " + " ".join(twitter.SQLPP[query_name].split()))
        for label, dataset in datasets.items():
            result = dataset.query(twitter.SQLPP[query_name], executor=executor)
            stats = result.stats
            print(f"  {label:45s} wall={stats.wall_seconds:6.3f}s "
                  f"simulated-io={stats.simulated_io_seconds:6.3f}s rows={len(result.rows)}")
        print(f"  top row: {result.rows[0]}")
        print()

    inferred = datasets["inferred (tuple compactor), uncompressed"]
    print("Inferred schema (first partition), abbreviated to 15 lines:")
    print("\n".join(inferred.describe_schema().splitlines()[:15]))

    # Quiesce the background flush/merge workers deterministically.
    for dataset in datasets.values():
        dataset.close()


if __name__ == "__main__":
    main()
