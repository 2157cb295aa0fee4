#!/usr/bin/env python3
"""IoT scenario: numeric sensor reports, secondary index, selective queries.

The Sensors dataset is where the vector-based format pays off most (paper
Figure 16c): records are arrays of tiny ``{"temp", "timestamp"}`` objects,
so per-object field names and offsets dominate the open format's footprint.
This example:

1. ingests sensor reports into open / closed / inferred datasets and prints
   the storage breakdown;
2. creates a secondary index on ``report_time`` and compares a selective
   range query through the index against a full-scan query (Figure 24's
   motivation);
3. runs the paper's Sensors Q2 and Q3 with and without the field-access
   consolidation/pushdown optimization (the Figure 23 ablation).

Run with::

    python examples/sensors_iot.py [record_count]
"""

import sys

from repro import Dataset, StorageFormat
from repro.datasets import sensors
from repro.query import QueryExecutor
from repro.types import Datatype


def main() -> None:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 800
    records = list(sensors.generate(count))

    print(f"== Storage: {count} sensor reports, {sensors.READINGS_PER_RECORD} readings each ==")
    datasets = {}
    for storage_format in (StorageFormat.OPEN, StorageFormat.CLOSED, StorageFormat.INFERRED):
        datatype = None
        if storage_format is StorageFormat.CLOSED:
            datatype = Datatype.from_example("SensorType", records[0], primary_key="id")
        dataset = Dataset.create(f"sensors_{storage_format.value}", storage_format, datatype=datatype)
        dataset.create_index("by_report_time", "report_time")
        dataset.insert_all(records)
        dataset.flush_all()
        datasets[storage_format] = dataset
        print(f"  {storage_format.value:10s} {dataset.storage_size():>12,} bytes")
    print()

    inferred = datasets[StorageFormat.INFERRED]

    print("== Secondary index: readings reported in the first hour ==")
    low = sensors.REPORT_TIME_BASE
    high = low + 60 * 60 * 1000
    text = (f"SELECT VALUE s.id FROM {inferred.config.name} AS s "
            f"WHERE s.report_time >= {low} AND s.report_time <= {high}")
    hits = inferred.query(text, access_path="index")
    assert hits.stats.access_path == "IndexProbe"
    assert hits.rows == inferred.query(text, access_path="scan").rows
    print(f"  matching reports: {len(hits.rows)} of {count}")
    print()

    print("== Sensors Q2 / Q3, optimized vs un-optimized field access ==")
    # The queries run from their SQL++ text (sensors.SQLPP); the two
    # executors compile them with and without the rewrites.
    optimized = QueryExecutor(cold_cache=True)
    unoptimized = QueryExecutor(consolidate_field_access=False,
                                pushdown_through_unnest=False, cold_cache=True)
    for name in ("Q2", "Q3"):
        fast = inferred.query(sensors.SQLPP[name], executor=optimized)
        slow = inferred.query(sensors.SQLPP[name], executor=unoptimized)
        assert fast.rows == slow.rows
        print(f"  {name}: consolidated+pushdown {fast.stats.wall_seconds:6.3f}s   "
              f"un-optimized {slow.stats.wall_seconds:6.3f}s   rows={len(fast.rows)}")
    print()
    print("Q3 top sensors:", inferred.query(sensors.SQLPP["Q3"]).rows[:3])

    # Quiesce background LSM maintenance (no-op when running synchronously).
    for dataset in datasets.values():
        dataset.close()


if __name__ == "__main__":
    main()
