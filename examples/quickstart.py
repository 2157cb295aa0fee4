#!/usr/bin/env python3
"""Quickstart: the paper's Employee example end to end.

Creates a dataset with the tuple compactor enabled (the ``WITH
{"tuple-compactor-enabled": true}`` clause of paper Figure 8), ingests a few
self-describing records, flushes them, and shows:

* the schema the tuple compactor inferred during the flush (Figures 9-10);
* that records on disk are stored compacted (field names stripped);
* how the schema shrinks again after deleting the only record that carried
  the rarely-used fields (Figure 11);
* an analytics query over the compacted records, stated as SQL++ text and
  compiled by ``repro.sqlpp`` (``Dataset.query``).

Run with::

    python examples/quickstart.py
"""

from repro import ADate, AMultiset, APoint, Dataset, StorageFormat


def main() -> None:
    # CREATE DATASET Employee(EmployeeType) PRIMARY KEY id
    #   WITH {"tuple-compactor-enabled": true};
    # The context manager quiesces background LSM maintenance (flushes and
    # merges scheduled off the ingest path by LSMConfig(background_maintenance=True))
    # deterministically on exit; with synchronous maintenance it is a no-op.
    with Dataset.create("Employee", StorageFormat.INFERRED, primary_key="id") as employees:
        run_demo(employees)


def run_demo(employees: Dataset) -> None:
    print("== Ingesting records (paper Figures 9 and 10) ==")
    employees.insert({"id": 0, "name": "Kim", "age": 26})
    employees.insert({"id": 1, "name": "John", "age": 22})
    employees.flush_all()                       # flush #1 -> component C0, schema S0

    employees.insert({"id": 2, "name": "Ann"})
    employees.insert({"id": 3, "name": "Bob", "age": "old"})   # age becomes union(int, string)
    rich_record = {
        "id": 4,
        "name": "Ann",
        "dependents": AMultiset([{"name": "Bob", "age": 6}, {"name": "Carol", "age": 10}]),
        "employment_date": ADate.from_iso("2018-09-20"),
        "branch_location": APoint(24.0, -56.12),
        "working_shifts": [[8, 16], [9, 17], [10, 18], "on_call"],
    }
    employees.insert(rich_record)
    employees.flush_all()                       # flush #2 -> component C1, schema S1

    print("Inferred schema after two flushes:")
    print(employees.describe_schema())
    print()

    print("== Storage ==")
    print(f"records stored      : {employees.count()}")
    print(f"on-disk size        : {employees.storage_size()} bytes")
    compactor = employees.partitions[0].compactor
    print(f"records compacted   : {compactor.records_compacted}")
    print(f"bytes saved         : {compactor.bytes_saved}")
    print()

    print("== Querying compacted records (SQL++ text, repro.sqlpp) ==")
    result = employees.query("""
        SELECT name, count(*) AS count, avg(length(e.name)) AS avg_name_len
        FROM Employee AS e
        GROUP BY e.name AS name
        ORDER BY count DESC
    """)
    for row in result.rows:
        print(f"  {row}")
    # Two records are named Ann; Kim, John and Bob appear once each.
    assert result.rows[0] == {"name": "Ann", "count": 2, "avg_name_len": 3.0}, result.rows
    assert sorted(row["count"] for row in result.rows) == [1, 1, 1, 2], result.rows
    print()

    print("== Deleting the rich record shrinks the schema (Figure 11) ==")
    employees.delete(4)
    employees.flush_all()
    print(employees.describe_schema())


if __name__ == "__main__":
    main()
