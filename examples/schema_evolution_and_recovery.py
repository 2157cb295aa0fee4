#!/usr/bin/env python3
"""Schema evolution and crash recovery with the tuple compactor.

This example walks through the operational story the paper tells in §3.1:

* the schema grows as records with new fields and new value types arrive
  (including a field whose type changes from int to union(int, string));
* every flushed LSM component persists the schema snapshot that covers it;
* merging components keeps only the most recent schema;
* after a "crash" (the process forgets all in-memory state), recovery
  removes the invalid half-written component, reloads the newest valid
  component's schema, replays the write-ahead log, and flushes — after
  which queries see exactly the pre-crash data again.

Run with::

    python examples/schema_evolution_and_recovery.py
"""

from repro import Dataset, StorageEnvironment, StorageFormat


def show_components(dataset: Dataset) -> None:
    partition = dataset.partitions[0]
    for component in partition.index.components:
        schema_fields = component.schema.field_count if component.schema else 0
        print(f"    component {component.component_id}: "
              f"{component.record_count} records, schema fields={schema_fields}")


def main() -> None:
    environment = StorageEnvironment()
    # The with-block is the drain/close protocol: on exit, any background
    # flushes/merges are quiesced deterministically (no-op in sync mode).
    with Dataset.create("events", StorageFormat.INFERRED, environment=environment) as dataset:
        run_phases(dataset, environment)


def run_phases(dataset: Dataset, environment: StorageEnvironment) -> None:

    print("== Phase 1: the schema evolves across flushes ==")
    dataset.insert({"id": 1, "kind": "click", "value": 10})
    dataset.insert({"id": 2, "kind": "click", "value": 12})
    dataset.flush_all()
    print("  after flush 1:")
    show_components(dataset)

    dataset.insert({"id": 3, "kind": "purchase", "value": "29.99 USD",      # value becomes a union
                    "items": [{"sku": "A1", "qty": 2}]})
    dataset.insert({"id": 4, "kind": "click", "value": 7, "session": {"ip": "10.0.0.1"}})
    dataset.flush_all()
    print("  after flush 2:")
    show_components(dataset)
    print("  current schema:")
    print("   " + "\n   ".join(dataset.describe_schema().splitlines()))
    print()

    print("== Phase 2: merge keeps the most recent schema ==")
    partition = dataset.partitions[0]
    partition.index.merge(list(partition.index.components))
    show_components(dataset)
    print()

    print("== Phase 3: crash and recover ==")
    dataset.insert({"id": 5, "kind": "refund", "value": -5, "reason": "damaged"})
    dataset.insert({"id": 6, "kind": "click", "value": 3})
    print("  two more records inserted but NOT flushed (only in WAL + memtable)")

    # Crash: throw the dataset object away; keep the environment (files + WAL).
    revived = Dataset.create("events", StorageFormat.INFERRED, environment=environment)
    for partition in revived.partitions:
        partition.recover()
    print("  recovered. record count:", revived.count())
    print("  recovered schema contains 'reason':",
          revived.partitions[0].compactor.schema.field_name_id("reason") is not None)

    rows = revived.query("""
        SELECT kind, count(*) AS n FROM events AS e
        GROUP BY e.kind AS kind ORDER BY n DESC
    """).rows
    print("  events by kind after recovery:", rows)
    assert rows[0] == {"kind": "click", "n": 4}, "recovery must keep every logged record"


if __name__ == "__main__":
    main()
