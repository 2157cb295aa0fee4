"""Figure 22 — linear-time field access in the vector-based format.

Accessing a value in the vector-based format costs a scan of the record's
vectors up to the value's position, whereas the ADM format follows offsets,
so the paper measures four COUNT-style queries whose requested field sits at
positions ~1, 34, 68 and 136 of a wide record.  Expected shapes:

* for the inferred (vector-based) dataset the access time grows with the
  field's position (Q1 fastest, Q4 slowest);
* for the open and closed (ADM) datasets the four queries cost roughly the
  same;
* the small, fully-cached variant (Figure 22b) shows the same CPU-side
  behaviour with no I/O component at all.
"""

import time

from harness import DeviceKind, print_table, shape_check

from repro import Dataset, StorageEnvironment, StorageFormat
from repro.adm import ADMEncoder, ADMRecordView
from repro.types import Datatype, open_only_primary_key
from repro.vector import VectorEncoder, VectorRecordView

FIELD_COUNT = 136
POSITIONS = {"Q1": 1, "Q2": 34, "Q3": 68, "Q4": 136}
RECORDS = 800


def _wide_record(record_id: int):
    record = {"id": record_id}
    for position in range(1, FIELD_COUNT + 1):
        record[f"field_{position:03d}"] = (record_id * 31 + position) % 1000
    return record


def _count_query(position: int) -> str:
    return f"SELECT VALUE count(*) FROM Wide AS t WHERE t.field_{position:03d} >= 0"


def _build_datasets():
    records = [_wide_record(i) for i in range(RECORDS)]
    datasets = {}
    for format_name, storage_format in (("open", StorageFormat.OPEN),
                                        ("closed", StorageFormat.CLOSED),
                                        ("inferred", StorageFormat.INFERRED)):
        datatype = Datatype.from_records("WideType", records, primary_key="id") \
            if storage_format is StorageFormat.CLOSED else None
        dataset = Dataset.create(f"wide_{format_name}", storage_format,
                                 environment=StorageEnvironment.for_device(DeviceKind.NVME_SSD),
                                 datatype=datatype)
        dataset.insert_all(records)
        dataset.flush_all()
        datasets[format_name] = dataset
    return datasets


def _figure22a(datasets):
    timings = {}
    rows = []
    for format_name, dataset in datasets.items():
        for query_name, position in POSITIONS.items():
            # take the best of three runs so scheduler/GC noise on these
            # few-millisecond queries cannot distort the position comparison
            best = None
            for _ in range(3):
                result = dataset.query(_count_query(position), cold_cache=True)
                assert result.rows[0]["count"] == RECORDS
                seconds = result.stats.wall_seconds
                best = seconds if best is None else min(best, seconds)
            timings[(format_name, query_name)] = best
            rows.append({"Format": format_name, "Query": query_name,
                         "Field position": position,
                         "CPU (s)": best})
    return timings, rows


def test_fig22a_position_dependent_access(benchmark):
    datasets = _build_datasets()
    timings, rows = benchmark.pedantic(lambda: _figure22a(datasets), rounds=1, iterations=1)
    print_table("Figure 22a — access time by field position (count queries)", rows)
    shape_check("inferred: accessing the last field costs more than the first",
                timings[("inferred", "Q4")] > timings[("inferred", "Q1")] * 1.15)
    # The closed (declared) dataset resolves fields through the metadata-provided
    # index, so its cost must stay position-independent.  (The *open* dataset's
    # open-part lookup is still linear in the number of open fields — one byte
    # compare per inline name, none decoded — so it is reported in the table
    # but not asserted flat.)
    closed_spread = max(timings[("closed", name)] for name in POSITIONS) / \
        max(min(timings[("closed", name)] for name in POSITIONS), 1e-9)
    shape_check("closed: access cost is roughly position-independent", closed_spread < 2.5)
    inferred_spread = timings[("inferred", "Q4")] / max(timings[("inferred", "Q1")], 1e-9)
    shape_check("inferred is more position-sensitive than closed", inferred_spread > closed_spread)


def test_fig22b_in_memory_access(benchmark):
    """Figure 22b — the same effect measured on raw record views, no storage at all."""
    datatype = open_only_primary_key("WideType")
    records = [_wide_record(i) for i in range(400)]
    vector_payloads = [VectorEncoder(datatype).encode(record) for record in records]
    adm_payloads = [ADMEncoder(datatype).encode(record) for record in records]

    def measure():
        timings = {}
        for query_name, position in POSITIONS.items():
            path = (f"field_{position:03d}",)
            started = time.perf_counter()
            for payload in vector_payloads:
                VectorRecordView(payload, datatype).get_values(path)
            timings[("vector", query_name)] = time.perf_counter() - started
            started = time.perf_counter()
            for payload in adm_payloads:
                ADMRecordView(payload, datatype).get_field(*path)
            timings[("adm", query_name)] = time.perf_counter() - started
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [{"Format": fmt, "Query": name, "CPU (s)": seconds}
            for (fmt, name), seconds in sorted(timings.items())]
    print_table("Figure 22b — in-memory field access by position", rows)
    shape_check("vector-based in-memory access grows with position",
                timings[("vector", "Q4")] > timings[("vector", "Q1")])
