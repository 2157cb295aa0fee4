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

All the wide records share one layout, and this repo keeps what a read
learnt about a layout: the vector format's extraction plans (a walk of the
first record, then a replay by offset for every later one) and the ADM
format's compiled paths.  So each figure is timed twice:

* *first sight* — nothing kept between records (the tables are swapped for
  ones that store nothing while the pass runs), so every record is walked as
  the paper's reader walks it.  The paper's checks read these rows, with
  their thresholds as the paper's shapes set them;
* *kept* — the tables as the engine keeps them.  This is the repo's
  extension of the paper: after first sight, access does not grow with the
  field's position.  It has a check of its own (see ``KEPT_SPREAD``).
"""

import math
import time
from contextlib import contextmanager, nullcontext

from harness import DeviceKind, print_table, shape_check

from repro import Dataset, StorageEnvironment, StorageFormat
from repro.adm import ADMEncoder, ADMRecordView
from repro.adm import decoder as adm_decoder
from repro.types import Datatype, open_only_primary_key
from repro.vector import VectorEncoder, VectorRecordView, extractor_for

FIELD_COUNT = 136
POSITIONS = {"Q1": 1, "Q2": 34, "Q3": 68, "Q4": 136}
RECORDS = 800
#: Each row is the best of this many rounds, and every round times every
#: row once, so scheduler/GC noise on these few-millisecond passes, or a
#: burst of load from elsewhere, cannot distort the position comparison.
REPEATS = 5
SIGHTS = ("first", "kept")
#: Kept rows: the last field may cost at most this many times the first.
#: Measured Q4 / Q1 with plans kept, 20 runs at ``REPRO_BENCH_SCALE=0.5`` on a
#: 2-core box: inferred 0.86-1.06 (fig22a), vector 0.92-0.98 (fig22b); at
#: first sight the same ratios read 2.07-2.48 and 3.52-4.24.
KEPT_SPREAD = 1.5


class _KeepsNothing(dict):
    """A plan or path table that stores nothing: every read is a first one."""

    def __setitem__(self, key, value):
        pass


@contextmanager
def _first_sight(path):
    """Read ``path`` as if no record had been read before: the extractor the
    vector format reads it through and the ADM path table keep nothing."""
    extractor = extractor_for((path,))
    kept = extractor.plans, extractor.layouts, extractor.shapes, adm_decoder._paths
    extractor.plans, extractor.layouts, extractor.shapes = _KeepsNothing(), _KeepsNothing(), ()
    adm_decoder._paths = _KeepsNothing()
    try:
        yield
    finally:
        extractor.plans, extractor.layouts, extractor.shapes, adm_decoder._paths = kept


def _wide_record(record_id: int):
    record = {"id": record_id}
    for position in range(1, FIELD_COUNT + 1):
        record[f"field_{position:03d}"] = (record_id * 31 + position) % 1000
    return record


def _path(position: int):
    return (f"field_{position:03d}",)


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
    for dataset in datasets.values():
        for position in POSITIONS.values():
            dataset.query(_count_query(position))  # plans kept from here on
    timings = {}
    for _ in range(REPEATS):
        for sight in SIGHTS:
            for format_name, dataset in datasets.items():
                for query_name, position in POSITIONS.items():
                    with _first_sight(_path(position)) if sight == "first" else nullcontext():
                        result = dataset.query(_count_query(position), cold_cache=True)
                    assert result.rows[0]["count"] == RECORDS
                    key = (sight, format_name, query_name)
                    timings[key] = min(timings.get(key, math.inf), result.stats.wall_seconds)
    rows = [{"Sight": sight, "Format": format_name, "Query": query_name,
             "Field position": POSITIONS[query_name], "CPU (s)": seconds}
            for (sight, format_name, query_name), seconds in timings.items()]
    return timings, rows


def test_fig22a_position_dependent_access(benchmark):
    datasets = _build_datasets()
    timings, rows = benchmark.pedantic(lambda: _figure22a(datasets), rounds=1, iterations=1)
    print_table("Figure 22a — access time by field position (count queries)", rows)
    first = {key[1:]: seconds for key, seconds in timings.items() if key[0] == "first"}
    shape_check("inferred: accessing the last field costs more than the first",
                first[("inferred", "Q4")] > first[("inferred", "Q1")] * 1.15)
    # The closed (declared) dataset resolves fields through the metadata-provided
    # index, so its cost must stay position-independent.  (The *open* dataset
    # finds an open field by one byte search over the open part for the name's
    # entry, checked against the offset table — linear in the bytes before the
    # field, at C speed, none decoded — so it is reported in the table but not
    # asserted flat.)
    closed_spread = max(first[("closed", name)] for name in POSITIONS) / \
        max(min(first[("closed", name)] for name in POSITIONS), 1e-9)
    shape_check("closed: access cost is roughly position-independent", closed_spread < 2.5)
    inferred_spread = first[("inferred", "Q4")] / max(first[("inferred", "Q1")], 1e-9)
    shape_check("inferred is more position-sensitive than closed", inferred_spread > closed_spread)
    kept = timings[("kept", "inferred", "Q4")] / max(timings[("kept", "inferred", "Q1")], 1e-9)
    shape_check(f"inferred, plans kept: the last field costs under {KEPT_SPREAD}x the first",
                kept < KEPT_SPREAD)


def test_fig22b_in_memory_access(benchmark):
    """Figure 22b — the same effect measured on raw record views, no storage at all."""
    datatype = open_only_primary_key("WideType")
    records = [_wide_record(i) for i in range(400)]
    vector_payloads = [VectorEncoder(datatype).encode(record) for record in records]
    adm_payloads = [ADMEncoder(datatype).encode(record) for record in records]

    def read_vector(payload, path):
        VectorRecordView(payload, datatype).get_values(path)

    def read_adm(payload, path):
        ADMRecordView(payload, datatype).get_field(*path)

    formats = (("vector", read_vector, vector_payloads), ("adm", read_adm, adm_payloads))

    def measure():
        for position in POSITIONS.values():
            for _, read, payloads in formats:
                read(payloads[0], _path(position))  # plans kept from here on
        timings = {}
        for _ in range(REPEATS):
            for sight in SIGHTS:
                for query_name, position in POSITIONS.items():
                    path = _path(position)
                    for fmt, read, payloads in formats:
                        with _first_sight(path) if sight == "first" else nullcontext():
                            started = time.perf_counter()
                            for payload in payloads:
                                read(payload, path)
                            seconds = time.perf_counter() - started
                        key = (sight, fmt, query_name)
                        timings[key] = min(timings.get(key, math.inf), seconds)
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [{"Sight": sight, "Format": fmt, "Query": name, "CPU (s)": seconds}
            for (sight, fmt, name), seconds in sorted(timings.items())]
    print_table("Figure 22b — in-memory field access by position", rows)
    shape_check("vector-based in-memory access grows with position",
                timings[("first", "vector", "Q4")] > timings[("first", "vector", "Q1")])
    kept = timings[("kept", "vector", "Q4")] / max(timings[("kept", "vector", "Q1")], 1e-9)
    shape_check(f"vector-based, plans kept: the last field costs under {KEPT_SPREAD}x the first",
                kept < KEPT_SPREAD)
