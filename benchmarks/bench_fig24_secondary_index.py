"""Figure 24 — range queries through a secondary index, by selectivity.

The paper adds a monotonically increasing ``timestamp`` to the tweets,
builds a secondary index on it, and runs range queries of selectivities
0.001 %–50 % against the open, closed, and inferred datasets (uncompressed
and compressed).  Finding: execution times correlate with the primary
index's storage size — fetching the matching records from a smaller primary
index costs less I/O — and pre-declaring the schema is *not* required for
the gain (inferred ≤ closed).

The range queries run through ``Dataset.query()`` as SQL++ text, so the
*optimizer* decides the access path: at low selectivity its cost model must
route the predicate through the secondary index (IndexProbe), and at 50 % it
must fall back to the sequential scan.  Shape checks use bytes read through the buffer cache
(the faithful I/O proxy): the cost-based index path at selectivity 0.001
reads strictly less than a forced full scan, selective probes read far less
than 50 % scans, and at scan-bound selectivities the byte counts follow
inferred ≤ closed ≤ open.
"""

from harness import build_dataset, print_table, records_for, shape_check

SELECTIVITIES = (0.001, 0.01, 0.10, 0.50)  # fractions of the dataset
_INDEX = ("by_timestamp", ("timestamp_ms",))


def _range_for(selectivity: float):
    records = records_for("twitter")
    timestamps = sorted(record["timestamp_ms"] for record in records)
    span = max(1, int(len(timestamps) * selectivity))
    low = timestamps[0]
    high = timestamps[min(span, len(timestamps) - 1)]
    return low, high, span


def _query_text(low, high) -> str:
    return (f"SELECT VALUE t.id FROM Tweets AS t "
            f"WHERE t.timestamp_ms >= {low} AND t.timestamp_ms <= {high}")


def _run(built, low, high, access_path: str):
    """One cold range query through Dataset.query(); returns (row ids, stats)."""
    result = built.dataset.query(_query_text(low, high), cold_cache=True,
                                 access_path=access_path)
    return sorted(row["value"] for row in result.rows), result.stats


def _figure24(compression):
    rows = []
    measurements = {}
    for format_name in ("open", "closed", "inferred"):
        built = build_dataset("twitter", format_name, compression=compression,
                              secondary_index=_INDEX)
        for selectivity in SELECTIVITIES:
            low, high, _expected = _range_for(selectivity)
            ids, stats = _run(built, low, high, "auto")
            _scan_ids, scan_stats = _run(built, low, high, "scan")
            measurements[(format_name, selectivity)] = {
                "bytes_read": stats.bytes_read,
                "scan_bytes_read": scan_stats.bytes_read,
                "rows": len(ids),
                "scan_rows": len(_scan_ids),
                "ids_match_scan": ids == _scan_ids,
                "access_path": stats.access_path,
                "index_name": stats.index_name,
            }
            rows.append({"Format": format_name, "Compression": compression or "none",
                         "Selectivity": f"{selectivity:.3%}",
                         "Access path": stats.access_path,
                         "Rows": len(ids), "Bytes read": stats.bytes_read,
                         "Scan bytes": scan_stats.bytes_read})
    return rows, measurements


def _check(measurements):
    lowest, highest = SELECTIVITIES[0], SELECTIVITIES[-1]
    for selectivity in SELECTIVITIES:
        row_counts = {measurements[(fmt, selectivity)]["rows"]
                      for fmt in ("open", "closed", "inferred")}
        shape_check(f"{selectivity:.3%}: all formats return the same rows", len(row_counts) == 1)
    for format_name in ("open", "closed", "inferred"):
        for selectivity in SELECTIVITIES:
            measurement = measurements[(format_name, selectivity)]
            shape_check(f"{format_name} {selectivity:.3%}: cost-based path matches forced scan",
                        measurement["ids_match_scan"])
        low_measurement = measurements[(format_name, lowest)]
        shape_check(f"{format_name}: optimizer chose IndexProbe at {lowest:.3%}",
                    low_measurement["access_path"] == "IndexProbe"
                    and low_measurement["index_name"] == _INDEX[0])
        shape_check(f"{format_name}: optimizer falls back to FullScan at {highest:.3%}",
                    measurements[(format_name, highest)]["access_path"] == "FullScan")
        shape_check(f"{format_name}: index path at {lowest:.3%} reads strictly fewer bytes "
                    "than a forced full scan",
                    low_measurement["bytes_read"] < low_measurement["scan_bytes_read"])
        shape_check(f"{format_name}: selective probes read far less than 50% scans",
                    low_measurement["bytes_read"]
                    < 0.5 * measurements[(format_name, highest)]["bytes_read"])
    # The paper's size correlation holds at every selectivity — on the probe
    # path (smaller primary index -> cheaper record fetches) as well as the
    # scan path.  The 1.1 fudge absorbs page-granularity noise on the tiny
    # probe byte counts.
    for selectivity in SELECTIVITIES:
        open_bytes = measurements[("open", selectivity)]["bytes_read"]
        closed_bytes = measurements[("closed", selectivity)]["bytes_read"]
        inferred_bytes = measurements[("inferred", selectivity)]["bytes_read"]
        shape_check(f"{selectivity:.3%}: bytes read follow inferred <= closed <= open",
                    inferred_bytes <= closed_bytes * 1.1 and closed_bytes <= open_bytes * 1.1)


def test_fig24_uncompressed(benchmark):
    rows, measurements = benchmark.pedantic(lambda: _figure24(None), rounds=1, iterations=1)
    print_table("Figure 24a/b — secondary-index range queries (uncompressed)", rows)
    _check(measurements)


def test_fig24_compressed(benchmark):
    rows, measurements = benchmark.pedantic(lambda: _figure24("snappy"), rounds=1, iterations=1)
    print_table("Figure 24c/d — secondary-index range queries (compressed)", rows)
    _check(measurements)
