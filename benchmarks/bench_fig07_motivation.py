"""Figure 7 — the motivating open-vs-closed gap (Pirzadeh et al., summarized).

The paper motivates the tuple compactor with prior findings that fully
*open* (self-describing) datasets take roughly twice the storage of fully
*closed* (pre-declared) datasets and that scan-heavy queries take about
twice as long against them.  This module reproduces both halves of that
figure on the Twitter-like workload: (a) on-disk storage size, (b) the
execution time of a scan-dominated query (Twitter Q2) and a full-scan sort
(Twitter Q4) on a SATA-class device where I/O dominates.
"""

from harness import DeviceKind, build_dataset, print_table, run_query, shape_check, simulated_device_seconds

from repro.datasets import twitter


def _figure7():
    open_built = build_dataset("twitter", "open")
    closed_built = build_dataset("twitter", "closed")

    size_rows = [
        {"Configuration": "Open Fields", "On-disk size (bytes)": open_built.storage_size},
        {"Configuration": "Closed Fields", "On-disk size (bytes)": closed_built.storage_size},
    ]

    time_rows = []
    for query_name in ("Q2", "Q4"):
        text = twitter.SQLPP[query_name]
        open_stats = run_query(open_built, text).stats
        closed_stats = run_query(closed_built, text).stats
        open_io = simulated_device_seconds(open_stats, DeviceKind.SATA_SSD)
        closed_io = simulated_device_seconds(closed_stats, DeviceKind.SATA_SSD)
        time_rows.append({"Query": f"Twitter {query_name}",
                          "Open CPU (s)": open_stats.wall_seconds,
                          "Closed CPU (s)": closed_stats.wall_seconds,
                          "Open SATA I/O (s)": open_io,
                          "Closed SATA I/O (s)": closed_io,
                          "Open / Closed I/O": open_io / closed_io})
    return size_rows, time_rows, open_built, closed_built


def test_fig07_open_vs_closed(benchmark):
    size_rows, time_rows, open_built, closed_built = benchmark.pedantic(
        _figure7, rounds=1, iterations=1)
    print_table("Figure 7a — on-disk storage size", size_rows)
    print_table("Figure 7b — scan-heavy query cost (SATA-class device)", time_rows)

    shape_check("open storage is substantially larger than closed",
                open_built.storage_size > 1.3 * closed_built.storage_size)
    for row in time_rows:
        shape_check(f"{row['Query']}: the open dataset's scan I/O is larger than closed's",
                    row["Open SATA I/O (s)"] > row["Closed SATA I/O (s)"])
