"""Figure 19 — query execution time, Web-of-Science dataset (Q1–Q4).

Q1 counts publications, Q2 ranks subject categories, Q3 finds the countries
that co-publish most with US institutes, and Q4 ranks country pairs.  Q3 and
Q4 are the queries where the paper highlights field-access consolidation and
pushdown (the inferred dataset wins even against closed); the CPU side of
that effect is evaluated separately in the Figure 23 ablation, while this
module checks the storage-driven I/O ordering and result equivalence across
configurations.
"""

from harness import (
    check_compression_reduces_io,
    check_io_correlates_with_storage,
    check_results_agree,
    print_table,
    query_figure,
)

QUERY_NAMES = ("Q1", "Q2", "Q3", "Q4")


def test_fig19_wos_queries(benchmark):
    rows, measurements = benchmark.pedantic(lambda: query_figure("wos"),
                                            rounds=1, iterations=1)
    print_table("Figure 19 — WoS Q1-Q4 (CPU + simulated I/O per device)", rows)
    check_io_correlates_with_storage("wos", measurements, QUERY_NAMES)
    check_compression_reduces_io("wos", measurements, QUERY_NAMES)
    check_results_agree(measurements, QUERY_NAMES)
