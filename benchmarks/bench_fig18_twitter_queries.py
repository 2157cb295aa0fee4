"""Figure 18 — query execution time, Twitter dataset (Q1–Q4).

Q1 counts records, Q2 groups/sorts users by average tweet length, Q3 filters
on a hashtag with an existential quantifier before grouping, and Q4 sorts
the whole dataset by timestamp.  The paper runs them against the open,
closed, and inferred datasets, with and without page compression, on SATA
and NVMe devices, and observes that (i) on SATA the execution times track
the on-disk sizes and (ii) compression helps wherever I/O dominates.

Shape checks target the quantities this substrate models faithfully — bytes
read / simulated device time per configuration (the SATA-side ordering) and
result equivalence — while the measured Python CPU seconds are printed for
completeness (see the faithfulness note in ``bench_fig17_ingestion.py``'s
docstring: relative CPU costs of the Java runtime do not transfer to
Python).
"""

from harness import (
    check_compression_reduces_io,
    check_io_correlates_with_storage,
    check_results_agree,
    check_warm_cache_speedup,
    print_table,
    query_figure,
    repeated_query_caching,
)

QUERY_NAMES = ("Q1", "Q2", "Q3", "Q4")


def test_fig18_twitter_queries(benchmark):
    rows, measurements = benchmark.pedantic(lambda: query_figure("twitter"),
                                            rounds=1, iterations=1)
    print_table("Figure 18 — Twitter Q1-Q4 (CPU + simulated I/O per device)", rows)
    check_io_correlates_with_storage("twitter", measurements, QUERY_NAMES)
    check_compression_reduces_io("twitter", measurements, QUERY_NAMES)
    check_results_agree(measurements, QUERY_NAMES)
    # NVMe reads the same bytes ~6x faster than SATA: the I/O component shrinks,
    # which is why the paper's NVMe runs expose CPU cost instead.
    for key, measurement in measurements.items():
        assert measurement["nvme_io"] <= measurement["sata_io"]


def test_fig18_repeated_query_caching(benchmark):
    """Repeated execution of the same SQL++ text through the PR 10 caches.

    The cold run pays parse -> bind -> optimize, page reads, and column
    decoding; warm repeats must be served by the plan cache (no recompile)
    and the decoded column-slice cache (no page reads, no decode) — at
    least 2x faster on the scan-heavy aggregations Q2/Q3, with strictly
    fewer device bytes read and nonzero hit counters on both caches.
    """
    rows, measurements = benchmark.pedantic(
        lambda: repeated_query_caching("twitter", QUERY_NAMES),
        rounds=1, iterations=1)
    print_table("Figure 18 (detail) — repeated-query caching, inferred format "
                "(cold vs best-of-3 warm)", rows)
    check_warm_cache_speedup("twitter", measurements, ("Q2", "Q3"), min_speedup=2.0)
