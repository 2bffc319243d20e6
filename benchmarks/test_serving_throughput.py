"""Benchmark: serving-layer throughput, cache cold vs. warm.

Not a paper artefact — this measures the query-serving subsystem added on
top of the reproduction.  The acceptance bar: a repeated workload is served
entirely from the result cache (warm serving is two LRU lookups).  The
warm-over-cold speed-up is printed, not asserted: wall-clock ratios are not a
tier-1 gate (throughput is the repo benchmark's ``session_batch_large/qps``).
"""

from repro.experiments import run_serving_throughput


def test_serving_throughput(run_experiment, scale):
    result = run_experiment(run_serving_throughput, scale)
    phases = {row["phase"]: row for row in result.rows}
    assert set(phases) == {"unbatched", "batch-cold", "batch-warm"}

    cold = phases["batch-cold"]
    warm = phases["batch-warm"]
    assert cold["result_cache_hits"] == 0
    assert warm["result_cache_hits"] == result.parameters["n_queries"]
    print(
        f"batch-cold {cold['queries_per_second']:,.0f} q/s; batch-warm "
        f"{warm['speedup_vs_cold']:.2f}x"
    )
