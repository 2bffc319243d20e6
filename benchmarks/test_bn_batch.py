"""Benchmark: batched BN inference throughput on a BN-heavy workload.

Not a paper artefact — this measures the batched variable-elimination engine
added on top of the reproduction.  The acceptance bar: a cold batch of
out-of-sample point queries (every one answered by exact BN inference) pays
one elimination pass per evidence signature instead of one per query, and a
warm one pays none.  The resulting speed-up is printed, not asserted:
wall-clock ratios are not a tier-1 gate (throughput is the repo benchmark's
``session_batch_large/qps``).
"""

from repro.experiments import run_bn_batch


def test_bn_batch_throughput(run_experiment, scale):
    result = run_experiment(run_bn_batch, scale)
    phases = {row["phase"]: row for row in result.rows}
    assert set(phases) == {"per-query", "batch-cold", "batch-warm"}

    per_query = phases["per-query"]
    cold = phases["batch-cold"]
    warm = phases["batch-warm"]

    # The workload shares few signatures among many queries, so the batch
    # pays far fewer elimination passes than the per-query loop...
    assert per_query["elimination_passes"] == result.parameters["n_queries"]
    assert cold["elimination_passes"] == result.parameters["n_signatures"]
    assert warm["elimination_passes"] == 0  # fully cached the second time

    # ...which is what makes cold BN-heavy batches serve faster than
    # per-query inference (warm batches faster still).
    print(
        f"per-query {per_query['queries_per_second']:,.0f} q/s; batch-cold "
        f"{cold['speedup_vs_per_query']:.2f}x, batch-warm "
        f"{warm['queries_per_second'] / per_query['queries_per_second']:.2f}x"
    )
