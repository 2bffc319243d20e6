"""Benchmark: join-aware batch optimizer vs. per-plan join execution.

Not a paper artefact — this measures the join-side rewrites added on top of
the reproduction's batch-aware plan optimizer.  Acceptance bars:

* a **warm** repeat of the batch must answer every scheduled side from the
  cross-batch join-side cache (counter-proven);
* answers must be bit-identical across all three phases — the per-plan
  reference loop (``[engine.execute(q) for q in queries]``), the cold
  optimized batch and the warm one (asserted inside the experiment with
  exact ``==``);
* the counters must prove the join rewrites fired: sides fused, equivalent
  join plans deduped, and warm-batch join-side cache hits.

The speed-ups are printed, not asserted: wall-clock ratios are not a tier-1
gate (throughput is the repo benchmark's ``session_batch_large/qps``).
"""

from repro.experiments import run_join_fusion


def test_join_fusion_throughput(run_experiment, scale):
    result = run_experiment(run_join_fusion, scale)
    phases = {row["phase"]: row for row in result.rows}
    assert set(phases) == {"per-plan", "optimized", "warm"}

    per_plan = phases["per-plan"]
    optimized = phases["optimized"]
    warm = phases["warm"]

    # Every join rewrite fired: duplicate and padded/reordered join plans
    # collapsed, shared sides computed once per batch through the fused
    # stacked scatter-add, and the warm batch answered every scheduled side
    # from the cross-batch cache.  (Bit-identity between the phases is
    # asserted inside the experiment itself, with exact equality.)
    assert optimized["plans_deduped"] > 0
    assert optimized["join_sides_fused"] > 0
    assert optimized["join_side_cache_hits"] == 0  # cold: nothing cached yet
    assert warm["join_side_cache_hits"] > 0

    print(
        f"per-plan {per_plan['queries_per_second']:,.0f} q/s; optimized "
        f"{optimized['speedup']:.2f}x, warm {warm['speedup']:.2f}x"
    )
