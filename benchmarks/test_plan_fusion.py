"""Benchmark: batch-aware plan optimizer vs. per-plan execution, both cold.

Not a paper artefact — this measures the plan-level rewrites added on top of
the reproduction's logical-plan IR.  Acceptance bars:

* answers of a **cold** duplicate- and shared-filter-heavy batch served
  through the optimized schedule must be bit-identical to the per-plan
  reference loop (``[engine.execute(q) for q in queries]``) (asserted inside the experiment with exact
  ``==``);
* the rewrite counters must prove every rewrite fired: plans deduped,
  predicates pushed down by normalization, group-by fusions, masks shared.

The cold-batch speed-up is printed, not asserted: wall-clock ratios are not a
tier-1 gate (throughput is the repo benchmark's ``session_batch_large/qps``).
"""

from repro.experiments import run_plan_fusion


def test_plan_fusion_throughput(run_experiment, scale):
    result = run_experiment(run_plan_fusion, scale)
    phases = {row["phase"]: row for row in result.rows}
    assert set(phases) == {"per-plan", "optimized"}

    per_plan = phases["per-plan"]
    optimized = phases["optimized"]

    # Every rewrite fired: exact duplicates and redundant-conjunct variants
    # collapsed, normalization eliminated implied conjuncts, group-by
    # families fused into shared scatter-add passes, and distinct plans
    # reused each other's masks.  (Bit-identity between the phases is
    # asserted inside the experiment itself, with exact equality.)
    assert optimized["plans_deduped"] > 0
    assert optimized["predicates_pushed_down"] > 0
    assert optimized["groupby_fusions"] > 0
    assert optimized["masks_shared"] > 0

    print(
        f"optimized {optimized['queries_per_second']:,.0f} q/s vs per-plan "
        f"{per_plan['queries_per_second']:,.0f} q/s: {optimized['speedup']:.2f}x"
    )
