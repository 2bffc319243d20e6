"""Benchmark: plan-IR columnar kernels vs. per-tuple evaluation, cold vs. warm.

Not a paper artefact — this measures the unified logical-plan IR added on top
of the reproduction.  Acceptance bars:

* a **cold** multi-predicate scalar/GROUP BY batch (fresh mask cache) pays
  one mask per distinct predicate;
* the same batch **warm** (every predicate mask cached by
  ``(generation, predicate)``) pays none.

Cold and warm answers are bit-identical (asserted inside the experiment).
The speed-ups over the per-tuple reference engine are printed, not asserted:
wall-clock ratios are not a tier-1 gate (throughput is the repo benchmark's
``session_batch_large/qps``).
"""

from repro.experiments import run_plan_ir


def test_plan_ir_throughput(run_experiment, scale):
    result = run_experiment(run_plan_ir, scale)
    phases = {row["phase"]: row for row in result.rows}
    assert set(phases) == {"per-tuple", "ir-cold", "ir-warm"}

    per_tuple = phases["per-tuple"]
    cold = phases["ir-cold"]
    warm = phases["ir-warm"]

    # Cold pays one mask per distinct predicate (plus conjunctions); warm
    # pays none at all.
    assert cold["mask_cache_misses"] > 0
    assert warm["mask_cache_misses"] == 0

    print(
        f"per-tuple {per_tuple['queries_per_second']:,.0f} q/s; cold "
        f"{cold['speedup_vs_per_tuple']:.2f}x, warm "
        f"{warm['queries_per_second'] / cold['queries_per_second']:.2f}x over cold"
    )
