"""Benchmark: fused analytic (table-shaped) batches vs. per-plan, both cold.

Not a paper artefact — this measures the analytic SQL surface (multi-
aggregate SELECT lists, HAVING, window functions, ORDER BY/LIMIT) on the
batch optimizer it lowers onto.  Acceptance bars:

* the ordered tables of a **cold** dashboard batch of table-shaped variants
  served through the optimized schedule must be bit-identical to the
  per-plan reference loop (``[engine.execute(q) for q in queries]``;
  asserted inside the experiment with exact ``==`` — row order included);
* the counters must prove every rewrite fired on table plans too: exact
  duplicates deduped, multi-aggregate SELECT lists fused into shared
  scatter-add passes, masks shared across families, and window sort
  permutations shared across plans with the same window descriptor.

The cold-batch speed-up is printed, not asserted: wall-clock ratios are not a
tier-1 gate (throughput is the repo benchmark's ``session_batch_large/qps``).
"""

from repro.experiments import run_sql_surface


def test_sql_surface_throughput(run_experiment, scale):
    result = run_experiment(run_sql_surface, scale)
    phases = {row["phase"]: row for row in result.rows}
    assert set(phases) == {"per-plan", "optimized"}

    per_plan = phases["per-plan"]
    optimized = phases["optimized"]

    # Every rewrite fired on analytic plans: duplicates collapsed,
    # multi-aggregate table plans fused into their families' scatter-add
    # passes, masks were reused across families, and same-descriptor
    # windows shared one argsort.  (Bit-identity between the phases is
    # asserted inside the experiment itself, with exact equality.)
    assert optimized["plans_deduped"] > 0
    assert optimized["groupby_fusions"] > 0
    assert optimized["masks_shared"] > 0
    assert optimized["window_sorts_shared"] > 0

    print(
        f"optimized {optimized['queries_per_second']:,.0f} q/s vs per-plan "
        f"{per_plan['queries_per_second']:,.0f} q/s: {optimized['speedup']:.2f}x"
    )
