"""Benchmark: regenerate Fig. 15 (pruned vs random aggregate selection on CHILD)."""

import numpy as np
import pytest

from repro.experiments import run_pruning


def test_fig15_pruning(run_experiment, scale):
    result = run_experiment(run_pruning, scale)
    selections = {row["selection"] for row in result.rows}
    assert {"OPT", "Prune", "Rand"} <= selections
    assert np.isfinite([row["avg_percent_difference"] for row in result.rows]).all()

    def error(selection, budget, method):
        return result.filter_rows(
            selection=selection, n_2d_aggregates=budget, method=method
        )[0]["avg_percent_difference"]

    budgets = sorted(
        {row["n_2d_aggregates"] for row in result.rows if row["selection"] == "Prune"}
    )
    # Paper shape: with a generous budget the pruned selection is at least as
    # good as the random one, and adding pruned aggregates does not hurt BB.
    assert error("Prune", budgets[-1], "BB") <= error("Rand", budgets[-1], "BB") + 5.0
    assert error("Prune", budgets[-1], "BB") <= error("Prune", budgets[0], "BB") + 5.0

    # Seeded regression gates on the two rows that depended on where a
    # likelihood solver in front of the constrained-CPT projection gave up
    # (47.85 and 57.38 with it on one scipy build, 47.67 and 45.03 on another).
    assert error("Prune", 5, "BB") == pytest.approx(28.01, abs=0.1)
    assert error("Rand", 15, "BB") == pytest.approx(44.60, abs=0.1)
