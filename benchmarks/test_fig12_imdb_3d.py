"""Benchmark: regenerate Fig. 12 (IMDB error vs number of 3D aggregates)."""

import numpy as np
import pytest

from repro.experiments import run_nd_sweep


def test_fig12_imdb_3d(run_experiment, scale):
    result = run_experiment(run_nd_sweep, "imdb", 3, scale)
    assert len(result.rows) == 2 * 5 * 4
    assert np.isfinite([row["avg_percent_difference"] for row in result.rows]).all()

    # Seeded regression gate.  With a likelihood solver in front of the
    # constrained-CPT projection this row read 21.10: the solver "succeeded"
    # on the small rating factors and walked them off the aggregates.  A
    # change to parameter learning that moves it back should be noticed.
    (row,) = result.filter_rows(sample="SR159", n_nd_aggregates=1, method="BB")
    assert row["avg_percent_difference"] == pytest.approx(12.29, abs=0.1)
