"""Figure 5 — robustness to the amount of sample bias (Sec. 6.4).

The Corners sample is regenerated with its bias swept from 100 percent (only
corner-state flights, support mismatch) down to 90 percent (the SCorners
sample).  The paper's shape: as soon as the support matches (bias < 100%),
the reweighting techniques improve sharply, and hybrid mitigates the support
mismatch at 100 percent bias, beating IPF there.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..data import CORNER_STATES, biased_sample
from .config import ExperimentScale, SMALL_SCALE
from .harness import (
    DEFAULT_METHODS,
    average_point_errors,
    build_aggregates,
    default_flights_query_attribute_sets,
    fit_methods,
    flights_bundle,
    point_query_workload,
)
from .reporting import ExperimentResult

DEFAULT_BIASES = (1.0, 0.98, 0.96, 0.94, 0.92, 0.90)


def run_bias_sweep(
    scale: ExperimentScale = SMALL_SCALE,
    biases: Sequence[float] = DEFAULT_BIASES,
    methods: Sequence[str] = DEFAULT_METHODS,
    n_two_dimensional: int = 4,
) -> ExperimentResult:
    """Average random point-query error as the Corners bias decreases."""
    bundle = flights_bundle(scale)
    aggregates = build_aggregates(
        bundle, n_two_dimensional=n_two_dimensional, seed=scale.seed
    )
    attribute_sets = default_flights_query_attribute_sets(
        bundle, n_sets=5, seed=scale.seed + 5
    )
    workload = point_query_workload(
        bundle, attribute_sets, "random", scale.n_queries, seed=scale.seed + 23
    )

    result = ExperimentResult(
        experiment_id="figure-5",
        title="Average error vs amount of bias in the Corners sample",
        paper_claim=(
            "Reweighting improves sharply once bias < 100% (support restored); "
            "hybrid is the most robust at 100% bias, beating IPF there."
        ),
        parameters={"biases": list(biases), "n_2d_aggregates": n_two_dimensional},
    )
    for bias in biases:
        sample = biased_sample(
            bundle.population,
            {"origin_state": list(CORNER_STATES)},
            fraction=scale.sample_fraction,
            bias=bias,
            seed=scale.seed + int(bias * 100),
        )
        fitted = fit_methods(
            sample,
            aggregates,
            population_size=bundle.population_size,
            scale=scale,
            methods=methods,
        )
        averages = average_point_errors(fitted.evaluators, workload)
        for method, error in averages.items():
            result.add_row(bias=bias, method=method, avg_percent_difference=error)
    return result
