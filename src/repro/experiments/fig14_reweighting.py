"""Figure 14 — comparison of the two sample reweighting techniques (Sec. 6.7).

Random point queries on the four Flights samples are answered by linear
regression reweighting (LinReg), IPF, and uniform reweighting (AQP) with the
full 1D plus four 2D aggregates.

Paper shape: IPF outperforms LinReg on every sample (correlated attributes
hurt the linear model), and both beat AQP on the biased samples; AQP is not
near-zero even on the uniform sample because some random queries hit light
hitters missing from the sample.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..metrics import ErrorSummary
from .config import ExperimentScale, SMALL_SCALE
from .harness import (
    build_aggregates,
    default_flights_query_attribute_sets,
    fit_methods,
    flights_bundle,
    point_query_errors,
    point_query_workload,
)
from .reporting import ExperimentResult

REWEIGHTING_METHODS = ("AQP", "LinReg", "IPF")
FLIGHTS_SAMPLES = ("Unif", "June", "SCorners", "Corners")


def run_reweighting_comparison(
    scale: ExperimentScale = SMALL_SCALE,
    samples: Sequence[str] = FLIGHTS_SAMPLES,
    methods: Sequence[str] = REWEIGHTING_METHODS,
    n_two_dimensional: int = 4,
) -> ExperimentResult:
    """Error summaries of AQP / LinReg / IPF on the four Flights samples."""
    bundle = flights_bundle(scale)
    aggregates = build_aggregates(
        bundle, n_two_dimensional=n_two_dimensional, seed=scale.seed
    )
    attribute_sets = default_flights_query_attribute_sets(
        bundle, n_sets=5, seed=scale.seed + 61
    )
    workload = point_query_workload(
        bundle, attribute_sets, "random", scale.n_queries, seed=scale.seed + 67
    )

    result = ExperimentResult(
        experiment_id="figure-14",
        title="LinReg vs IPF vs AQP on the four Flights samples",
        paper_claim=(
            "IPF beats LinReg on every sample; LinReg beats AQP on the biased "
            "samples but suffers from correlated attributes."
        ),
        parameters={"n_2d_aggregates": n_two_dimensional, "n_queries": scale.n_queries},
    )
    for sample_name in samples:
        fitted = fit_methods(
            bundle.sample(sample_name),
            aggregates,
            population_size=bundle.population_size,
            scale=scale,
            methods=methods,
        )
        errors = point_query_errors(fitted.evaluators, workload)
        for method, values in errors.items():
            summary = ErrorSummary.from_errors(values)
            result.add_row(
                sample=sample_name,
                method=method,
                mean=summary.mean,
                median=summary.median,
                p25=summary.p25,
                p75=summary.p75,
            )
    return result
