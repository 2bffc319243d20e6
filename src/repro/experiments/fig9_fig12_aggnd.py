"""Figures 9–12 — accuracy as 2D and 3D aggregates are added (Sec. 6.5).

After the five 1D aggregates, pruned 2D (Figs. 9/10) or 3D (Figs. 11/12)
aggregates are added one at a time and random point-query error is measured.
Paper shape: the Bayesian network (BB) improves the most with more
multi-dimensional aggregates and approaches hybrid, IPF barely changes, and
3D aggregates converge faster than 2D (one 3D aggregate can match four 2D
ones) without significantly beating the 4-2D hybrid error.
"""

from __future__ import annotations

from collections.abc import Sequence

from .config import ExperimentScale, SMALL_SCALE
from .harness import (
    DEFAULT_METHODS,
    average_point_errors,
    build_aggregates,
    dataset_bundle,
    default_flights_query_attribute_sets,
    fit_methods,
    point_query_workload,
)
from .reporting import ExperimentResult

FLIGHTS_SAMPLES_ND = ("SCorners", "June")
IMDB_SAMPLES_ND = ("SR159", "GB")
FLIGHTS_SAMPLES_3D = ("SCorners", "June")
IMDB_SAMPLES_3D = ("SR159", "R159")


def _workload(bundle, dataset: str, scale: ExperimentScale):
    if dataset == "flights":
        attribute_sets = default_flights_query_attribute_sets(
            bundle, n_sets=5, seed=scale.seed + 41
        )
    else:
        attribute_sets = [
            ("movie_year", "rating"),
            ("movie_country", "runtime"),
            ("gender", "rating"),
            ("movie_year", "movie_country"),
        ]
    return point_query_workload(
        bundle, attribute_sets, "random", scale.n_queries, seed=scale.seed + 43
    )


def run_nd_sweep(
    dataset: str = "flights",
    dimension: int = 2,
    scale: ExperimentScale = SMALL_SCALE,
    samples: Sequence[str] | None = None,
    budgets: Sequence[int] = (0, 1, 2, 3, 4),
    methods: Sequence[str] = DEFAULT_METHODS,
) -> ExperimentResult:
    """Average random point-query error as d-dimensional aggregates are added.

    ``dimension=2`` reproduces Fig. 9 (flights) / Fig. 10 (imdb);
    ``dimension=3`` reproduces Fig. 11 (flights) / Fig. 12 (imdb).
    """
    bundle = dataset_bundle(dataset, scale)
    if samples is None:
        if dimension == 2:
            samples = FLIGHTS_SAMPLES_ND if dataset == "flights" else IMDB_SAMPLES_ND
        else:
            samples = FLIGHTS_SAMPLES_3D if dataset == "flights" else IMDB_SAMPLES_3D
    workload = _workload(bundle, dataset, scale)

    figure_number = {(2, "flights"): 9, (2, "imdb"): 10, (3, "flights"): 11, (3, "imdb"): 12}
    result = ExperimentResult(
        experiment_id=f"figure-{figure_number.get((dimension, dataset), dimension)}",
        title=(
            f"Error vs number of {dimension}D aggregates (after all 1D aggregates), "
            f"{dataset}"
        ),
        paper_claim=(
            "BB improves the most as multi-dimensional aggregates are added and "
            "converges towards hybrid; IPF changes little; 3D aggregates converge "
            "faster than 2D."
        ),
        parameters={
            "dataset": dataset,
            "dimension": dimension,
            "budgets": list(budgets),
        },
    )
    for sample_name in samples:
        sample = bundle.sample(sample_name)
        for budget in budgets:
            aggregates = build_aggregates(
                bundle,
                n_two_dimensional=budget if dimension == 2 else 0,
                n_three_dimensional=budget if dimension == 3 else 0,
                seed=scale.seed,
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
                result.add_row(
                    sample=sample_name,
                    n_nd_aggregates=budget,
                    dimension=dimension,
                    method=method,
                    avg_percent_difference=error,
                )
    return result


def reference_hybrid_error_with_2d(
    dataset: str,
    sample_name: str,
    scale: ExperimentScale = SMALL_SCALE,
    n_two_dimensional: int = 4,
) -> float:
    """The 4-2D hybrid reference line drawn in Figs. 11/12."""
    bundle = dataset_bundle(dataset, scale)
    workload = _workload(bundle, dataset, scale)
    aggregates = build_aggregates(
        bundle, n_two_dimensional=n_two_dimensional, seed=scale.seed
    )
    fitted = fit_methods(
        bundle.sample(sample_name),
        aggregates,
        population_size=bundle.population_size,
        scale=scale,
        methods=("Hybrid",),
    )
    return average_point_errors(fitted.evaluators, workload)["Hybrid"]
