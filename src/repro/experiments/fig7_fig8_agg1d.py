"""Figures 7 and 8 — accuracy as 1D aggregates are added (Sec. 6.5).

Random point queries are answered while 1D aggregates are added one at a time
in order A (the paper's attribute order) and order B (its reverse).  The
paper's shape: the largest improvement for all Themis methods happens when
the 1D aggregate over the attribute *causing* the sample bias is added
(origin_state for SCorners, fl_date for June, rating for SR159,
movie_country for GB).
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
    one_dimensional_order,
    point_query_workload,
)
from .reporting import ExperimentResult

FLIGHTS_SAMPLES_1D = ("SCorners", "June")
IMDB_SAMPLES_1D = ("SR159", "GB")


def run_1d_sweep(
    dataset: str = "flights",
    scale: ExperimentScale = SMALL_SCALE,
    samples: Sequence[str] | None = None,
    orders: Sequence[str] = ("A", "B"),
    budgets: Sequence[int] = (1, 2, 3, 4, 5),
    methods: Sequence[str] = DEFAULT_METHODS,
) -> ExperimentResult:
    """Average random point-query error as 1D aggregates are added."""
    bundle = dataset_bundle(dataset, scale)
    if samples is None:
        samples = FLIGHTS_SAMPLES_1D if dataset == "flights" else IMDB_SAMPLES_1D
    if dataset == "flights":
        attribute_sets = default_flights_query_attribute_sets(
            bundle, n_sets=5, seed=scale.seed + 31
        )
    else:
        attribute_sets = [
            ("movie_year", "rating"),
            ("movie_country", "runtime"),
            ("gender", "rating"),
            ("movie_year", "movie_country"),
        ]
    workload = point_query_workload(
        bundle, attribute_sets, "random", scale.n_queries, seed=scale.seed + 37
    )

    result = ExperimentResult(
        experiment_id="figure-7" if dataset == "flights" else "figure-8",
        title=f"Error vs number of 1D aggregates ({dataset}, orders A and B)",
        paper_claim=(
            "The biggest drop for IPF/BB/hybrid happens when the aggregate over the "
            "bias-causing attribute is added; AQP is flat."
        ),
        parameters={"dataset": dataset, "orders": list(orders), "budgets": list(budgets)},
    )
    for sample_name in samples:
        sample = bundle.sample(sample_name)
        for order in orders:
            order_attributes = one_dimensional_order(dataset, order)
            for budget in budgets:
                aggregates = build_aggregates(
                    bundle,
                    n_one_dimensional=budget,
                    one_dimensional_order_=order_attributes,
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
                        order=order,
                        n_1d_aggregates=budget,
                        method=method,
                        avg_percent_difference=error,
                    )
    return result
