"""Figure 16 — accuracy versus total solver time (Sec. 6.9).

On the IMDB SR159 sample, IPF and BB are fitted with various combinations of
1D and 2D aggregate budgets; for each configuration the total solver time
(reweighting or structure + parameter learning) and the average random
point-query error are recorded.

Paper shape: IPF is almost always faster to solve, but BB reaches lower
error; the BB configurations with the most 2D aggregates are both the most
accurate and (relatively) cheap because full-family constraints solve in
closed form.
"""

from __future__ import annotations

from collections.abc import Sequence

from .config import ExperimentScale, SMALL_SCALE
from .harness import (
    average_point_errors,
    build_aggregates,
    fit_methods,
    imdb_bundle,
    point_query_workload,
)
from .reporting import ExperimentResult

DEFAULT_CONFIGURATIONS: tuple[tuple[int, int], ...] = (
    (1, 0),
    (3, 0),
    (5, 0),
    (5, 1),
    (5, 2),
    (5, 3),
    (5, 4),
)


def run_time_accuracy(
    scale: ExperimentScale = SMALL_SCALE,
    sample_name: str = "SR159",
    configurations: Sequence[tuple[int, int]] = DEFAULT_CONFIGURATIONS,
    methods: Sequence[str] = ("IPF", "BB"),
) -> ExperimentResult:
    """Solver time and error of IPF and BB across aggregate configurations."""
    bundle = imdb_bundle(scale)
    sample = bundle.sample(sample_name)
    attribute_sets = [
        ("movie_year", "rating"),
        ("movie_country", "runtime"),
        ("gender", "rating"),
        ("movie_year", "movie_country"),
    ]
    workload = point_query_workload(
        bundle, attribute_sets, "random", scale.n_queries, seed=scale.seed + 79
    )

    result = ExperimentResult(
        experiment_id="figure-16",
        title="Error vs total solver time for IPF and BB (IMDB SR159)",
        paper_claim=(
            "IPF solves faster at comparable aggregate budgets, but BB reaches the "
            "lowest error; the best-error BB points use the most 2D aggregates."
        ),
        parameters={"sample": sample_name, "configurations": list(configurations)},
    )
    for n_one_dimensional, n_two_dimensional in configurations:
        aggregates = build_aggregates(
            bundle,
            n_one_dimensional=n_one_dimensional,
            n_two_dimensional=n_two_dimensional,
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
        for method in methods:
            result.add_row(
                method=method,
                n_1d_aggregates=n_one_dimensional,
                n_2d_aggregates=n_two_dimensional,
                solver_seconds=fitted.fit_seconds.get(method, 0.0),
                avg_percent_difference=averages[method],
            )
    return result
