"""Tables 7 and 8 — query execution time and solver time (Sec. 6.9).

Table 7 measures the average point-query execution time of the reweighted
sample ("RW", identical for AQP / LinReg / IPF since all are weighted-sample
lookups) and of the five BN learning modes (answered by exact inference).

Table 8 measures the time to learn: LinReg's regression solve, IPF's
iterations, and the BB network's structure plus parameter learning as the
number of 1D and 2D aggregates grows.

Paper shape: query execution stays interactive (milliseconds) for every
method; solver time grows with the number of 1D aggregates; LinReg is the
fastest solver, then IPF, then BB — and BB's parameter-learning time *drops*
as more 2D aggregates are added because full-family constraints solve in
closed form.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from ..bayesnet import GreedyHillClimbing, ParameterLearner
from ..reweighting import IPFReweighter, LinearRegressionReweighter
from .config import ExperimentScale, SMALL_SCALE
from .harness import (
    BN_MODES,
    build_aggregates,
    fit_methods,
    imdb_bundle,
    point_query_workload,
)
from .reporting import ExperimentResult


def run_query_execution_time(
    scale: ExperimentScale = SMALL_SCALE,
    sample_name: str = "SR159",
    n_two_dimensional: int = 4,
    methods: Sequence[str] = ("IPF",) + BN_MODES,
) -> ExperimentResult:
    """Table 7: average point-query execution time per method."""
    bundle = imdb_bundle(scale)
    sample = bundle.sample(sample_name)
    aggregates = build_aggregates(
        bundle, n_two_dimensional=n_two_dimensional, seed=scale.seed
    )
    fitted = fit_methods(
        sample,
        aggregates,
        population_size=bundle.population_size,
        scale=scale,
        methods=methods,
    )
    attribute_sets = [
        ("movie_year", "rating"),
        ("movie_country", "runtime"),
        ("gender", "rating"),
    ]
    workload = point_query_workload(
        bundle, attribute_sets, "random", scale.n_queries, seed=scale.seed + 83
    )

    result = ExperimentResult(
        experiment_id="table-7",
        title="Average point-query execution time (IMDB SR159, 4 2D aggregates)",
        paper_claim=(
            "All methods answer point queries interactively (milliseconds); the "
            "reweighted sample and the BN modes are within the same order of "
            "magnitude."
        ),
        parameters={"sample": sample_name, "n_queries": len(workload)},
    )
    for method, evaluator in fitted.evaluators.items():
        start = time.perf_counter()
        for item in workload:
            evaluator.point(item.query.as_dict())
        elapsed = time.perf_counter() - start
        label = "RW" if method == "IPF" else method
        result.add_row(
            method=label,
            avg_query_seconds=elapsed / max(len(workload), 1),
            total_seconds=elapsed,
        )
    return result


DEFAULT_TABLE8_CONFIGURATIONS: tuple[tuple[int, int], ...] = (
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 0),
    (5, 1),
    (5, 2),
    (5, 3),
    (5, 4),
)


def run_solver_time(
    scale: ExperimentScale = SMALL_SCALE,
    sample_name: str = "SR159",
    configurations: Sequence[tuple[int, int]] = DEFAULT_TABLE8_CONFIGURATIONS,
) -> ExperimentResult:
    """Table 8: structure/parameter learning time vs number of aggregates."""
    bundle = imdb_bundle(scale)
    sample = bundle.sample(sample_name)

    result = ExperimentResult(
        experiment_id="table-8",
        title="Solver times for LinReg, IPF, and BB vs aggregate configuration",
        paper_claim=(
            "LinReg is fastest, then IPF, then BB; solver time grows with the 1D "
            "aggregates, and BB's parameter learning gets cheaper as 2D aggregates "
            "are added (closed-form family constraints).  Here the last two swap: "
            "BB parameter learning measures below IPF, because each factor is a "
            "closed form plus an iterative-scaling projection over its own cells "
            "(no general constrained solver runs) while IPF sweeps the sample."
        ),
        parameters={"sample": sample_name},
    )
    for n_one_dimensional, n_two_dimensional in configurations:
        aggregates = build_aggregates(
            bundle,
            n_one_dimensional=n_one_dimensional,
            n_two_dimensional=n_two_dimensional,
            seed=scale.seed,
        )

        start = time.perf_counter()
        LinearRegressionReweighter(population_size=bundle.population_size).fit(
            sample, aggregates
        )
        linreg_seconds = time.perf_counter() - start

        start = time.perf_counter()
        IPFReweighter(max_iterations=scale.ipf_max_iterations).fit(sample, aggregates)
        ipf_seconds = time.perf_counter() - start

        start = time.perf_counter()
        climber = GreedyHillClimbing(max_parents=scale.max_parents)
        graph, _ = climber.learn(sample.schema, sample, aggregates)
        structure_seconds = time.perf_counter() - start

        start = time.perf_counter()
        ParameterLearner(use_aggregates=True).learn(
            graph,
            sample.schema,
            sample,
            aggregates=aggregates,
            population_size=bundle.population_size,
        )
        parameter_seconds = time.perf_counter() - start

        result.add_row(
            n_1d_aggregates=n_one_dimensional,
            n_2d_aggregates=n_two_dimensional,
            linreg_seconds=linreg_seconds,
            ipf_seconds=ipf_seconds,
            bb_structure_seconds=structure_seconds,
            bb_parameter_seconds=parameter_seconds,
        )
    return result


def main() -> None:  # pragma: no cover - convenience entry point
    print(run_query_execution_time().render())
    print()
    print(run_solver_time().render())


if __name__ == "__main__":  # pragma: no cover
    main()
