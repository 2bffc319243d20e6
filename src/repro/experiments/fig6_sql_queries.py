"""Figure 6 and Table 5 — the six IDEBench-style SQL queries (Sec. 6.4).

Six GROUP BY queries with AVG aggregates, range filters, and one self-join
are run on the Corners sample with 100 percent bias and with 98 percent bias,
measuring the average per-group percent difference against the population.

Paper shape: hybrid and BB miss fewer groups and win on most queries at 100%
bias (except Q3, whose selection coincides with the bias), but produce
phantom groups on Q2/Q3/Q6 where IPF can win; the join query Q6 is where IPF
shines once support is restored.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from ..data import CORNER_STATES, biased_sample
from ..metrics import average_group_by_error
from ..plan import ColumnarExecutor
from ..query import (
    AggregateFunction,
    AggregateSpec,
    Comparison,
    GroupByQuery,
    JoinGroupByQuery,
    Predicate,
)
from .config import ExperimentScale, SMALL_SCALE
from .harness import DEFAULT_METHODS, build_aggregates, fit_methods, flights_bundle
from .reporting import ExperimentResult


def table5_queries(elapsed_threshold: int = 4) -> dict[str, Any]:
    """The six queries of Table 5, expressed as AST objects.

    ``elapsed_threshold`` plays the role of the paper's "E < 120 minutes"
    filter over the bucketized elapsed-time attribute.
    """
    avg_elapsed = AggregateSpec(AggregateFunction.AVG, "elapsed_time")
    count = AggregateSpec(AggregateFunction.COUNT)
    return {
        "Q1": GroupByQuery(group_by=("origin_state",), aggregate=avg_elapsed),
        "Q2": GroupByQuery(
            group_by=("origin_state",),
            aggregate=avg_elapsed,
            predicates=(Predicate("dest_state", Comparison.EQ, "CA"),),
        ),
        "Q3": GroupByQuery(
            group_by=("dest_state",),
            aggregate=avg_elapsed,
            predicates=(Predicate("origin_state", Comparison.EQ, "CA"),),
        ),
        "Q4": GroupByQuery(
            group_by=("origin_state",),
            aggregate=count,
            predicates=(Predicate("elapsed_time", Comparison.LT, elapsed_threshold),),
        ),
        "Q5": GroupByQuery(
            group_by=("dest_state",),
            aggregate=count,
            predicates=(Predicate("elapsed_time", Comparison.LT, elapsed_threshold),),
        ),
        "Q6": JoinGroupByQuery(
            left_join="dest_state",
            right_join="origin_state",
            left_group="origin_state",
            right_group="dest_state",
            left_predicates=(
                Predicate("dest_state", Comparison.IN, ("CO", "WY")),
            ),
        ),
    }


def run_sql_queries(
    scale: ExperimentScale = SMALL_SCALE,
    methods: Sequence[str] = DEFAULT_METHODS,
    biases: Sequence[float] = (1.0, 0.98),
    n_two_dimensional: int = 4,
) -> ExperimentResult:
    """Average per-group error of the six Table 5 queries per method and bias."""
    bundle = flights_bundle(scale)
    aggregates = build_aggregates(
        bundle, n_two_dimensional=n_two_dimensional, seed=scale.seed
    )
    queries = table5_queries()
    population = ColumnarExecutor(bundle.population)

    result = ExperimentResult(
        experiment_id="figure-6",
        title="Average error of the six Table 5 SQL queries (Corners vs SCorners)",
        paper_claim=(
            "Hybrid/BB miss fewer groups and win at 100% bias on most queries; "
            "IPF wins the join query once support is restored; Q3 is insensitive "
            "to the bias because its selection matches the biased states."
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
        for query_name, query in queries.items():
            truth = population.execute(query).as_dict()
            for method, evaluator in fitted.evaluators.items():
                estimate = evaluator.execute(query).as_dict()
                error = average_group_by_error(truth, estimate)
                result.add_row(
                    query=query_name,
                    bias=bias,
                    method=method,
                    avg_percent_difference=error,
                    n_true_groups=len(truth),
                    n_estimated_groups=len(estimate),
                )
    return result
