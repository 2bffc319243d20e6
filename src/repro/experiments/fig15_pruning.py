"""Figure 15 — effectiveness of the aggregate pruning technique (Sec. 6.8).

On the CHILD dataset (a 10 percent uniform sample of a population generated
from the ground-truth CHILD Bayesian network), BB and AB networks are learned
with full 1D aggregates plus a growing number of 2D aggregates chosen either
by the t-cherry pruning technique (Prune) or at random (Rand).  The error of
answering point queries with the *true* network is plotted as the optimal
reference.

Paper shape: BB beats AB (especially with few aggregates); Prune's error
drops faster than Rand's; with enough aggregates the two converge towards the
optimal error.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..aggregates import aggregates_from_population, candidate_attribute_sets, prune_aggregates
from ..core import BayesNetEvaluator
from ..metrics import percent_difference
from ..query import PointQueryWorkload
from .config import ExperimentScale, SMALL_SCALE
from .harness import average_point_errors, child_bundle, fit_methods
from .reporting import ExperimentResult

DEFAULT_BUDGETS = (5, 15, 25, 35)
PRUNING_METHODS = ("t-cherry", "random")
BN_METHODS = ("BB", "AB")


def _child_workload(bundle, scale: ExperimentScale, sizes: Sequence[int] = (2, 4, 6)):
    generator = PointQueryWorkload(bundle.population, seed=scale.seed + 71)
    attribute_sets = generator.random_attribute_sets(sizes, n_sets=6)
    per_set = max(1, scale.n_queries // len(attribute_sets))
    return generator.generate_over_attribute_sets(attribute_sets, "random", per_set)


def optimal_error(bundle, workload, scale: ExperimentScale) -> float:
    """Error of the ground-truth CHILD network itself (the OPT line)."""
    true_network = bundle.extra["true_network"]
    evaluator = BayesNetEvaluator(
        true_network,
        population_size=bundle.population_size,
        n_generated_samples=scale.n_generated_samples,
        generated_sample_size=scale.generated_sample_size,
        seed=scale.seed,
    )
    errors = [
        percent_difference(item.true_value, evaluator.execute(item.query))
        for item in workload
    ]
    return float(np.mean(errors)) if errors else 0.0


def run_pruning(
    scale: ExperimentScale = SMALL_SCALE,
    budgets: Sequence[int] = DEFAULT_BUDGETS,
    selection_methods: Sequence[str] = PRUNING_METHODS,
    bn_methods: Sequence[str] = BN_METHODS,
) -> ExperimentResult:
    """Error of BB/AB with pruned vs random 2D aggregates on CHILD."""
    bundle = child_bundle(scale)
    sample = bundle.sample("Unif")
    workload = _child_workload(bundle, scale)
    attributes = bundle.aggregate_attributes

    one_dimensional = [(name,) for name in attributes]
    candidates_2d = candidate_attribute_sets(attributes, 2)
    candidate_aggregates = aggregates_from_population(bundle.population, candidates_2d)

    result = ExperimentResult(
        experiment_id="figure-15",
        title="Pruned vs random 2D aggregate selection on CHILD (BB and AB)",
        paper_claim=(
            "BB beats AB; Prune's error drops faster than Rand's; with enough "
            "aggregates both converge towards the optimal (true-network) error."
        ),
        parameters={"budgets": list(budgets)},
    )
    opt = optimal_error(bundle, workload, scale)
    result.add_row(selection="OPT", n_2d_aggregates=0, method="TrueBN", avg_percent_difference=opt)

    base_aggregates = aggregates_from_population(bundle.population, one_dimensional)
    for selection in selection_methods:
        label = "Prune" if selection == "t-cherry" else "Rand"
        for budget in budgets:
            chosen = prune_aggregates(
                candidate_aggregates, budget, method=selection, seed=scale.seed
            )
            aggregates = base_aggregates.union(chosen)
            fitted = fit_methods(
                sample,
                aggregates,
                population_size=bundle.population_size,
                scale=scale,
                methods=bn_methods,
            )
            averages = average_point_errors(fitted.evaluators, workload)
            for method, error in averages.items():
                result.add_row(
                    selection=label,
                    n_2d_aggregates=budget,
                    method=method,
                    avg_percent_difference=error,
                )
    return result
