"""Figure 13 — comparison of the five BN learning modes (Sec. 6.6).

Heavy- and light-hitter point queries on the Flights SCorners sample are
answered by Bayesian networks learned with the five structure/parameter
source combinations SS, SB, BS, AB, and BB while the number of 2D aggregates
grows (after all 1D aggregates).

Paper shape: all modes do better on heavy hitters than light hitters; BB is
best overall; using both sources matters more for parameter learning than
structure learning (SB beats SS and BS); AB converges towards BB as more
aggregates are added.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..query import HitterKind
from .config import ExperimentScale, SMALL_SCALE
from .harness import (
    BN_MODES,
    average_point_errors,
    build_aggregates,
    fit_methods,
    flights_bundle,
    point_query_workload,
)
from .reporting import ExperimentResult


def run_bn_modes(
    scale: ExperimentScale = SMALL_SCALE,
    sample_name: str = "SCorners",
    budgets: Sequence[int] = (0, 1, 2, 3, 4),
    modes: Sequence[str] = BN_MODES,
) -> ExperimentResult:
    """Heavy/light hitter error of each BN learning mode vs 2D aggregate count."""
    bundle = flights_bundle(scale)
    sample = bundle.sample(sample_name)
    attribute_sets = [
        ("origin_state", "dest_state"),
        ("origin_state", "elapsed_time"),
        ("fl_date", "dest_state"),
        ("dest_state", "distance"),
    ]

    result = ExperimentResult(
        experiment_id="figure-13",
        title="BN learning modes (SS/SB/BS/AB/BB) on SCorners vs #2D aggregates",
        paper_claim=(
            "BB is best overall; parameter learning benefits more from using both "
            "sources than structure learning (SB > SS, BS); AB converges to BB."
        ),
        parameters={"sample": sample_name, "budgets": list(budgets)},
    )
    for budget in budgets:
        aggregates = build_aggregates(
            bundle, n_two_dimensional=budget, seed=scale.seed
        )
        fitted = fit_methods(
            sample,
            aggregates,
            population_size=bundle.population_size,
            scale=scale,
            methods=modes,
        )
        for kind in (HitterKind.HEAVY, HitterKind.LIGHT):
            workload = point_query_workload(
                bundle, attribute_sets, kind, scale.n_queries, seed=scale.seed + 53
            )
            averages = average_point_errors(fitted.evaluators, workload)
            for mode, error in averages.items():
                result.add_row(
                    n_2d_aggregates=budget,
                    hitters=kind.value,
                    mode=mode,
                    avg_percent_difference=error,
                )
    return result
