"""Iterative Proportional Fitting (IPF / raking) reweighting — Alg. 1.

IPF treats every tuple weight as an independent parameter.  It repeatedly
sweeps over the aggregate constraints; whenever a constraint is not
satisfied, the weights of the tuples participating in it are rescaled
multiplicatively so that it becomes satisfied.  When a consistent scaling
exists the procedure converges to it; when the sample is missing tuples the
aggregates require (Example 4.2), it oscillates and the final weights are an
approximate reweighting — which the paper shows is still accurate for tuples
that do exist in the sample.
"""

from __future__ import annotations

import numpy as np

from ..aggregates import AggregateSet, IncidenceSystem
from ..exceptions import ReweightingError
from ..schema import Relation
from .base import Reweighter, ReweightingResult


class IPFReweighter(Reweighter):
    """Iterative Proportional Fitting over the aggregate incidence system.

    Parameters
    ----------
    max_iterations:
        Maximum number of full sweeps over all constraints.
    tolerance:
        Relative constraint-violation threshold below which the algorithm is
        declared converged.
    initial_weight:
        Starting weight of every tuple (the paper starts from all ones).
    normalize_population_size:
        When true, the final weights are rescaled to sum to the population
        size ``n`` (useful when the aggregates do not cover all tuples).
    """

    name = "IPF"

    def __init__(
        self,
        max_iterations: int = 100,
        tolerance: float = 1e-6,
        initial_weight: float = 1.0,
        normalize_population_size: bool = False,
        population_size: float | None = None,
    ):
        if max_iterations < 1:
            raise ReweightingError("max_iterations must be at least 1")
        if tolerance < 0:
            raise ReweightingError("tolerance must be non-negative")
        if initial_weight <= 0:
            raise ReweightingError("initial_weight must be positive")
        self._max_iterations = int(max_iterations)
        self._tolerance = float(tolerance)
        self._initial_weight = float(initial_weight)
        self._normalize = bool(normalize_population_size)
        self._n = population_size

    def fit(self, sample: Relation, aggregates: AggregateSet) -> ReweightingResult:
        self._validate_sample(sample)
        if len(aggregates) == 0:
            raise ReweightingError("IPF requires at least one aggregate")
        system = IncidenceSystem(sample, aggregates)

        # ``np.isclose(achieved, target)`` with its default tolerances, spelled
        # out so the comparison is scalar arithmetic inside the sweep.
        constraints = [
            (rows, target, 1e-8 + 1e-5 * abs(target))
            for rows, target in zip(system.members, system.counts.tolist())
            if rows.size  # a group with no sample tuple has nothing to rescale
        ]
        weights = np.full(sample.n_rows, self._initial_weight, dtype=float)

        converged = False
        iterations_used = 0
        for iteration in range(1, self._max_iterations + 1):
            iterations_used = iteration
            for rows, target, closeness in constraints:
                achieved = weights[rows].sum()
                if achieved <= 0:
                    # All participating weights collapsed to zero (can happen
                    # when a previous constraint had target zero); reset them
                    # evenly so this constraint can still be met.
                    weights[rows] = target / rows.size if target > 0 else 0.0
                elif abs(achieved - target) > closeness:
                    weights[rows] *= target / achieved
            violation = system.max_relative_violation(weights)
            if violation <= self._tolerance:
                converged = True
                break

        if self._normalize:
            population_size = Reweighter._population_size(aggregates, self._n)
            total = weights.sum()
            if total > 0:
                weights = weights * (population_size / total)

        # Aggregates whose occupied groups add up to different totals cannot
        # all be met: ``unsupported_mass`` is the most any of them drops.
        supported = system.supported_totals()
        totals = np.asarray([aggregate.total for aggregate in aggregates])
        return ReweightingResult(
            weights=weights,
            method=self.name,
            converged=converged,
            n_iterations=iterations_used,
            max_violation=system.max_relative_violation(weights),
            diagnostics={
                "n_constraints": system.n_constraints,
                "n_empty_constraints": int(len(system.empty_constraints())),
                "tolerance": self._tolerance,
                "supported_totals": supported.tolist(),
                "unsupported_mass": float((totals - supported).max()),
            },
        )
