"""Iterative Proportional Fitting (IPF / raking) reweighting — Alg. 1.

IPF treats every tuple weight as an independent parameter.  It repeatedly
sweeps over the aggregate constraints; whenever a constraint is not
satisfied, the weights of the tuples participating in it are rescaled
multiplicatively so that it becomes satisfied.  When a consistent scaling
exists the procedure converges to it; when the sample is missing tuples the
aggregates require (Example 4.2), it oscillates and the final weights are an
approximate reweighting — which the paper shows is still accurate for tuples
that do exist in the sample.

Alg. 1 rescales one constraint (one aggregate group) at a time.  The groups
of one aggregate hold disjoint tuples, so within an aggregate no rescale
changes another group's sum, and the sweep rakes one whole aggregate per
numpy step instead: one gather and one ``np.add.reduceat`` give every
group's weighted count, the closeness test, ratio and collapsed-group reset
run over the groups at once, and one ``weights *= ratio[cell_of_row]``
rescales the tuples (:class:`~repro.aggregates.incidence.AggregateCells`).
Every group sum, ratio and product is the one the group-by-group sweep
computes, so the weights are the same bit for bit; aggregates are still
raked in order, one after the other.  A group whose weights collapsed to
zero, or were raked down so far that its ratio overflows, is reset evenly
to its target instead of rescaled.
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

        # Per aggregate: its cells, ``np.isclose(achieved, target)``'s
        # default tolerance and the weight a collapsed cell resets to.
        steps = [
            (
                cells,
                1e-8 + 1e-5 * np.abs(cells.counts),
                np.where(cells.counts > 0, cells.counts / cells.sizes, 0.0),
            )
            for cells in system.aggregate_cells()
        ]
        n_rows = sample.n_rows
        # The weights plus the ``-0.0`` slot every cell's segment starts at.
        padded = np.full(n_rows + 1, self._initial_weight, dtype=float)
        padded[n_rows] = -0.0
        weights = padded[:n_rows]

        converged = False
        iterations_used = 0
        for iteration in range(1, self._max_iterations + 1):
            iterations_used = iteration
            for cells, closeness, reset in steps:
                achieved = np.add.reduceat(padded[cells.gather], cells.starts)
                # All of a cell's weights collapsed to zero (a previous
                # constraint had target zero): reset them evenly so this
                # constraint can still be met.
                collapsed = achieved <= 0
                far = ~collapsed & (np.abs(achieved - cells.counts) > closeness)
                if far.any():
                    # Rows of a close cell or of no cell are scaled by 1.0;
                    # the last slot is the one ``cell_of_row`` gives the latter.
                    ratio = np.ones(len(achieved) + 1)
                    with np.errstate(over="ignore"):
                        np.divide(cells.counts, achieved, out=ratio[:-1], where=far)
                    # A cell raked down to subnormal weights overflows its
                    # ratio; like a collapsed cell, it is reset instead.
                    overflowed = np.isinf(ratio[:-1])
                    if overflowed.any():
                        collapsed |= overflowed
                        ratio[:-1][overflowed] = 1.0
                    weights *= ratio[cells.cell_of_row]
                if collapsed.any():
                    cell = cells.cell_of_row
                    to_reset = np.append(collapsed, False)[cell]
                    weights[to_reset] = reset[cell[to_reset]]
            violation = system.max_relative_violation(weights)
            if violation <= self._tolerance:
                converged = True
                break

        weights = weights.copy()  # not a view that keeps the padded buffer
        if self._normalize:
            population_size = Reweighter._population_size(aggregates, self._n)
            total = weights.sum()
            if total > 0:
                weights = weights * (population_size / total)
                violation = system.max_relative_violation(weights)

        # Aggregates whose occupied groups add up to different totals cannot
        # all be met: ``unsupported_mass`` is the most any of them drops.
        supported = system.supported_totals()
        totals = np.asarray([aggregate.total for aggregate in aggregates])
        return ReweightingResult(
            weights=weights,
            method=self.name,
            converged=converged,
            n_iterations=iterations_used,
            max_violation=violation,
            diagnostics={
                "n_constraints": system.n_constraints,
                "n_empty_constraints": int(len(system.empty_constraints())),
                "tolerance": self._tolerance,
                "supported_totals": supported.tolist(),
                "unsupported_mass": float((totals - supported).max()),
            },
        )
