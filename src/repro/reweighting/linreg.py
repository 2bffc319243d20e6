"""Constrained linear-regression reweighting (Sec. 4.1.1).

The weight of a tuple is assumed to be a linear combination of its one-hot
encoded attributes, ``w(t) = β · t_{0/1}``.  The coefficients ``β`` are found
by solving the aggregate system ``[G_{0/1} X_S] β = y`` as a *non-negative*
least squares problem, with an extra row ``[n_S, 0, ..., 0]`` (target
``n_S``) that nudges the intercept to be positive so every tuple receives a
strictly positive weight.  Finally the weights are sum-normalized so they add
up to the population size ``n``.
"""

from __future__ import annotations

import numpy as np

from ..aggregates import AggregateSet, IncidenceSystem
from ..exceptions import ReweightingError
from ..schema import OneHotEncoder, Relation
from .base import Reweighter, ReweightingResult


class LinearRegressionReweighter(Reweighter):
    """Learn ``w(t) = β · t_{0/1}`` with non-negative least squares.

    Parameters
    ----------
    population_size:
        The population size ``n`` used for the final sum-normalization.
        Inferred from the aggregates when omitted.
    min_weight:
        Weights below this floor are clipped up to it before normalization so
        no sample tuple disappears from the reweighted relation entirely.
    """

    name = "LinReg"

    def __init__(self, population_size: float | None = None, min_weight: float = 1e-9):
        self._n = population_size
        if min_weight < 0:
            raise ReweightingError("min_weight must be non-negative")
        self._min_weight = float(min_weight)

    def fit(self, sample: Relation, aggregates: AggregateSet) -> ReweightingResult:
        self._validate_sample(sample)
        if len(aggregates) == 0:
            raise ReweightingError(
                "linear-regression reweighting requires at least one aggregate"
            )
        population_size = Reweighter._population_size(aggregates, self._n)

        # Only the attributes covered by the aggregates participate in the
        # one-hot encoding (the paper redefines m this way in Sec. 4.1.1).
        covered = [
            name
            for name in sample.attribute_names
            if name in aggregates.covered_attributes()
        ]
        if not covered:
            raise ReweightingError(
                "no sample attribute is covered by the provided aggregates"
            )
        encoder = OneHotEncoder(sample, attributes=covered, add_intercept=True)
        design_sample = encoder.matrix()

        system = IncidenceSystem(sample, aggregates)
        design = system.matrix @ design_sample
        targets = system.counts.copy()

        # Drop constraints with no participating sample tuple: their rows of
        # G_{0/1} X_S are all zero and carry no information about β.
        keep = design.any(axis=1)
        design = design[keep]
        targets = targets[keep]
        n_dropped = int((~keep).sum())

        # Encourage a positive intercept: add the row [n_S, 0, ..., 0] -> n_S.
        intercept_row = np.zeros(design_sample.shape[1], dtype=float)
        intercept_row[0] = float(sample.n_rows)
        design = np.vstack([design, intercept_row])
        targets = np.append(targets, float(sample.n_rows))

        # Imported here: scipy costs ~40 MB per process, and only this
        # reweighter (not the default IPF) needs it.
        from scipy import optimize

        coefficients, residual_norm = optimize.nnls(design, targets)
        weights = design_sample @ coefficients
        weights = np.maximum(weights, self._min_weight)

        total = weights.sum()
        if total <= 0:
            raise ReweightingError("regression produced an all-zero weight vector")
        weights = weights * (population_size / total)

        violation = system.max_relative_violation(weights)
        return ReweightingResult(
            weights=weights,
            method=self.name,
            converged=True,
            n_iterations=0,
            max_violation=violation,
            diagnostics={
                "coefficients": coefficients,
                "residual_norm": float(residual_norm),
                "dropped_constraints": n_dropped,
                "population_size": population_size,
                "encoded_attributes": tuple(covered),
            },
        )
