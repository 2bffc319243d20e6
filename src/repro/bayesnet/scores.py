"""Count sources and the BIC score used by structure learning.

The greedy hill-climbing algorithm (Alg. 2) scores candidate structures with
BIC.  During its first phase the counts come from the population aggregates
``Γ``; during the second phase they come from the (weighted) sample ``S``.
Both are wrapped behind the same :class:`CountSource` interface so the
scoring code is identical in both phases.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..aggregates import AggregateSet
from ..exceptions import BayesNetError
from ..schema import Relation, Schema
from .cpt import ConditionalProbabilityTable


class CountSource:
    """Provides joint ``(parents, child)`` count tables for family scoring."""

    def supports(self, attributes: Sequence[str]) -> bool:
        """Whether joint counts over ``attributes`` can be produced."""
        raise NotImplementedError

    def counts(self, child: str, parents: Sequence[str]) -> np.ndarray:
        """Joint counts with shape ``(n_parent_configs, child_size)``."""
        raise NotImplementedError

    def total(self) -> float:
        """Total count (the effective data size ``N`` in the BIC penalty)."""
        raise NotImplementedError

    def attributes(self) -> set[str]:
        """Attributes the source knows about."""
        raise NotImplementedError


class SampleCountSource(CountSource):
    """Counts taken from a (possibly weighted) sample relation."""

    def __init__(self, sample: Relation, weighted: bool = True):
        self._sample = sample
        self._weighted = weighted

    def supports(self, attributes: Sequence[str]) -> bool:
        return all(name in self._sample.schema for name in attributes)

    def counts(self, child: str, parents: Sequence[str]) -> np.ndarray:
        return ConditionalProbabilityTable.counts_from_relation(
            self._sample, child, parents, weighted=self._weighted
        )

    def total(self) -> float:
        if self._weighted and self._sample.has_weights:
            return self._sample.total_weight()
        return float(self._sample.n_rows)

    def attributes(self) -> set[str]:
        return set(self._sample.attribute_names)


class AggregateCountSource(CountSource):
    """Counts taken from the population aggregates ``Γ``.

    A family ``(child, parents)`` is supported only when some aggregate groups
    by a superset of the family's attributes — exactly the "support in Γ"
    condition of Alg. 3.  Counts are obtained by marginalizing that aggregate.
    """

    def __init__(self, aggregates: AggregateSet, schema: Schema):
        self._aggregates = aggregates
        self._schema = schema

    def supports(self, attributes: Sequence[str]) -> bool:
        attributes = [name for name in attributes]
        if not all(name in self._schema for name in attributes):
            return False
        return self._aggregates.best_covering(attributes) is not None

    def counts(self, child: str, parents: Sequence[str]) -> np.ndarray:
        family = list(parents) + [child]
        aggregate = self._aggregates.best_covering(family)
        if aggregate is None:
            raise BayesNetError(
                f"no aggregate covers the family {tuple(family)!r}"
            )
        return ConditionalProbabilityTable.counts_from_aggregate(
            aggregate, self._schema, child, parents
        )

    def total(self) -> float:
        size = self._aggregates.population_size()
        return float(size) if size else 0.0

    def attributes(self) -> set[str]:
        return self._aggregates.covered_attributes()


def family_log_likelihood(counts: np.ndarray) -> float:
    """Maximized log-likelihood of one family given its joint count table."""
    counts = np.asarray(counts, dtype=float)
    row_totals = counts.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.where(row_totals > 0, counts / np.maximum(row_totals, 1e-300), 0.0)
        log_theta = np.where(theta > 0, np.log(np.maximum(theta, 1e-300)), 0.0)
    return float(np.sum(counts * log_theta))


def family_bic(
    child: str,
    parents: Sequence[str],
    source: CountSource,
    schema: Schema,
) -> float:
    """BIC contribution of one family ``(child | parents)`` under a count source.

    ``BIC = loglik - (log N / 2) * q_i * (r_i - 1)`` where ``q_i`` is the
    number of parent configurations and ``r_i`` the child domain size.
    """
    counts = source.counts(child, parents)
    log_likelihood = family_log_likelihood(counts)
    n_total = max(source.total(), 2.0)
    child_size = schema[child].size
    n_configs = int(np.prod([schema[name].size for name in parents])) if parents else 1
    penalty = 0.5 * np.log(n_total) * n_configs * (child_size - 1)
    return log_likelihood - penalty


def structure_bic(
    families: dict[str, Sequence[str]],
    source: CountSource,
    schema: Schema,
) -> float:
    """Total BIC of a structure given as a ``child -> parents`` mapping.

    Families the source cannot support contribute their parent-free score so
    the total stays comparable across candidate structures within one phase.
    """
    total = 0.0
    for child, parents in families.items():
        if source.supports(list(parents) + [child]):
            total += family_bic(child, parents, source, schema)
        elif source.supports([child]):
            total += family_bic(child, (), source, schema)
    return total
