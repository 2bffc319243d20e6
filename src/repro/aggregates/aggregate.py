"""Population aggregates (``Γ`` in the paper).

Themis ingests the results of ``GROUP BY, COUNT(*)`` queries computed over
the (unavailable) population ``P``.  Each :class:`AggregateQuery` stores one
such result: the grouped attributes ``γ_i`` and the list of
(attribute-value vector, count) pairs.  :class:`AggregateSet` is the
collection ``Γ`` handed to the debiasing algorithms.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from ..exceptions import AggregateError
from ..schema import Relation, Schema


class AggregateQuery:
    """The result of one ``GROUP BY γ_i, COUNT(*)`` query over the population.

    Parameters
    ----------
    attributes:
        The grouping attributes ``γ_i`` (a tuple of attribute names).
    groups:
        Mapping from value tuples (one value per grouping attribute, in the
        same order) to non-negative counts.

    Examples
    --------
    >>> agg = AggregateQuery(("o_st",), {("FL",): 3.0, ("NY",): 7.0})
    >>> agg.dimension, agg.total
    (1, 10.0)
    """

    __slots__ = ("_attributes", "_groups", "_encoded")

    def __init__(
        self,
        attributes: Sequence[str],
        groups: Mapping[tuple[Any, ...], float],
    ):
        attributes = tuple(attributes)
        if not attributes:
            raise AggregateError("an aggregate needs at least one grouping attribute")
        if len(set(attributes)) != len(attributes):
            raise AggregateError(f"duplicate grouping attributes: {attributes}")
        cleaned: dict[tuple[Any, ...], float] = {}
        for key, count in groups.items():
            key = tuple(key) if isinstance(key, (tuple, list)) else (key,)
            if len(key) != len(attributes):
                raise AggregateError(
                    f"group key {key!r} has {len(key)} values but the aggregate "
                    f"groups by {len(attributes)} attributes"
                )
            count = float(count)
            if count < 0:
                raise AggregateError(f"negative count for group {key!r}: {count}")
            cleaned[key] = cleaned.get(key, 0.0) + count
        if not cleaned:
            raise AggregateError("an aggregate needs at least one group")
        self._attributes = attributes
        self._groups = cleaned
        self._encoded: tuple[Schema, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_relation(
        cls,
        relation: Relation,
        attributes: Sequence[str],
        weighted: bool = False,
    ) -> "AggregateQuery":
        """Compute the aggregate directly over a relation.

        This is how ground-truth aggregates are produced from the synthetic
        populations in the experiments.
        """
        counts = relation.value_counts(attributes, weighted=weighted)
        if not counts:
            raise AggregateError(
                f"relation has no rows to aggregate over {tuple(attributes)!r}"
            )
        return cls(attributes, counts)

    @classmethod
    def from_pairs(
        cls,
        attributes: Sequence[str],
        pairs: Iterable[tuple[Sequence[Any], float]],
    ) -> "AggregateQuery":
        """Build an aggregate from ``(value-vector, count)`` pairs (paper notation)."""
        groups = {tuple(values): float(count) for values, count in pairs}
        return cls(attributes, groups)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> tuple[str, ...]:
        """The grouping attributes ``γ_i``."""
        return self._attributes

    @property
    def dimension(self) -> int:
        """The aggregate dimension ``d_i``."""
        return len(self._attributes)

    @property
    def n_groups(self) -> int:
        """Number of groups ``M_i``."""
        return len(self._groups)

    @property
    def total(self) -> float:
        """Sum of all group counts."""
        return float(sum(self._groups.values()))

    def groups(self) -> dict[tuple[Any, ...], float]:
        """A copy of the group-count mapping."""
        return dict(self._groups)

    def items(self) -> Iterable[tuple[tuple[Any, ...], float]]:
        """Iterate over ``(value-vector, count)`` pairs in insertion order."""
        return self._groups.items()

    def value_vectors(self) -> list[tuple[Any, ...]]:
        """The group value vectors (``Γ^A_i`` in the paper)."""
        return list(self._groups.keys())

    def counts(self) -> np.ndarray:
        """The group counts (``Γ^C_i`` in the paper) as a float array."""
        return np.asarray(list(self._groups.values()), dtype=float)

    def encode(self, schema: Schema) -> np.ndarray:
        """Domain codes of every group, one row per group in insertion order.

        Column ``p`` holds the code of the group's value for
        ``attributes[p]`` in ``schema``'s domain, or ``-1`` when the value is
        outside it (a population group the schema cannot express).

        The aggregate is immutable, so the codes are memoized for the last
        schema asked for (by identity): a fit encodes every aggregate many
        times over one schema (the incidence system, the structure search's
        family counts, each constrained factor), and pays the walk over the
        groups once.  The array is read-only, shared by every caller.
        """
        memo = self._encoded
        if memo is not None and memo[0] is schema:
            return memo[1]
        domains = [schema[name].domain for name in self._attributes]
        codes = np.asarray(
            [
                [domain.code_of(value, -1) for domain, value in zip(domains, values)]
                for values in self._groups
            ],
            dtype=np.int64,
        )
        codes.flags.writeable = False
        self._encoded = schema, codes
        return codes

    def count_for(self, values: Sequence[Any]) -> float:
        """Count of one group, zero if the group is absent from the report."""
        return self._groups.get(tuple(values), 0.0)

    def __contains__(self, values: Sequence[Any]) -> bool:
        return tuple(values) in self._groups

    def __len__(self) -> int:
        return len(self._groups)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AggregateQuery):
            return NotImplemented
        return self._attributes == other._attributes and self._groups == other._groups

    def __repr__(self) -> str:
        return (
            f"AggregateQuery(attributes={self._attributes!r}, "
            f"n_groups={self.n_groups}, total={self.total:g})"
        )

    # ------------------------------------------------------------------
    # Derived aggregates
    # ------------------------------------------------------------------
    def covers(self, attributes: Iterable[str]) -> bool:
        """Whether every attribute in ``attributes`` is grouped by this aggregate."""
        return set(attributes) <= set(self._attributes)

    def probabilities(self) -> dict[tuple[Any, ...], float]:
        """Group counts normalized into a probability distribution."""
        total = self.total
        if total <= 0:
            raise AggregateError("cannot normalize an aggregate with zero total count")
        return {key: count / total for key, count in self._groups.items()}

    def marginalize(self, attributes: Sequence[str]) -> "AggregateQuery":
        """Sum out every grouping attribute not listed in ``attributes``.

        The retained attributes keep the order given by ``attributes`` and
        must all be grouping attributes of this aggregate.
        """
        attributes = tuple(attributes)
        missing = [name for name in attributes if name not in self._attributes]
        if missing:
            raise AggregateError(
                f"cannot marginalize to attributes not in the aggregate: {missing}"
            )
        positions = [self._attributes.index(name) for name in attributes]
        groups: dict[tuple[Any, ...], float] = {}
        for values, count in self._groups.items():
            key = tuple(values[position] for position in positions)
            groups[key] = groups.get(key, 0.0) + count
        return AggregateQuery(attributes, groups)

    def perturbed(self, noise_scale: float, rng: np.random.Generator) -> "AggregateQuery":
        """A noisy copy of this aggregate (counts + Laplace noise, clipped at zero).

        The paper notes population reports may be perturbed, e.g. for
        differential privacy; Themis still treats them as constraints.
        """
        if noise_scale < 0:
            raise AggregateError("noise_scale must be non-negative")
        groups = {}
        for key, count in self._groups.items():
            noisy = count + float(rng.laplace(0.0, noise_scale)) if noise_scale else count
            groups[key] = max(noisy, 0.0)
        return AggregateQuery(self._attributes, groups)


class AggregateSet:
    """The collection ``Γ`` of population aggregates given to Themis."""

    __slots__ = ("_aggregates",)

    def __init__(self, aggregates: Iterable[AggregateQuery] = ()):
        self._aggregates: list[AggregateQuery] = []
        for aggregate in aggregates:
            self.add(aggregate)

    def add(self, aggregate: AggregateQuery) -> None:
        """Append one aggregate query result to the set."""
        if not isinstance(aggregate, AggregateQuery):
            raise AggregateError(
                f"expected AggregateQuery, got {type(aggregate).__name__}"
            )
        self._aggregates.append(aggregate)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __iter__(self):
        return iter(self._aggregates)

    def __len__(self) -> int:
        return len(self._aggregates)

    def __getitem__(self, index: int) -> AggregateQuery:
        return self._aggregates[index]

    def __repr__(self) -> str:
        dims = [aggregate.dimension for aggregate in self._aggregates]
        return f"AggregateSet(n_aggregates={len(self)}, dimensions={dims})"

    # ------------------------------------------------------------------
    # Queries over the set
    # ------------------------------------------------------------------
    @property
    def aggregates(self) -> list[AggregateQuery]:
        """The aggregates, in insertion order."""
        return list(self._aggregates)

    def covered_attributes(self) -> set[str]:
        """Union of all grouping attributes across the set."""
        covered: set[str] = set()
        for aggregate in self._aggregates:
            covered.update(aggregate.attributes)
        return covered

    def n_constraints(self) -> int:
        """Total number of groups across all aggregates (``sum_i M_i``)."""
        return sum(aggregate.n_groups for aggregate in self._aggregates)

    def of_dimension(self, dimension: int) -> "AggregateSet":
        """The subset of aggregates with the given dimension."""
        return AggregateSet(
            aggregate
            for aggregate in self._aggregates
            if aggregate.dimension == dimension
        )

    def covering(self, attributes: Iterable[str]) -> list[AggregateQuery]:
        """All aggregates whose grouping attributes cover ``attributes``."""
        attributes = set(attributes)
        return [
            aggregate
            for aggregate in self._aggregates
            if attributes <= set(aggregate.attributes)
        ]

    def best_covering(self, attributes: Iterable[str]) -> AggregateQuery | None:
        """The lowest-dimensional aggregate covering ``attributes`` (or ``None``)."""
        candidates = self.covering(attributes)
        if not candidates:
            return None
        return min(candidates, key=lambda aggregate: aggregate.dimension)

    def exact(self, attributes: Sequence[str]) -> AggregateQuery | None:
        """The aggregate grouping by exactly ``attributes`` as a set (or ``None``)."""
        wanted = set(attributes)
        for aggregate in self._aggregates:
            if set(aggregate.attributes) == wanted:
                return aggregate
        return None

    def population_size(self) -> float | None:
        """Estimated population size ``n`` (max total over aggregates), if any."""
        if not self._aggregates:
            return None
        return max(aggregate.total for aggregate in self._aggregates)

    def restrict(self, attribute_sets: Iterable[Iterable[str]]) -> "AggregateSet":
        """Keep only aggregates whose grouped attributes match one of the given sets."""
        wanted = [frozenset(attributes) for attributes in attribute_sets]
        kept = [
            aggregate
            for aggregate in self._aggregates
            if frozenset(aggregate.attributes) in wanted
        ]
        return AggregateSet(kept)

    def union(self, other: "AggregateSet") -> "AggregateSet":
        """Concatenate two aggregate sets."""
        return AggregateSet(list(self._aggregates) + list(other.aggregates))


def aggregates_from_population(
    population: Relation,
    attribute_sets: Iterable[Sequence[str]],
) -> AggregateSet:
    """Compute ground-truth aggregates over a population for many attribute sets."""
    return AggregateSet(
        AggregateQuery.from_relation(population, attributes)
        for attributes in attribute_sets
    )
