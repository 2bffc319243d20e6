"""Conditional probability tables (CPTs).

A CPT parameterizes one factor ``Pr(X_i | Pa(X_i))`` of a Bayesian network.
It is stored as a dense array of shape ``(prod of parent domain sizes,
child domain size)`` with one row per parent configuration; parent
configurations are enumerated in row-major (C) order over the parent codes.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from ..aggregates import AggregateQuery
from ..exceptions import BayesNetError
from ..schema import Relation, Schema
from .factor import Factor


class ConditionalProbabilityTable:
    """``Pr(child | parents)`` as a row-stochastic table.

    Parameters
    ----------
    child:
        The child attribute name.
    parents:
        Parent attribute names (possibly empty), in a fixed order.
    child_size:
        Domain size of the child.
    parent_sizes:
        Domain sizes of the parents, aligned with ``parents``.
    table:
        Optional initial table of shape ``(n_parent_configs, child_size)``;
        defaults to the uniform distribution.
    """

    __slots__ = ("child", "parents", "child_size", "parent_sizes", "table")

    def __init__(
        self,
        child: str,
        parents: Sequence[str],
        child_size: int,
        parent_sizes: Sequence[int],
        table: np.ndarray | None = None,
    ):
        parents = tuple(parents)
        parent_sizes = tuple(int(size) for size in parent_sizes)
        if len(parents) != len(parent_sizes):
            raise BayesNetError("parents and parent_sizes must have the same length")
        if child_size < 1 or any(size < 1 for size in parent_sizes):
            raise BayesNetError("domain sizes must be positive")
        self.child = child
        self.parents = parents
        self.child_size = int(child_size)
        self.parent_sizes = parent_sizes
        n_configs = int(np.prod(parent_sizes)) if parents else 1
        if table is None:
            table = np.full((n_configs, self.child_size), 1.0 / self.child_size)
        else:
            table = np.asarray(table, dtype=float)
            if table.shape != (n_configs, self.child_size):
                raise BayesNetError(
                    f"CPT for {child!r} must have shape {(n_configs, self.child_size)},"
                    f" got {table.shape}"
                )
            if np.any(table < 0):
                raise BayesNetError("CPT entries must be non-negative")
        self.table = table

    # ------------------------------------------------------------------
    # Parent configuration indexing
    # ------------------------------------------------------------------
    @property
    def n_parent_configs(self) -> int:
        """Number of parent configurations (rows)."""
        return self.table.shape[0]

    @property
    def n_parameters(self) -> int:
        """Number of free parameters (used by the BIC penalty)."""
        return self.n_parent_configs * (self.child_size - 1)

    def config_index(self, parent_codes: Sequence[int] | Mapping[str, int]) -> int:
        """Row index of a parent configuration.

        ``parent_codes`` is either a sequence aligned with ``self.parents`` or
        a mapping from parent name to code.
        """
        if not self.parents:
            return 0
        if isinstance(parent_codes, Mapping):
            codes = [int(parent_codes[name]) for name in self.parents]
        else:
            codes = [int(code) for code in parent_codes]
            if len(codes) != len(self.parents):
                raise BayesNetError(
                    f"expected {len(self.parents)} parent codes, got {len(codes)}"
                )
        index = 0
        for code, size in zip(codes, self.parent_sizes):
            if not 0 <= code < size:
                raise BayesNetError(f"parent code {code} out of range (size {size})")
            index = index * size + code
        return index

    def config_codes(self, index: int) -> tuple[int, ...]:
        """Inverse of :meth:`config_index`."""
        if not self.parents:
            return ()
        codes = []
        for size in reversed(self.parent_sizes):
            codes.append(index % size)
            index //= size
        return tuple(reversed(codes))

    # ------------------------------------------------------------------
    # Probabilities
    # ------------------------------------------------------------------
    def probability(
        self, child_code: int, parent_codes: Sequence[int] | Mapping[str, int] = ()
    ) -> float:
        """``Pr(child = child_code | parents = parent_codes)``."""
        row = self.table[self.config_index(parent_codes)]
        if not 0 <= child_code < self.child_size:
            raise BayesNetError(
                f"child code {child_code} out of range (size {self.child_size})"
            )
        return float(row[child_code])

    def distribution(
        self, parent_codes: Sequence[int] | Mapping[str, int] = ()
    ) -> np.ndarray:
        """The conditional distribution row for one parent configuration."""
        return self.table[self.config_index(parent_codes)].copy()

    def set_distribution(
        self,
        parent_codes: Sequence[int] | Mapping[str, int],
        probabilities: Sequence[float],
    ) -> None:
        """Overwrite one row with a new (non-negative, normalized) distribution."""
        probabilities = np.asarray(probabilities, dtype=float)
        if probabilities.shape != (self.child_size,):
            raise BayesNetError(
                f"distribution must have length {self.child_size}, "
                f"got {probabilities.shape}"
            )
        if np.any(probabilities < 0):
            raise BayesNetError("probabilities must be non-negative")
        total = probabilities.sum()
        if total <= 0:
            raise BayesNetError("distribution must have positive mass")
        self.table[self.config_index(parent_codes)] = probabilities / total

    def normalize(self) -> None:
        """Normalize every row; all-zero rows become uniform."""
        self.table[...] = normalize_rows(self.table)

    def is_normalized(self, atol: float = 1e-6) -> bool:
        """Whether every row sums to one within tolerance."""
        return bool(np.allclose(self.table.sum(axis=1), 1.0, atol=atol))

    # ------------------------------------------------------------------
    # Learning and conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_counts(
        cls,
        child: str,
        parents: Sequence[str],
        child_size: int,
        parent_sizes: Sequence[int],
        counts: np.ndarray,
        smoothing: float = 0.0,
    ) -> "ConditionalProbabilityTable":
        """Maximum-likelihood CPT from a joint count table.

        ``counts`` has shape ``(n_parent_configs, child_size)``.  Rows with no
        mass become uniform.  ``smoothing`` adds a Dirichlet pseudo-count to
        every cell before normalizing.
        """
        counts = np.asarray(counts, dtype=float) + float(smoothing)
        cpt = cls(child, parents, child_size, parent_sizes, table=None)
        if counts.shape != cpt.table.shape:
            raise BayesNetError(
                f"counts must have shape {cpt.table.shape}, got {counts.shape}"
            )
        cpt.table = counts
        cpt.normalize()
        return cpt

    @classmethod
    def counts_from_relation(
        cls,
        relation: Relation,
        child: str,
        parents: Sequence[str],
        weighted: bool = True,
    ) -> np.ndarray:
        """(Weighted) joint counts of ``(parents, child)`` from a relation."""
        schema = relation.schema
        child_size = schema[child].size
        parent_sizes = [schema[name].size for name in parents]
        n_configs = int(np.prod(parent_sizes)) if parents else 1
        counts = np.zeros((n_configs, child_size), dtype=float)
        if relation.n_rows == 0:
            return counts
        child_codes = relation.column(child)
        weights = relation.weights if weighted else np.ones(relation.n_rows)
        if parents:
            config = np.zeros(relation.n_rows, dtype=np.int64)
            for name, size in zip(parents, parent_sizes):
                config = config * size + relation.column(name)
        else:
            config = np.zeros(relation.n_rows, dtype=np.int64)
        flat = config * child_size + child_codes
        totals = np.bincount(flat, weights=weights, minlength=n_configs * child_size)
        return totals.reshape(n_configs, child_size)

    @classmethod
    def counts_from_aggregate(
        cls,
        aggregate: AggregateQuery,
        schema: Schema,
        child: str,
        parents: Sequence[str],
    ) -> np.ndarray:
        """Joint counts of ``(parents, child)`` from an aggregate covering them.

        The aggregate is marginalized onto the family: its groups are
        scattered onto their family cells straight from its (memoized)
        codes, adding up in group order as
        :meth:`AggregateQuery.marginalize` would.  Groups with a family value
        outside the schema's domains are dropped.
        """
        family = [*parents, child]
        positions = [aggregate.attributes.index(name) for name in family]
        codes = aggregate.encode(schema)[:, positions]
        known = (codes >= 0).all(axis=1)
        sizes = [schema[name].size for name in family]
        totals = np.bincount(
            np.ravel_multi_index(tuple(codes[known].T), sizes),
            weights=aggregate.counts()[known],
            minlength=int(np.prod(sizes)),
        )
        return totals.reshape(-1, sizes[-1])

    def to_factor(self) -> Factor:
        """Convert to a :class:`Factor` over ``parents + (child,)``."""
        shape = tuple(self.parent_sizes) + (self.child_size,)
        table = self.table.reshape(shape)
        return Factor(tuple(self.parents) + (self.child,), table)

    def copy(self) -> "ConditionalProbabilityTable":
        """A deep copy of the CPT."""
        return ConditionalProbabilityTable(
            self.child,
            self.parents,
            self.child_size,
            self.parent_sizes,
            table=self.table.copy(),
        )

    def __repr__(self) -> str:
        return (
            f"ConditionalProbabilityTable(child={self.child!r}, "
            f"parents={self.parents!r}, shape={self.table.shape})"
        )


def normalize_rows(table: np.ndarray, fallback: np.ndarray | None = None) -> np.ndarray:
    """Row-normalized copy of ``table``.

    Rows without mass are taken from ``fallback`` (uniform by default).
    """
    totals = table.sum(axis=1, keepdims=True)
    empty = totals <= 0
    if fallback is None:
        fallback = 1.0 / table.shape[1]
    return np.where(empty, fallback, table / np.where(empty, 1.0, totals))


def cpt_for_schema(
    schema: Schema, child: str, parents: Sequence[str]
) -> ConditionalProbabilityTable:
    """A uniform CPT whose sizes are read off a schema."""
    return ConditionalProbabilityTable(
        child,
        parents,
        schema[child].size,
        [schema[name].size for name in parents],
    )
