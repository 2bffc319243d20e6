"""Exact inference by variable elimination.

Themis answers point queries over tuples missing from the sample by computing
``n * Pr(X_1 = x_1, ..., X_d = x_d)`` from the learned Bayesian network
(Sec. 4.2.4).  The paper's prototype used gRain for exact inference; this
module implements variable elimination from scratch over the CPT factors.

Point-query answering delegates to :class:`~repro.bayesnet.batched.
BatchedInference` with batch size 1, so the per-query and batched paths are
one code path: both run the same elimination per evidence signature (cached
across calls) and the same vectorized factor lookup, making batched answers
bit-identical to single-query answers by construction.  The batched engine
eliminates through an :class:`ExactInference` of its own, so the two engines
never point at each other and a dropped model is freed by reference
counting alone.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from ..exceptions import BayesNetError
from .factor import Factor, multiply_all
from .network import BayesianNetwork

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .batched import BatchedInference


class ExactInference:
    """Variable-elimination inference over a :class:`BayesianNetwork`.

    Parameters
    ----------
    network:
        The network to infer over.
    """

    def __init__(self, network: BayesianNetwork):
        self._network = network
        self._batched: "BatchedInference | None" = None

    @property
    def network(self) -> BayesianNetwork:
        """The network this engine infers over."""
        return self._network

    @property
    def batched(self) -> "BatchedInference":
        """The batched engine point queries delegate to.

        Built lazily over the same network; :meth:`probability` is served
        through it so repeated queries with the same evidence signature reuse
        one eliminated factor.
        """
        if self._batched is None:
            from .batched import BatchedInference

            self._batched = BatchedInference(self._network)
        return self._batched

    # ------------------------------------------------------------------
    # Public queries
    # ------------------------------------------------------------------
    def probability(self, assignment: Mapping[str, Any]) -> float:
        """Probability of a partial assignment ``Pr(X_J = a_J)``.

        Values outside an attribute's modelled active domain yield 0.0;
        attributes missing from the schema raise
        :class:`~repro.exceptions.BayesNetError`.  This is the batch-size-1
        case of :meth:`BatchedInference.probability_batch`, so it benefits
        from (and fills) the shared per-signature factor cache.
        """
        return float(self.batched.probability_batch([assignment])[0])

    def marginal(self, node: str) -> np.ndarray:
        """Exact marginal distribution vector of one node.

        Served from the batched engine's per-signature factor cache, so
        repeated marginals of one node eliminate once per engine.
        """
        factor = self.batched.eliminated_factor((node,))
        table = factor.table if factor.attributes == (node,) else np.atleast_1d(
            factor.table
        )
        total = table.sum()
        if total <= 0:
            size = self._network.schema[node].size
            return np.full(size, 1.0 / size)
        return table / total

    def joint_marginal(self, nodes: Sequence[str]) -> Factor:
        """Joint marginal factor over several nodes (normalized, cached)."""
        nodes = tuple(nodes)
        factor = self.batched.eliminated_factor(nodes)
        # Reorder axes to match the requested node order.
        if factor.attributes != nodes and factor.attributes:
            order = [factor.attributes.index(node) for node in nodes]
            factor = Factor(nodes, np.transpose(factor.table, order))
        return factor.normalize()

    def conditional(
        self, target: str, evidence: Mapping[str, Any]
    ) -> np.ndarray:
        """Conditional distribution ``Pr(target | evidence)`` as a vector.

        Batch-size-1 case of :meth:`BatchedInference.conditional_batch`, so
        conditionals sharing a (target, evidence-variable) signature reuse
        one cached eliminated factor instead of paying a fresh variable
        elimination pass each — the answers are bit-identical either way.
        """
        return self.batched.conditional_batch([(target, dict(evidence))])[0]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _encode(self, assignment: Mapping[str, Any]) -> dict[str, int]:
        """Map values to domain codes; -1 marks out-of-active-domain values.

        Unknown attributes raise :class:`~repro.exceptions.BayesNetError`.
        """
        encoded: dict[str, int] = {}
        for name, value in assignment.items():
            if name not in self._network.schema:
                raise BayesNetError(f"unknown attribute {name!r} in query")
            code = self._network.schema[name].domain.code_of(value)
            if code is None:
                # A value outside the modelled active domain has probability
                # zero under the network; signal it with a sentinel.
                encoded[name] = -1
            else:
                encoded[name] = code
        return encoded

    def eliminate(self, keep: Sequence[str]) -> Factor:
        """Sum out every node not in ``keep`` using a min-degree-style ordering.

        The result is the unnormalized joint factor over exactly the ``keep``
        variables.  Both the greedy elimination order and the resulting
        factor depend only on the *set* of kept variables, which is what lets
        :class:`~repro.bayesnet.batched.BatchedInference` cache results per
        kept-variable set.  This runs a fresh elimination pass every call;
        use ``batched.eliminated_factor()`` for the cached variant.
        """
        keep_set = set(keep)
        factors = [cpt.to_factor() for cpt in self._network.cpts().values()]
        # Only nodes that are relevant (ancestors of kept nodes) need to be
        # considered; the rest marginalize to one by CPT normalization, so we
        # can drop their factors when they are not connected to kept nodes.
        relevant = set(keep_set)
        for node in keep_set:
            if node in self._network.schema:
                relevant.update(self._network.graph.ancestors(node))
        factors = [
            factor
            for factor in factors
            if factor.attributes and factor.attributes[-1] in relevant
        ]
        if not factors:
            return Factor.constant(1.0)
        to_eliminate = [
            node
            for node in self._network.topological_order()
            if node in relevant and node not in keep_set
        ]
        # Eliminate in a greedy smallest-intermediate-factor order.
        remaining = list(to_eliminate)
        while remaining:
            best_node = min(
                remaining, key=lambda node: self._elimination_cost(node, factors)
            )
            remaining.remove(best_node)
            involved = [f for f in factors if best_node in f.attributes]
            untouched = [f for f in factors if best_node not in f.attributes]
            if not involved:
                continue
            product = multiply_all(involved)
            factors = untouched + [product.marginalize([best_node])]
        result = multiply_all(factors)
        return result

    @staticmethod
    def _elimination_cost(node: str, factors: list[Factor]) -> int:
        """Size of the intermediate factor created by eliminating ``node``."""
        attributes: set[str] = set()
        sizes: dict[str, int] = {}
        for factor in factors:
            if node in factor.attributes:
                for axis, attribute in enumerate(factor.attributes):
                    attributes.add(attribute)
                    sizes[attribute] = factor.table.shape[axis]
        attributes.discard(node)
        cost = 1
        for attribute in attributes:
            cost *= sizes.get(attribute, 1)
        return cost

    # ------------------------------------------------------------------
    # Handling values outside the modelled domain
    # ------------------------------------------------------------------
    def probability_or_zero(self, assignment: Mapping[str, Any]) -> float:
        """Like :meth:`probability` but unknown attributes also yield 0.0.

        (Out-of-active-domain *values* of known attributes already yield 0.0
        from :meth:`probability`; this additionally absorbs attributes the
        schema has never seen.)  Batch-size-1 case of
        :meth:`BatchedInference.probability_or_zero_batch`.
        """
        return float(self.batched.probability_or_zero_batch([assignment])[0])
