"""Batched exact inference: one elimination pass per evidence signature.

Serving workloads ask many point queries against one fitted network, and most
of them share an *evidence signature* — the set of variables the query fixes.
Plain :class:`~repro.bayesnet.inference.ExactInference` pays a full variable
elimination pass per query; :class:`BatchedInference` pays one pass per
signature.  For each signature it eliminates every non-evidence variable once,
keeps the resulting joint factor over the evidence variables, and answers all
assignments with that signature by a single vectorized numpy gather into the
factor's table.  Eliminated factors are cached across batches, keyed by
the kept-variable set, so warm batches skip elimination entirely.  An engine
belongs to one fitted network: a refit builds a new network, hence a new
engine with a cold cache, and nothing is ever invalidated in place.

The per-query and batched paths share one implementation:
``ExactInference.probability()`` delegates to this engine with batch size 1,
so batched answers are bit-identical to single-query answers by construction.
The engine eliminates through an unlinked :class:`ExactInference` of its own,
so no reference cycle keeps a dropped engine (or its factors) alive.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from ..exceptions import BayesNetError
from ..lru import LRUCache
from ..obs.trace import NULL_TRACER
from .factor import Factor
from .inference import ExactInference
from .network import BayesianNetwork

#: The evidence signature of an assignment: its variable names, sorted.
Signature = tuple[str, ...]

#: How many eliminated joint factors an engine keeps (LRU).  Factors are
#: small — their tables range only over the evidence variables' domains — so
#: this comfortably covers typical workload signature counts.
FACTOR_CACHE_CAPACITY = 128


def _factor_bytes(factor: Factor) -> int:
    return int(factor.table.nbytes) + 96


def signature_of(assignment: Mapping[str, Any]) -> Signature:
    """The evidence signature of an assignment (its variables, sorted).

    Two assignments with the same signature are answered from the same
    eliminated joint factor, so grouping a batch by signature is what lets
    one elimination pass serve many queries.

    >>> signature_of({"b": 1, "a": 0})
    ('a', 'b')
    """
    return tuple(sorted(assignment))


def group_by_signature(
    assignments: Sequence[Mapping[str, Any]],
) -> dict[Signature, list[int]]:
    """Group batch positions by evidence signature, preserving batch order.

    >>> group_by_signature([{"a": 0}, {"b": 1}, {"a": 2}])
    {('a',): [0, 2], ('b',): [1]}
    """
    groups: dict[Signature, list[int]] = {}
    for index, assignment in enumerate(assignments):
        groups.setdefault(signature_of(assignment), []).append(index)
    return groups


class BatchedInference:
    """Answer batches of point queries with shared elimination passes.

    Parameters
    ----------
    network:
        The Bayesian network to infer over.
    """

    def __init__(self, network: BayesianNetwork):
        self._network = network
        self._inference = ExactInference(network)
        #: Eliminated factors by kept-variable set.
        self.factors = LRUCache(FACTOR_CACHE_CAPACITY, size=_factor_bytes)
        # Counters: how much elimination work was paid vs. amortized.
        self.elimination_passes = 0
        self.batches = 0
        self.queries = 0
        # The serving layer points this at a live tracer while it dispatches,
        # so each paid elimination pass shows up as a span; NULL_TRACER
        # otherwise (a no-op).
        self.tracer = NULL_TRACER

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def network(self) -> BayesianNetwork:
        """The network the engine infers over."""
        return self._network

    @property
    def cached_factor_count(self) -> int:
        """How many eliminated joint factors are currently cached."""
        return len(self.factors)

    @property
    def factor_cache_hits(self) -> int:
        """Factor lookups answered without an elimination pass."""
        return self.factors.statistics.hits

    @property
    def factor_cache_misses(self) -> int:
        """Factor lookups that paid an elimination pass."""
        return self.factors.statistics.misses

    def statistics(self) -> dict[str, int]:
        """A plain-dict snapshot of the engine's amortization counters."""
        return {
            "batches": self.batches,
            "queries": self.queries,
            "elimination_passes": self.elimination_passes,
            "factor_cache_hits": self.factor_cache_hits,
            "factor_cache_misses": self.factor_cache_misses,
            "cached_factors": self.cached_factor_count,
        }

    def reset_statistics(self) -> None:
        """Zero the amortization counters without touching cached factors."""
        self.elimination_passes = 0
        self.factors.statistics.reset()
        self.batches = 0
        self.queries = 0

    # ------------------------------------------------------------------
    # The per-signature factor cache
    # ------------------------------------------------------------------
    def eliminated_factor(self, variables: Sequence[str]) -> Factor:
        """The joint factor over ``variables``, eliminating everything else.

        The factor is cached under ``frozenset(variables)``; elimination
        order is deterministic given the variable *set*, so any ordering of
        ``variables`` returns the identical cached factor.
        """
        key = frozenset(variables)
        factor = self.factors.get(key)
        if factor is None:
            self.elimination_passes += 1
            with self.tracer.span("bn-elimination", kept=",".join(sorted(variables))):
                factor = self._inference.eliminate(keep=tuple(variables))
            self.factors.put(key, factor)
        return factor

    # ------------------------------------------------------------------
    # Batched queries
    # ------------------------------------------------------------------
    def probability_batch(
        self,
        assignments: Sequence[Mapping[str, Any]],
        cancel: "Any | None" = None,
    ) -> np.ndarray:
        """``Pr(X_J = a_J)`` for every assignment, sharing elimination work.

        Assignments are grouped by :func:`signature_of`; each group pays (at
        most) one variable elimination pass, and every assignment in the
        group is answered by indexing the group's joint factor.  Results are
        bit-identical to calling
        :meth:`~repro.bayesnet.inference.ExactInference.probability` per
        assignment.  Raises :class:`~repro.exceptions.BayesNetError` on
        attributes unknown to the schema (like the single-query path);
        in-domain-attribute values *outside the modelled active domain*
        simply get probability 0.0.
        """
        self.batches += 1
        self.queries += len(assignments)
        results = np.zeros(len(assignments), dtype=float)
        if not assignments:
            return results
        # Encode every assignment first (raising on unknown attributes, like
        # the single-query path does).  Empty assignments have probability
        # one; assignments fixing a value outside the modelled active domain
        # have probability zero — neither needs an elimination pass.
        groups: dict[Signature, list[int]] = {}
        encoded: list[dict[str, int]] = []
        for index, assignment in enumerate(assignments):
            codes = self._encode(assignment)
            encoded.append(codes)
            if not codes:
                results[index] = 1.0
            elif all(code >= 0 for code in codes.values()):
                groups.setdefault(signature_of(codes), []).append(index)
        for signature, indices in groups.items():
            # Chunk-boundary cancellation poll: one elimination pass per
            # signature is the unit of work an expired deadline can skip.
            if cancel is not None:
                cancel.poll()
            factor = self.eliminated_factor(signature)
            results[indices] = self._restrict_many(
                factor, [encoded[index] for index in indices]
            )
        return results

    def conditional_batch(
        self, queries: Sequence[tuple[str, Mapping[str, Any]]]
    ) -> list[np.ndarray]:
        """``Pr(target | evidence)`` vectors, sharing eliminated factors.

        Queries are grouped by their kept-variable set (target plus evidence
        variables); each group reuses one cached eliminated factor, so a
        batch of conditionals over the same variables pays (at most) one
        variable-elimination pass.  Results are bit-identical to
        :meth:`~repro.bayesnet.inference.ExactInference.conditional` computed
        per query — the per-query path delegates here with batch size 1.
        """
        self.batches += 1
        self.queries += len(queries)
        results: list[np.ndarray | None] = [None] * len(queries)
        groups: dict[Signature, list[int]] = {}
        encoded: list[tuple[str, dict[str, int]]] = []
        for index, (target, evidence) in enumerate(queries):
            codes = self._encode(evidence)
            encoded.append((target, codes))
            kept = tuple(sorted({target, *codes}))
            groups.setdefault(kept, []).append(index)
        for kept, indices in groups.items():
            factor = self.eliminated_factor(kept)
            for index in indices:
                target, codes = encoded[index]
                restricted = factor.restrict(codes)
                if restricted.attributes != (target,):
                    raise BayesNetError(
                        "conditional query could not isolate the target node"
                    )
                table = restricted.table
                total = table.sum()
                if total <= 0:
                    size = self._network.schema[target].size
                    results[index] = np.full(size, 1.0 / size)
                else:
                    results[index] = table / total
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]  # every slot asserted filled

    def probability_or_zero_batch(
        self,
        assignments: Sequence[Mapping[str, Any]],
        cancel: "Any | None" = None,
    ) -> np.ndarray:
        """Like :meth:`probability_batch` but unknown attributes yield 0.0."""
        in_schema: list[Mapping[str, Any]] = []
        keep: list[int] = []
        for index, assignment in enumerate(assignments):
            if all(name in self._network.schema for name in assignment):
                in_schema.append(assignment)
                keep.append(index)
        results = np.zeros(len(assignments), dtype=float)
        if in_schema:
            results[keep] = self.probability_batch(in_schema, cancel=cancel)
        return results

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _encode(self, assignment: Mapping[str, Any]) -> dict[str, int]:
        """Encode values to domain codes (-1 marks out-of-domain values)."""
        return self._inference._encode(assignment)

    @staticmethod
    def _restrict_many(
        factor: Factor, encoded: Sequence[Mapping[str, int]]
    ) -> np.ndarray:
        """Evaluate one joint factor at many full assignments at once.

        This is the vectorized counterpart of ``factor.restrict(e).value()``:
        one fancy-indexing gather per factor axis instead of one Python-level
        restriction per assignment.
        """
        if factor.is_scalar:
            value = float(np.clip(factor.value(), 0.0, 1.0))
            return np.full(len(encoded), value)
        missing = [a for a in factor.attributes if a not in encoded[0]]
        if missing:
            raise BayesNetError(
                f"eliminated factor kept attributes {missing} absent from the "
                "evidence; this indicates an elimination bug"
            )
        indexer = tuple(
            np.fromiter(
                (e[attribute] for e in encoded), dtype=np.intp, count=len(encoded)
            )
            for attribute in factor.attributes
        )
        return np.clip(factor.table[indexer], 0.0, 1.0)
