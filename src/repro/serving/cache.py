"""Two-tier serving caches: LRU result/plan caches and a shared inference cache.

Tier one is two :class:`~repro.lru.LRUCache` instances: the result cache maps
canonical plan keys to final query answers, and the plan cache maps raw SQL
text to its routed :class:`~repro.plan.LogicalPlan` (parsing and
bucketizing are cheap but not free at serving rates).  Tier two is
:class:`InferenceCache`, shared by *all* queries of one session: it fronts
the Bayesian network's batched inference engine (per-signature eliminated
factors, so a whole batch of point queries pays one variable-elimination
pass per evidence-variable set) and owns the warm-up of the network's
forward-sampled relations — repeated BN work is paid once per fitted model
rather than once per query.

The factors and samples belong to the fitted model, so they are never
invalidated: when ``Themis.refit()`` (or any ingestion call) swaps in a new
model, :class:`~repro.serving.session.ServingSession` drops its result
cache and fronts the new model's engine with a new :class:`InferenceCache`,
carrying only the session's hit/miss counters over.  Its plan cache is
kept unless the new model was fitted over a different sample: a routed
plan depends on the sample alone.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..core.evaluators import BayesNetEvaluator
from ..lru import CacheStatistics, LRUCache
from ..obs.trace import NULL_TRACER
from ..schema import Relation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..bayesnet import BatchedInference

#: The tier-one caches are plain LRUs: plan key -> answer, SQL text -> plan.
ResultCache = PlanCache = LRUCache


@dataclass
class InferenceCache:
    """Tier-two cache: BN inference state shared across all queries.

    The executor's hot path uses two pieces: the accounting of
    per-signature eliminated factors behind exact-inference answers
    (:meth:`observed`, wrapped around the evaluator's ``run`` / ``execute``)
    and the warm-up of the evaluator's ``K`` forward-sampled relations
    (:meth:`warm_samples`), so a whole batch pays each elimination pass and
    the sample materialization exactly once.

    Point answers are *not* memoized per assignment (the tier-one result
    cache already does that, keyed by canonical plan); what this tier holds
    is the expensive intermediate — the joint factor over each queried
    evidence-variable set, cached inside the evaluator's
    :class:`~repro.bayesnet.BatchedInference` engine keyed by kept-variable
    set.  A point query whose signature
    factor is already cached counts as a hit; one that pays a fresh variable
    elimination pass counts as a miss.

    The factor cache deliberately lives on the *model's* engine, not on this
    object: ``Themis.point()`` and every serving session over one fitted
    model share a single cache, which is what makes the per-query and
    batched paths one (bit-identical) code path.  Consequently
    :meth:`describe`'s engine counters are engine-lifetime totals, while
    :attr:`statistics` only counts lookups made through *this* cache.
    """

    evaluator: BayesNetEvaluator
    statistics: CacheStatistics = field(default_factory=CacheStatistics)

    @property
    def engine(self) -> "BatchedInference":
        """The shared batched-inference engine holding the factor cache."""
        return self.evaluator.inference.batched

    @contextmanager
    def observed(self, tracer=NULL_TRACER) -> Iterator[dict[str, int]]:
        """Account one stretch of network work to this cache.

        Wrap any call into the evaluator (``run``, ``execute``): the
        factor-cache hits and misses the shared engine observes inside the
        block are folded into :attr:`statistics`, and an enabled ``tracer``
        receives every paid elimination pass as a span.  Yields a dict that
        is filled on exit with the block's ``elimination_passes``,
        ``factor_cache_hits`` and ``factor_cache_misses``.
        """
        engine = self.engine
        before = (
            engine.elimination_passes,
            engine.factor_cache_hits,
            engine.factor_cache_misses,
        )
        work: dict[str, int] = {}
        if tracer.enabled:
            engine.tracer = tracer
        try:
            yield work
        finally:
            engine.tracer = NULL_TRACER
            work["elimination_passes"] = engine.elimination_passes - before[0]
            work["factor_cache_hits"] = engine.factor_cache_hits - before[1]
            work["factor_cache_misses"] = engine.factor_cache_misses - before[2]
            self.statistics.hits += work["factor_cache_hits"]
            self.statistics.misses += work["factor_cache_misses"]

    @property
    def samples_warm(self) -> bool:
        """Whether the generated samples have been materialized."""
        return self.evaluator.has_generated_samples

    def warm_samples(self) -> list[Relation]:
        """Materialize (once) and return the BN's generated samples."""
        if self.samples_warm:
            self.statistics.hits += 1
        else:
            self.statistics.misses += 1
        return self.evaluator.generated_samples()

    def entries(self) -> dict[str, int | bool]:
        """Size-in-items snapshot of every memoized tier (non-mutating).

        ``factors`` counts the engine's cached eliminated factors and
        ``samples_warm`` says whether the ``K`` generated relations are
        materialized — cache growth made observable without touching hit/miss
        statistics or any LRU order.
        """
        return {
            "factors": self.engine.cached_factor_count,
            "samples_warm": self.samples_warm,
        }

    def describe(self) -> dict[str, Any]:
        """Hit/miss counters plus the engine's amortization counters; the
        evictions are the engine factor cache's (capacity and governor)."""
        return {
            **self.statistics.as_dict(),
            **self.engine.statistics(),
            "evictions": self.engine.factors.statistics.evictions,
        }
