"""Two-tier serving caches: LRU result/plan caches and a shared inference cache.

Tier one is :class:`ResultCache`, an LRU map from canonical plan keys to final
query answers, plus :class:`PlanCache`, an LRU map from raw SQL text to its
:class:`~repro.serving.planner.QueryPlan` (parsing and bucketizing are cheap
but not free at serving rates).  Tier two is :class:`InferenceCache`, shared
by *all* queries of one session: it fronts the Bayesian network's batched
inference engine (per-signature eliminated factors, so a whole batch of
point queries pays one variable-elimination pass per evidence-variable set)
and owns the warm-up of the network's forward-sampled relations — repeated BN work is paid once per fitted model
rather than once per query.

Every cache is tagged with the generation of the model it was built against;
:class:`~repro.serving.session.ServingSession` drops all tiers whenever
``Themis.refit()`` (or any ingestion call) bumps the generation.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..core.evaluators import BayesNetEvaluator
from ..obs.trace import NULL_TRACER
from ..schema import Relation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..bayesnet import BatchedInference

#: Sentinel distinguishing "missing" from a cached ``None``/0.0 value.
_MISSING = object()


@dataclass
class CacheStatistics:
    """Hit/miss/eviction counters of one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total number of lookups (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        """A plain-dict snapshot (for reports and session statistics)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def snapshot(self) -> "CacheStatistics":
        """An immutable-by-convention copy of the counters as of now.

        The baseline half of per-window reporting: take a snapshot, serve a
        window of traffic, then :meth:`since` the snapshot to get the
        window's own hit rate (lifetime counters are never disturbed).
        """
        return CacheStatistics(
            hits=self.hits, misses=self.misses, evictions=self.evictions
        )

    def since(self, baseline: "CacheStatistics") -> "CacheStatistics":
        """Counters accumulated after ``baseline`` was snapshotted."""
        return CacheStatistics(
            hits=self.hits - baseline.hits,
            misses=self.misses - baseline.misses,
            evictions=self.evictions - baseline.evictions,
        )

    def reset(self) -> None:
        """Zero the counters (cached entries, wherever they live, are kept)."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class LRUCache:
    """A small least-recently-used cache with hit/miss and byte accounting.

    When a ``governor`` (:class:`~repro.serving.governance.MemoryGovernor`)
    is attached, every stored value is measured (:func:`~repro.serving
    .governance.measured_bytes`) at insertion and offered to
    ``governor.admit(nbytes)`` first — a rejected admission simply skips
    caching (the value was already computed; only the memo is shed).
    Without a governor nobody reads the byte size, so nothing is measured:
    the recursive walk costs more than the lookup it accounts for.
    """

    def __init__(self, capacity: int = 256):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = int(capacity)
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._sizes: dict[Hashable, int] = {}
        self._bytes = 0
        self.governor: Any | None = None
        self.statistics = CacheStatistics()

    @property
    def byte_size(self) -> int:
        """Measured bytes of every value stored under a governor (an RSS
        proxy, not exact); entries inserted while no governor was attached
        count as 0."""
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return self.peek(key, _MISSING) is not _MISSING

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Non-mutating, stat-free probe: the cached value, or ``default``.

        Unlike :meth:`get`, peeking neither promotes the entry in the
        recency order nor counts a hit/miss — it is how the executor and the
        batch optimizer inspect the cache without perturbing eviction
        behaviour or hit-rate statistics.
        """
        value = self._entries.get(key, _MISSING)
        return default if value is _MISSING else value

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Fetch ``key``, marking it most recently used."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self.statistics.misses += 1
            return default
        self._entries.move_to_end(key)
        self.statistics.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key``, evicting the least recently used entry if full.

        With a governor attached, the measured entry is first offered for
        admission; a refusal skips the insert (and drops any stale value
        already stored under the key, so a rejected overwrite cannot leave
        an outdated memo behind).
        """
        nbytes = 0
        if self.governor is not None:
            from .governance import measured_bytes

            nbytes = measured_bytes(value)
            if not self.governor.admit(nbytes):
                self._drop(key)
                return
        if key in self._entries:
            self._drop(key)
        self._entries[key] = value
        self._sizes[key] = nbytes
        self._bytes += nbytes
        if len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self._bytes -= self._sizes.pop(evicted, 0)
            self.statistics.evictions += 1

    def _drop(self, key: Hashable) -> None:
        if key in self._entries:
            del self._entries[key]
            self._bytes -= self._sizes.pop(key, 0)

    def evict_entries(self, n: int) -> int:
        """Evict up to ``n`` least-recently-used entries; bytes freed."""
        freed = 0
        for _ in range(min(n, len(self._entries))):
            key, _ = self._entries.popitem(last=False)
            freed += self._sizes.pop(key, 0)
            self.statistics.evictions += 1
        self._bytes -= freed
        return freed

    def keys(self) -> list[Hashable]:
        """Keys from least to most recently used."""
        return list(self._entries)

    def entries(self) -> list[tuple[Hashable, Any]]:
        """A ``(key, value)`` snapshot, least to most recently used.

        Non-mutating and stat-free, like :meth:`peek` — the observability
        probe serving statistics use to watch cache growth without
        perturbing eviction order or hit rates.
        """
        return list(self._entries.items())

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        self._entries.clear()
        self._sizes.clear()
        self._bytes = 0


class ResultCache:
    """Tier-one cache: canonical plan key -> final query answer."""

    def __init__(self, capacity: int = 256, generation: int = 0):
        self._cache = LRUCache(capacity)
        self.generation = generation

    @property
    def statistics(self) -> CacheStatistics:
        """Hit/miss counters of the underlying LRU."""
        return self._cache.statistics

    @property
    def byte_size(self) -> int:
        """Measured bytes of every cached answer."""
        return self._cache.byte_size

    @property
    def governor(self) -> Any | None:
        return self._cache.governor

    @governor.setter
    def governor(self, governor: Any | None) -> None:
        self._cache.governor = governor

    def evict_entries(self, n: int) -> int:
        """Evict up to ``n`` cold answers (LRU order); bytes freed."""
        return self._cache.evict_entries(n)

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, key: Hashable) -> bool:
        """Whether a plan key is cached, without touching hit/miss counters."""
        return key in self._cache

    def peek(self, key: Hashable) -> Any:
        """The cached answer without touching recency order or statistics.

        The batch executor uses this to decide which plans still need
        execution (batched BN dispatch, the columnar batch schedule); the
        counted :meth:`lookup` happens later — in ``execute_plan`` for
        cached plans, or explicitly in the batched dispatch branches for the
        misses they answer — so hit/miss statistics and eviction order match
        per-plan execution exactly.
        """
        return self._cache.peek(key)

    def entries(self) -> list[tuple[Hashable, Any]]:
        """A stat-free ``(plan key, answer)`` snapshot in LRU order.

        Extends :meth:`peek` from single probes to the whole cache: serving
        statistics read the size-in-items (and, in tests, the contents)
        without promoting entries or counting lookups.
        """
        return self._cache.entries()

    def lookup(self, key: Hashable) -> Any:
        """The cached answer for a plan key, or ``None`` on a miss."""
        value = self._cache.get(key, _MISSING)
        return None if value is _MISSING else value

    def store(self, key: Hashable, value: Any) -> None:
        """Cache the answer of one plan."""
        self._cache.put(key, value)

    def invalidate(self, generation: int | None = None) -> None:
        """Drop everything (called when the model generation changes)."""
        self._cache.clear()
        if generation is not None:
            self.generation = generation


class PlanCache:
    """LRU map from raw SQL text to its planned form."""

    def __init__(self, capacity: int = 512):
        self._cache = LRUCache(capacity)

    @property
    def statistics(self) -> CacheStatistics:
        """Hit/miss counters of the underlying LRU."""
        return self._cache.statistics

    def __len__(self) -> int:
        return len(self._cache)

    def get(self, sql: str) -> Any:
        """The cached plan for a SQL string, or ``None``."""
        return self._cache.get(sql)

    def put(self, sql: str, plan: Any) -> None:
        """Cache the plan of one SQL string."""
        self._cache.put(sql, plan)

    def invalidate(self) -> None:
        """Drop every cached plan (routes are model-dependent)."""
        self._cache.clear()


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
    :class:`~repro.bayesnet.BatchedInference` engine keyed by
    ``(generation, kept-variable set)``.  A point query whose signature
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
    generation: int = 0
    statistics: CacheStatistics = field(default_factory=CacheStatistics)
    _samples_warm: bool = field(init=False, default=False, repr=False)

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
    def byte_size(self) -> int:
        """Measured bytes of the engine's cached eliminated factors."""
        return self.engine.cached_factor_bytes

    def evict_entries(self, n: int) -> int:
        """Evict up to ``n`` cold eliminated factors; bytes freed."""
        before = self.engine.cached_factor_count
        freed = self.engine.evict_factors(n)
        self.statistics.evictions += before - self.engine.cached_factor_count
        return freed

    @property
    def samples_warm(self) -> bool:
        """Whether the generated samples have been materialized."""
        return self._samples_warm or self.evaluator.has_generated_samples

    def warm_samples(self) -> list[Relation]:
        """Materialize (once) and return the BN's generated samples."""
        if self.samples_warm:
            self.statistics.hits += 1
        else:
            self.statistics.misses += 1
        samples = self.evaluator.generated_samples()
        self._samples_warm = True
        return samples

    def invalidate(self, evaluator: BayesNetEvaluator, generation: int) -> None:
        """Rebind to a freshly fitted model, dropping all memoized state.

        The per-signature factor cache moves with the evaluator: the old
        engine's factors are dropped, and the new evaluator's engine is
        stamped with the new generation (its cache keys embed it, so factors
        from a previous fit can never answer a query against the new one).
        """
        old_engine = self.engine
        self.evaluator = evaluator
        self.generation = generation
        old_engine.invalidate(generation)
        self.engine.invalidate(generation)
        self._samples_warm = False

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
        """Hit/miss counters plus the engine's amortization counters."""
        return {**self.statistics.as_dict(), **self.engine.statistics()}
