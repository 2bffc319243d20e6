"""Serving sessions: a long-lived query interface over one Themis instance.

A :class:`ServingSession` owns the two cache tiers and the batch executor
for one :class:`~repro.core.themis.Themis` facade.  Each request reads the
facade's fitted model once, at entry, and is answered from that snapshot
alone.  When the facade holds a different model object than the one the
executor was built over (any ingestion call or ``refit()``), the session
rebuilds its executor over the new model and drops its result cache before
serving — a stale cache can never leak answers from a previous model.  The
session plans through the facade's routed-plan cache
(:class:`~repro.core.themis.SamplePlans`), which belongs to the loaded
sample, not to the model: a routed plan reads only the statement, the
schema and which sample rows satisfy its predicates, never the weights,
the aggregates or the network.  It survives a refit and an
``add_aggregate``, ``load_sample`` replaces it, and the facade and every
session over it share it.  The mask, join-side and factor caches belong to
the model, so they come and go with it.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from ..lru import CacheStatistics, LRUCache
from ..obs import names
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..query.ast import Query
from ..sql.engine import QueryResult
from .cache import InferenceCache
from .executor import BatchExecutor
from .governance import CancelToken, Deadline, MemoryGovernor, resolve_cancel_token
from .stats import BatchResult, QueryOutcome, ServingStatistics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.themis import Themis

#: Keys in cache-tier statistics that report *current sizes* rather than
#: monotone counters; window views keep them as-is instead of differencing.
_GAUGE_KEYS = frozenset(
    {
        "entries",
        "cached_masks",
        "cached_sides",
        "cached_factors",
        "factors",
        "samples_warm",
        "capacity",
    }
)


def _window_view(current: dict[str, Any], baseline: dict[str, Any]) -> dict[str, Any]:
    """Per-window cache statistics: counters differenced, sizes kept current."""
    view: dict[str, Any] = {}
    for key, value in current.items():
        if isinstance(value, dict):
            view[key] = _window_view(value, baseline.get(key, {}) if isinstance(baseline.get(key), dict) else {})
        elif key in _GAUGE_KEYS or isinstance(value, bool) or not isinstance(value, (int, float)):
            view[key] = value
        elif key == "hit_rate":
            view[key] = value  # recomputed below from the windowed hits/misses
        else:
            base = baseline.get(key, 0)
            view[key] = value - (base if isinstance(base, (int, float)) else 0)
    if "hit_rate" in view:
        hits = view.get("hits", 0)
        misses = view.get("misses", 0)
        total = hits + misses
        view["hit_rate"] = (hits / total) if total else 0.0
    return view


class ServingSession:
    """A caching, batching query-serving front-end for one Themis instance.

    Parameters
    ----------
    themis:
        The facade to serve from (fitted lazily on first query).
    result_cache_size:
        Capacity of the LRU result cache (plan-key -> answer).
    trace:
        When true, every served query and batch carries a structured span
        tree (``outcome.trace`` / ``batch.trace``) recording where its
        latency went — compile, cache probe, the evaluators' generated-sample
        passes and per-plan masks under execute — rendered by
        ``trace.render()`` and exportable as JSONL.  A fresh :class:`~repro.obs.Tracer` is built per call, so a
        long-lived tracing session never accumulates old trees.  Off by
        default: the untraced path runs against a shared no-op recorder
        whose overhead the ``obs`` benchmark bounds below 3%.
    memory_budget_bytes:
        When set, every cache tier (result, mask, join-side, inference
        factors) registers with a per-session
        :class:`~repro.serving.governance.MemoryGovernor` enforcing this
        global byte budget with pressure-tiered eviction (soft → evict
        cold entries by hit density, hard → reject admissions, critical →
        flush), sampled after every serve.  ``None`` (the default) leaves
        caches bounded only by their per-tier entry capacities.

    Every tier is a :class:`~repro.lru.LRUCache`.  The mask, join-side and
    eliminated-factor tiers belong to the fitted model and the plan cache to
    the loaded sample; each is shared by the facade and every session over
    it.
    """

    def __init__(
        self,
        themis: "Themis",
        result_cache_size: int = 256,
        trace: bool = False,
        memory_budget_bytes: int | None = None,
    ):
        self._themis = themis
        self._result_cache = LRUCache(result_cache_size)
        self._trace = bool(trace)
        self._inference_cache: InferenceCache | None = None
        self._executor: BatchExecutor | None = None
        self._cache_window: dict[str, Any] | None = None
        #: One registry per session: the executor folds executor/BN/stage
        #: counters into it, and ``statistics`` reads them back as views.
        self.metrics = MetricsRegistry()
        self.statistics = ServingStatistics(self.metrics)
        self.governor: MemoryGovernor | None = None
        if memory_budget_bytes is not None:
            self.governor = MemoryGovernor(memory_budget_bytes, metrics=self.metrics)

    # ------------------------------------------------------------------
    # The served model
    # ------------------------------------------------------------------
    @property
    def themis(self) -> "Themis":
        """The facade this session serves."""
        return self._themis

    @property
    def generation(self) -> int | None:
        """The id of the model the session serves (``None`` before first use)."""
        return None if self._executor is None else self._executor.model.generation

    def _ensure_current(self) -> BatchExecutor:
        """The executor over the facade's model, rebuilt when that changed.

        The facade's model is read exactly once, so the executor is always
        built over (and stamped by) one snapshot.
        """
        model = self._themis.model
        executor = self._executor
        if executor is not None and executor.model is model:
            return executor
        if executor is not None:
            self.statistics.record_invalidation()
        self._result_cache.clear()
        # The factors and samples are the model's; the hit/miss counters
        # are the session's and carry over.
        previous = self._inference_cache
        statistics = CacheStatistics() if previous is None else previous.statistics
        self._inference_cache = InferenceCache(model.bayes_net_evaluator, statistics)
        self._executor = BatchExecutor(
            model,
            self._result_cache,
            self._inference_cache,
            self._themis.sample_plans,
            metrics=self.metrics,
        )
        if self.governor is not None:
            # A new model brings its own mask / join-side / factor caches.
            self.governor.govern(self._governed_tiers())
        return self._executor

    def _governed_tiers(self) -> dict[str, LRUCache]:
        """Every cache tier but the plan cache, by governor name; the
        network stacks' tiers once built (:meth:`_maintain` governs them)."""
        tiers = {"result": self._result_cache}
        if self._executor is not None:
            model = self._executor.model
            executor = model.sample_evaluator.executor
            tiers["mask"] = executor.mask_cache.lru
            tiers["join_side"] = executor.join_side_cache
            tiers["inference"] = self._inference_cache.engine.factors
            network = model.bayes_net_evaluator.stack
            if network is not None:
                tiers["bn_mask"] = network.mask_cache.lru
                tiers["bn_join_side"] = network.join_side_cache
            hybrid = model.hybrid_evaluator.stack
            if hybrid is not None:  # its masks are the other two's
                tiers["hybrid_join_side"] = hybrid.join_side_cache
        return tiers

    def _maintain(self) -> None:
        if self.governor is not None:
            self.governor.govern(self._governed_tiers())
            self.governor.maintain()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def execute(
        self,
        query: Query | str,
        cancel: CancelToken | None = None,
        deadline: "Deadline | float | None" = None,
    ) -> float | QueryResult:
        """Serve one query (SQL text or AST); answers match ``Themis.query()``."""
        return self.execute_with_outcome(query, cancel=cancel, deadline=deadline).result

    def execute_with_outcome(
        self,
        query: Query | str,
        cancel: CancelToken | None = None,
        deadline: "Deadline | float | None" = None,
    ) -> QueryOutcome:
        """Serve one query and return the full :class:`QueryOutcome`.

        A tracing session (``trace=True``) attaches the query's span tree
        — ``query`` → ``compile`` + ``execute`` — as ``outcome.trace``.
        ``cancel``/``deadline`` govern the query cooperatively; on the
        single-query path the token is polled at the compile/execute
        boundaries (batches poll deeper: before every plan and every
        evidence signature).
        """
        token = resolve_cancel_token(cancel, deadline)
        executor = self._ensure_current()
        tracer = Tracer() if self._trace else NULL_TRACER
        start = time.perf_counter()
        try:
            with tracer.span("query") as root:
                if token is not None:
                    token.poll()
                with tracer.span("compile"):
                    plan = executor.plan(query)
                if tracer.enabled:
                    root.set(route=plan.route, shape=plan.shape)
                if token is not None:
                    token.poll()
                with tracer.span("execute", route=plan.route) as span:
                    result, from_cache = executor.execute_plan(plan, tracer=tracer)
                    if tracer.enabled:
                        span.set(from_result_cache=from_cache)
        finally:
            self._maintain()
        outcome = QueryOutcome(
            index=0,
            plan=plan,
            result=result,
            seconds=time.perf_counter() - start,
            from_result_cache=from_cache,
            trace=root if self._trace else None,
            generation=executor.model.generation,
        )
        self.statistics.record_outcome(outcome)
        return outcome

    def execute_batch(
        self,
        queries: Sequence[Query | str],
        cancel: CancelToken | None = None,
        deadline: "Deadline | float | None" = None,
    ) -> BatchResult:
        """Serve a batch of SQL strings and/or ASTs in submission order.

        A tracing session (``trace=True``) attaches the batch's span tree
        (compile → cache-probe → execute, the evaluators' spans under
        execute) as ``batch.trace``.  ``cancel`` and ``deadline`` fold
        into one :class:`~repro.serving.governance.CancelToken` for the
        whole batch, polled before every plan and every evidence signature:
        a cancelled token or an expired deadline raises its typed error.
        """
        token = resolve_cancel_token(cancel, deadline)
        executor = self._ensure_current()
        tracer = Tracer() if self._trace else NULL_TRACER
        try:
            batch = executor.execute_batch(queries, tracer=tracer, cancel=token)
        finally:
            self._maintain()
        self.statistics.record_batch(batch)
        return batch

    # ------------------------------------------------------------------
    # Introspection and maintenance
    # ------------------------------------------------------------------
    @property
    def result_cache(self) -> LRUCache:
        """The tier-one result cache."""
        return self._result_cache

    @property
    def plan_cache(self) -> LRUCache:
        """The facade's routed-plan cache (SQL text or AST -> plan) that the
        session plans through; its counters include the facade's traffic."""
        return self._themis.plan_cache

    @property
    def inference_cache(self) -> InferenceCache | None:
        """The tier-two shared inference cache (``None`` before first use)."""
        return self._inference_cache

    def clear_caches(self) -> None:
        """Drop every cache tier without touching the fitted model.

        The plan, mask, join-side and factor tiers are shared, so the facade
        and every other session over it lose them too.  The session binds
        to the facade's current model first, so a fresh session clears that
        model's tiers as well.
        """
        self._ensure_current()
        for cache in (self.plan_cache, *self._governed_tiers().values()):
            cache.clear()

    def cache_statistics(self, window: bool = False) -> dict[str, Any]:
        """Hit/miss snapshots of every cache tier, plus size-in-items counts.

        Sizes come from the stat-free ``entries()`` probes, so reading the
        statistics never promotes an entry or perturbs a hit rate.  The
        lifetime numbers are also mirrored into the session registry's
        ``cache.<tier>.*`` gauges each time this is called.

        With ``window=True`` the counters (hits/misses/evictions and the
        BN engine's amortization counters) are reported as deltas since the
        last :meth:`reset_cache_window` call — and ``hit_rate`` is the
        *window's* hit rate — while sizes (``entries``, ``cached_*``,
        ``samples_warm``) stay current values.  Lifetime counters are never
        disturbed: windows are pure snapshot arithmetic.
        """
        plan_cache = self.plan_cache
        stats = {
            "result_cache": {
                **self._result_cache.statistics.as_dict(),
                "entries": len(self._result_cache),
            },
            "plan_cache": {**plan_cache.statistics.as_dict(), "entries": len(plan_cache)},
        }
        if self._inference_cache is not None:
            stats["inference_cache"] = {
                **self._inference_cache.describe(),
                "entries": self._inference_cache.entries(),
            }
        for name, cache in self._governed_tiers().items():
            if name not in ("result", "inference"):  # the model's mask and side LRUs
                size = "cached_masks" if name.endswith("mask") else "cached_sides"
                stats[f"{name}_cache"] = {**cache.statistics.as_dict(), size: len(cache)}
        self._sync_cache_gauges(stats)
        if window:
            return _window_view(stats, self._cache_window or {})
        return stats

    def reset_cache_window(self) -> None:
        """Start a new reporting window for ``cache_statistics(window=True)``.

        Takes a snapshot of every tier's lifetime counters; subsequent
        window reads subtract it.  The session binds to the facade's current
        model first, so a fresh session's window covers that model's mask,
        join-side and factor tiers too.  Nothing is mutated — ``entries()``
        / ``peek()`` probes and the lifetime statistics are untouched.
        """
        self._ensure_current()
        self._cache_window = self.cache_statistics()

    def _sync_cache_gauges(self, stats: dict[str, Any]) -> None:
        """Mirror the cache tiers' lifetime numbers into registry gauges."""
        for key, tier_stats in stats.items():
            tier = key.removesuffix("_cache")
            for metric, value in tier_stats.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                self.metrics.gauge(names.cache_gauge(tier, metric)).set(value)

    def describe(self) -> dict[str, Any]:
        """Session statistics plus cache statistics, one printable dict."""
        return {**self.statistics.as_dict(), "caches": self.cache_statistics()}
