"""Query serving: planner, result/plan/inference caches, batched execution.

This subsystem turns the one-shot :class:`~repro.core.themis.Themis` facade
into a reusable query service for high-throughput workloads:

* :mod:`repro.serving.planner` — canonical, hashable plan keys and evaluator
  routing (reweighted sample / Bayesian network / hybrid);
* :mod:`repro.serving.cache` — the result and plan caches (plain
  :class:`~repro.lru.LRUCache` instances) plus the shared BN inference
  cache (per-signature eliminated factors); a refit drops the results and
  the inference cache, and the plans only when the sample changed;
* :mod:`repro.serving.executor` — batched execution: the plans the result
  cache cannot answer are partitioned by route and each partition is one
  ``run`` call on its evaluator (:mod:`repro.core.evaluators` — BN-routed
  point plans share one batched variable-elimination call, every schedule
  is rewritten by the batch-aware plan optimizer :mod:`repro.plan.optimize`:
  dedup, predicate normalization into shared masks, multi-query group-by
  fusion), generated-sample inference is amortized, and answers are
  bit-identical to the single-query loop;
* :mod:`repro.serving.session` — the long-lived serving front-end returned by
  ``Themis.serve()``;
* :mod:`repro.serving.stats` — per-query outcomes, batch results, and
  session statistics;
* :mod:`repro.serving.scale` — the multi-process scale tier: an asyncio
  front-end (:class:`~repro.serving.scale.AsyncServingFrontend` /
  :func:`~repro.serving.scale.serve_async`) that micro-batches concurrent
  arrivals behind its busy dispatch slots and dispatches them to a
  :class:`~repro.serving.scale.SupervisedWorkerPool` — N worker processes,
  each owning one ``ServingSession`` and the slice of canonical plan keys a
  consistent-hash router assigns it, fed each statement with the key the
  front-end compiled it to, with coherent ``refit()`` broadcast, and
  respawned, retried and failed over when they crash;
* :mod:`repro.serving.governance` — end-to-end resource governance:
  deadline propagation and cooperative cancellation
  (:class:`~repro.serving.governance.Deadline` /
  :class:`~repro.serving.governance.CancelToken`), memory-budgeted caches
  with pressure-tiered eviction
  (:class:`~repro.serving.governance.MemoryGovernor`), priority-aware
  admission control
  (:class:`~repro.serving.governance.AdmissionController`), and per-shard
  circuit breaking (:class:`~repro.serving.governance.CircuitBreaker`).
"""

from .cache import CacheStatistics, InferenceCache, LRUCache, PlanCache, ResultCache
from .executor import BatchExecutor
from .governance import (
    PRIORITY_BACKGROUND,
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    AdmissionController,
    CancelToken,
    CircuitBreaker,
    CircuitBreakerConfig,
    Deadline,
    MemoryGovernor,
    TokenBucket,
    measured_bytes,
)
from .planner import (
    ROUTE_BAYES_NET,
    ROUTE_HYBRID,
    ROUTE_SAMPLE,
    PlanKey,
    QueryPlanner,
)
from .session import ServingSession
from .stats import BatchResult, QueryOutcome, ServingStatistics
from .scale import (
    AsyncServingFrontend,
    FaultInjector,
    MicroBatcher,
    ShardRouter,
    SupervisedWorkerPool,
    WorkerSpec,
    serve_async,
)

__all__ = [
    "AdmissionController",
    "AsyncServingFrontend",
    "BatchExecutor",
    "CancelToken",
    "CircuitBreaker",
    "CircuitBreakerConfig",
    "Deadline",
    "FaultInjector",
    "MemoryGovernor",
    "PRIORITY_BACKGROUND",
    "PRIORITY_BATCH",
    "PRIORITY_INTERACTIVE",
    "TokenBucket",
    "measured_bytes",
    "MicroBatcher",
    "ShardRouter",
    "SupervisedWorkerPool",
    "WorkerSpec",
    "serve_async",
    "BatchResult",
    "CacheStatistics",
    "InferenceCache",
    "LRUCache",
    "PlanCache",
    "PlanKey",
    "QueryOutcome",
    "QueryPlanner",
    "ResultCache",
    "ROUTE_BAYES_NET",
    "ROUTE_HYBRID",
    "ROUTE_SAMPLE",
    "ServingSession",
    "ServingStatistics",
]
