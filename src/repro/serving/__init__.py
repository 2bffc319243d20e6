"""Query serving: result/plan/inference caches, batched execution.

This subsystem turns the one-shot :class:`~repro.core.themis.Themis` facade
into a reusable query service for high-throughput workloads.  Statements
are planned by the fitted model (:meth:`repro.core.ThemisModel.plan`:
canonical, hashable plan keys and evaluator routing) and kept in the
facade's routed-plan cache.  The modules:

* :mod:`repro.serving.cache` — the result and plan caches (plain
  :class:`~repro.lru.LRUCache` instances; the plan cache is the facade's,
  one per loaded sample) plus the shared BN inference cache (per-signature
  eliminated factors); a refit drops the results and the inference cache,
  and ``load_sample`` the plans;
* :mod:`repro.serving.executor` — batched execution: the plans the result
  cache cannot answer go to one ``hybrid_evaluator.run`` call, which sends
  each route family to its evaluator (:mod:`repro.core.evaluators` —
  BN-routed point plans share one batched variable-elimination call, every
  other plan runs as a unit of its own over the model's cached masks and
  join sides), generated-sample inference is amortized, and answers are
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

from ..plan import ROUTE_BAYES_NET, ROUTE_HYBRID, ROUTE_SAMPLE, PlanKey
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
    "ResultCache",
    "ROUTE_BAYES_NET",
    "ROUTE_HYBRID",
    "ROUTE_SAMPLE",
    "ServingSession",
    "ServingStatistics",
]
