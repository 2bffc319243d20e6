"""Batched query execution against one fitted Themis model.

The executor is the serving layer's engine: it takes a batch of SQL strings
or ASTs, plans them, and executes them so shared work is paid once.  It
decides *what* still has to run; *how* a plan runs — which evaluator, which
batching routine for which shape — is decided by the plan's ``Route`` node
and lives behind :meth:`~repro.core.evaluators.HybridEvaluator.run`.  Every
batch, a batch of one included, is::

    compile      SQL/AST -> routed LogicalPlan (the facade's plan cache)
    cache-probe  one result-cache lookup per distinct plan key
    execute      one model.hybrid_evaluator.run over every missing plan,
                 after warming the BN's K generated samples if one of them
                 reads them

and then stores the new answers and fans every answer out in submission
order.  Inside ``execute`` the hybrid evaluator sends each route family to
its evaluator: BN-routed point plans share one variable-elimination pass per
evidence signature; every other plan runs as a unit of its own, in
submission order, over the network's generated samples, the weighted sample,
or (hybrid families) the sample stacked with the generated samples, sharing
masks and join sides through the model's caches.  Identical plans execute
once.  The batch counts nothing the caches already count: what the mask and
join-side caches answered is in ``ServingSession.cache_statistics()``.

Single queries (:meth:`BatchExecutor.execute_plan`, the door behind
``ServingSession.execute``) call
:meth:`~repro.core.evaluators.HybridEvaluator.execute`, the same batch of
one (``run([plan])[0]``) behind ``Themis.query()``.  An answer does not
depend on the batch it ran in, so a batch returns bit-identical answers to
issuing each query through ``Themis.query()``.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..core.model import ThemisModel
from ..exceptions import DeadlineExceededError, QueryCancelledError
from ..lru import LRUCache
from ..obs import names
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER
from ..plan import LogicalPlan
from ..query.ast import Query
from ..sql.engine import QueryResult
from .cache import InferenceCache
from .governance import CancelToken
from .stats import BatchResult, QueryOutcome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.themis import SamplePlans


class BatchExecutor:
    """Execute planned queries against one fitted model with shared caches.

    Everything it runs comes from ``model``: plans from ``model.plan``
    through the facade's routed-plan cache (``sample_plans``), answers from
    the model's evaluators.  A new model gets a new executor.
    """

    def __init__(
        self,
        model: ThemisModel,
        result_cache: LRUCache,
        inference_cache: InferenceCache,
        sample_plans: "SamplePlans",
        metrics: MetricsRegistry | None = None,
    ):
        self._model = model
        self._result_cache = result_cache
        self._inference_cache = inference_cache
        self._sample_plans = sample_plans
        # The single accumulation point for executor/BN/stage counters; the
        # serving session passes its own registry so ServingStatistics reads
        # the very counters this executor writes.
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._stage_histograms = [
            self._metrics.histogram(names.stage_histogram(stage))
            for stage in names.BATCH_STAGES
        ]

    @property
    def model(self) -> ThemisModel:
        """The fitted model queries run against."""
        return self._model

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry the executor folds batch counters into."""
        return self._metrics

    # ------------------------------------------------------------------
    # Planning (with the facade's routed-plan cache)
    # ------------------------------------------------------------------
    def plan(self, query: Query | str | LogicalPlan) -> LogicalPlan:
        """Route one query, reusing the plan of a statement the facade or
        any session already planned on this sample.

        A routed :class:`~repro.plan.LogicalPlan` this executor already made
        (the worker plans a conversation's statements to verify their keys)
        is returned as is: a statement is planned once per process.
        """
        if isinstance(query, LogicalPlan):
            return query
        return self._sample_plans.plan(self._model, query)

    # ------------------------------------------------------------------
    # Single-plan execution
    # ------------------------------------------------------------------
    def execute_plan(
        self, plan: LogicalPlan, tracer=NULL_TRACER
    ) -> tuple[float | QueryResult, bool]:
        """Serve one plan; returns ``(answer, came_from_result_cache)``.

        A miss is answered as a batch of one by the evaluator the plan's
        ``Route`` node chose (:meth:`HybridEvaluator.execute`, the function
        behind ``Themis.query()``), with the network's work accounted to the
        inference cache.
        """
        with tracer.span(names.STAGE_CACHE_PROBE) as span:
            cached = self._result_cache.get(plan.key)
            if tracer.enabled:
                span.count(
                    result_cache_hits=int(cached is not None),
                    result_cache_misses=int(cached is None),
                )
        if cached is not None:
            return cached, True
        if plan.needs_generated_samples:
            self._inference_cache.warm_samples()
        with self._inference_cache.observed(tracer):
            result = self._model.hybrid_evaluator.execute(plan, tracer=tracer)
        self._result_cache.put(plan.key, result)
        return result, False

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def execute_batch(
        self,
        queries: Sequence[Query | str | LogicalPlan],
        tracer=NULL_TRACER,
        cancel: CancelToken | None = None,
    ) -> BatchResult:
        """Plan and serve a batch, returning answers in input order.

        The result cache is probed once per distinct plan key; every plan it
        cannot answer is answered by one ``model.hybrid_evaluator.run`` call
        (see the module docstring for the stages), stored, and fanned out to
        every statement with its key.  ``QueryOutcome.seconds`` splits the
        ``execute`` stage evenly over the plans it ran, and the elimination
        passes the network paid are ``bn_elimination_passes``.

        ``cancel`` governs the batch cooperatively: one
        :class:`~repro.serving.governance.CancelToken` covers the whole
        batch — polled after ``compile`` and after ``cache-probe`` and
        threaded into the evaluators (per plan, per evidence signature), so an expired deadline raises a typed
        :class:`~repro.exceptions.DeadlineExceededError` mid-execution.

        An enabled ``tracer`` wraps the batch in a ``batch`` span with one
        child per stage, the evaluators' spans under ``execute``, and stores
        the root on ``BatchResult.trace``.  Stage wall-times feed the
        registry's ``latency.stage.*`` histograms whether or not the batch
        is traced (0.0 for a stage the batch skipped).
        """
        try:
            with tracer.span("batch", n_queries=len(queries)) as root:
                batch = self._execute_batch(queries, tracer, cancel)
        except DeadlineExceededError:
            self._metrics.counter(names.GOVERNANCE_DEADLINE_EXCEEDED).inc()
            raise
        except QueryCancelledError:
            self._metrics.counter(names.GOVERNANCE_CANCELLED).inc()
            raise
        if tracer.enabled:
            batch.trace = root
        return batch

    def _execute_batch(
        self,
        queries: Sequence[Query | str | LogicalPlan],
        tracer,
        cancel: CancelToken | None,
    ) -> BatchResult:
        batch_start = time.perf_counter()
        with tracer.span(names.STAGE_COMPILE, queries=len(queries)) as span:
            if tracer.enabled:
                plan_stats = self._sample_plans.cache.statistics.snapshot()
            plans = [self.plan(query) for query in queries]
            if tracer.enabled:
                delta = self._sample_plans.cache.statistics.since(plan_stats)
                span.count(plan_cache_hits=delta.hits, plan_cache_misses=delta.misses)
        probe_start = time.perf_counter()
        if cancel is not None:
            cancel.poll()

        # One lookup per distinct key; hits are held here, so this batch's
        # own stores cannot evict an answer it still has to fan out.
        answers: dict[tuple, float | QueryResult] = {}
        missing: dict[tuple, LogicalPlan] = {}
        with tracer.span(names.STAGE_CACHE_PROBE, queries=len(plans)) as span:
            for plan in plans:
                key = plan.key
                if key in answers or key in missing:
                    continue
                cached = self._result_cache.get(key)
                if cached is None:
                    missing[key] = plan
                else:
                    answers[key] = cached
            if tracer.enabled:
                span.count(result_cache_hits=len(answers), result_cache_misses=len(missing))
        execute_start = time.perf_counter()
        if cancel is not None:
            cancel.poll()

        bn_work = {}
        execute_seconds = share = 0.0
        if missing:
            pending = list(missing.values())
            with tracer.span(names.STAGE_EXECUTE, plans=len(pending)) as span:
                if any(plan.needs_generated_samples for plan in pending):
                    self._inference_cache.warm_samples()
                with self._inference_cache.observed(tracer) as bn_work:
                    fresh = self._model.hybrid_evaluator.run(pending, tracer=tracer, cancel=cancel)
                if tracer.enabled:
                    span.count(**bn_work)
            execute_seconds = time.perf_counter() - execute_start
            share = execute_seconds / len(pending)
            for key, answer in zip(missing, fresh):
                self._result_cache.put(key, answer)
                answers[key] = answer

        generation = self._model.generation
        outcomes: list[QueryOutcome] = []
        served: set[tuple] = set()
        for index, plan in enumerate(plans):
            key = plan.key
            first = key not in served
            served.add(key)
            ran = key in missing
            outcomes.append(
                QueryOutcome(
                    index=index,
                    plan=plan,
                    result=answers[key],
                    seconds=share if first and ran else 0.0,
                    from_result_cache=not ran,
                    deduplicated=not first,
                    generation=generation,
                )
            )

        # Only non-zero counters are folded into the registry.
        for field, value in bn_work.items():
            if value:
                self._metrics.counter(names.BN_PREFIX + field).inc(value)
        stage_seconds = (probe_start - batch_start, execute_start - probe_start, execute_seconds)
        for histogram, seconds in zip(self._stage_histograms, stage_seconds):
            histogram.record(seconds)
        return BatchResult(
            outcomes=outcomes,
            total_seconds=time.perf_counter() - batch_start,
            bn_elimination_passes=bn_work.get("elimination_passes", 0),
            generation=generation,
        )
