"""Batched query execution against one fitted Themis model.

The executor is the serving layer's engine: it takes a batch of SQL strings
or ASTs, plans them, and executes them so shared work is paid once.  It
decides *what* still has to run and *when*; *how* a plan runs — which
evaluator, which batching routine for which shape — is decided by the
plan's ``Route`` node and lives behind ``run`` in
:mod:`repro.core.evaluators`.  One batch is::

    compile      SQL/AST -> routed LogicalPlan (plan cache)
    route        the uncached, unique plans, partitioned by route
    warm-samples the BN's K generated samples, materialized once (only
                 when a plan about to run reads them)
    bn-dispatch  model.evaluator("bayes-net").run(plans)
    columnar     model.evaluator("sample").run(plans), then
                 model.evaluator("hybrid").run(plans)
    cache-probe  look up / store / fan out, in submission order

so BN-routed point plans share one batched exact-inference call (one
variable-elimination pass per evidence signature), everything else the
network answers, tables included, shares one optimized schedule over its
generated samples (one relation of ``K`` parts), sample-routed plans share
one optimized columnar schedule, hybrid families share one schedule over
the sample stacked with the generated samples,
identical plans execute once and fan out, and answers land in the result
cache for the next batch.

Single queries (:meth:`BatchExecutor.execute_plan`) skip the stages: they
call :meth:`~repro.core.evaluators.HybridEvaluator.execute`, the same batch
of one (``run([plan])[0]``) behind ``Themis.query()`` — and
``execute_batch`` of one ungoverned statement takes that path too, on either
side of a worker pipe.  An answer does not depend on the batch it ran in, so
a batch returns bit-identical answers to issuing each query through
``Themis.query()``.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from ..core.model import ThemisModel
from ..exceptions import DeadlineExceededError, QueryCancelledError
from ..lru import LRUCache
from ..obs import names
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER
from ..plan import LogicalPlan, OptimizerStats
from ..query.ast import Query
from ..sql.engine import QueryResult
from .cache import InferenceCache
from .governance import CancelToken
from .planner import ROUTE_BAYES_NET, ROUTE_HYBRID, ROUTE_SAMPLE
from .stats import BatchResult, QueryOutcome

#: The dispatch stages of a batch and the routes each one serves, in order.
_DISPATCH_STAGES = (
    (names.STAGE_BN_DISPATCH, (ROUTE_BAYES_NET,)),
    (names.STAGE_COLUMNAR, (ROUTE_SAMPLE, ROUTE_HYBRID)),
)


class BatchExecutor:
    """Execute planned queries against one fitted model with shared caches.

    Everything it runs comes from ``model``: plans from ``model.planner``,
    answers from the model's evaluators.  A new model gets a new executor.
    """

    def __init__(
        self,
        model: ThemisModel,
        result_cache: LRUCache,
        inference_cache: InferenceCache,
        plan_cache: LRUCache,
        metrics: MetricsRegistry | None = None,
    ):
        self._model = model
        self._result_cache = result_cache
        self._inference_cache = inference_cache
        self._plan_cache = plan_cache
        # The single accumulation point for optimizer/BN/stage counters; the
        # serving session passes its own registry so ServingStatistics reads
        # the very counters this executor writes.
        self._metrics = metrics if metrics is not None else MetricsRegistry()

    @property
    def model(self) -> ThemisModel:
        """The fitted model queries run against."""
        return self._model

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry the executor folds batch counters into."""
        return self._metrics

    # ------------------------------------------------------------------
    # Planning (with the SQL-text plan cache)
    # ------------------------------------------------------------------
    def plan(self, query: Query | str | LogicalPlan) -> LogicalPlan:
        """Route one query, reusing cached plans for repeated SQL text.

        A routed :class:`~repro.plan.LogicalPlan` this executor already made
        (the worker plans a conversation's statements to verify their keys)
        is returned as is: a statement is planned once per process.
        """
        if isinstance(query, str):
            cached = self._plan_cache.get(query)
            if cached is not None:
                return cached
            plan = self._model.planner.plan_sql(query)
            self._plan_cache.put(query, plan)
            return plan
        if isinstance(query, LogicalPlan):
            return query
        return self._model.planner.plan(query)

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
        with tracer.span("cache-probe") as span:
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

        One statement without ``cancel`` is served by :meth:`_execute_single`
        (no stages) and the rest of this describes real batches.

        ``cancel`` governs the batch cooperatively: one
        :class:`~repro.serving.governance.CancelToken` covers the whole
        batch — polled at every stage boundary and threaded into the
        columnar schedule (per execution unit) and the batched BN dispatch
        (per evidence signature), so an expired deadline raises a typed
        :class:`~repro.exceptions.DeadlineExceededError` mid-execution.

        The plans the result cache cannot answer are collected once,
        deduplicated by plan key and partitioned by route; each partition is
        one ``run`` call on the evaluator its route names (see the module
        docstring for the stages).  If any of those plans touches the BN's
        generated samples they are materialized once up front and the cost
        is reported separately as ``amortized_inference_seconds``; the
        BN-routed dispatch is reported as ``bn_batch_seconds`` /
        ``bn_elimination_passes``, the sample- and hybrid-routed dispatch
        as ``columnar_batch_seconds``, and the schedules' rewrite counters
        in ``optimizer``.

        An enabled ``tracer`` wraps the batch in a ``batch`` span with one
        child per stage (compile → route → warm-samples → bn-dispatch →
        columnar → cache-probe), attaches the schedule/unit/slot span tree
        under the columnar stage, and stores the root on
        ``BatchResult.trace``.  Stage wall-times additionally feed the
        registry's ``latency.stage.*`` histograms whether or not the batch
        is traced.
        """
        try:
            with tracer.span("batch", n_queries=len(queries)) as root:
                if len(queries) == 1 and cancel is None:
                    batch = self._execute_single(queries[0], tracer)
                else:
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

    def _execute_single(self, query: Query | str | LogicalPlan, tracer) -> BatchResult:
        """A batch of one ungoverned statement is not a batch.

        It takes :meth:`execute_plan`, the path ``session.execute`` and
        ``Themis.sql`` take: no route partition, no schedule, no fan-out —
        so no optimizer runs, ``BatchResult.optimizer`` is all zero and no
        ``optimizer.*`` counter or stage histogram moves.  The answer and
        the result-cache statistics are those of the batch path.  A governed
        statement keeps the batch path, whose per-chunk polls are what
        cancels it mid-execution.
        """
        start = time.perf_counter()
        plan = self.plan(query)
        result, from_cache = self.execute_plan(plan, tracer=tracer)
        seconds = time.perf_counter() - start
        outcome = QueryOutcome(
            index=0,
            plan=plan,
            result=result,
            seconds=seconds,
            from_result_cache=from_cache,
            generation=self._model.generation,
        )
        return BatchResult(
            outcomes=[outcome],
            total_seconds=seconds,
            optimizer=dict.fromkeys(names.OPTIMIZER_COUNTERS, 0),
            generation=self._model.generation,
        )

    def _execute_batch(
        self,
        queries: Sequence[Query | str | LogicalPlan],
        tracer,
        cancel: CancelToken | None,
    ) -> BatchResult:
        batch_start = time.perf_counter()
        stage_seconds = dict.fromkeys(names.BATCH_STAGES, 0.0)
        with tracer.span(names.STAGE_COMPILE, queries=len(queries)) as span:
            if tracer.enabled:
                plan_stats = self._plan_cache.statistics.snapshot()
            plans = [self.plan(query) for query in queries]
            if tracer.enabled:
                delta = self._plan_cache.statistics.since(plan_stats)
                span.count(plan_cache_hits=delta.hits, plan_cache_misses=delta.misses)
        stage_seconds[names.STAGE_COMPILE] = time.perf_counter() - batch_start

        # Stage boundary: an expired deadline aborts before any dispatch work.
        if cancel is not None:
            cancel.poll()

        # The one partition of the batch: every plan the result cache cannot
        # answer, once per plan key, under the route its Route node carries.
        with tracer.span(names.STAGE_ROUTE):
            pending: dict[str, dict[tuple, LogicalPlan]] = {}
            for plan in plans:
                if self._result_cache.peek(plan.key) is None:
                    pending.setdefault(plan.route, {}).setdefault(plan.key, plan)

        # Amortized warm-up: materialize BN samples once for the whole batch,
        # when a plan it is about to run reads them.
        if any(
            plan.needs_generated_samples
            for family in pending.values()
            for plan in family.values()
        ):
            if cancel is not None:
                cancel.poll()
            warm_start = time.perf_counter()
            with tracer.span(names.STAGE_WARM_SAMPLES):
                self._inference_cache.warm_samples()
            stage_seconds[names.STAGE_WARM_SAMPLES] = time.perf_counter() - warm_start

        # Dispatch: one ``run`` per route.  Which batching routine serves
        # which shape is the evaluator's business; the network's work
        # (elimination passes, factor-cache traffic) is accounted to the
        # inference cache whichever stage pays it.
        optimizer_stats = OptimizerStats()
        precomputed: dict[tuple, tuple[float | QueryResult, str]] = {}
        stage_share: dict[str, float] = {}
        bn_passes = 0
        for stage, routes in _DISPATCH_STAGES:
            families = [(route, pending[route]) for route in routes if route in pending]
            if not families:
                continue
            dispatch_start = time.perf_counter()
            n_plans = sum(len(family) for _, family in families)
            with tracer.span(stage, plans=n_plans) as span:
                with self._inference_cache.observed(tracer) as bn_work:
                    for route, family in families:
                        if cancel is not None:
                            cancel.poll()
                        answers = self._model.evaluator(route).run(
                            list(family.values()),
                            stats=optimizer_stats,
                            tracer=tracer,
                            cancel=cancel,
                        )
                        precomputed.update(
                            (key, (answer, stage)) for key, answer in zip(family, answers)
                        )
                if tracer.enabled:
                    span.count(**bn_work)
            bn_passes += bn_work["elimination_passes"]
            self._metrics.counter(names.BN_ELIMINATION_PASSES).inc(
                bn_work["elimination_passes"]
            )
            self._metrics.counter(names.BN_FACTOR_CACHE_HITS).inc(
                bn_work["factor_cache_hits"]
            )
            self._metrics.counter(names.BN_FACTOR_CACHE_MISSES).inc(
                bn_work["factor_cache_misses"]
            )
            stage_seconds[stage] = time.perf_counter() - dispatch_start
            # Attribute the shared dispatch evenly across the plans it answered.
            stage_share[stage] = stage_seconds[stage] / n_plans

        # Probe: look up, store, fan out.  Every uncached plan was answered
        # above, so nothing is evaluated here unless this batch's own stores
        # evicted an answer between the peek and the lookup.
        outcomes: list[QueryOutcome] = []
        served: dict[tuple, QueryOutcome] = {}
        generation = self._model.generation
        probe_start = time.perf_counter()
        with tracer.span(names.STAGE_CACHE_PROBE, queries=len(plans)) as probe_span:
            if tracer.enabled:
                result_stats = self._result_cache.statistics.snapshot()
            for index, plan in enumerate(plans):
                first = served.get(plan.key)
                if first is not None:
                    outcomes.append(
                        QueryOutcome(
                            index=index,
                            plan=plan,
                            result=first.result,
                            seconds=0.0,
                            from_result_cache=first.from_result_cache,
                            deduplicated=True,
                            generation=generation,
                        )
                    )
                    continue
                if plan.key in precomputed:
                    # The dispatches bypassed execute_plan, so record the
                    # result-cache miss they decided on (keeping hit-rate
                    # statistics identical to per-plan execution).
                    self._result_cache.get(plan.key)
                    result, stage = precomputed[plan.key]
                    self._result_cache.put(plan.key, result)
                    outcome = QueryOutcome(
                        index=index,
                        plan=plan,
                        result=result,
                        seconds=stage_share[stage],
                        from_result_cache=False,
                        bn_batched=stage == names.STAGE_BN_DISPATCH,
                        optimized=stage == names.STAGE_COLUMNAR,
                        generation=generation,
                    )
                else:
                    if cancel is not None:
                        cancel.poll()
                    start = time.perf_counter()
                    result, from_cache = self.execute_plan(plan)
                    outcome = QueryOutcome(
                        index=index,
                        plan=plan,
                        result=result,
                        seconds=time.perf_counter() - start,
                        from_result_cache=from_cache,
                        generation=generation,
                    )
                outcomes.append(outcome)
                served[plan.key] = outcome
            if tracer.enabled:
                delta = self._result_cache.statistics.since(result_stats)
                probe_span.count(
                    result_cache_hits=delta.hits, result_cache_misses=delta.misses
                )
        stage_seconds[names.STAGE_CACHE_PROBE] = time.perf_counter() - probe_start

        # Fold this batch's counters into the shared registry; the batch's
        # own ``optimizer`` dict is read back as the counters' delta, so it
        # and the session-lifetime ServingStatistics view always agree.
        before = {
            field: self._metrics.value(names.optimizer_counter(field))
            for field in names.OPTIMIZER_COUNTERS
        }
        for field, value in optimizer_stats.as_dict().items():
            self._metrics.counter(names.optimizer_counter(field)).inc(value)
        optimizer_view = {
            field: self._metrics.value(names.optimizer_counter(field)) - before[field]
            for field in names.OPTIMIZER_COUNTERS
        }
        for stage, seconds in stage_seconds.items():
            self._metrics.histogram(names.stage_histogram(stage)).record(seconds)

        return BatchResult(
            outcomes=outcomes,
            total_seconds=time.perf_counter() - batch_start,
            amortized_inference_seconds=stage_seconds[names.STAGE_WARM_SAMPLES],
            bn_batch_seconds=stage_seconds[names.STAGE_BN_DISPATCH],
            bn_elimination_passes=bn_passes,
            columnar_batch_seconds=stage_seconds[names.STAGE_COLUMNAR],
            optimizer=optimizer_view,
            generation=generation,
        )
