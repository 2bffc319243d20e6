"""Result containers and statistics for the serving subsystem.

Every served query produces a :class:`QueryOutcome` (the answer, the routed
:class:`~repro.plan.LogicalPlan` it ran under, where the answer came from and
what it cost); a batch bundles them into a :class:`BatchResult`
with amortized timing; a session accumulates :class:`ServingStatistics`
across batches.

Since the observability layer landed, :class:`ServingStatistics` is a *view*
over one :class:`repro.obs.MetricsRegistry` — the same registry the batch
executor folds its optimizer counters into — so the session-lifetime numbers
and each batch's ``optimizer`` dict are, by construction, readings of the
same counters (the old independently-accumulated copies could drift).  Every
public field keeps its name, type, and bit-identical value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..obs import names
from ..obs.metrics import MetricsRegistry
from ..plan import LogicalPlan
from ..plan.ir import ROUTE_BAYES_NET, SHAPE_POINT
from ..sql.engine import QueryResult, TableResult


@dataclass
class QueryOutcome:
    """One served query: its plan, answer, and serving diagnostics.

    Attributes
    ----------
    index:
        Position of the query in the submitted batch.
    plan:
        The routed :class:`~repro.plan.LogicalPlan` the query executed
        under.
    result:
        The answer, identical to what ``Themis.query()`` returns.
    seconds:
        Wall-clock spent serving this query (0 for result-cache hits beyond
        the lookup itself).
    from_result_cache:
        Whether the answer came straight out of the result cache.
    deduplicated:
        Whether the answer was shared with an identical plan earlier in the
        same batch (executed once, fanned out).
    bn_batched:
        Whether the answer came out of the batch's shared BN dispatch (the
        ``bn-dispatch`` stage: BN-routed plans — points share one
        variable-elimination pass per evidence signature, everything else
        one schedule over the stacked generated samples).
    optimized:
        Whether the answer came out of the batch's optimized columnar
        dispatch (the ``columnar`` stage: sample-routed plans and fused
        hybrid families).
    trace:
        The query's :class:`repro.obs.Span` tree when the serving session
        was tracing; ``None`` otherwise.
    generation:
        The id of the fitted model snapshot that answered
        (:attr:`repro.core.model.ThemisModel.generation`).
    """

    index: int
    plan: LogicalPlan
    result: float | QueryResult | TableResult
    seconds: float = 0.0
    from_result_cache: bool = False
    deduplicated: bool = False
    bn_batched: bool = False
    optimized: bool = False
    trace: Any = None
    generation: int | None = None

    @property
    def route(self) -> str:
        """The evaluator route the plan took."""
        return self.plan.route

    @property
    def is_bn_point(self) -> bool:
        """Whether this is a BN-routed point query (the batchable shape)."""
        return self.plan.route == ROUTE_BAYES_NET and self.plan.shape == SHAPE_POINT


@dataclass
class BatchResult:
    """The outcome of one ``execute_batch()`` call, in submission order."""

    outcomes: list[QueryOutcome] = field(default_factory=list)
    total_seconds: float = 0.0
    #: Seconds spent materializing BN generated samples, paid once and shared
    #: by every plan in the batch that needed them.
    amortized_inference_seconds: float = 0.0
    #: Seconds spent in the batch's BN dispatch (every BN-routed plan: one
    #: variable-elimination pass per evidence signature for points, one
    #: schedule over the stacked generated samples for sampled aggregates).
    bn_batch_seconds: float = 0.0
    #: Variable-elimination passes the batched dispatch actually ran (a
    #: warm per-signature factor cache makes this zero).
    bn_elimination_passes: int = 0
    #: Seconds spent in the batch's optimized columnar dispatch (the
    #: rewritten schedule serving sample-routed plans and fused hybrid
    #: GROUP BY families).
    columnar_batch_seconds: float = 0.0
    #: Rewrite counters of the batch's optimizer schedules (plans deduped,
    #: predicates pushed down, group-by fusions, masks shared).  Derived as
    #: this batch's delta of the executor's ``optimizer.*`` registry
    #: counters, so it can never drift from :class:`ServingStatistics` over
    #: the same registry.
    optimizer: dict[str, int] = field(default_factory=dict)
    #: The batch's :class:`repro.obs.Span` tree when traced; ``None`` otherwise.
    trace: Any = None
    #: The id of the fitted model snapshot that answered every query in it.
    generation: int | None = None

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    def results(self) -> list[float | QueryResult | TableResult]:
        """The per-query answers, in the order the queries were submitted."""
        return [outcome.result for outcome in self.outcomes]

    @property
    def cache_hits(self) -> int:
        """Queries in the batch served from the result cache."""
        return sum(1 for outcome in self.outcomes if outcome.from_result_cache)

    @property
    def bn_batched_points(self) -> int:
        """Queries answered by the shared batched BN inference dispatch."""
        return sum(1 for outcome in self.outcomes if outcome.bn_batched)

    @property
    def optimized_plans(self) -> int:
        """Queries answered by the batch's optimized columnar schedule."""
        return sum(1 for outcome in self.outcomes if outcome.optimized)

    @property
    def queries_per_second(self) -> float:
        """Batch throughput: queries served per second of batch wall-clock."""
        if self.total_seconds <= 0:
            return float("inf") if self.outcomes else 0.0
        return len(self.outcomes) / self.total_seconds

    def statistics(self) -> dict[str, Any]:
        """A printable summary of the batch."""
        routes: dict[str, int] = {}
        for outcome in self.outcomes:
            routes[outcome.route] = routes.get(outcome.route, 0) + 1
        return {
            "n_queries": len(self.outcomes),
            "total_seconds": self.total_seconds,
            "queries_per_second": self.queries_per_second,
            "result_cache_hits": self.cache_hits,
            "deduplicated": sum(1 for o in self.outcomes if o.deduplicated),
            "amortized_inference_seconds": self.amortized_inference_seconds,
            "bn_batched_points": self.bn_batched_points,
            "bn_batch_seconds": self.bn_batch_seconds,
            "bn_elimination_passes": self.bn_elimination_passes,
            "optimized_plans": self.optimized_plans,
            "columnar_batch_seconds": self.columnar_batch_seconds,
            "optimizer": dict(self.optimizer),
            "routes": routes,
        }


class ServingStatistics:
    """Session-lifetime counters: a live view over one metrics registry.

    Every field the old accumulator exposed is preserved — same names, same
    (bit-identical) values — but each is now a read of a named counter in
    the shared :class:`~repro.obs.MetricsRegistry` (see
    :mod:`repro.obs.names`).  The batch executor folds its optimizer
    rewrite counters into the *same* registry and derives each
    ``BatchResult.optimizer`` dict as that batch's counter delta, which is
    what makes session-lifetime and per-batch optimizer numbers agree by
    construction instead of by parallel bookkeeping.

    ``record_outcome`` / ``record_batch`` write the serving-side counters
    (queries, routes, BN point dispatch) and feed the query/batch latency
    histograms.  Optimizer counters are *not* folded here — the executor
    that built the schedule already wrote them.
    """

    def __init__(self, metrics: MetricsRegistry | None = None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # ------------------------------------------------------------------
    # Counter views (names frozen in repro.obs.names)
    # ------------------------------------------------------------------
    @property
    def queries_served(self) -> int:
        """Queries served over the session's lifetime."""
        return self.metrics.value(names.QUERIES_SERVED)

    @property
    def batches_served(self) -> int:
        """Batches served over the session's lifetime."""
        return self.metrics.value(names.BATCHES_SERVED)

    @property
    def total_seconds(self) -> float:
        """Wall-clock seconds attributed to served queries."""
        return self.metrics.value(names.TOTAL_SECONDS)

    @property
    def invalidations(self) -> int:
        """Executor rebuilds forced by a newly fitted model."""
        return self.metrics.value(names.INVALIDATIONS)

    @property
    def route_counts(self) -> dict[str, int]:
        """Served queries per evaluator route, in first-served order."""
        return self.metrics.counters_with_prefix(names.ROUTE_PREFIX)

    #: BN-routed point queries answered through the shared batched dispatch
    #: vs. individually (single-query serving, or cache-refill stragglers).
    @property
    def bn_points_batched(self) -> int:
        return self.metrics.value(names.BN_POINTS_BATCHED)

    @property
    def bn_points_single(self) -> int:
        return self.metrics.value(names.BN_POINTS_SINGLE)

    @property
    def plans_optimized(self) -> int:
        """Queries answered through optimized columnar schedules."""
        return self.metrics.value(names.PLANS_OPTIMIZED)

    def _optimizer_counter(self, field_name: str) -> int:
        return self.metrics.value(names.optimizer_counter(field_name))

    #: Session-lifetime optimizer rewrite counters (see
    #: :class:`repro.plan.OptimizerStats`), read from the ``optimizer.*``
    #: registry counters the batch executor folds each schedule into —
    #: the counters benchmarks assert on to prove the rewrites fired.
    @property
    def plans_deduped(self) -> int:
        return self._optimizer_counter("plans_deduped")

    @property
    def predicates_pushed_down(self) -> int:
        return self._optimizer_counter("predicates_pushed_down")

    @property
    def groupby_fusions(self) -> int:
        return self._optimizer_counter("groupby_fusions")

    @property
    def masks_shared(self) -> int:
        return self._optimizer_counter("masks_shared")

    #: Join rewrites: side scatter-add passes avoided by join-side fusion,
    #: scheduled sides answered by the cross-batch join-side cache, and
    #: per-generated-sample evaluator dispatches hybrid family batching
    #: avoided.
    @property
    def join_sides_fused(self) -> int:
        return self._optimizer_counter("join_sides_fused")

    @property
    def join_side_cache_hits(self) -> int:
        return self._optimizer_counter("join_side_cache_hits")

    @property
    def bn_sample_dispatches_saved(self) -> int:
        return self._optimizer_counter("bn_sample_dispatches_saved")

    @property
    def window_sorts_shared(self) -> int:
        """Window ``argsort`` passes shared across a fused table family."""
        return self._optimizer_counter("window_sorts_shared")

    @property
    def dispatch_retries(self) -> int:
        """Requests re-dispatched after a retryable serving failure.

        Written by the scale tier's one retry loop (the worker pool's);
        always 0 for in-process sessions, which have no crash/timeout retry
        path.
        """
        return self.metrics.value(names.SCALE_FAULT_RETRIES)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_invalidation(self) -> None:
        """Count one executor rebuild (the facade swapped its model)."""
        self.metrics.counter(names.INVALIDATIONS).inc()

    def record_outcome(self, outcome: QueryOutcome) -> None:
        """Fold one served query into the counters."""
        self.metrics.counter(names.QUERIES_SERVED).inc()
        self.metrics.counter(names.TOTAL_SECONDS).inc(outcome.seconds)
        self.metrics.counter(names.route_counter(outcome.route)).inc()
        self.metrics.histogram(names.QUERY_SECONDS).record(outcome.seconds)
        if outcome.optimized:
            self.metrics.counter(names.PLANS_OPTIMIZED).inc()
        if outcome.is_bn_point and not outcome.from_result_cache and not outcome.deduplicated:
            if outcome.bn_batched:
                self.metrics.counter(names.BN_POINTS_BATCHED).inc()
            else:
                self.metrics.counter(names.BN_POINTS_SINGLE).inc()

    def record_batch(self, batch: BatchResult) -> None:
        """Fold one served batch into the counters.

        The batch's optimizer counters are deliberately *not* folded here:
        the executor that built the schedules already wrote them into the
        shared registry (``batch.optimizer`` is its per-batch delta), and
        folding the dict again would double-count.
        """
        self.metrics.counter(names.BATCHES_SERVED).inc()
        self.metrics.histogram(names.BATCH_SECONDS).record(batch.total_seconds)
        for outcome in batch.outcomes:
            self.record_outcome(outcome)

    def as_dict(self) -> dict[str, Any]:
        """A plain-dict snapshot of every session-lifetime counter."""
        return {
            "queries_served": self.queries_served,
            "batches_served": self.batches_served,
            "total_seconds": self.total_seconds,
            "invalidations": self.invalidations,
            "route_counts": dict(self.route_counts),
            "bn_points_batched": self.bn_points_batched,
            "bn_points_single": self.bn_points_single,
            "plans_optimized": self.plans_optimized,
            "dispatch_retries": self.dispatch_retries,
            "optimizer": {
                "plans_deduped": self.plans_deduped,
                "predicates_pushed_down": self.predicates_pushed_down,
                "groupby_fusions": self.groupby_fusions,
                "masks_shared": self.masks_shared,
                "join_sides_fused": self.join_sides_fused,
                "join_side_cache_hits": self.join_side_cache_hits,
                "bn_sample_dispatches_saved": self.bn_sample_dispatches_saved,
                "window_sorts_shared": self.window_sorts_shared,
            },
        }
