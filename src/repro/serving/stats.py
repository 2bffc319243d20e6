"""Result containers and statistics for the serving subsystem.

Every served query produces a :class:`QueryOutcome` (the answer, the routed
:class:`~repro.plan.LogicalPlan` it ran under, where the answer came from and
what it cost); a batch bundles them into a :class:`BatchResult`; a session
accumulates :class:`ServingStatistics` across batches.

:class:`ServingStatistics` is a *view* over one
:class:`repro.obs.MetricsRegistry` — the same registry the batch executor
writes its stage histograms and network counters into — so the
session-lifetime numbers are the sums of the per-batch ones.  What the
caches shared between plans (mask, join-side, result hits) is read from the
caches themselves, ``ServingSession.cache_statistics()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..obs import names
from ..obs.metrics import MetricsRegistry
from ..plan import LogicalPlan
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
        Wall-clock spent serving this query: in a batch, its share of the
        ``execute`` stage (0 for result-cache hits and deduplicated plans).
    from_result_cache:
        Whether the answer came straight out of the result cache.
    deduplicated:
        Whether the answer was shared with an identical plan earlier in the
        same batch (executed once, fanned out).
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
    trace: Any = None
    generation: int | None = None

    @property
    def route(self) -> str:
        """The evaluator route the plan took."""
        return self.plan.route


@dataclass
class BatchResult:
    """The outcome of one ``execute_batch()`` call, in submission order."""

    outcomes: list[QueryOutcome] = field(default_factory=list)
    total_seconds: float = 0.0
    #: Variable-elimination passes the batch's network work actually ran (a
    #: warm per-signature factor cache makes this zero).
    bn_elimination_passes: int = 0
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
            "bn_elimination_passes": self.bn_elimination_passes,
            "routes": routes,
        }


class ServingStatistics:
    """Session-lifetime counters: a live view over one metrics registry.

    Each field is a read of a named counter in the shared
    :class:`~repro.obs.MetricsRegistry` (see :mod:`repro.obs.names`).
    ``record_outcome`` / ``record_batch`` write the serving-side counters
    (queries, routes) and feed the query/batch latency histograms.
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

    def record_batch(self, batch: BatchResult) -> None:
        """Fold one served batch into the counters."""
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
        }
