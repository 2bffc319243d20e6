"""Micro-batching: turn single-query arrivals into fusable batches.

The batch optimizer only pays off when it sees several plans at once, but
interactive clients send one query at a time.  The micro-batcher closes the
gap: arrivals queue for at most ``latency_budget`` seconds (or until
``max_batch_size`` accumulate), then the whole batch dispatches to the
worker pool in one call — so even single-query traffic exercises dedup,
shared masks, and group-by fusion.

Backpressure is typed, never silent.  Without an admission controller a
full queue rejects the submit with
:class:`~repro.exceptions.ServingOverloadError` carrying the queue depth.
With one (:class:`~repro.serving.governance.AdmissionController`), shedding
is *priority-aware*: each request carries a priority class
(``interactive`` / ``batch`` / ``background``), lower classes hit their
queue-share and token-bucket limits first, and a shed request fails with
:class:`~repro.exceptions.AdmissionRejectedError` carrying a
``retry_after_hint`` — background work is turned away while interactive
traffic still admits.  A dispatch that misses its timeout fails **only
that batch's** futures with a
:class:`~repro.exceptions.DispatchTimeoutError` (a retryable
``ServingOverloadError``) naming the lagging shard when the pool
identified one.  Late replies from a timed-out worker are discarded by
sequence number in the pool, so a slow shard can never corrupt a later
batch.

Deadlines propagate end to end: each request's budget (its ``deadline``
argument or the batcher-wide ``request_deadline`` default) becomes one
absolute monotonic timestamp at ``submit()`` and rides, unconverted, into
the pool dispatch, where it bounds the pool's retries and workers arm
cooperative cancellation tokens from what is left of it — an overrunning
query dies mid-execution with a typed
:class:`~repro.exceptions.DeadlineExceededError`, not a socket timeout.
When the backlog exceeds one batch, pending requests are stable-sorted by
priority class so interactive work dispatches first (FIFO within a class).

The batcher never retries: retry, backoff and failover live in the pool,
the layer that knows which shard failed.  A batch is accumulated,
dispatched once through ``execute_batch_outcomes``, and each future settles
from its own :class:`~repro.serving.scale.pool.RequestOutcome` — one bad
statement or one exhausted shard fails only the requests it touched while
the rest of the batch's answers resolve.

Everything observable lands in the registry: queue depth gauge, micro-batch
size histogram (power-of-two buckets), request latency histogram
(p50/p95/p99), accepted/shed counters, and the ``governance.*`` admission
counters when a controller is attached.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from ...exceptions import DispatchTimeoutError, ServingOverloadError
from ...obs import names
from ...obs.metrics import MetricsRegistry
from ...query.ast import Query
from ..governance import (
    PRIORITY_INTERACTIVE,
    PRIORITY_LEVELS,
    AdmissionController,
)
from .pool import RequestOutcome, SupervisedWorkerPool


@dataclass
class _PendingRequest:
    """One queued query: its future plus the governance state that rides along.

    ``deadline_ts`` is an absolute ``time.monotonic`` timestamp (``None`` =
    no budget); ``submitted_at`` is the ``time.perf_counter`` instant used
    for the latency histogram.
    """

    query: Query | str
    future: asyncio.Future
    submitted_at: float
    priority: str = PRIORITY_INTERACTIVE
    deadline_ts: float | None = None


class MicroBatcher:
    """Accumulate concurrent arrivals into latency-bounded pool batches.

    Parameters
    ----------
    pool:
        The worker pool batches dispatch to (anything with the pool's
        ``execute_batch_outcomes`` and a ``metrics`` registry).
    latency_budget:
        Seconds a query may wait for companions before its batch flushes.
        The knob trades tail latency for fusion opportunity: 0 degenerates
        to one-query batches, a few milliseconds is usually enough to fuse
        bursts without a visible latency cost.
    max_batch_size:
        Flush immediately once this many queries are waiting.
    max_queue:
        Submissions beyond this many waiting queries are shed with
        :class:`ServingOverloadError` (carrying the depth) instead of
        queueing unboundedly.  Ignored when ``admission`` is given — the
        controller's own queue shares apply instead.
    max_inflight:
        Concurrent pool dispatches (each runs on its own executor thread,
        conversing with disjoint or lock-serialized workers).
    dispatch_timeout:
        Seconds one whole pool dispatch — the pool's retries included — is
        expected to take at most.  The pool's own reply timeouts and retry
        budget fire first in the common case; a dispatch still out after
        twice this long (a wedged executor thread) fails only that batch's
        futures with :class:`DispatchTimeoutError`.  ``None`` waits forever.
    request_deadline:
        Default wall-clock budget in seconds per query measured from
        submission (overridable per request via ``submit(deadline=...)``).
        It propagates into the pool dispatch, where it stops retries and
        lets workers cancel cooperatively.  ``None`` = no budget.
    admission:
        Optional :class:`~repro.serving.governance.AdmissionController`.
        When given, ``submit`` runs priority-aware admission (queue shares
        + token bucket, lowest priority shed first, typed
        :class:`~repro.exceptions.AdmissionRejectedError`) instead of the
        bare ``max_queue`` check.
    metrics:
        Registry for queue/batch/latency instruments; the pool's registry
        is used when omitted, so one snapshot shows the whole tier.
    """

    def __init__(
        self,
        pool: SupervisedWorkerPool,
        latency_budget: float = 0.002,
        max_batch_size: int = 64,
        max_queue: int = 1024,
        max_inflight: int = 4,
        dispatch_timeout: float | None = None,
        request_deadline: float | None = None,
        admission: AdmissionController | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if latency_budget < 0:
            raise ValueError("latency_budget must be >= 0")
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self._pool = pool
        self.latency_budget = latency_budget
        self.max_batch_size = max_batch_size
        self.max_queue = max_queue
        self.max_inflight = max_inflight
        self.dispatch_timeout = dispatch_timeout
        self.request_deadline = request_deadline
        self.admission = admission
        self.metrics = metrics if metrics is not None else pool.metrics
        if admission is not None and admission.metrics is None:
            # Adopt the tier's registry so governance.* admission counters
            # land in the same snapshot as the queue/latency instruments.
            admission.metrics = self.metrics
        self._pending: deque[_PendingRequest] = deque()
        self._arrival = asyncio.Event()
        self._running = False
        self._flusher: asyncio.Task | None = None
        self._dispatches: set[asyncio.Task] = set()
        self._inflight: asyncio.Semaphore | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._queue_depth = self.metrics.gauge(names.SCALE_QUEUE_DEPTH)
        self._batch_sizes = self.metrics.histogram(
            names.MICROBATCH_SIZE, buckets=names.MICROBATCH_BUCKETS
        )
        self._request_seconds = self.metrics.histogram(names.SCALE_REQUEST_SECONDS)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the flusher task (idempotent)."""
        if self._running:
            return
        self._running = True
        self._inflight = asyncio.Semaphore(self.max_inflight)
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_inflight, thread_name_prefix="microbatch"
        )
        self._flusher = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Drain the queue, wait for inflight dispatches, stop the flusher."""
        if not self._running:
            return
        self._running = False
        self._arrival.set()
        if self._flusher is not None:
            await self._flusher
            self._flusher = None
        if self._dispatches:
            await asyncio.gather(*tuple(self._dispatches), return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(
        self,
        query: Query | str,
        priority: str = PRIORITY_INTERACTIVE,
        deadline: float | None = None,
    ) -> Any:
        """Queue one query and await its answer.

        ``priority`` selects the admission class (ignored for ordering when
        the queue never backs up); ``deadline`` is this request's budget in
        seconds, defaulting to the batcher-wide ``request_deadline``.
        Sheds raise :class:`AdmissionRejectedError` (with a controller) or
        :class:`ServingOverloadError` (bare queue bound) immediately.
        """
        if not self._running:
            raise RuntimeError("MicroBatcher.submit() before start()")
        depth = len(self._pending)
        if self.admission is not None:
            try:
                self.admission.admit(priority, queue_depth=depth)
            except ServingOverloadError:
                self.metrics.counter(names.SCALE_OVERLOADS).inc()
                raise
        elif depth >= self.max_queue:
            self.metrics.counter(names.SCALE_OVERLOADS).inc()
            raise ServingOverloadError(
                "micro-batch queue is full", queue_depth=depth
            )
        self.metrics.counter(names.SCALE_REQUESTS).inc()
        if deadline is None:
            deadline = self.request_deadline
        entry = _PendingRequest(
            query=query,
            future=asyncio.get_running_loop().create_future(),
            submitted_at=time.perf_counter(),
            priority=priority,
            deadline_ts=(
                None if deadline is None else time.monotonic() + deadline
            ),
        )
        self._pending.append(entry)
        self._queue_depth.set(len(self._pending))
        self._arrival.set()
        return await entry.future

    # ------------------------------------------------------------------
    # Flusher
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if not self._pending:
                if not self._running:
                    break
                await self._arrival.wait()
                self._arrival.clear()
                continue
            # First query of the batch is in: accumulate companions until
            # the latency budget runs out or the batch is full.
            deadline = loop.time() + self.latency_budget
            while self._running and len(self._pending) < self.max_batch_size:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    await asyncio.wait_for(self._arrival.wait(), remaining)
                    self._arrival.clear()
                except (asyncio.TimeoutError, TimeoutError):
                    break
            if len(self._pending) > self.max_batch_size:
                # Backlogged: higher priority classes dispatch first.  The
                # sort is stable, so arrival order holds within a class —
                # interactive requests jump the queue, they never reorder
                # each other.
                self._pending = deque(
                    sorted(
                        self._pending,
                        key=lambda entry: PRIORITY_LEVELS.get(
                            entry.priority, len(PRIORITY_LEVELS)
                        ),
                    )
                )
            batch: list[_PendingRequest] = []
            while self._pending and len(batch) < self.max_batch_size:
                batch.append(self._pending.popleft())
            self._queue_depth.set(len(self._pending))
            task = loop.create_task(self._dispatch(batch))
            self._dispatches.add(task)
            task.add_done_callback(self._dispatches.discard)

    async def _dispatch(self, batch: list[_PendingRequest]) -> None:
        assert self._inflight is not None and self._executor is not None
        loop = asyncio.get_running_loop()
        queries = [entry.query for entry in batch]
        # The pool-level deadline is the *tightest* unexpired one in the
        # batch.  An already expired request is excluded: it still gets its
        # one dispatch (the deadline bounds waiting and retries, it never
        # swallows the first attempt), and it must not zero out its batch
        # siblings' budgets.
        now = time.monotonic()
        deadline_ts = min(
            (
                entry.deadline_ts
                for entry in batch
                if entry.deadline_ts is not None and entry.deadline_ts > now
            ),
            default=None,
        )
        self._batch_sizes.record(float(len(batch)))
        self.metrics.counter(names.SCALE_DISPATCHES).inc()
        async with self._inflight:
            work = loop.run_in_executor(
                self._executor,
                lambda: self._pool.execute_batch_outcomes(
                    queries, deadline_ts=deadline_ts
                ),
            )
            try:
                if self.dispatch_timeout is not None:
                    outcomes = await asyncio.wait_for(
                        asyncio.shield(work), self.dispatch_timeout * 2
                    )
                else:
                    outcomes = await work
            except (asyncio.TimeoutError, TimeoutError):
                error = DispatchTimeoutError(
                    "batch dispatch missed the latency budget",
                    queue_depth=len(batch),
                )
                outcomes = [RequestOutcome(ok=False, error=error)] * len(batch)
            except Exception as error:  # noqa: BLE001 - forwarded to callers
                outcomes = [RequestOutcome(ok=False, error=error)] * len(batch)
        finished = time.perf_counter()
        for entry, outcome in zip(batch, outcomes):
            if entry.future.done():
                continue
            if outcome.ok:
                self._request_seconds.record(finished - entry.submitted_at)
                entry.future.set_result(outcome.value)
            else:
                if isinstance(outcome.error, ServingOverloadError):
                    self.metrics.counter(names.SCALE_OVERLOADS).inc()
                entry.future.set_exception(outcome.error)
