"""Micro-batching: turn single-query arrivals into fusable batches.

The batch optimizer only pays off when it sees several plans at once, but
interactive clients send one query at a time.  The micro-batcher closes the
gap by *natural batching*: a batch is everything pending at the moment a
dispatch slot is free.  While fewer than ``max_inflight`` dispatches are
out, an arrival goes to the worker pool in the event-loop turn it was read
in, together with whatever else became pending in that turn; once every
slot is taken, arrivals wait for a slot — never for a clock — and leave as
one batch (up to ``max_batch_size``) when it frees.  And a batch never
leaves smaller than one that is still out: the bigger batch holds the
shards' pipes, so a smaller one sent after it would only queue behind it,
out of reach of the arrivals it could have coalesced with — it waits until
it has grown to that size or the bigger one is done.  Lone requests pass
each other freely; under a backlog batch sizes hold instead of crumbling as
answers come back shard by shard.  An idle tier adds no wait, a loaded one
batches by itself (so concurrent traffic still exercises dedup, shared
masks, and group-by fusion), and there is no timer to tune.

Backpressure is typed, never silent.  Without an admission controller a
full queue rejects the submit with
:class:`~repro.exceptions.ServingOverloadError` carrying the queue depth.
With one (:class:`~repro.serving.governance.AdmissionController`), shedding
is *priority-aware*: each request carries a priority class
(``interactive`` / ``batch`` / ``background``), lower classes hit their
queue-share and token-bucket limits first, and a shed request fails with
:class:`~repro.exceptions.AdmissionRejectedError` carrying a
``retry_after_hint`` — background work is turned away while interactive
traffic still admits.  The batcher keeps no clock of its own over a
dispatch: every wait inside one is the pool's to bound (reply timeout, retry
budget, respawn timeout), and a request whose shard stayed silent through
all of them fails with the pool's
:class:`~repro.exceptions.DispatchTimeoutError` (a retryable
``ServingOverloadError``) naming the lagging shard.  Late replies from a
timed-out worker are discarded by sequence number in the pool, so a slow
shard can never corrupt a later batch.

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
the layer that knows which shard failed.  A batch is taken off the queue
and dispatched once, on the event loop, through the pool's ``dispatch``
coroutine, which hands back each request's
:class:`~repro.serving.scale.pool.RequestOutcome` the moment its shard has
answered: a future resolves when *its* shard is done, not when the slowest
shard of the batch is, and one bad statement or one exhausted shard fails
only the requests it touched.  There is no thread between a submit and the
worker's pipe.

Everything observable lands in the registry: queue depth gauge, micro-batch
size histogram (power-of-two buckets), request latency histogram
(p50/p95/p99), accepted/shed counters, and the ``governance.*`` admission
counters when a controller is attached.
"""

from __future__ import annotations

import asyncio
import math
import numbers
import time
from collections import deque
from dataclasses import dataclass
from typing import Any

from ...exceptions import ServingOverloadError
from ...obs import names
from ...obs.metrics import MetricsRegistry
from ...query.ast import Query
from ..governance import (
    PRIORITIES,
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
    """Turn concurrent arrivals into pool batches, one per free dispatch slot.

    Parameters
    ----------
    pool:
        The worker pool batches dispatch to (anything with the pool's
        ``dispatch`` coroutine and a ``metrics`` registry), running on the
        batcher's event loop.
    max_batch_size:
        Most queries one dispatch carries; a longer backlog leaves in
        several batches, highest priority class first.
    max_queue:
        Submissions beyond this many waiting queries are shed with
        :class:`ServingOverloadError` (carrying the depth) instead of
        queueing unboundedly.  Ignored when ``admission`` is given — the
        controller's own queue shares apply instead.
    max_inflight:
        Concurrent pool dispatches (each a task on the loop, conversing
        with disjoint or lock-serialized workers).  These are the slots
        batching forms behind: arrivals dispatch at once while one is free
        (and no bigger batch is out) and accumulate into the next batch
        while none is.
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
        max_batch_size: int = 64,
        max_queue: int = 1024,
        max_inflight: int = 4,
        request_deadline: float | None = None,
        admission: AdmissionController | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self._pool = pool
        self.max_batch_size = max_batch_size
        self.max_queue = max_queue
        self.max_inflight = max_inflight
        self.request_deadline = request_deadline
        self.admission = admission
        self.metrics = metrics if metrics is not None else pool.metrics
        if admission is not None and admission.metrics is None:
            # Adopt the tier's registry so governance.* admission counters
            # land in the same snapshot as the queue/latency instruments.
            admission.metrics = self.metrics
        self._pending: deque[_PendingRequest] = deque()
        self._running = False
        #: The size of every batch that is out, one entry per taken slot.
        self._out: list[int] = []
        self._dispatches: set[asyncio.Task] = set()
        self._queue_depth = self.metrics.gauge(names.SCALE_QUEUE_DEPTH)
        self._batch_sizes = self.metrics.histogram(
            names.MICROBATCH_SIZE, buckets=names.MICROBATCH_BUCKETS
        )
        self._request_seconds = self.metrics.histogram(names.SCALE_REQUEST_SECONDS)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Open the dispatch slots (idempotent)."""
        self._running = True

    async def stop(self) -> None:
        """Refuse new submits, then drain the queue and the inflight dispatches."""
        if not self._running:
            return
        self._running = False
        self._pump()
        # A finishing dispatch starts the next one before it is done, so the
        # set only runs empty once the queue has.
        while self._dispatches:
            await asyncio.gather(*tuple(self._dispatches), return_exceptions=True)

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
        the queue never backs up; anything outside ``PRIORITIES`` is a
        ``ValueError`` for this request alone); ``deadline`` is this
        request's budget in seconds, defaulting to the batcher-wide
        ``request_deadline`` (anything but ``None`` or a finite real number
        is a ``ValueError`` for this request alone).  Both are checked
        before admission, so a malformed request takes no token.  Sheds
        raise :class:`AdmissionRejectedError` (with a controller) or
        :class:`ServingOverloadError` (bare queue bound) immediately.
        """
        if not self._running:
            raise RuntimeError("MicroBatcher.submit() before start()")
        if priority not in PRIORITIES:
            # Checked with or without a controller: a malformed class fails
            # its own request here, never the batch it would have joined.
            raise ValueError(
                f"unknown priority {priority!r}; expected one of {PRIORITIES}"
            )
        if deadline is not None and (
            isinstance(deadline, bool)
            or not isinstance(deadline, numbers.Real)
            or not math.isfinite(deadline)
        ):
            raise ValueError(
                f"deadline must be None or a finite number of seconds, got {deadline!r}"
            )
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
        loop = asyncio.get_running_loop()
        entry = _PendingRequest(
            query=query,
            future=loop.create_future(),
            submitted_at=time.perf_counter(),
            priority=priority,
            deadline_ts=(
                None if deadline is None else time.monotonic() + deadline
            ),
        )
        self._pending.append(entry)
        self._queue_depth.set(len(self._pending))
        # Not now but at the end of this event-loop turn: whatever else the
        # turn makes pending leaves in the same batch.
        loop.call_soon(self._pump)
        return await entry.future

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Start one dispatch per free slot while a batch is ready to leave.

        Natural batching: runs when the queue grows (end of that event-loop
        turn) and when a slot frees, never on a clock.  With a slot free the
        batch is what the turn made pending; with every slot out, arrivals
        pile up in the queue and leave together when one frees.  A batch
        smaller than one still out stays in the queue, where it keeps
        growing, until it is that size or the bigger one is done.
        """
        while self._pending and len(self._out) < self.max_inflight:
            if min(len(self._pending), self.max_batch_size) < max(self._out, default=0):
                return
            try:
                batch = self._take_batch()
            except Exception as error:  # noqa: BLE001 - forwarded to callers
                # A queue no batch can be formed from would fail the same
                # way again: fail what is queued, keep serving what arrives.
                failed, self._pending = self._pending, deque()
                self._queue_depth.set(0)
                for entry in failed:
                    self._settle(entry, RequestOutcome(ok=False, error=error))
                return
            self._out.append(len(batch))
            task = asyncio.create_task(self._dispatch(batch))
            self._dispatches.add(task)
            task.add_done_callback(self._dispatches.discard)

    def _take_batch(self) -> list[_PendingRequest]:
        """Pop the next batch: everything pending, up to ``max_batch_size``."""
        if len(self._pending) > self.max_batch_size:
            # Backlogged: higher priority classes dispatch first.  The
            # sort is stable, so arrival order holds within a class —
            # interactive requests jump the queue, they never reorder
            # each other.
            self._pending = deque(
                sorted(
                    self._pending,
                    key=lambda entry: PRIORITY_LEVELS[entry.priority],
                )
            )
        batch = [
            self._pending.popleft()
            for _ in range(min(len(self._pending), self.max_batch_size))
        ]
        self._queue_depth.set(len(self._pending))
        return batch

    async def _dispatch(self, batch: list[_PendingRequest]) -> None:
        """Run one batch on the slot ``_pump`` took for it, then free it."""
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
        try:
            await self._pool.dispatch(
                queries,
                lambda index, outcome: self._settle(batch[index], outcome),
                deadline_ts=deadline_ts,
            )
        except Exception as error:  # noqa: BLE001 - forwarded to callers
            # Whatever the pool had already answered stands.
            for entry in batch:
                self._settle(entry, RequestOutcome(ok=False, error=error))
        finally:
            self._out.remove(len(batch))
        self._pump()

    def _settle(self, entry: _PendingRequest, outcome: RequestOutcome) -> None:
        """Resolve one request's future from its outcome (the first one wins)."""
        if entry.future.done():
            return
        if outcome.ok:
            self._request_seconds.record(time.perf_counter() - entry.submitted_at)
            entry.future.set_result(outcome.value)
        else:
            if isinstance(outcome.error, ServingOverloadError):
                self.metrics.counter(names.SCALE_OVERLOADS).inc()
            entry.future.set_exception(outcome.error)
