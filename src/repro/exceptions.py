"""Exception hierarchy for the Themis reproduction.

All library-raised errors derive from :class:`ThemisError` so callers can
catch a single base class.  Specific subclasses communicate which subsystem
rejected the input.
"""

from __future__ import annotations


class ThemisError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ThemisError):
    """Raised when a relation, attribute, or domain is malformed."""


class UnknownAttributeError(SchemaError):
    """Raised when an attribute name is not part of a schema."""

    def __init__(self, attribute: str, available: tuple[str, ...] = ()):
        self.attribute = attribute
        self.available = tuple(available)
        message = f"unknown attribute {attribute!r}"
        if self.available:
            message += f"; available attributes: {', '.join(self.available)}"
        super().__init__(message)


class DomainError(SchemaError):
    """Raised when a value is outside an attribute's active domain."""


class AggregateError(ThemisError):
    """Raised when population aggregates are malformed or inconsistent."""


class ReweightingError(ThemisError):
    """Raised when a sample reweighting procedure cannot produce weights."""


class BayesNetError(ThemisError):
    """Raised for structural or parametric problems in a Bayesian network."""


class CyclicGraphError(BayesNetError):
    """Raised when an edge operation would introduce a directed cycle."""


class QueryError(ThemisError):
    """Raised when a query cannot be parsed or evaluated."""


class WireFormatError(ThemisError):
    """Raised when a serialized plan payload cannot be decoded.

    Covers structural problems (unknown node tags, malformed values), format
    version mismatches, and canonical-key disagreements between the sender's
    plan and what the receiver's schema compiles the same query to.
    """


class QueryCancelledError(ThemisError):
    """Raised when a query's cancellation token fired mid-execution.

    Cooperative: executors poll the token at chunk boundaries (per plan,
    per evidence-signature group, per batch stage), so cancellation
    lands between kernels and never leaves a cache or sibling result in a
    half-written state.  Terminal — retrying a cancelled request without a
    new token would be cancelled again.
    """

    def __init__(self, message: str, reason: str | None = None):
        self.reason = reason
        if reason is not None:
            message = f"{message} (reason={reason})"
        super().__init__(message)


class DeadlineExceededError(QueryCancelledError):
    """Raised when a query's deadline budget expired mid-execution.

    A :class:`QueryCancelledError` whose reason is time: ``budget`` is the
    total seconds the request was given and ``elapsed`` how many had passed
    when a chunk-boundary poll noticed.  Terminal for the request that
    carried the deadline; the caller may resubmit with a fresh one.
    """

    def __init__(
        self,
        message: str,
        budget: float | None = None,
        elapsed: float | None = None,
    ):
        self.budget = budget
        self.elapsed = elapsed
        details = []
        if budget is not None:
            details.append(f"budget={budget:.3f}s")
        if elapsed is not None:
            details.append(f"elapsed={elapsed:.3f}s")
        if details:
            message = f"{message} ({', '.join(details)})"
        # Skip QueryCancelledError's reason-formatting __init__; the detail
        # string above already says why.
        ThemisError.__init__(self, message)
        self.reason = "deadline"


class RetryableServingError(ThemisError):
    """Marker base for serving failures that may succeed on re-submission.

    The fault-tolerant dispatch path retries (with backoff) any failure that
    derives from this class — a crashed worker, a missed reply deadline — and
    treats everything else (query errors, schema skew) as fatal: retrying a
    deterministic error would reproduce it bit-for-bit.
    """


class ServingOverloadError(ThemisError):
    """Raised when the serving tier sheds load instead of queueing forever.

    The asyncio front-end raises it when the micro-batch queue exceeds its
    bound, and the sharded worker pool raises it when a worker misses the
    dispatch timeout.  ``queue_depth`` reports how many requests were
    waiting at rejection time and ``shard_id`` names the lagging shard when
    one is identifiable (``None`` for front-end queue overflow, which is not
    attributable to a single shard).
    """

    def __init__(
        self,
        message: str,
        queue_depth: int | None = None,
        shard_id: int | None = None,
    ):
        self.queue_depth = queue_depth
        self.shard_id = shard_id
        details = []
        if queue_depth is not None:
            details.append(f"queue_depth={queue_depth}")
        if shard_id is not None:
            details.append(f"shard_id={shard_id}")
        if details:
            message = f"{message} ({', '.join(details)})"
        super().__init__(message)


class AdmissionRejectedError(ServingOverloadError):
    """Raised when admission control sheds a request before it queues.

    The front-end's priority-aware admission controller rejects the
    lowest-priority work first when the queue or token bucket runs out of
    headroom.  Terminal for this submission — but ``retry_after_hint``
    (seconds) tells a well-behaved client when capacity should exist again,
    and ``priority`` names the class the request was submitted under.
    """

    def __init__(
        self,
        message: str,
        priority: str | None = None,
        retry_after_hint: float | None = None,
        queue_depth: int | None = None,
    ):
        self.priority = priority
        self.retry_after_hint = retry_after_hint
        details = []
        if priority is not None:
            details.append(f"priority={priority}")
        if retry_after_hint is not None:
            details.append(f"retry_after_hint={retry_after_hint:.3f}s")
        if details:
            message = f"{message} ({', '.join(details)})"
        super().__init__(message, queue_depth=queue_depth)


class CircuitOpenError(ServingOverloadError, RetryableServingError):
    """Raised when a shard's circuit breaker is open and rejects dispatch.

    The breaker opened because the shard's recent error rate crossed its
    threshold; traffic is rejected *before* burning a dispatch timeout on a
    sick-but-not-dead worker.  Retryable: after ``retry_after_hint`` seconds
    the breaker admits a half-open probe, and other shards may already be
    healthy.
    """

    def __init__(
        self,
        message: str,
        shard_id: int | None = None,
        retry_after_hint: float | None = None,
    ):
        self.retry_after_hint = retry_after_hint
        if retry_after_hint is not None:
            message = f"{message} (retry_after_hint={retry_after_hint:.3f}s)"
        super().__init__(message, shard_id=shard_id)


class DispatchTimeoutError(ServingOverloadError, RetryableServingError):
    """Raised when one worker conversation misses its reply deadline.

    Subclasses :class:`ServingOverloadError` (existing handlers keep
    working) but is additionally :class:`RetryableServingError`: the worker
    process was alive when the deadline expired, so the request is merely
    late — a retry against the same (or a failover) shard can still answer
    it.  A plain ``ServingOverloadError`` (queue-full shed) stays fatal.
    """


class WorkerCrashedError(RetryableServingError):
    """Raised when a worker process died mid-conversation.

    Detected by pipe EOF / ``BrokenPipeError``, a non-``None``
    ``Process.exitcode``, or a missed heartbeat ping.  Retryable: the
    supervisor respawns the shard (or fails the keys over to the next live
    shard on the ring), and every worker is deterministic, so a retry
    returns the same bits the dead worker would have.

    ``shard_id`` names the crashed shard and ``reason`` says how the death
    was detected (``"pipe-eof"``, ``"exitcode"``, ``"heartbeat"``, ...).
    """

    def __init__(
        self,
        message: str,
        shard_id: int | None = None,
        reason: str | None = None,
    ):
        self.shard_id = shard_id
        self.reason = reason
        details = []
        if shard_id is not None:
            details.append(f"shard_id={shard_id}")
        if reason is not None:
            details.append(f"reason={reason}")
        if details:
            message = f"{message} ({', '.join(details)})"
        super().__init__(message)


class RetryExhaustedError(ThemisError):
    """Raised when a request's retry budget or deadline ran out.

    Every attempt failed with a retryable error (crash or timeout); the
    last one is kept in ``last_error`` and the attempt count in
    ``attempts``.  The request was *not* silently dropped — this error is
    the typed, loud alternative.
    """

    def __init__(
        self,
        message: str,
        attempts: int | None = None,
        last_error: BaseException | None = None,
    ):
        self.attempts = attempts
        self.last_error = last_error
        details = []
        if attempts is not None:
            details.append(f"attempts={attempts}")
        if last_error is not None:
            details.append(f"last_error={last_error!r}")
        if details:
            message = f"{message} ({', '.join(details)})"
        super().__init__(message)


class DegradedModeError(ThemisError):
    """Raised when every shard of a supervised pool is permanently down.

    The supervisor only gives up after exhausting each shard's respawn
    budget; from then on every request, and every ``refit()``, fails with
    this error.
    """


class SQLSyntaxError(QueryError):
    """Raised by the SQL parser on malformed query text."""


class ExperimentError(ThemisError):
    """Raised by the experiment harness on invalid configurations."""
