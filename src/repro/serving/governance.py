"""Resource governance for the serving tier.

Three cooperating mechanisms, one module:

* **Deadlines and cooperative cancellation** — a :class:`Deadline` is a
  monotonic-clock budget; a :class:`CancelToken` wraps one (plus explicit
  ``cancel()`` calls) and is *polled* by executors at chunk boundaries
  (per schedule unit, per evidence-signature group, per batch stage).  An
  expired poll raises a typed
  :class:`~repro.exceptions.DeadlineExceededError` /
  :class:`~repro.exceptions.QueryCancelledError` mid-execution instead of
  after the work is already wasted.

* **Memory-budgeted caching** — every serving cache is a
  :class:`~repro.lru.LRUCache` registered, as it is, with a per-session
  :class:`MemoryGovernor` enforcing one global budget with pressure tiers:
  *soft* (evict cold entries, lowest hit-density tier first), *hard*
  (additionally reject new admissions), *critical* (flush everything).
  Decisions and high-water marks export through the session's
  :class:`~repro.obs.MetricsRegistry` under frozen ``governance.*`` names.

* **Priority-aware admission control** — requests carry a priority class
  (``interactive`` / ``batch`` / ``background``); an
  :class:`AdmissionController` combines a token-bucket rate limiter with a
  queue-depth load shedder that rejects the lowest-priority work first,
  raising :class:`~repro.exceptions.AdmissionRejectedError` with a
  ``retry_after_hint``.  A per-shard :class:`CircuitBreaker` (error-rate
  window -> open -> half-open probe) stops traffic to a sick-but-not-dead
  shard before its retries burn everyone's deadline budget.

Everything here is clock-injectable for deterministic tests.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Callable

from ..exceptions import (
    AdmissionRejectedError,
    DeadlineExceededError,
    QueryCancelledError,
)
from ..lru import LRUCache, measured_bytes
from ..obs import names

__all__ = [
    "AdmissionController",
    "CancelToken",
    "CircuitBreaker",
    "Deadline",
    "MemoryGovernor",
    "PRIORITIES",
    "PRIORITY_BACKGROUND",
    "PRIORITY_BATCH",
    "PRIORITY_INTERACTIVE",
    "PRIORITY_LEVELS",
    "TIER_CRITICAL",
    "TIER_HARD",
    "TIER_OK",
    "TIER_SOFT",
    "TokenBucket",
    "measured_bytes",
    "resolve_cancel_token",
]


# ---------------------------------------------------------------------------
# Deadlines and cancellation
# ---------------------------------------------------------------------------
class Deadline:
    """A monotonic wall-clock budget for one request.

    ``budget`` is the total seconds granted; ``expires_at`` the monotonic
    instant it runs out.  Deadlines are *values*: they cross layers as a
    remaining-seconds float (``remaining()``) and are rebuilt on the far
    side, so worker processes never need a shared clock.
    """

    __slots__ = ("budget", "expires_at", "_clock")

    def __init__(
        self,
        expires_at: float,
        budget: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.expires_at = float(expires_at)
        self.budget = budget
        self._clock = clock

    @classmethod
    def after(
        cls, seconds: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """A deadline ``seconds`` from now on ``clock``."""
        return cls(clock() + seconds, budget=float(seconds), clock=clock)

    def remaining(self) -> float:
        """Seconds left before expiry (negative once expired)."""
        return self.expires_at - self._clock()

    def expired(self) -> bool:
        return self._clock() >= self.expires_at

    def elapsed(self) -> float | None:
        """Seconds consumed so far, when the total budget is known."""
        if self.budget is None:
            return None
        return self.budget - self.remaining()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining():.3f}s, budget={self.budget})"


class CancelToken:
    """Cooperative cancellation handle polled at chunk boundaries.

    A token is cancelled either explicitly (``cancel(reason)``) or
    implicitly by its :class:`Deadline` expiring.  ``poll()`` raises the
    matching typed error; ``cancelled`` checks without raising.  Tokens are
    cheap enough to poll per schedule unit / per signature group.
    """

    __slots__ = ("deadline", "_reason", "_cancelled")

    def __init__(self, deadline: Deadline | None = None):
        self.deadline = deadline
        self._reason: str | None = None
        self._cancelled = False

    def cancel(self, reason: str = "cancelled") -> None:
        """Mark the token cancelled; the next ``poll()`` raises."""
        self._cancelled = True
        self._reason = reason

    @property
    def cancelled(self) -> bool:
        """True when a poll would raise (explicit cancel or expired deadline)."""
        if self._cancelled:
            return True
        return self.deadline is not None and self.deadline.expired()

    def poll(self) -> None:
        """Raise the typed cancellation error if the token has fired."""
        if self._cancelled:
            raise QueryCancelledError("query cancelled", reason=self._reason)
        if self.deadline is not None and self.deadline.expired():
            raise DeadlineExceededError(
                "query deadline exceeded",
                budget=self.deadline.budget,
                elapsed=self.deadline.elapsed(),
            )


def resolve_cancel_token(
    cancel: "CancelToken | None", deadline: "Deadline | float | None"
) -> CancelToken | None:
    """Fold optional ``cancel=`` / ``deadline=`` call parameters into one token.

    ``deadline`` may be a :class:`Deadline` or a plain seconds-from-now
    float.  When both a token and a deadline are given, the deadline is
    attached to the token only if the token has none (an explicit token's
    own deadline wins).  Returns ``None`` when neither is set, so ungoverned
    call sites stay zero-overhead.
    """
    if deadline is not None and not isinstance(deadline, Deadline):
        deadline = Deadline.after(float(deadline))
    if cancel is None:
        return CancelToken(deadline) if deadline is not None else None
    if cancel.deadline is None and deadline is not None:
        cancel.deadline = deadline
    return cancel


# ---------------------------------------------------------------------------
# Memory governor
# ---------------------------------------------------------------------------
#: Pressure tiers, ordered.  ``maintain()`` classifies total governed bytes
#: against the budget and acts per tier.
TIER_OK = "ok"
TIER_SOFT = "soft"
TIER_HARD = "hard"
TIER_CRITICAL = "critical"

_TIER_LEVELS = {TIER_OK: 0, TIER_SOFT: 1, TIER_HARD: 2, TIER_CRITICAL: 3}


#: Pressure lines as fractions of the budget, and the share of the coldest
#: cache's entries one soft/hard eviction pass drops.
SOFT_FRACTION = 0.6
HARD_FRACTION = 0.85
EVICTION_FRACTION = 0.25


class MemoryGovernor:
    """Enforces one global byte budget across every registered cache.

    ``maintain()`` is the single entry point: it measures, classifies the
    pressure tier, evicts (soft/hard) or flushes (critical), and exports
    the decision trail through the metrics registry.  ``admit(nbytes)``
    gates new cache insertions — under *hard* or worse pressure (or when
    the candidate itself would blow the budget) admissions are rejected and
    the cache simply computes without storing.  Every entry the governor
    drops, by eviction or flush, counts as one of its cache's ``evictions``
    and one ``governance.evictions``.
    """

    def __init__(self, budget_bytes: int, metrics: "Any | None" = None):
        if budget_bytes <= 0:
            raise ValueError("memory budget must be positive")
        self.budget_bytes = int(budget_bytes)
        self.metrics = metrics
        self._caches: dict[str, LRUCache] = {}
        self.high_water_bytes = 0
        self.tier = TIER_OK
        if metrics is not None:
            metrics.gauge(names.GOVERNANCE_BUDGET_BYTES).set(self.budget_bytes)

    # -- registration ------------------------------------------------------
    def register(self, name: str, cache: LRUCache) -> None:
        """Govern ``cache`` as ``name`` (replacing any cache of that name).

        The cache measures what it already holds and, from now on, asks
        :meth:`admit` before storing anything.
        """
        cache.governor = self
        self._caches[name] = cache

    def govern(self, caches: "dict[str, LRUCache]") -> None:
        """Govern exactly ``caches``: :meth:`register` the new ones, let go
        of the ones no longer named."""
        for name, cache in caches.items():
            if cache.governor is not self:
                self.register(name, cache)
        self._caches = dict(caches)

    # -- measurement -------------------------------------------------------
    def total_bytes(self) -> int:
        """Sum of measured byte sizes across every governed cache."""
        total = sum(cache.byte_size for cache in self._caches.values())
        if total > self.high_water_bytes:
            self.high_water_bytes = total
            if self.metrics is not None:
                self.metrics.gauge(names.GOVERNANCE_CACHE_BYTES_HIGH_WATER).set(total)
        return total

    def _classify(self, total: int) -> str:
        if total > self.budget_bytes:
            return TIER_CRITICAL
        if total > HARD_FRACTION * self.budget_bytes:
            return TIER_HARD
        if total > SOFT_FRACTION * self.budget_bytes:
            return TIER_SOFT
        return TIER_OK

    # -- admission ---------------------------------------------------------
    def admit(self, nbytes: int = 0) -> bool:
        """May a new entry of ``nbytes`` be cached right now?

        Rejects under *hard*/*critical* pressure and rejects any single
        entry that could not fit in the whole budget.  Cheap — uses the
        tier computed by the last ``maintain()`` rather than re-measuring.
        """
        if nbytes > self.budget_bytes:
            self._count(names.GOVERNANCE_CACHE_ADMISSION_REJECTIONS)
            return False
        if _TIER_LEVELS[self.tier] >= _TIER_LEVELS[TIER_HARD]:
            self._count(names.GOVERNANCE_CACHE_ADMISSION_REJECTIONS)
            return False
        return True

    # -- maintenance -------------------------------------------------------
    def maintain(self) -> str:
        """Measure, classify, and relieve pressure.  Returns the tier.

        * ``soft``/``hard`` — evict from the coldest cache first (lowest
          hit-density: hits per governed byte), a fraction of its entries
          per round, until total drops back under the soft line or nothing
          more can be evicted.
        * ``critical`` — flush every governed cache outright.
        """
        total = self.total_bytes()
        tier = self._classify(total)
        if tier == TIER_CRITICAL:
            for cache in self._caches.values():
                self._evict(cache, len(cache))
            self._count(names.GOVERNANCE_FLUSHES)
            total = self.total_bytes()
            tier = self._classify(total)
        elif tier in (TIER_SOFT, TIER_HARD):
            soft_line = SOFT_FRACTION * self.budget_bytes
            # Bounded passes: each pass evicts a chunk of the coldest
            # non-empty cache; stop when under the soft line or dry.
            for _ in range(32):
                if total <= soft_line:
                    break
                coldest = self._coldest_cache()
                if coldest is None:
                    break
                if not self._evict(coldest, max(1, int(len(coldest) * EVICTION_FRACTION))):
                    break
                total = self.total_bytes()
            tier = self._classify(total)
        self.tier = tier
        self._export(total, tier)
        return tier

    def _evict(self, cache: LRUCache, count: int) -> int:
        """Evict ``count`` of ``cache``'s coldest entries, counted; bytes freed."""
        freed = cache.evict_entries(count)
        self._count(names.GOVERNANCE_EVICTIONS, count)
        if freed:
            self._count(names.GOVERNANCE_EVICTED_BYTES, freed)
        return freed

    def _coldest_cache(self) -> LRUCache | None:
        best: LRUCache | None = None
        best_density = None
        for cache in self._caches.values():
            nbytes = cache.byte_size
            if nbytes <= 0 or len(cache) <= 0:
                continue
            density = cache.statistics.hits / nbytes
            if best_density is None or density < best_density:
                best, best_density = cache, density
        return best

    # -- metrics -----------------------------------------------------------
    def _count(self, name: str, value: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(value)

    def _export(self, total: int, tier: str) -> None:
        if self.metrics is None:
            return
        self.metrics.gauge(names.GOVERNANCE_CACHE_BYTES).set(total)
        self.metrics.gauge(names.GOVERNANCE_PRESSURE_LEVEL).set(_TIER_LEVELS[tier])
        for name, cache in self._caches.items():
            self.metrics.gauge(names.governed_cache_gauge(name)).set(cache.byte_size)


# ---------------------------------------------------------------------------
# Priority classes
# ---------------------------------------------------------------------------
PRIORITY_INTERACTIVE = "interactive"
PRIORITY_BATCH = "batch"
PRIORITY_BACKGROUND = "background"

#: All priority classes, highest first.
PRIORITIES: tuple[str, ...] = (
    PRIORITY_INTERACTIVE,
    PRIORITY_BATCH,
    PRIORITY_BACKGROUND,
)

#: Numeric levels for sorting — *lower* sorts first (dispatches earlier).
PRIORITY_LEVELS: dict[str, int] = {p: i for i, p in enumerate(PRIORITIES)}


# ---------------------------------------------------------------------------
# Token bucket
# ---------------------------------------------------------------------------
class TokenBucket:
    """A refill-on-access token bucket.

    ``rate`` tokens/second refill up to ``burst``.  ``try_take(floor)``
    takes one token only if doing so leaves at least ``floor`` tokens —
    priority classes reserve headroom by taking with a higher floor, so the
    bucket empties for background work before interactive work.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate <= 0 or burst <= 0:
            raise ValueError("token bucket rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def try_take(self, floor: float = 0.0) -> bool:
        """Take one token unless it would dip below ``floor``."""
        self._refill()
        if self._tokens - 1.0 < floor - 1e-9:
            return False
        self._tokens -= 1.0
        return True

    def seconds_until(self, level: float) -> float:
        """Seconds until the bucket refills back to ``level`` tokens."""
        self._refill()
        deficit = level - self._tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate


# ---------------------------------------------------------------------------
# Admission controller
# ---------------------------------------------------------------------------
class AdmissionController:
    """Priority-aware load shedding at the front door.

    Two independent gates, lowest priority rejected first:

    * **queue depth** — priority ``p`` may only queue while the current
      depth is under ``max_queue * queue_fraction[p]``, so background work
      stops queueing at half-full while interactive work queues to the top;
    * **token bucket** — priority ``p`` takes tokens with a reserved floor
      of ``bucket_floor[p] * burst``, so a hostile background flood drains
      the bucket only down to the interactive reserve.

    Rejections raise :class:`AdmissionRejectedError` carrying a
    ``retry_after_hint`` computed from the bucket's refill rate.
    """

    DEFAULT_QUEUE_FRACTIONS = {
        PRIORITY_INTERACTIVE: 1.0,
        PRIORITY_BATCH: 0.75,
        PRIORITY_BACKGROUND: 0.5,
    }
    DEFAULT_BUCKET_FLOORS = {
        PRIORITY_INTERACTIVE: 0.0,
        PRIORITY_BATCH: 0.25,
        PRIORITY_BACKGROUND: 0.5,
    }

    def __init__(
        self,
        max_queue: int,
        rate: float | None = None,
        burst: float | None = None,
        queue_fractions: Mapping[str, float] | None = None,
        bucket_floors: Mapping[str, float] | None = None,
        metrics: "Any | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.max_queue = int(max_queue)
        self.queue_fractions = dict(queue_fractions or self.DEFAULT_QUEUE_FRACTIONS)
        self.bucket_floors = dict(bucket_floors or self.DEFAULT_BUCKET_FLOORS)
        self.metrics = metrics
        self.bucket: TokenBucket | None = None
        if rate is not None:
            self.bucket = TokenBucket(rate, burst if burst is not None else rate, clock)

    def admit(self, priority: str, queue_depth: int) -> None:
        """Admit or raise :class:`AdmissionRejectedError`."""
        if priority not in PRIORITY_LEVELS:
            raise ValueError(
                f"unknown priority {priority!r}; expected one of {PRIORITIES}"
            )
        depth_cap = self.max_queue * self.queue_fractions.get(priority, 1.0)
        if queue_depth >= depth_cap:
            self._reject(priority, queue_depth, hint=self._hint(priority))
        if self.bucket is not None:
            floor = self.bucket_floors.get(priority, 0.0) * self.bucket.burst
            if not self.bucket.try_take(floor):
                self._reject(priority, queue_depth, hint=self._hint(priority))
        if self.metrics is not None:
            self.metrics.counter(names.GOVERNANCE_REQUESTS_ADMITTED).inc()

    def _hint(self, priority: str) -> float:
        if self.bucket is None:
            return 0.05
        floor = self.bucket_floors.get(priority, 0.0) * self.bucket.burst
        return max(0.01, self.bucket.seconds_until(floor + 1.0))

    def _reject(self, priority: str, queue_depth: int, hint: float) -> None:
        if self.metrics is not None:
            self.metrics.counter(names.GOVERNANCE_REQUESTS_REJECTED).inc()
            self.metrics.counter(names.rejected_counter(priority)).inc()
        raise AdmissionRejectedError(
            "admission rejected: insufficient capacity for priority class",
            priority=priority,
            retry_after_hint=hint,
            queue_depth=queue_depth,
        )


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CircuitBreakerConfig:
    """Knobs for one per-shard circuit breaker."""

    window: int = 16
    failure_threshold: float = 0.5
    min_samples: int = 4
    cooldown: float = 1.0


class CircuitBreaker:
    """Error-rate window -> *open* -> timed *half-open* probe -> *closed*.

    ``allow()`` answers "may I send this shard traffic right now?".  While
    *open*, traffic is refused until ``cooldown`` elapses, then exactly one
    half-open probe is admitted; its outcome (``record_success`` /
    ``record_failure``) closes or re-opens the breaker.  While *closed*, a
    sliding window of recent outcomes trips the breaker once the failure
    rate crosses the threshold (with at least ``min_samples`` observed).
    """

    STATE_CLOSED = "closed"
    STATE_OPEN = "open"
    STATE_HALF_OPEN = "half-open"

    def __init__(
        self,
        window: int = 16,
        failure_threshold: float = 0.5,
        min_samples: int = 4,
        cooldown: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.window = int(window)
        self.failure_threshold = float(failure_threshold)
        self.min_samples = int(min_samples)
        self.cooldown = float(cooldown)
        self._clock = clock
        self._outcomes: deque[bool] = deque(maxlen=self.window)
        self.state = self.STATE_CLOSED
        self._opened_at = 0.0
        self.times_opened = 0

    @classmethod
    def from_config(
        cls,
        config: CircuitBreakerConfig,
        clock: Callable[[], float] = time.monotonic,
    ) -> "CircuitBreaker":
        return cls(
            window=config.window,
            failure_threshold=config.failure_threshold,
            min_samples=config.min_samples,
            cooldown=config.cooldown,
            clock=clock,
        )

    def allow(self) -> bool:
        """May traffic flow right now?  Open -> one probe after cooldown."""
        if self.state == self.STATE_OPEN:
            if self._clock() - self._opened_at >= self.cooldown:
                self.state = self.STATE_HALF_OPEN
                return True
            return False
        if self.state == self.STATE_HALF_OPEN:
            # One probe is already in flight; hold further traffic.
            return False
        return True

    def record_success(self) -> None:
        if self.state == self.STATE_HALF_OPEN:
            self.state = self.STATE_CLOSED
            self._outcomes.clear()
            return
        self._outcomes.append(True)

    def record_failure(self) -> None:
        if self.state == self.STATE_HALF_OPEN:
            self._trip()
            return
        self._outcomes.append(False)
        if self.state == self.STATE_CLOSED and len(self._outcomes) >= self.min_samples:
            failures = sum(1 for ok in self._outcomes if not ok)
            if failures / len(self._outcomes) >= self.failure_threshold:
                self._trip()

    def _trip(self) -> None:
        self.state = self.STATE_OPEN
        self._opened_at = self._clock()
        self._outcomes.clear()
        self.times_opened += 1

    def retry_after(self) -> float:
        """Seconds until an open breaker would admit its half-open probe."""
        if self.state != self.STATE_OPEN:
            return 0.0
        return max(0.0, self.cooldown - (self._clock() - self._opened_at))
