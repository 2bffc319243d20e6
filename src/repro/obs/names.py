"""Frozen names of the observability surface.

Metric names and histogram bucket boundaries are public API: dashboards,
benchmark assertions, and the serving-statistics views all address the
registry by these strings.  They live in one module so that a rename is a
deliberate, reviewed change — ``tests/test_obs.py`` pins every value here
and fails on accidental drift.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Histogram bucket boundaries
# ---------------------------------------------------------------------------
#: Log-spaced latency bucket upper bounds, in seconds: 1 µs doubling up to
#: ~1073 s.  Fine enough for sub-millisecond kernel stages, wide enough for
#: whole-experiment wall clocks.  31 bounds -> 32 buckets (last is overflow).
LATENCY_BUCKETS: tuple[float, ...] = tuple(1e-6 * (2**i) for i in range(31))

# ---------------------------------------------------------------------------
# Serving-session counters (the ServingStatistics view reads these)
# ---------------------------------------------------------------------------
QUERIES_SERVED = "serving.queries_served"
BATCHES_SERVED = "serving.batches_served"
TOTAL_SECONDS = "serving.total_seconds"
INVALIDATIONS = "serving.invalidations"
#: Per-route served-query counters are ``serving.route.<route-name>``.
ROUTE_PREFIX = "serving.route."

# ---------------------------------------------------------------------------
# Bayesian-network engine counters
# ---------------------------------------------------------------------------
#: ``bn.<field>`` for each field of the work dict ``InferenceCache.observed``
#: yields.
BN_PREFIX = "bn."
BN_ELIMINATION_PASSES = "bn.elimination_passes"
BN_FACTOR_CACHE_HITS = "bn.factor_cache_hits"
BN_FACTOR_CACHE_MISSES = "bn.factor_cache_misses"

# ---------------------------------------------------------------------------
# Cache gauges (synced from the cache statistics surfaces)
# ---------------------------------------------------------------------------
#: Cache hit/miss/entry gauges are ``cache.<tier>.<field>``; the ``bn_``
#: tiers are the network stack's, ``hybrid_join_side`` the hybrid stack's.
CACHE_PREFIX = "cache."
CACHE_TIERS: tuple[str, ...] = (
    "result",
    "plan",
    "inference",
    "mask",
    "join_side",
    "bn_mask",
    "bn_join_side",
    "hybrid_join_side",
)

# ---------------------------------------------------------------------------
# Latency histograms
# ---------------------------------------------------------------------------
QUERY_SECONDS = "latency.query_seconds"
BATCH_SECONDS = "latency.batch_seconds"
#: Per-stage batch latency histograms are ``latency.stage.<stage-name>``.
STAGE_PREFIX = "latency.stage."

# Span / stage names used by the serving batch trace.
STAGE_COMPILE = "compile"
STAGE_CACHE_PROBE = "cache-probe"
STAGE_EXECUTE = "execute"

#: Stage names that get a ``latency.stage.*`` histogram per served batch.
BATCH_STAGES: tuple[str, ...] = (STAGE_COMPILE, STAGE_CACHE_PROBE, STAGE_EXECUTE)


# ---------------------------------------------------------------------------
# Scale tier (sharded worker pool + asyncio front-end)
# ---------------------------------------------------------------------------
#: Requests accepted by the asyncio front-end.
SCALE_REQUESTS = "scale.requests"
#: Requests shed with :class:`~repro.exceptions.ServingOverloadError`.
SCALE_OVERLOADS = "scale.overloads"
#: Micro-batches dispatched to the worker pool.
SCALE_DISPATCHES = "scale.dispatches"
#: Pool batches executed (one per ``dispatch`` call).
SCALE_POOL_BATCHES = "scale.pool.batches"
#: Generation broadcasts (refit / add_aggregate fan-outs) to workers.
SCALE_BROADCASTS = "scale.pool.broadcasts"
#: Instantaneous micro-batch queue depth (gauge, sampled at submit/flush).
SCALE_QUEUE_DEPTH = "scale.queue_depth"
#: Number of worker shards in the pool (gauge).
SCALE_SHARDS = "scale.shards"
#: Per-shard plan-occupancy counters are ``scale.shard.<shard-id>.plans``
#: (plans routed to the shard, counted once per dispatch round).
SCALE_SHARD_PREFIX = "scale.shard."
#: Power-of-two micro-batch size bucket bounds: 1, 2, 4, ... 1024.
MICROBATCH_BUCKETS: tuple[float, ...] = tuple(float(2**i) for i in range(11))
#: Histogram of micro-batch sizes (uses :data:`MICROBATCH_BUCKETS`).
MICROBATCH_SIZE = "scale.microbatch_size"
#: End-to-end front-end request latency histogram (submit -> result).
SCALE_REQUEST_SECONDS = "latency.scale.request_seconds"
#: Pool-side batch dispatch latency histogram (serialize -> reassemble).
SCALE_DISPATCH_SECONDS = "latency.scale.dispatch_seconds"

# ---------------------------------------------------------------------------
# Fault tolerance (supervised pool: crash detection, respawn, retry/failover)
# ---------------------------------------------------------------------------
#: Common prefix of every fault-tolerance counter.
SCALE_FAULTS_PREFIX = "scale.faults."
#: Worker deaths detected (pipe EOF, exitcode, missed heartbeat).
SCALE_FAULT_CRASHES = "scale.faults.crashes_detected"
#: Worker processes respawned by the supervisor.
SCALE_FAULT_RESPAWNS = "scale.faults.respawns"
#: Requests re-dispatched after a retryable failure (crash or timeout).
SCALE_FAULT_RETRIES = "scale.faults.retries"
#: Requests routed to a non-home shard because the home shard was down.
SCALE_FAULT_FAILOVERS = "scale.faults.failovers"
#: refit/add_aggregate log entries replayed into respawned workers.
SCALE_FAULT_REPLAYED_BROADCASTS = "scale.faults.replayed_broadcasts"
#: Heartbeat pings that got no reply within the heartbeat timeout.
SCALE_FAULT_HEARTBEAT_MISSES = "scale.faults.heartbeat_misses"
#: Respawn latency histogram: crash detection -> warm, generation-coherent
#: replacement worker (includes the deterministic re-fit and log replay).
SCALE_RESPAWN_SECONDS = "latency.scale.respawn_seconds"


# ---------------------------------------------------------------------------
# Resource governance (memory governor, admission control, circuit breakers)
# ---------------------------------------------------------------------------
#: Common prefix of every governance metric.
GOVERNANCE_PREFIX = "governance."
#: Total governed cache bytes (gauge, sampled at every ``maintain()``).
GOVERNANCE_CACHE_BYTES = "governance.cache_bytes"
#: Highest total governed cache bytes ever observed (gauge).
GOVERNANCE_CACHE_BYTES_HIGH_WATER = "governance.cache_bytes_high_water"
#: The configured memory budget in bytes (gauge, set once).
GOVERNANCE_BUDGET_BYTES = "governance.budget_bytes"
#: Current pressure tier as an integer level: ok=0 soft=1 hard=2 critical=3.
GOVERNANCE_PRESSURE_LEVEL = "governance.pressure_level"
#: Entries the governor evicted, by pressure-relief passes and flushes.
GOVERNANCE_EVICTIONS = "governance.evictions"
#: Measured bytes freed by governor evictions and flushes.
GOVERNANCE_EVICTED_BYTES = "governance.evicted_bytes"
#: Critical-tier flush events (every governed cache dropped at once).
GOVERNANCE_FLUSHES = "governance.flushes"
#: Cache insertions refused because the governor denied admission.
GOVERNANCE_CACHE_ADMISSION_REJECTIONS = "governance.cache_admission_rejections"
#: Requests admitted by the front-end admission controller.
GOVERNANCE_REQUESTS_ADMITTED = "governance.requests_admitted"
#: Requests shed by the admission controller (all priorities).
GOVERNANCE_REQUESTS_REJECTED = "governance.requests_rejected"
#: Per-priority shed counters are ``governance.rejected.<priority>``.
GOVERNANCE_REJECTED_PREFIX = "governance.rejected."
#: Queries cancelled via an explicit CancelToken.
GOVERNANCE_CANCELLED = "governance.cancelled"
#: Queries that died on an expired deadline mid-execution.
GOVERNANCE_DEADLINE_EXCEEDED = "governance.deadline_exceeded"
#: Per-shard circuit breakers transitioning closed -> open.
GOVERNANCE_BREAKER_OPENED = "governance.breaker.opened"
#: Dispatches refused because a breaker was open.
GOVERNANCE_BREAKER_REJECTIONS = "governance.breaker.rejections"
#: Half-open probe dispatches admitted through an open breaker.
GOVERNANCE_BREAKER_PROBES = "governance.breaker.half_open_probes"
#: Per-cache governed byte gauges are ``governance.cache.<name>.bytes``.
GOVERNANCE_CACHE_GAUGE_PREFIX = "governance.cache."


def route_counter(route: str) -> str:
    """The registry counter name for one served route."""
    return ROUTE_PREFIX + route


def cache_gauge(tier: str, metric: str) -> str:
    """The registry gauge name for one cache-tier statistic."""
    return f"{CACHE_PREFIX}{tier}.{metric}"


def stage_histogram(stage: str) -> str:
    """The registry histogram name for one batch stage."""
    return STAGE_PREFIX + stage


def shard_counter(shard_id: int) -> str:
    """The registry counter name for one shard's plan occupancy."""
    return f"{SCALE_SHARD_PREFIX}{shard_id}.plans"


def governed_cache_gauge(cache: str) -> str:
    """The registry gauge name for one governed cache's byte size."""
    return f"{GOVERNANCE_CACHE_GAUGE_PREFIX}{cache}.bytes"


def rejected_counter(priority: str) -> str:
    """The registry counter name for one priority class's shed requests."""
    return GOVERNANCE_REJECTED_PREFIX + priority
