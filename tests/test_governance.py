"""Resource governance: deadlines, budgets, admission, breakers, shutdown.

Unit layers (all clock-injected, fully deterministic):

* :class:`Deadline` / :class:`CancelToken` semantics and the typed errors
  they raise when polled;
* :class:`MemoryGovernor` pressure tiers — soft evicts coldest-by-hit-
  density, hard additionally rejects admissions, critical flushes — and the
  frozen ``governance.*`` metrics trail;
* :class:`TokenBucket` floors and :class:`AdmissionController` priority
  shedding (queue-depth caps + bucket reserves, lowest priority first);
* :class:`CircuitBreaker` state machine (closed -> open -> half-open probe).

Integration layers (one shared fitted world):

* one token governs a whole batch: a cancelled token, or an expired
  deadline folded into it, raises its typed error;
* an expired deadline surfaces mid-batch as ``DeadlineExceededError``
  through every entry point (``Themis.query``, session, batch);
* a governed session under a starvation budget still answers exactly
  ``==`` an ungoverned oracle — eviction costs hits, never bits;
* cache invariants: no stale entry survives a refit, and
  ``entries()``/``peek()`` stay stat-free with a governor attached;
* a malformed socket ``deadline`` fails its own request before admission,
  so it takes no token from the well-formed ones;
* worker pools shut down idempotently (double close, close after crash,
  close from the ``atexit`` guard).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.exceptions import (
    AdmissionRejectedError,
    DeadlineExceededError,
    QueryCancelledError,
)
from repro.lru import LRUCache
from repro.obs import names
from repro.obs.metrics import MetricsRegistry
from repro.query import JoinGroupByQuery, PointQuery
from repro.query.workload import MixedQueryWorkload
from repro.serving.governance import (
    PRIORITY_BACKGROUND,
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    TIER_CRITICAL,
    TIER_HARD,
    TIER_OK,
    TIER_SOFT,
    AdmissionController,
    CancelToken,
    CircuitBreaker,
    CircuitBreakerConfig,
    Deadline,
    MemoryGovernor,
    TokenBucket,
    measured_bytes,
    resolve_cancel_token,
)
from repro.serving.scale import AsyncServingFrontend, serve_async

from worlds import build_fitted_themis


class CountingToken(CancelToken):
    """A token that counts its polls and fires on the ``fire_at``-th one."""

    def __init__(self, fire_at: float = float("inf"), error: type = DeadlineExceededError):
        super().__init__()
        self.polls = 0
        self.fire_at = fire_at
        self.error = error

    def poll(self) -> None:
        self.polls += 1
        if self.polls >= self.fire_at:
            if self.error is DeadlineExceededError:
                raise DeadlineExceededError(
                    "query deadline exceeded", budget=0.0, elapsed=0.0
                )
            raise QueryCancelledError("query cancelled", reason="counting token")


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def themis():
    return build_fitted_themis()


@pytest.fixture(scope="module")
def sweep_queries(themis):
    workload = MixedQueryWorkload(themis.sample, seed=808)
    entries = workload.generate(n_point=6, n_scalar=6, n_group_by=6, n_analytic=4)
    return [entry.query for entry in entries]


@pytest.fixture(scope="module")
def expected(sweep_queries):
    oracle = build_fitted_themis()
    return oracle.serve().execute_batch(sweep_queries).results()


# ---------------------------------------------------------------------------
# Deadlines and cancellation
# ---------------------------------------------------------------------------
class TestDeadline:
    def test_after_tracks_the_injected_clock(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired()
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        assert deadline.elapsed() == pytest.approx(1.5)
        clock.advance(0.5)
        assert deadline.expired()
        clock.advance(1.0)
        assert deadline.remaining() == pytest.approx(-1.0)


class TestCancelToken:
    def test_explicit_cancel_raises_typed_with_reason(self):
        token = CancelToken()
        token.poll()  # not yet fired
        assert not token.cancelled
        token.cancel(reason="client disconnected")
        assert token.cancelled
        with pytest.raises(QueryCancelledError) as info:
            token.poll()
        assert info.value.reason == "client disconnected"

    def test_deadline_expiry_raises_deadline_error(self):
        clock = FakeClock()
        token = CancelToken(deadline=Deadline.after(1.0, clock=clock))
        token.poll()
        clock.advance(2.0)
        assert token.cancelled
        with pytest.raises(DeadlineExceededError) as info:
            token.poll()
        assert info.value.budget == pytest.approx(1.0)
        assert info.value.elapsed == pytest.approx(2.0)
        # DeadlineExceededError IS a QueryCancelledError (one except clause
        # catches both) and self-describes its reason.
        assert isinstance(info.value, QueryCancelledError)
        assert info.value.reason == "deadline"

    def test_resolve_folds_cancel_and_deadline(self):
        assert resolve_cancel_token(None, None) is None
        token = resolve_cancel_token(None, 5.0)
        assert token is not None and token.deadline is not None
        assert token.deadline.budget == pytest.approx(5.0)
        explicit = CancelToken()
        assert resolve_cancel_token(explicit, None) is explicit
        # A bare token adopts the call's deadline...
        resolved = resolve_cancel_token(explicit, 1.0)
        assert resolved is explicit and explicit.deadline is not None
        # ...but a token that brought its own keeps it.
        own = Deadline.after(9.0)
        carrying = CancelToken(deadline=own)
        assert resolve_cancel_token(carrying, 1.0).deadline is own


class TestMeasuredBytes:
    def test_arrays_report_buffer_size(self):
        import numpy as np

        array = np.zeros(1000, dtype=np.float64)
        assert measured_bytes(array) >= array.nbytes

    def test_containers_accumulate(self):
        small = measured_bytes({"a": 1})
        large = measured_bytes({f"key{i}": list(range(10)) for i in range(50)})
        assert large > small > 0


# ---------------------------------------------------------------------------
# Memory governor
# ---------------------------------------------------------------------------
def sized_cache(sizes: list[int], hits: int = 0) -> LRUCache:
    """An ungoverned LRU holding one entry per size (each value is its own
    byte size), looked up ``hits`` times."""
    cache = LRUCache(16, size=lambda nbytes: nbytes)
    for key, nbytes in enumerate(sizes):
        cache.put(key, nbytes)
    for _ in range(hits):
        cache.get(0)
    return cache


class TestMemoryGovernor:
    def test_rejects_invalid_configuration(self):
        with pytest.raises(ValueError):
            MemoryGovernor(0)

    def test_tier_classification(self):
        governor = MemoryGovernor(1000)
        cache = sized_cache([])
        governor.register("c", cache)
        assert governor.maintain() == TIER_OK
        cache.put(0, 650)
        # 650 > 600 soft line, eviction drops the only entry.
        assert governor.maintain() in (TIER_SOFT, TIER_OK)

    def test_soft_pressure_evicts_coldest_by_hit_density(self):
        governor = MemoryGovernor(1000)
        hot = sized_cache([200], hits=1000)
        cold = sized_cache([500], hits=1)
        governor.register("hot", hot)
        governor.register("cold", cold)
        tier = governor.maintain()  # 700 > 600: soft pressure
        assert tier == TIER_OK
        # The cold cache was sacrificed; the hot one survived untouched.
        assert len(cold) == 0
        assert len(hot) == 1

    def test_critical_pressure_flushes_everything(self):
        metrics = MetricsRegistry()
        governor = MemoryGovernor(1000, metrics=metrics)
        first = sized_cache([800], hits=50)
        second = sized_cache([900], hits=50)
        governor.register("first", first)
        governor.register("second", second)
        governor.maintain()  # 1700 > 1000: critical
        assert len(first) == 0
        assert len(second) == 0
        assert metrics.counter(names.GOVERNANCE_FLUSHES).value == 1
        assert metrics.counter(names.GOVERNANCE_EVICTED_BYTES).value == 1700
        # A flush evicts: both entries count, in the tiers and the governor.
        assert metrics.counter(names.GOVERNANCE_EVICTIONS).value == 2
        assert first.statistics.evictions == second.statistics.evictions == 1

    def test_hard_pressure_rejects_admissions(self):
        metrics = MetricsRegistry()
        governor = MemoryGovernor(1000, metrics=metrics)
        # A cache that refuses to shrink keeps the tier pinned at hard.
        class Stuck(LRUCache):
            def evict_entries(self, n: int) -> int:
                return 0

        stuck = Stuck(4, size=lambda nbytes: nbytes)
        stuck.put(0, 900)
        governor.register("stuck", stuck)
        assert governor.maintain() == TIER_HARD
        assert governor.admit(10) is False
        assert metrics.counter(names.GOVERNANCE_CACHE_ADMISSION_REJECTIONS).value == 1

    def test_admission_ok_under_no_pressure_but_never_oversized(self):
        governor = MemoryGovernor(1000)
        assert governor.tier == TIER_OK
        assert governor.admit(100) is True
        # A single entry larger than the whole budget can never be cached.
        assert governor.admit(2000) is False

    def test_high_water_and_gauges(self):
        metrics = MetricsRegistry()
        governor = MemoryGovernor(10_000, metrics=metrics)
        cache = sized_cache([300])
        governor.register("c", cache)
        governor.maintain()
        assert governor.high_water_bytes == 300
        assert metrics.gauge(names.GOVERNANCE_BUDGET_BYTES).value == 10_000
        assert metrics.gauge(names.GOVERNANCE_CACHE_BYTES).value == 300
        assert metrics.gauge(names.governed_cache_gauge("c")).value == 300
        assert metrics.gauge(names.GOVERNANCE_PRESSURE_LEVEL).value == 0
        cache.clear()
        governor.maintain()
        # High water is monotone even after the cache shrinks.
        assert governor.high_water_bytes == 300

    def test_register_replaces_by_name(self):
        governor = MemoryGovernor(1000)
        governor.register("c", sized_cache([100]))
        governor.register("c", sized_cache([200]))
        assert governor.total_bytes() == 200


# ---------------------------------------------------------------------------
# Token bucket and admission control
# ---------------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        assert [bucket.try_take() for _ in range(4)] == [True, True, True, False]
        clock.advance(0.1)  # one token back
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_floor_reserves_headroom(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=4.0, clock=clock)
        # Background (floor 2.0) may only drain down to two tokens.
        assert bucket.try_take(floor=2.0)
        assert bucket.try_take(floor=2.0)
        assert not bucket.try_take(floor=2.0)
        # Interactive (floor 0) still gets those reserved tokens.
        assert bucket.try_take(floor=0.0)
        assert bucket.try_take(floor=0.0)
        assert not bucket.try_take(floor=0.0)

    def test_seconds_until_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
        for _ in range(4):
            bucket.try_take()
        assert bucket.seconds_until(1.0) == pytest.approx(0.5)
        assert bucket.seconds_until(0.0) == 0.0

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


class TestAdmissionController:
    def test_queue_depth_caps_shed_lowest_priority_first(self):
        admission = AdmissionController(max_queue=100)
        # Depth 50 = background's cap, under batch's 75 and interactive's 100.
        with pytest.raises(AdmissionRejectedError) as info:
            admission.admit(PRIORITY_BACKGROUND, queue_depth=50)
        assert info.value.priority == PRIORITY_BACKGROUND
        assert info.value.retry_after_hint > 0
        admission.admit(PRIORITY_BATCH, queue_depth=50)
        admission.admit(PRIORITY_INTERACTIVE, queue_depth=50)
        with pytest.raises(AdmissionRejectedError):
            admission.admit(PRIORITY_BATCH, queue_depth=75)
        with pytest.raises(AdmissionRejectedError):
            admission.admit(PRIORITY_INTERACTIVE, queue_depth=100)

    def test_bucket_floors_protect_interactive(self):
        clock = FakeClock()
        admission = AdmissionController(
            max_queue=1000, rate=1.0, burst=4.0, clock=clock
        )
        # Background may take 2 of the 4 burst tokens (floor 0.5*4=2)...
        admission.admit(PRIORITY_BACKGROUND, queue_depth=0)
        admission.admit(PRIORITY_BACKGROUND, queue_depth=0)
        with pytest.raises(AdmissionRejectedError) as info:
            admission.admit(PRIORITY_BACKGROUND, queue_depth=0)
        # ...with a rate-derived hint: refilling back above the floor takes
        # about a second at 1 token/s.
        assert info.value.retry_after_hint == pytest.approx(1.0, abs=0.1)
        # The reserve still serves interactive work.
        admission.admit(PRIORITY_INTERACTIVE, queue_depth=0)
        admission.admit(PRIORITY_INTERACTIVE, queue_depth=0)
        with pytest.raises(AdmissionRejectedError):
            admission.admit(PRIORITY_INTERACTIVE, queue_depth=0)

    def test_unknown_priority_is_a_programming_error(self):
        admission = AdmissionController(max_queue=10)
        with pytest.raises(ValueError):
            admission.admit("urgent", queue_depth=0)

    def test_metrics_trail(self):
        metrics = MetricsRegistry()
        admission = AdmissionController(max_queue=10, metrics=metrics)
        admission.admit(PRIORITY_INTERACTIVE, queue_depth=0)
        with pytest.raises(AdmissionRejectedError):
            admission.admit(PRIORITY_BACKGROUND, queue_depth=5)
        assert metrics.counter(names.GOVERNANCE_REQUESTS_ADMITTED).value == 1
        assert metrics.counter(names.GOVERNANCE_REQUESTS_REJECTED).value == 1
        assert (
            metrics.counter(names.rejected_counter(PRIORITY_BACKGROUND)).value == 1
        )

    def test_malformed_socket_deadline_takes_no_token(self, themis):
        statement = "SELECT COUNT(*) FROM R WHERE A = 1 AND B = 0"
        # Two tokens, no refill to speak of: only well-formed requests may
        # spend them.
        admission = AdmissionController(max_queue=100, rate=0.001, burst=2)
        requests = [
            {"id": 1, "sql": statement, "deadline": "soon"},
            {"id": 2, "sql": statement, "deadline": "soon"},
            {"id": 3, "sql": statement, "deadline": float("nan")},
            {"id": 4, "sql": statement, "deadline": True},
            {"id": 5, "sql": statement},
            {"id": 6, "sql": statement, "deadline": 30},
            {"id": 7, "sql": statement},
        ]

        async def scenario():
            async with AsyncServingFrontend(
                themis, n_workers=1, admission=admission
            ) as frontend:
                server = await serve_async(frontend, port=0)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                responses = []
                for request in requests:
                    writer.write(json.dumps(request).encode() + b"\n")
                    await writer.drain()
                    responses.append(json.loads(await reader.readline()))
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
                requests_counted = frontend.statistics()["counters"][names.SCALE_REQUESTS]
            return responses, requests_counted

        responses, requests_counted = asyncio.run(scenario())
        for malformed in responses[:4]:
            assert not malformed["ok"] and "deadline" in malformed["error"]
            assert "rejected" not in malformed
        assert [r["ok"] for r in responses[4:6]] == [True, True]
        assert responses[4]["value"] == themis.query(statement)
        # The bucket is spent by the two well-formed requests alone.
        assert responses[6]["rejected"] and not responses[6]["ok"]
        assert requests_counted == 2


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, clock):
        return CircuitBreaker.from_config(
            CircuitBreakerConfig(
                window=8, failure_threshold=0.5, min_samples=4, cooldown=2.0
            ),
            clock=clock,
        )

    def test_trips_at_failure_threshold(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.record_success()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.STATE_CLOSED  # 1/3 under 0.5
        breaker.record_failure()  # 2/4 hits 0.5 with min_samples met
        assert breaker.state == CircuitBreaker.STATE_OPEN
        assert breaker.times_opened == 1
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(2.0)

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.STATE_OPEN
        clock.advance(2.0)
        assert breaker.allow()  # the probe
        assert breaker.state == CircuitBreaker.STATE_HALF_OPEN
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == CircuitBreaker.STATE_CLOSED
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.STATE_OPEN
        assert breaker.times_opened == 2
        assert not breaker.allow()

    def test_window_slides(self):
        clock = FakeClock()
        breaker = self.make(clock)
        # Old failures age out of the 8-outcome window before new ones
        # could combine with them across long healthy stretches.
        breaker.record_failure()
        breaker.record_failure()
        for _ in range(8):
            breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_failure()
        # Window now holds 5 successes + 3 failures: 3/8 < 0.5, closed.
        assert breaker.state == CircuitBreaker.STATE_CLOSED


# ---------------------------------------------------------------------------
# End-to-end: cancellation inside the executor
# ---------------------------------------------------------------------------
class TestSessionCancellation:
    def test_expired_batch_deadline_raises_mid_batch(self, themis, sweep_queries):
        session = themis.serve()
        session.clear_caches()
        clock = FakeClock()
        token = CancelToken(deadline=Deadline.after(1.0, clock=clock))
        clock.advance(5.0)  # expire before the first chunk boundary
        with pytest.raises(DeadlineExceededError):
            session.execute_batch(sweep_queries, cancel=token)

    #: Hybrid-routed plans only: GROUP BYs over distinct keys (distinct
    #: schedule units), a join, and a grouped table.
    ALL_HYBRID = [
        "SELECT A, COUNT(*) FROM R GROUP BY A",
        "SELECT B, SUM(A) FROM R WHERE C = 1 GROUP BY B",
        "SELECT C, COUNT(*) FROM R GROUP BY C",
        "SELECT A, B, COUNT(*) FROM R GROUP BY A, B",
        "SELECT A, COUNT(*) AS n, AVG(B) AS m FROM R GROUP BY A ORDER BY n DESC",
    ]

    @pytest.mark.parametrize("error", [DeadlineExceededError, QueryCancelledError])
    def test_hybrid_families_poll_the_deadline_mid_run(self, themis, error):
        assert {themis.plan(sql).route for sql in self.ALL_HYBRID} == {"hybrid"}
        session = themis.serve()

        def polls(statements) -> int:
            session.clear_caches()
            token = CountingToken()
            session.execute_batch(statements, cancel=token)
            return token.polls

        # The token reaches the hybrid's run: polls grow with the family's
        # schedule units (one per distinct GROUP BY key here), not only with
        # the fixed stage boundaries.
        assert polls(self.ALL_HYBRID[:4]) > polls(self.ALL_HYBRID[:1])
        total = polls(self.ALL_HYBRID)

        # Fire on the batch's last poll — before the last schedule unit of
        # the network side's stacked pass, long after the sample side ran.
        session.clear_caches()
        with pytest.raises(error):
            session.execute_batch(
                self.ALL_HYBRID, cancel=CountingToken(fire_at=total, error=error)
            )
        # The abandoned batch left every cache coherent.
        singles = [themis.query(sql) for sql in self.ALL_HYBRID]
        assert session.execute_batch(self.ALL_HYBRID).results() == singles

    def test_themis_query_deadline_surface(self, themis):
        # An absurdly generous deadline changes nothing...
        statement = "SELECT COUNT(*) FROM R WHERE A = 0"
        assert themis.query(statement) == themis.query(statement, deadline=3600.0)
        # ...an already-expired one raises before executing.
        with pytest.raises(DeadlineExceededError):
            themis.query(statement, deadline=Deadline.after(-1.0))

    @pytest.mark.parametrize("route", ["sample", "bayes-net", "hybrid"])
    def test_themis_query_deadline_is_polled_inside_execution(
        self, route, sparse_serving_themis
    ):
        """A deadline that expires on its second poll -- after the
        compile/execute boundary -- still raises: execution polls it too,
        on every route."""
        themis = sparse_serving_themis
        sample = themis.model.weighted_sample
        statements = {
            "sample": "SELECT COUNT(*) FROM R WHERE A = 0",
            "bayes-net": next(
                PointQuery({"A": a, "B": b, "C": c})
                for a in (0, 1, 2)
                for b in (0, 1, 2)
                for c in (0, 1)
                if not sample.contains({"A": a, "B": b, "C": c})
            ),
            "hybrid": "SELECT A, COUNT(*) FROM R GROUP BY A",
        }
        statement = statements[route]
        assert themis.plan(statement).route == route
        for explain in (False, "analyze"):
            reads = iter([0.0])
            deadline = Deadline(1.0, budget=1.0, clock=lambda: next(reads, 10.0))
            with pytest.raises(DeadlineExceededError):
                themis.query(statement, explain=explain, deadline=deadline)
        assert themis.query(statement, deadline=3600.0) == themis.query(statement)

    def test_token_and_deadline_fold_into_one_token(self, themis, sweep_queries):
        """An explicit token without a deadline of its own takes the call's
        ``deadline=``: an expired one still raises."""
        session = themis.serve()
        with pytest.raises(DeadlineExceededError):
            session.execute_batch(sweep_queries, cancel=CancelToken(), deadline=-1.0)

    def test_cancellation_metrics(self, themis, sweep_queries):
        session = themis.serve()
        token = CancelToken()
        token.cancel()
        before = session.metrics.value(names.GOVERNANCE_CANCELLED)
        with pytest.raises(QueryCancelledError):
            session.execute_batch(sweep_queries, cancel=token)
        assert session.metrics.value(names.GOVERNANCE_CANCELLED) == before + 1


# ---------------------------------------------------------------------------
# End-to-end: governed session bit-identity under a starvation budget
# ---------------------------------------------------------------------------
class TestGovernedSession:
    def test_starved_budget_costs_hits_never_bits(self, sweep_queries, expected):
        governed = build_fitted_themis()
        session = governed.serve(memory_budget_bytes=48 * 1024)
        assert session.governor is not None
        for _ in range(2):  # second pass re-serves through whatever survived
            produced = session.execute_batch(sweep_queries).results()
            assert produced == expected
            assert session.governor.total_bytes() <= 48 * 1024

    def test_unbudgeted_session_has_no_governor(self, themis):
        assert themis.serve().governor is None

    def test_only_governed_inserts_are_measured(self, monkeypatch, themis, sweep_queries):
        """Nobody reads an ungoverned cache's byte size, so an ungoverned
        session never walks an answer to measure it."""
        from repro import lru

        calls = []

        def counting(value, *args, **kwargs):
            calls.append(type(value).__name__)
            return measured_bytes(value, *args, **kwargs)

        monkeypatch.setattr(lru, "measured_bytes", counting)
        session = themis.serve()
        produced = session.execute_batch(sweep_queries).results()
        assert session.execute(sweep_queries[0]) == produced[0]
        assert calls == []
        assert len(session.result_cache) > 0 and session.result_cache.byte_size == 0

        governed = themis.serve(memory_budget_bytes=10**9)
        assert governed.execute_batch(sweep_queries).results() == produced
        assert len(calls) >= len(governed.result_cache) > 0
        assert governed.result_cache.byte_size > 0


# ---------------------------------------------------------------------------
# Cache invariants (S3)
# ---------------------------------------------------------------------------
class TestCacheInvariants:
    def test_no_stale_entry_survives_refit(self, sweep_queries):
        themis = build_fitted_themis()
        session = themis.serve(memory_budget_bytes=10**9)
        session.execute_batch(sweep_queries)
        assert len(session.result_cache.entries()) > 0
        before = session.generation
        model = themis.refit()
        session.execute_batch(sweep_queries[:4])
        assert session.generation == model.generation != before
        # The session serves the new snapshot, whose caches the governor now
        # governs, and the result cache holds only entries written after
        # the refit.
        assert session.inference_cache.evaluator is model.bayes_net_evaluator
        engine = model.sample_evaluator.engine
        assert engine.mask_cache.lru.governor is session.governor
        assert engine.executor.join_side_cache.governor is session.governor
        assert 0 < len(session.result_cache.entries()) <= 4

    def test_entries_and_peek_stay_stat_free_under_governor(self, sweep_queries):
        themis = build_fitted_themis()
        session = themis.serve(memory_budget_bytes=10**9)
        session.execute_batch(sweep_queries)
        cache = session.result_cache
        stats_before = (cache.statistics.hits, cache.statistics.misses)
        bytes_before = cache.byte_size
        order_before = [key for key, _ in cache.entries()]
        for key, _ in cache.entries():
            cache.peek(key)
            assert key in cache
        assert (cache.statistics.hits, cache.statistics.misses) == stats_before
        assert cache.byte_size == bytes_before
        # Recency order unchanged: peeks must not promote entries.
        assert [key for key, _ in cache.entries()] == order_before


    def test_clear_caches_empties_every_tier(self, sweep_queries, expected):
        themis = build_fitted_themis()
        join = JoinGroupByQuery("A", "A", "B", "C")
        queries = [*sweep_queries, join]
        answers = [*expected, build_fitted_themis().query(join)]
        session = themis.serve()
        assert session.execute_batch(queries).results() == answers
        session.clear_caches()
        stats = session.cache_statistics()
        assert stats["result_cache"]["entries"] == 0
        assert stats["plan_cache"]["entries"] == 0
        assert stats["mask_cache"]["cached_masks"] == 0
        assert stats["join_side_cache"]["cached_sides"] == 0
        assert stats["inference_cache"]["entries"]["factors"] == 0
        assert session.execute_batch(queries).results() == answers

    def test_every_tier_counts_the_governors_evictions(self, sweep_queries, expected):
        """On a starved budget, far below every tier's capacity, each entry
        the governor drops is one ``evictions`` in the tier it left."""
        themis = build_fitted_themis()
        session = themis.serve(memory_budget_bytes=16 * 1024)
        for _ in range(2):
            for start in range(0, len(sweep_queries), 4):
                batch = session.execute_batch(sweep_queries[start : start + 4])
                assert batch.results() == expected[start : start + 4]
        stats = session.cache_statistics()
        # Every reported tier but the plan cache is governed, the network
        # stacks' tiers included.
        tiers = [tier for tier in stats if tier != "plan_cache"]
        assert {"bn_mask_cache", "bn_join_side_cache", "hybrid_join_side_cache"} <= set(tiers)
        evicted = {tier: stats[tier]["evictions"] for tier in tiers}
        assert sum(evicted.values()) == session.metrics.value(names.GOVERNANCE_EVICTIONS)
        assert sum(1 for count in evicted.values() if count) > 1

    def test_pressure_evicts_from_the_network_side_tiers(self):
        """The network stack's masks are governed like the sample's: under a
        starved budget the governor evicts them, and answers stay exact."""
        statements = [
            f"SELECT A, COUNT(*) FROM sample WHERE B = {b} AND C <= {c} GROUP BY A"
            for b in range(3)
            for c in range(2)
        ]
        expected = build_fitted_themis().serve().execute_batch(statements).results()
        themis = build_fitted_themis()
        session = themis.serve(memory_budget_bytes=16 * 1024)
        for statement, answer in zip(statements, expected):
            assert session.execute(statement) == answer
        network = themis.model.bayes_net_evaluator.stack
        hybrid = themis.model.hybrid_evaluator.stack
        assert network.mask_cache.lru.governor is session.governor
        assert network.join_side_cache.governor is session.governor
        assert hybrid.join_side_cache.governor is session.governor
        stats = session.cache_statistics()
        assert stats["bn_mask_cache"]["evictions"] > 0
        assert session.metrics.value(names.cache_gauge("bn_mask", "evictions")) > 0


# ---------------------------------------------------------------------------
# Pool shutdown (S1)
# ---------------------------------------------------------------------------
class TestPoolShutdown:
    def test_double_close_is_idempotent(self, themis):
        from repro.serving.scale import SupervisedWorkerPool
        from repro.serving.scale.pool import _LIVE_POOLS

        pool = SupervisedWorkerPool(themis, n_workers=1)
        assert pool in _LIVE_POOLS
        pool.close()
        assert pool not in _LIVE_POOLS
        pool.close()  # second close is a no-op, not an error

    def test_close_after_worker_crash(self, themis):
        from repro.serving.scale import SupervisedWorkerPool

        pool = SupervisedWorkerPool(themis, n_workers=2)
        pool._workers[0].process.kill()
        pool._workers[0].process.join(timeout=10.0)
        pool.close()  # dead pipe on shard 0 must not leak out of close()

    def test_double_close_stops_the_heartbeat_prober(self, themis):
        from repro.serving.scale import SupervisedWorkerPool

        pool = SupervisedWorkerPool(themis, n_workers=1, heartbeat_interval=60.0)

        processes = [worker.process for worker in pool._workers]

        async def serve_then_close_twice():
            await pool.start()
            prober = pool._heartbeat_task  # a task on the serving loop, not a thread
            assert not prober.done()
            # The blocking close, from another thread, runs on the serving loop.
            await asyncio.to_thread(pool.close)
            assert prober.cancelled()
            assert not any(process.is_alive() for process in processes)
            await asyncio.to_thread(pool.close)
            await pool.aclose()

        asyncio.run(serve_then_close_twice())
        pool.close()

    def test_atexit_guard_tolerates_closed_and_crashed_pools(self, themis):
        from repro.serving.scale import SupervisedWorkerPool
        from repro.serving.scale.pool import _close_leaked_pools

        closed = SupervisedWorkerPool(themis, n_workers=1)
        closed.close()
        crashed = SupervisedWorkerPool(themis, n_workers=1)
        crashed._workers[0].process.kill()
        crashed._workers[0].process.join(timeout=10.0)
        # The interpreter-shutdown sweep must survive any mix of pool
        # states without raising.
        _close_leaked_pools()
        crashed.close()
