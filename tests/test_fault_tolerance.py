"""Fault tolerance: supervised respawn, retry/failover, deadline budgets.

Every chaos scenario here is **deterministic**: worker deaths are seeded
:class:`FaultInjector` schedules (kill at the Nth dispatch of a named
incarnation, die mid-refit, drop a reply or a heartbeat ping), so each test
replays the exact same crash at the exact same point.  The load-bearing
assertions are the same exact ``==`` bit-identity the healthy scale tier
proves, now *through* the failures: a killed worker is respawned from its
deterministic spec with the broadcast log replayed, lands on the same
generation, and the answers match a fault-free in-process oracle.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.aggregates import AggregateQuery
from repro.exceptions import (
    DegradedModeError,
    DispatchTimeoutError,
    RetryableServingError,
    RetryExhaustedError,
    ServingOverloadError,
    ThemisError,
    WorkerCrashedError,
)
from repro.obs import names
from repro.obs.metrics import MetricsRegistry
from repro.plan import PlanCompiler
from repro.query.workload import MixedQueryWorkload
from repro.serving.scale import (
    FAULT_EXIT_CODE,
    AsyncServingFrontend,
    FaultEvent,
    FaultInjector,
    MicroBatcher,
    RequestOutcome,
    ShardRouter,
    SupervisedWorkerPool,
)
from repro.serving.scale.pool import _LIVE_POOLS

from worlds import (
    build_correlated_population,
    build_fitted_themis,
    dispatch_outcomes,
)

SWEEP_SEED = 421


@pytest.fixture(scope="module")
def themis():
    return build_fitted_themis()


@pytest.fixture(scope="module")
def sweep_queries(themis):
    workload = MixedQueryWorkload(themis.sample, seed=SWEEP_SEED)
    entries = workload.generate(n_point=4, n_scalar=4, n_group_by=4)
    return [entry.query for entry in entries]


@pytest.fixture(scope="module")
def expected(sweep_queries):
    oracle = build_fitted_themis()
    return oracle.serve().execute_batch(sweep_queries).results()


def _supervised(themis, injector=None, **kwargs):
    kwargs.setdefault("n_workers", 2)
    kwargs.setdefault("timeout", 30.0)
    kwargs.setdefault("backoff_base", 0.01)
    return SupervisedWorkerPool(themis, fault_injector=injector, **kwargs)


# ---------------------------------------------------------------------------
# Ring failover (pure routing, no processes)
# ---------------------------------------------------------------------------
class TestRingFailover:
    def _keys(self, themis, n=64):
        compiler = PlanCompiler(themis.sample.schema)
        workload = MixedQueryWorkload(themis.sample, seed=7)
        entries = workload.generate(n_point=n // 2, n_scalar=n // 4, n_group_by=n // 4)
        return [compiler.compile(entry.query).key for entry in entries]

    def test_live_home_shard_is_unaffected_by_masking(self, themis):
        router = ShardRouter(4)
        for key in self._keys(themis):
            home = router.shard_for(key)
            assert router.shard_for(key, live={0, 1, 2, 3}) == home

    def test_dead_shard_keys_spill_to_live_shards_only(self, themis):
        router = ShardRouter(4)
        live = {1, 2, 3}
        for key in self._keys(themis):
            rerouted = router.shard_for(key, live=live)
            assert rerouted in live
            if router.shard_for(key) != 0:
                # Only the dead shard's keys move.
                assert rerouted == router.shard_for(key)

    def test_keys_return_home_after_respawn(self, themis):
        router = ShardRouter(4)
        homes = [router.shard_for(key) for key in self._keys(themis)]
        # Failover is a pure function of (key, live set): restoring the full
        # live set restores the original assignment exactly.
        assert [
            router.shard_for(key, live={0, 1, 2, 3})
            for key in self._keys(themis)
        ] == homes

    def test_empty_live_set_is_an_error(self):
        router = ShardRouter(2)
        with pytest.raises(ValueError, match="no live shard"):
            router.shard_for_hash(12345, live=set())


# ---------------------------------------------------------------------------
# Fault schedules (no processes)
# ---------------------------------------------------------------------------
class TestFaultInjector:
    def test_seeded_schedule_is_reproducible(self):
        first = FaultInjector(seed=9).kill_each_shard_once(4, within_batches=6)
        second = FaultInjector(seed=9).kill_each_shard_once(4, within_batches=6)
        assert first.events == second.events
        assert {event.shard_id for event in first.events} == {0, 1, 2, 3}
        assert FaultInjector(seed=10).kill_each_shard_once(
            4, within_batches=6
        ).events != first.events

    def test_plan_slices_by_shard_and_incarnation(self):
        injector = (
            FaultInjector()
            .kill_at_batch(0, at=2)
            .kill_at_batch(0, at=1, incarnation=1)
            .drop_reply(1, at=3)
        )
        plan = injector.plan_for(0, incarnation=0)
        assert plan.on_batch(2).kind == "kill_at_batch"
        assert plan.on_batch(1) is None  # incarnation 1's event, not ours
        assert injector.plan_for(0, incarnation=1).on_batch(1) is not None
        assert injector.plan_for(1).on_batch(3).kind == "drop_reply"
        assert injector.plan_for(2) is None  # nothing scheduled: no plan

    def test_event_validation(self):
        with pytest.raises(ValueError, match="ordinal"):
            FaultEvent("kill_at_batch", 0, at=0)
        with pytest.raises(ValueError, match="incarnation"):
            FaultEvent("kill_at_batch", 0, incarnation=-1)


# ---------------------------------------------------------------------------
# Crash -> respawn -> bit-identity
# ---------------------------------------------------------------------------
class TestSupervisedRecovery:
    def test_kill_mid_batch_retries_to_bit_identical_answers(
        self, themis, sweep_queries, expected
    ):
        injector = FaultInjector().kill_at_batch(0, at=1).kill_at_batch(1, at=1)
        pool = _supervised(themis, injector)
        try:
            assert pool.execute_batch(sweep_queries) == expected
            metrics = pool.metrics
            assert metrics.counter(names.SCALE_FAULT_CRASHES).value == 2
            assert metrics.counter(names.SCALE_FAULT_RESPAWNS).value == 2
            assert metrics.counter(names.SCALE_FAULT_RETRIES).value >= 1
            assert metrics.histogram(names.SCALE_RESPAWN_SECONDS).count == 2
            # Both shards are on their first respawn, same generation.
            bodies = pool.describe()
            assert [body["incarnation"] for body in bodies] == [1, 1]
            assert len({body["generation"] for body in bodies}) == 1
            # A second pass runs clean on the respawned workers.
            assert pool.execute_batch(sweep_queries) == expected
            assert metrics.counter(names.SCALE_FAULT_CRASHES).value == 2
        finally:
            pool.close()

    def test_injected_kill_uses_the_fault_exit_code(self, themis, sweep_queries):
        pool = _supervised(themis, FaultInjector().kill_at_batch(0, at=1))
        try:
            doomed = pool._workers[0].process
            pool.execute_batch(sweep_queries)
            assert doomed.exitcode == FAULT_EXIT_CODE
        finally:
            pool.close()

    def test_kill_during_refit_broadcast_replays_to_same_generation(
        self, themis, sweep_queries, expected
    ):
        pool = _supervised(themis, FaultInjector().kill_at_refit(0, at=1))
        try:
            warm = pool.execute_batch(sweep_queries)
            applied = pool.refit()
            bodies = pool.describe()
            # Shard 0 died after refitting but before acknowledging; its
            # respawn replayed the logged refit and landed in agreement.
            assert [body["incarnation"] for body in bodies] == [1, 0]
            assert {body["broadcasts"] for body in bodies} == {applied} == {1}
            assert len({body["generation"] for body in bodies}) == 1
            assert pool.metrics.counter(
                names.SCALE_FAULT_REPLAYED_BROADCASTS
            ).value == 1
            assert pool.execute_batch(sweep_queries) == expected == warm
        finally:
            pool.close()

    def test_add_aggregate_batch_refit_through_a_respawn_replay(self, sweep_queries):
        # The shard that served the batch behind add_aggregate fitted lazily
        # and is a facade generation ahead; shard 0 dies in the refit and its
        # replacement replays both broadcasts.  Agreement is on the logged
        # broadcasts applied, survivor and replacement alike.
        new_aggregate = AggregateQuery.from_relation(
            build_correlated_population(), ["A", "C"]
        )
        pool = _supervised(
            build_fitted_themis(), FaultInjector().kill_at_refit(0, at=1)
        )
        try:
            pool.add_aggregate(new_aggregate)
            pool.execute_batch(sweep_queries[:1])
            assert pool.refit() == 2
            bodies = pool.describe()
            assert [body["incarnation"] for body in bodies] == [1, 0]
            assert [body["broadcasts"] for body in bodies] == [2, 2]
            assert pool.metrics.counter(
                names.SCALE_FAULT_REPLAYED_BROADCASTS
            ).value == 2
            post = pool.execute_batch(sweep_queries)
        finally:
            pool.close()
        oracle = build_fitted_themis()
        oracle.add_aggregate(new_aggregate)
        oracle.refit()
        assert post == oracle.serve().execute_batch(sweep_queries).results()

    def test_replacement_dying_in_replay_burns_another_credit(
        self, themis, sweep_queries, expected
    ):
        # Incarnation 1 of shard 0 dies replaying the logged refit: the
        # respawn that holds the supervision lock sees that crash itself
        # (it must not wait for the lock it holds) and tries again.
        injector = (
            FaultInjector()
            .kill_at_batch(0, at=1)
            .kill_at_refit(0, at=1, incarnation=1)
        )
        pool = _supervised(themis, injector)
        try:
            pool.refit()
            assert pool.execute_batch(sweep_queries) == expected
            incarnations = {
                body["shard_id"]: body["incarnation"] for body in pool.describe()
            }
            assert incarnations == {0: 2, 1: 0}
            assert pool.metrics.counter(names.SCALE_FAULT_RESPAWNS).value == 1
        finally:
            pool.close()

    def test_double_kill_same_shard_burns_two_incarnations(
        self, themis, sweep_queries, expected
    ):
        injector = (
            FaultInjector()
            .kill_at_batch(0, at=1, incarnation=0)
            .kill_at_batch(0, at=1, incarnation=1)
        )
        pool = _supervised(themis, injector)
        try:
            assert pool.execute_batch(sweep_queries) == expected
            assert pool.metrics.counter(names.SCALE_FAULT_CRASHES).value == 2
            assert pool.metrics.counter(names.SCALE_FAULT_RESPAWNS).value == 2
            incarnations = {
                body["shard_id"]: body["incarnation"] for body in pool.describe()
            }
            assert incarnations == {0: 2, 1: 0}
        finally:
            pool.close()

    def test_shard_found_dead_on_send_does_not_cost_its_sibling_the_batch(
        self, themis, sweep_queries, expected
    ):
        # Shard 0 dies while idle (no heartbeat to notice): the next batch
        # spans both shards, the pipe to shard 0 breaks on *send* — before
        # shard 1 has been sent to — and shard 1's reply must still be waited
        # for.  One respawn, one retry round, every answer the oracle's.
        pool = _supervised(themis)
        try:
            victim = pool._workers[0].process
            victim.kill()
            victim.join(5.0)
            assert pool.execute_batch(sweep_queries) == expected
            metrics = pool.metrics
            assert metrics.counter(names.shard_counter(1)).value > 0
            assert metrics.counter(names.SCALE_FAULT_CRASHES).value == 1
            assert metrics.counter(names.SCALE_FAULT_RESPAWNS).value == 1
            assert [body["incarnation"] for body in pool.describe()] == [1, 0]
        finally:
            pool.close()

    def test_dead_shard_fails_over_on_the_ring(
        self, themis, sweep_queries, expected
    ):
        # No respawn budget: the first kill leaves shard 0 permanently dead,
        # so its keys must reroute to shard 1 — and still answer correctly.
        pool = _supervised(
            themis, FaultInjector().kill_at_batch(0, at=1), max_respawns=0
        )
        try:
            assert pool.execute_batch(sweep_queries) == expected
            assert pool.dead_shards() == {0}
            assert pool.live_shards() == {1}
            assert pool.metrics.counter(names.SCALE_FAULT_FAILOVERS).value > 0
            assert pool.metrics.counter(names.SCALE_FAULT_RESPAWNS).value == 0
        finally:
            pool.close()

    def test_drop_reply_times_out_then_retries_clean(
        self, themis, sweep_queries, expected
    ):
        # The worker computes the answer but never sends it; the dispatch
        # deadline fires as a retryable DispatchTimeoutError (the process is
        # alive), and the retry — ordinal 2, no fault — succeeds.
        injector = FaultInjector().drop_reply(0, at=1).drop_reply(1, at=1)
        pool = _supervised(themis, injector, timeout=0.5)
        try:
            assert pool.execute_batch(sweep_queries) == expected
            assert pool.metrics.counter(names.SCALE_FAULT_CRASHES).value == 0
            assert pool.metrics.counter(names.SCALE_FAULT_RETRIES).value >= 1
            assert [body["incarnation"] for body in pool.describe()] == [0, 0]
        finally:
            pool.close()

    def test_retry_budget_exhaustion_is_typed(self, themis, sweep_queries):
        # Every dispatch's reply is dropped; with one retry allowed the
        # request fails loudly with the attempt count and last error.
        injector = FaultInjector()
        for ordinal in range(1, 5):
            injector.drop_reply(0, at=ordinal).drop_reply(1, at=ordinal)
        pool = _supervised(themis, injector, timeout=0.3, max_retries=1)
        try:
            with pytest.raises(RetryExhaustedError) as excinfo:
                pool.execute_batch(sweep_queries)
            # attempts counts dispatch rounds: the first try plus one retry.
            assert excinfo.value.attempts == 2
            assert isinstance(excinfo.value.last_error, DispatchTimeoutError)
        finally:
            pool.close()

    def test_deadline_budget_bounds_the_retry_loop(self, themis, sweep_queries):
        injector = FaultInjector()
        for ordinal in range(1, 8):
            injector.drop_reply(0, at=ordinal).drop_reply(1, at=ordinal)
        pool = _supervised(themis, injector, timeout=0.2, max_retries=50)
        try:
            started = time.perf_counter()
            with pytest.raises(RetryExhaustedError):
                pool.execute_batch(
                    sweep_queries, deadline_ts=time.monotonic() + 0.6
                )
            # The deadline cut the 50-retry budget off early.
            assert time.perf_counter() - started < 5.0
        finally:
            pool.close()


# ---------------------------------------------------------------------------
# Total loss: degraded mode
# ---------------------------------------------------------------------------
class TestDegradedMode:
    def test_all_shards_down_raises_typed_error(self, themis, sweep_queries):
        injector = FaultInjector().kill_at_batch(0, at=1).kill_at_batch(1, at=1)
        pool = _supervised(themis, injector, max_respawns=0)
        try:
            with pytest.raises(DegradedModeError):
                pool.execute_batch(sweep_queries)
            assert pool.live_shards() == set()
            assert pool.dead_shards() == {0, 1}
            # Per-request granularity: every outcome carries the typed error.
            outcomes = dispatch_outcomes(pool, sweep_queries)
            assert all(
                not o.ok and isinstance(o.error, DegradedModeError)
                for o in outcomes
            )
            # A refit has no shard left to acknowledge it either.
            with pytest.raises(DegradedModeError):
                pool.refit()
        finally:
            pool.close()


# ---------------------------------------------------------------------------
# Heartbeats
# ---------------------------------------------------------------------------
class TestHeartbeats:
    def test_missed_pings_count_then_reset(self, themis):
        pool = _supervised(
            themis,
            FaultInjector().drop_ping(0, at=1),
            n_workers=1,
            heartbeat_timeout=0.2,
            heartbeat_misses_to_kill=2,
        )
        try:
            asyncio.run(pool.check_heartbeats())  # ping 1 swallowed: one miss
            assert pool.metrics.counter(
                names.SCALE_FAULT_HEARTBEAT_MISSES
            ).value == 1
            asyncio.run(pool.check_heartbeats())  # ping 2 answered: streak resets
            assert pool._heartbeat_misses[0] == 0
            assert pool.metrics.counter(names.SCALE_FAULT_RESPAWNS).value == 0
        finally:
            pool.close()

    def test_miss_streak_escalates_to_respawn(self, themis, sweep_queries, expected):
        pool = _supervised(
            themis,
            FaultInjector().drop_ping(0, at=1),
            n_workers=1,
            heartbeat_timeout=0.2,
            heartbeat_misses_to_kill=1,
        )
        try:
            asyncio.run(pool.check_heartbeats())
            assert pool.metrics.counter(names.SCALE_FAULT_RESPAWNS).value == 1
            assert [body["incarnation"] for body in pool.describe()] == [1]
            assert pool.execute_batch(sweep_queries) == expected
        finally:
            pool.close()

    def test_heartbeat_notices_dead_process(self, themis, sweep_queries, expected):
        pool = _supervised(themis, n_workers=1)
        try:
            victim = pool._workers[0].process
            victim.terminate()
            victim.join(5.0)
            asyncio.run(pool.check_heartbeats())
            assert pool.metrics.counter(names.SCALE_FAULT_CRASHES).value == 1
            assert pool.execute_batch(sweep_queries) == expected
        finally:
            pool.close()


# ---------------------------------------------------------------------------
# Lifecycle: no orphans
# ---------------------------------------------------------------------------
class TestLifecycle:
    def test_close_escalates_past_a_busy_worker(self, themis, sweep_queries):
        # The worker is mid-sleep inside a faulted batch when close() runs:
        # the polite shutdown can't be processed, so close must terminate.
        pool = _supervised(
            themis,
            FaultInjector().delay_reply(0, seconds=30.0, at=1),
            n_workers=1,
            timeout=0.2,
            max_retries=0,
        )
        process = pool._workers[0].process
        with pytest.raises(ServingOverloadError):
            pool.execute_batch(sweep_queries)
        started = time.perf_counter()
        pool.close(join_timeout=0.3)
        assert time.perf_counter() - started < 10.0
        assert not process.is_alive()
        assert process.exitcode != 0  # terminated, not graceful

    def test_open_pools_are_registered_for_atexit_reaping(self, themis):
        pool = _supervised(themis, n_workers=1)
        try:
            assert pool in _LIVE_POOLS
        finally:
            pool.close()
        assert pool not in _LIVE_POOLS

    def test_close_is_idempotent_and_rejects_work(self, themis, sweep_queries):
        pool = _supervised(themis, n_workers=1)
        pool.close()
        pool.close()
        with pytest.raises(ThemisError, match="closed"):
            pool.execute_batch(sweep_queries)


# ---------------------------------------------------------------------------
# Micro-batcher settles futures from outcomes (stub pool, no processes)
# ---------------------------------------------------------------------------
class _OutcomePool:
    """Per-request outcomes: one poisoned query must not fail its batch."""

    def __init__(self):
        self.metrics = MetricsRegistry()

    async def dispatch(self, queries, settle, deadline_ts=None):
        for index, query in enumerate(queries):
            settle(
                index,
                RequestOutcome(ok=False, error=ThemisError("poisoned"))
                if query == "bad"
                else RequestOutcome(ok=True, value=f"ok:{query}"),
            )


class TestMicroBatcherOutcomes:
    def test_poisoned_query_fails_only_its_own_future(self):
        pool = _OutcomePool()

        async def scenario():
            batcher = MicroBatcher(pool, max_batch_size=8)
            await batcher.start()
            try:
                good, bad = await asyncio.gather(
                    batcher.submit("fine"),
                    batcher.submit("bad"),
                    return_exceptions=True,
                )
                return good, bad
            finally:
                await batcher.stop()

        good, bad = asyncio.run(scenario())
        assert good == "ok:fine"
        assert isinstance(bad, ThemisError)


# ---------------------------------------------------------------------------
# Typed error taxonomy + frozen names
# ---------------------------------------------------------------------------
class TestTaxonomy:
    def test_retryable_marker_classification(self):
        assert issubclass(DispatchTimeoutError, RetryableServingError)
        assert issubclass(DispatchTimeoutError, ServingOverloadError)
        assert issubclass(WorkerCrashedError, RetryableServingError)
        assert not issubclass(RetryExhaustedError, RetryableServingError)
        assert not issubclass(DegradedModeError, RetryableServingError)

    def test_worker_crashed_carries_shard_and_reason(self):
        error = WorkerCrashedError("boom", shard_id=3, reason="pipe-eof")
        assert error.shard_id == 3
        assert error.reason == "pipe-eof"
        assert "shard_id=3" in str(error) and "pipe-eof" in str(error)

    def test_fault_metric_names_are_frozen(self):
        # Dashboards and the chaos experiment key on these exact strings.
        assert names.SCALE_FAULT_CRASHES == "scale.faults.crashes_detected"
        assert names.SCALE_FAULT_RESPAWNS == "scale.faults.respawns"
        assert names.SCALE_FAULT_RETRIES == "scale.faults.retries"
        assert names.SCALE_FAULT_FAILOVERS == "scale.faults.failovers"
        assert (
            names.SCALE_FAULT_REPLAYED_BROADCASTS
            == "scale.faults.replayed_broadcasts"
        )
        assert (
            names.SCALE_FAULT_HEARTBEAT_MISSES == "scale.faults.heartbeat_misses"
        )
        assert names.SCALE_RESPAWN_SECONDS == "latency.scale.respawn_seconds"
        for name in (
            names.SCALE_FAULT_CRASHES,
            names.SCALE_FAULT_RESPAWNS,
            names.SCALE_FAULT_RETRIES,
            names.SCALE_FAULT_FAILOVERS,
            names.SCALE_FAULT_REPLAYED_BROADCASTS,
            names.SCALE_FAULT_HEARTBEAT_MISSES,
        ):
            assert name.startswith(names.SCALE_FAULTS_PREFIX)


# ---------------------------------------------------------------------------
# The supervised front-end, end to end
# ---------------------------------------------------------------------------
class TestSupervisedFrontend:
    def test_concurrent_clients_survive_a_worker_kill(
        self, themis, sweep_queries, expected
    ):
        injector = FaultInjector().kill_at_batch(0, at=1)

        async def scenario():
            async with AsyncServingFrontend(
                themis,
                n_workers=2,
                fault_injector=injector,
            ) as frontend:
                answers = await asyncio.gather(
                    *(frontend.query(query) for query in sweep_queries)
                )
                return answers, frontend.pool.metrics

        answers, metrics = asyncio.run(scenario())
        assert answers == expected
        assert metrics.counter(names.SCALE_FAULT_CRASHES).value >= 1
        assert metrics.counter(names.SCALE_FAULT_RESPAWNS).value >= 1

    def test_retries_happen_once_in_the_pool(self, themis):
        # Every attempt's reply is dropped.  With max_retries=2 the request
        # is dispatched exactly 1 + 2 times — the pool's retry loop is the
        # only one between the client and the worker.
        statement = "SELECT COUNT(*) FROM R WHERE A = 1 AND B = 0"
        injector = FaultInjector()
        for ordinal in range(1, 10):
            injector.drop_reply(0, at=ordinal)

        async def scenario():
            async with AsyncServingFrontend(
                themis,
                n_workers=1,
                dispatch_timeout=0.3,
                max_retries=2,
                fault_injector=injector,
            ) as frontend:
                with pytest.raises(RetryExhaustedError) as excinfo:
                    await frontend.query(statement)
                # Blocking calls come from other threads while this loop
                # serves the pool.
                (shard,) = await asyncio.to_thread(frontend.pool.describe)
                return excinfo.value, shard, frontend.metrics

        error, shard, metrics = asyncio.run(scenario())
        counters = metrics.snapshot()["counters"]
        assert error.attempts == 3
        assert isinstance(error.last_error, DispatchTimeoutError)
        # The worker computed the (never delivered) answer three times.
        assert shard["queries_served"] == 3
        assert shard["incarnation"] == 0
        assert counters[names.shard_counter(0)] == 3
        assert counters[names.SCALE_DISPATCHES] == 1
        assert counters[names.SCALE_FAULT_RETRIES] == 2
