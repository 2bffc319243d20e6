"""The scale tier: sharding, worker pool, micro-batching, backpressure.

The load-bearing assertions are exact ``==`` bit-identity between the
sharded multi-process path and in-process ``execute_batch`` — over a seeded
``MixedQueryWorkload`` sweep, through the asyncio front-end, through the
socket server, and **across a mid-stream refit with warm worker caches**
(the cross-process cache-coherence guarantee, extending the
``tests/test_sql_differential.py`` pattern through the sharded path).
Backpressure is typed: queue-full and dispatch-timeout misses raise
``ServingOverloadError`` carrying the queue depth / lagging shard.

Micro-batching is *natural*: a batch is whatever is pending when a dispatch
slot is free.  Those tests hold the slots with a coroutine pool that waits on
an ``asyncio.Event`` gate — no sleeps, no budgets to out-wait.
"""

from __future__ import annotations

import asyncio
import hashlib
import inspect
import json
import multiprocessing as mp
import pickle
import threading
import time

import pytest

from repro.aggregates import AggregateQuery
from repro.exceptions import (
    AdmissionRejectedError,
    DispatchTimeoutError,
    ServingOverloadError,
    SQLSyntaxError,
    ThemisError,
    WireFormatError,
    WorkerCrashedError,
)
from repro.obs import names
from repro.obs.metrics import MetricsRegistry
from repro.plan import PlanCompiler
from repro.query import JoinGroupByQuery
from repro.query.workload import MixedQueryWorkload
from repro.serving.scale import (
    AsyncServingFrontend,
    MicroBatcher,
    RequestOutcome,
    ShardRouter,
    SupervisedWorkerPool,
    WorkerSpec,
    serve_async,
)
from repro.serving.governance import (
    PRIORITY_BACKGROUND,
    PRIORITY_BATCH,
    AdmissionController,
)
from repro.serving.scale import pool as pool_module
from repro.serving.scale.faults import FaultInjector
from repro.serving.scale.frontend import encode_result
from repro.serving.scale.shard import stable_key_hash

from golden_plans import golden_queries
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
    entries = workload.generate(n_point=6, n_scalar=6, n_group_by=6, n_analytic=6)
    # Mix ASTs and SQL text: the pool compiles both, and entry.sql compiles
    # to the same canonical key as entry.query, so both shard identically.
    return [
        entry.sql if index % 3 == 0 else entry.query
        for index, entry in enumerate(entries)
    ]


@pytest.fixture(scope="module")
def expected(sweep_queries):
    oracle = build_fitted_themis()
    return oracle.serve().execute_batch(sweep_queries).results()


# ---------------------------------------------------------------------------
# Shard router
# ---------------------------------------------------------------------------
class TestShardRouter:
    def test_routing_is_deterministic_across_instances(self, themis):
        compiler = PlanCompiler(themis.sample.schema)
        workload = MixedQueryWorkload(themis.sample, seed=7)
        keys = [
            compiler.compile(entry.query).key
            for entry in workload.generate(n_point=8, n_scalar=8, n_group_by=8)
        ]
        first, second = ShardRouter(4), ShardRouter(4)
        assert [first.shard_for(k) for k in keys] == [
            second.shard_for(k) for k in keys
        ]

    def test_stable_hash_is_pinned(self):
        # Process-stability tripwire: blake2b over the canonical encoding
        # must never depend on PYTHONHASHSEED or the process.  If this
        # moves, every cross-version shard assignment moves with it.
        assert stable_key_hash(("point", (("A", 1),))) == 0x10DB667397168BB3

    def test_consistent_resize_moves_few_keys(self):
        hashes = [stable_key_hash(("point", (("A", i), ("B", i % 3)))) for i in range(400)]
        before = ShardRouter(4)
        after = ShardRouter(5)
        moved = sum(
            1
            for h in hashes
            if before.shard_for_hash(h) != after.shard_for_hash(h)
        )
        # Consistent hashing moves ~1/5 of the space; full rehashing would
        # move ~4/5.  Allow generous slack over the expectation.
        assert moved < len(hashes) // 2

    def test_all_shards_reachable(self):
        router = ShardRouter(4)
        owners = {
            router.shard_for_hash(stable_key_hash(("point", (("A", i),))))
            for i in range(200)
        }
        assert owners == {0, 1, 2, 3}

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            ShardRouter(0)


# ---------------------------------------------------------------------------
# Worker spec
# ---------------------------------------------------------------------------
class TestWorkerSpec:
    def test_spec_pickles_and_rebuilds_deterministically(self, themis):
        spec = WorkerSpec.from_themis(themis)
        revived = pickle.loads(pickle.dumps(spec))
        first = revived.build_themis()
        second = revived.build_themis()
        statement = "SELECT A, COUNT(*) FROM R WHERE B <= 1 GROUP BY A"
        assert first.query(statement) == second.query(statement)
        assert first.query(statement) == themis.query(statement)


# ---------------------------------------------------------------------------
# Worker pool: bit-identity and coherence
# ---------------------------------------------------------------------------
class TestWorkerPool:
    def test_batch_is_bit_identical_to_single_process(
        self, themis, sweep_queries, expected
    ):
        with SupervisedWorkerPool(themis, n_workers=2) as pool:
            cold = pool.execute_batch(sweep_queries)
            warm = pool.execute_batch(sweep_queries)
        assert cold == expected, f"cold sharded sweep diverged (seed {SWEEP_SEED})"
        assert warm == expected, f"warm sharded sweep diverged (seed {SWEEP_SEED})"

    def test_shard_occupancy_and_batch_counters(self, themis, sweep_queries):
        with SupervisedWorkerPool(themis, n_workers=2) as pool:
            pool.execute_batch(sweep_queries)
            snapshot = pool.metrics.snapshot()
        occupancy = {
            name: value
            for name, value in snapshot["counters"].items()
            if name.startswith(names.SCALE_SHARD_PREFIX)
        }
        assert sum(occupancy.values()) == len(sweep_queries)
        assert len(occupancy) == 2, f"one shard got everything: {occupancy}"
        assert snapshot["counters"][names.SCALE_POOL_BATCHES] == 1
        assert snapshot["gauges"][names.SCALE_SHARDS] == 2
        assert snapshot["histograms"][names.SCALE_DISPATCH_SECONDS]["count"] == 1

    def test_refit_mid_stream_with_warm_caches_matches_fresh_session(
        self, sweep_queries
    ):
        """The cross-process cache-coherence guarantee.

        Warm every worker's result cache, then make refit observable (a new
        aggregate changes the reweighting, as in
        ``test_differential_survives_refit``), broadcast it, and assert the
        post-refit sharded answers are bit-identical to a **fresh**
        single-process session over the same final inputs.
        """
        population = build_correlated_population()
        new_aggregate = AggregateQuery.from_relation(population, ["A", "C"])

        # Own facade: pool.add_aggregate mutates the parent too, and the
        # module-scoped fixture must stay pristine for later tests.
        with SupervisedWorkerPool(build_fitted_themis(), n_workers=2) as pool:
            pre = pool.execute_batch(sweep_queries)
            assert pool.execute_batch(sweep_queries) == pre  # caches warm
            pool.add_aggregate(new_aggregate)
            pool.refit()
            post = pool.execute_batch(sweep_queries)
            post_again = pool.execute_batch(sweep_queries)

        oracle = build_fitted_themis()
        oracle.add_aggregate(new_aggregate)
        oracle.refit()
        fresh = oracle.serve().execute_batch(sweep_queries).results()
        assert post == fresh, (
            f"post-refit sharded answers diverged from a fresh single-process "
            f"session (seed {SWEEP_SEED})"
        )
        assert post_again == fresh
        assert post != pre, "refit changed no answer: stale caches would hide"

    def test_refit_after_one_shard_served_a_batch_behind_add_aggregate(
        self, sweep_queries
    ):
        """``add_aggregate -> batch -> refit`` on a pool whose batch reached
        one shard only: that shard fitted lazily and is a facade generation
        ahead of its sibling.  Agreement is held on the logged broadcasts a
        worker has applied, which the pool can predict."""
        population = build_correlated_population()
        new_aggregate = AggregateQuery.from_relation(population, ["A", "C"])

        with SupervisedWorkerPool(build_fitted_themis(), n_workers=2) as pool:
            pool.add_aggregate(new_aggregate)
            between = pool.execute_batch(sweep_queries[:1])
            assert pool.refit() == 2
            bodies = pool.describe()
            post = pool.execute_batch(sweep_queries)

        assert [body["broadcasts"] for body in bodies] == [2, 2]
        # The premise: the facade generations did part ways.
        assert len({body["generation"] for body in bodies}) == 2
        oracle = build_fitted_themis()
        oracle.add_aggregate(new_aggregate)
        oracle.refit()
        fresh = oracle.serve().execute_batch(sweep_queries).results()
        assert post == fresh
        assert between == fresh[:1]

    def test_the_parent_is_never_fitted_by_a_dispatch(self, monkeypatch, sweep_queries):
        """The parent plans on the model it last fitted, so an unfitted
        parent is fitted by the constructor and by ``add_aggregate``, on the
        calling thread — a dispatch on the serving loop never fits."""
        population = build_correlated_population()
        first = AggregateQuery.from_relation(population, ["A", "C"])
        second = AggregateQuery.from_relation(population, ["C"])
        parent = build_fitted_themis()
        parent.add_aggregate(first)
        assert not parent.is_fitted
        fits_on_a_loop = []
        fit = parent.fit

        def counting():
            # A dispatch runs on an event loop; the constructor and
            # add_aggregate run on the calling thread, outside any loop.
            try:
                asyncio.get_running_loop()
            except RuntimeError:
                pass
            else:
                fits_on_a_loop.append(None)
            return fit()

        monkeypatch.setattr(parent, "fit", counting)
        with SupervisedWorkerPool(parent, n_workers=2) as pool:
            before = pool.execute_batch(sweep_queries)
            pool.add_aggregate(second)
            served = pool.execute_batch(sweep_queries)
            again = dispatch_outcomes(pool, sweep_queries)
        assert fits_on_a_loop == [], "a dispatch fitted the parent"
        assert parent.is_fitted
        oracle = build_fitted_themis()
        oracle.add_aggregate(first)
        assert before == oracle.serve().execute_batch(sweep_queries).results()
        oracle.add_aggregate(second)
        fresh = oracle.serve().execute_batch(sweep_queries).results()
        assert served == fresh
        assert [outcome.value for outcome in again] == fresh

    def test_an_add_aggregate_on_another_thread_never_fits_on_the_loop(
        self, monkeypatch, sweep_queries, expected
    ):
        """``pool.add_aggregate`` from a helper thread while the serving
        loop dispatches: the parent facade holds no model until the helper's
        fit returns, and a dispatch in that window plans on the model the
        pool last fitted instead of fitting one on the loop."""
        second = AggregateQuery.from_relation(build_correlated_population(), ["C"])
        parent = build_fitted_themis()
        fitting, release = threading.Event(), threading.Event()
        fits_on_a_loop = []
        fit = parent.fit

        def held():
            try:
                asyncio.get_running_loop()
            except RuntimeError:  # the helper's fit waits inside the window
                fitting.set()
                release.wait(5)
            else:
                fits_on_a_loop.append(threading.current_thread().name)
            return fit()

        monkeypatch.setattr(parent, "fit", held)
        statements = sweep_queries[:8]

        async def serve(pool):
            await pool.start()
            helper = asyncio.ensure_future(asyncio.to_thread(pool.add_aggregate, second))
            assert await asyncio.to_thread(fitting.wait, 5)
            assert not parent.is_fitted
            during = [None] * len(statements)
            await pool.dispatch(statements, during.__setitem__)
            release.set()
            await helper
            after = [None] * len(statements)
            await pool.dispatch(statements, after.__setitem__)
            return during, after

        with SupervisedWorkerPool(parent, n_workers=2) as pool:
            try:
                during, after = asyncio.run(serve(pool))
            finally:
                release.set()
        assert fits_on_a_loop == [], "a dispatch fitted the parent on the loop"
        # The workers had not heard of the aggregate yet: the old answers.
        assert [outcome.value for outcome in during] == expected[:8]
        oracle = build_fitted_themis()
        oracle.add_aggregate(second)
        fresh = oracle.serve().execute_batch(statements).results()
        assert [outcome.value for outcome in after] == fresh

    def test_dispatch_timeout_raises_overload_with_shard_id(self, themis):
        statement = "SELECT A, COUNT(*) FROM R GROUP BY A"
        # max_retries=0: a single attempt surfaces its own typed error
        # instead of RetryExhaustedError.  The first reply is held back past
        # the timeout (a bare tiny timeout races a fast worker).
        late = FaultInjector().delay_reply(0, seconds=0.25, at=1)
        with SupervisedWorkerPool(
            themis, n_workers=1, max_retries=0, fault_injector=late
        ) as pool:
            with pytest.raises(ServingOverloadError) as excinfo:
                pool.execute_batch([statement], timeout=0.05)
            assert excinfo.value.shard_id == 0
            # The worker's eventual late reply is discarded by sequence
            # number: the pool keeps serving correct answers afterwards.
            time.sleep(0.5)
            oracle = build_fitted_themis()
            assert pool.execute_batch([statement]) == [oracle.query(statement)]

    def test_closed_pool_rejects_work(self, themis):
        pool = SupervisedWorkerPool(themis, n_workers=1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ThemisError, match="closed"):
            pool.execute_batch(["SELECT COUNT(*) FROM R WHERE A = 0"])


# ---------------------------------------------------------------------------
# What crosses the pipe: the statement as submitted, plus the sender's key
# ---------------------------------------------------------------------------
class TestWhatCrossesThePipe:
    def test_text_and_ast_submissions_match_in_process(self, themis):
        entries = MixedQueryWorkload(themis.sample, seed=SWEEP_SEED).generate(
            n_point=4, n_scalar=4, n_group_by=4, n_analytic=4
        )
        as_text = [entry.sql for entry in entries]
        # Joins have no SQL form; the golden set adds one, plus the full
        # analytic pipeline and an out-of-domain point.
        as_ast = [entry.query for entry in entries] + list(golden_queries().values())
        oracle = build_fitted_themis().serve()
        with SupervisedWorkerPool(themis, n_workers=2) as pool:
            for submissions in (as_text, as_ast):
                in_process = oracle.execute_batch(submissions).results()
                assert pool.execute_batch(submissions) == in_process

    def test_forged_key_is_refused_before_anything_executes(
        self, monkeypatch, themis, sweep_queries, expected
    ):
        victim = sweep_queries[0]
        honest = pool_module.batch_payload

        def forged(requests, deadline_ts):
            requests = [
                (statement, ("forged",) if statement == victim else key)
                for statement, key in requests
            ]
            return honest(requests, deadline_ts)

        with SupervisedWorkerPool(themis, n_workers=2) as pool:
            homes = [
                pool.router.shard_for(plan.key)
                for plan in pool.compile_batch(sweep_queries)
            ]
            refused = homes[0]
            assert set(homes) == {0, 1}, "the sweep must reach both shards"
            monkeypatch.setattr(pool_module, "batch_payload", forged)
            outcomes = dispatch_outcomes(pool, sweep_queries)
            monkeypatch.undo()
            described = pool.describe()
            # The worker that refused the batch is alive and serves it honestly.
            assert pool.execute_batch(sweep_queries) == expected
        for home, outcome, answer in zip(homes, outcomes, expected):
            if home == refused:
                # One disagreeing key fails its whole conversation, no more.
                assert isinstance(outcome.error, WireFormatError)
                assert "key mismatch" in str(outcome.error)
            else:
                assert outcome.ok and outcome.value == answer
        # The check ran before execution: nothing served, nothing cached.
        assert described[refused]["queries_served"] == 0
        assert described[refused]["cache"]["result_cache"]["entries"] == 0
        assert described[1 - refused]["queries_served"] == homes.count(1 - refused)

    def test_repeated_sql_text_hits_the_workers_plan_cache(self, themis):
        statement = "SELECT COUNT(*) FROM R WHERE A = 1 AND B = 0"
        with SupervisedWorkerPool(themis, n_workers=2) as pool:
            answers = [pool.execute_batch([statement]) for _ in range(3)]
            plan_caches = [body["cache"]["plan_cache"] for body in pool.describe()]
        assert answers[0] == answers[1] == answers[2]
        # Planned once on the owning shard; every later look-up is a hit.
        assert sum(cache["misses"] for cache in plan_caches) == 1
        assert sum(cache["entries"] for cache in plan_caches) == 1
        assert sum(cache["hits"] for cache in plan_caches) >= 2

    def test_the_parent_plans_and_hashes_a_repeated_statement_once(
        self, monkeypatch, themis, sweep_queries, expected
    ):
        distinct_statements = len(set(sweep_queries))
        distinct_keys = len({themis.plan(query).key for query in sweep_queries})
        digests = []
        blake2b = hashlib.blake2b

        def counting(*args, **kwargs):
            digests.append(args)
            return blake2b(*args, **kwargs)

        with SupervisedWorkerPool(themis, n_workers=2) as pool:
            themis.plan_cache.clear()
            stable_key_hash.cache_clear()
            before = themis.plan_cache.statistics.snapshot()
            monkeypatch.setattr(hashlib, "blake2b", counting)
            assert pool.execute_batch(sweep_queries) == expected
            first = themis.plan_cache.statistics.since(before)
            assert pool.execute_batch(sweep_queries) == expected
            both = themis.plan_cache.statistics.since(before)
        monkeypatch.undo()
        assert first.misses == distinct_statements
        assert first.hits == len(sweep_queries) - distinct_statements
        # The second pass planned nothing: every statement was a hit.
        assert both.misses == first.misses
        assert both.hits - first.hits == len(sweep_queries)
        assert len(digests) == distinct_keys

    def test_each_key_is_hashed_once_per_call_even_across_a_retry(
        self, monkeypatch, themis, sweep_queries, expected
    ):
        hashed = []
        stable_hash = pool_module.stable_key_hash

        def counting(key):
            hashed.append(key)
            return stable_hash(key)

        monkeypatch.setattr(pool_module, "stable_key_hash", counting)
        kills = FaultInjector().kill_at_batch(0, at=1).kill_at_batch(1, at=1)
        with SupervisedWorkerPool(
            themis, n_workers=2, fault_injector=kills, backoff_base=0.01
        ) as pool:
            assert pool.execute_batch(sweep_queries) == expected
            assert pool.metrics.value(names.SCALE_FAULT_RETRIES) >= 1
            assert len(hashed) == len(sweep_queries)
            # ...and a bad statement is neither hashed nor routed.
            del hashed[:]
            outcomes = dispatch_outcomes(pool, ["SELEC nonsense", sweep_queries[0]])
            assert [outcome.ok for outcome in outcomes] == [False, True]
            assert len(hashed) == 1


# ---------------------------------------------------------------------------
# Micro-batcher backpressure (unit tests over a stub pool)
# ---------------------------------------------------------------------------
class _StubPool:
    """Duck-typed coroutine pool: echoes query indices, optionally slowly."""

    def __init__(self, delay: float = 0.0):
        self.metrics = MetricsRegistry()
        self.delay = delay
        self.batches: list[list] = []

    async def dispatch(self, queries, settle, deadline_ts=None):
        if self.delay:
            await asyncio.sleep(self.delay)
        self.batches.append(list(queries))
        self.answer(queries, settle)

    @staticmethod
    def answer(queries, settle):
        for index, query in enumerate(queries):
            settle(index, RequestOutcome(ok=True, value=f"answer:{query}"))


class _GatedPool(_StubPool):
    """Stub pool whose dispatches wait until the test opens ``gate``.

    ``batches`` records a dispatch on entry, so a test can see what left the
    queue while the slot is still held; ``entered`` says one is in.
    """

    def __init__(self):
        super().__init__()
        self.gate = asyncio.Event()
        self.entered = asyncio.Event()

    async def dispatch(self, queries, settle, deadline_ts=None):
        self.batches.append(list(queries))
        self.entered.set()
        await asyncio.wait_for(self.gate.wait(), 10)  # the test opens the gate
        self.answer(queries, settle)


async def _hold_every_slot(batcher, pool):
    """Occupy the batcher's dispatch slots; returns the holders' futures.

    One submit per slot, each awaited into the (gated) pool before the next,
    so every holder leaves alone and nothing is left in the queue.
    """
    holders = []
    for slot in range(batcher.max_inflight):
        pool.entered.clear()
        holders.append(asyncio.ensure_future(batcher.submit(f"hold{slot}")))
        await asyncio.wait_for(pool.entered.wait(), 10)
    return holders


class TestMicroBatcherBackpressure:
    def test_queue_full_raises_typed_overload(self):
        async def scenario():
            pool = _GatedPool()
            batcher = MicroBatcher(pool, max_queue=2, max_inflight=1)
            await batcher.start()
            holders = await _hold_every_slot(batcher, pool)
            first = asyncio.ensure_future(batcher.submit("q0"))
            second = asyncio.ensure_future(batcher.submit("q1"))
            await asyncio.sleep(0)  # let both enqueue
            with pytest.raises(ServingOverloadError) as excinfo:
                await batcher.submit("q2")
            assert excinfo.value.queue_depth == 2
            assert "queue_depth=2" in str(excinfo.value)
            assert batcher.metrics.value(names.SCALE_OVERLOADS) == 1
            # The two accepted submissions still complete on shutdown.
            pool.gate.set()
            await batcher.stop()
            assert await first == "answer:q0"
            assert await second == "answer:q1"
            assert [await holder for holder in holders] == ["answer:hold0"]

        asyncio.run(scenario())

    def test_admission_sheds_lowest_priority_first_behind_held_slots(self):
        async def scenario():
            pool = _GatedPool()
            batcher = MicroBatcher(
                pool, max_inflight=1, admission=AdmissionController(max_queue=4)
            )
            await batcher.start()
            holders = await _hold_every_slot(batcher, pool)
            queued = [asyncio.ensure_future(batcher.submit(f"q{i}")) for i in range(2)]
            await asyncio.sleep(0)  # let both enqueue
            # Depth 2 of 4: background's half share is spent, batch's three
            # quarters and interactive's whole are not.
            with pytest.raises(AdmissionRejectedError) as excinfo:
                await batcher.submit("bg", priority=PRIORITY_BACKGROUND)
            assert excinfo.value.priority == PRIORITY_BACKGROUND
            assert excinfo.value.queue_depth == 2
            queued.append(
                asyncio.ensure_future(batcher.submit("b", priority=PRIORITY_BATCH))
            )
            queued.append(asyncio.ensure_future(batcher.submit("q2")))
            await asyncio.sleep(0)
            assert batcher.metrics.value(names.SCALE_OVERLOADS) == 1
            assert batcher.metrics.value(names.GOVERNANCE_REQUESTS_REJECTED) == 1
            pool.gate.set()
            await batcher.stop()
            assert [await future for future in queued] == [
                "answer:q0", "answer:q1", "answer:b", "answer:q2",
            ]
            assert len(holders) == 1 and await holders[0] == "answer:hold0"

        asyncio.run(scenario())

    def test_dispatch_timeout_fails_futures_with_overload(self):
        # The batcher keeps no clock of its own: the timeout is the pool's,
        # and it fails that batch's unanswered futures — only those.
        class _SilentShardPool(_StubPool):
            async def dispatch(self, queries, settle, deadline_ts=None):
                if "slow-query" in queries:
                    settle(0, RequestOutcome(ok=True, value="answered in time"))
                    raise DispatchTimeoutError("shard stayed silent", shard_id=1)
                await super().dispatch(queries, settle, deadline_ts)

        async def scenario():
            batcher = MicroBatcher(_SilentShardPool())
            await batcher.start()
            answered, silent = await asyncio.gather(
                batcher.submit("fast-query"),
                batcher.submit("slow-query"),
                return_exceptions=True,
            )
            assert answered == "answered in time"
            assert isinstance(silent, ServingOverloadError) and silent.shard_id == 1
            assert batcher.metrics.value(names.SCALE_OVERLOADS) == 1
            assert asyncio.all_tasks() == {asyncio.current_task()}
            assert await batcher.submit("next") == "answer:next"
            await batcher.stop()

        asyncio.run(scenario())

    def test_arrivals_within_budget_share_one_batch(self):
        async def scenario():
            pool = _StubPool()
            batcher = MicroBatcher(pool, max_batch_size=8)
            await batcher.start()
            # One gather = one event-loop turn: all six are pending when the
            # free slot is taken.
            answers = await asyncio.gather(
                *(batcher.submit(f"q{i}") for i in range(6))
            )
            await batcher.stop()
            assert answers == [f"answer:q{i}" for i in range(6)]
            assert len(pool.batches) == 1, pool.batches  # all fused
            sizes = batcher.metrics.snapshot()["histograms"][names.MICROBATCH_SIZE]
            assert sizes["count"] == 1 and sizes["max"] == 6

        asyncio.run(scenario())

    def test_zero_budget_still_serves(self):
        # There is no budget any more: a lone submit leaves at once, alone.
        async def scenario():
            pool = _StubPool()
            batcher = MicroBatcher(pool)
            await batcher.start()
            assert await batcher.submit("q") == "answer:q"
            await batcher.stop()
            assert pool.batches == [["q"]]

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Natural batching: batches form behind busy slots, not behind a clock
# ---------------------------------------------------------------------------
class TestNaturalBatching:
    def test_no_latency_knob_is_left(self):
        for owner in (MicroBatcher, AsyncServingFrontend):
            parameters = inspect.signature(owner).parameters
            assert not [name for name in parameters if "latency" in name]
        batcher = MicroBatcher(_StubPool())
        assert not [name for name in vars(batcher) if "latency" in name]

    def test_lone_submit_arms_no_timer(self, monkeypatch):
        def armed(*args, **kwargs):
            raise AssertionError("a timer was armed on the request path")

        async def scenario():
            pool = _StubPool()
            batcher = MicroBatcher(pool)
            await batcher.start()
            loop = asyncio.get_running_loop()
            with monkeypatch.context() as patched:
                patched.setattr(loop, "call_later", armed)
                patched.setattr(loop, "call_at", armed)
                patched.setattr(asyncio, "sleep", armed)
                patched.setattr(asyncio, "wait_for", armed)
                assert await batcher.submit("q0") == "answer:q0"
                assert await batcher.submit("q1") == "answer:q1"
            await batcher.stop()
            assert pool.batches == [["q0"], ["q1"]]

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "max_batch_size, sizes", [(64, [1, 5]), (4, [1, 4, 1])]
    )
    def test_arrivals_behind_a_held_slot_leave_as_one_batch(
        self, max_batch_size, sizes
    ):
        async def scenario():
            pool = _GatedPool()
            batcher = MicroBatcher(
                pool, max_batch_size=max_batch_size, max_inflight=1
            )
            await batcher.start()
            holders = await _hold_every_slot(batcher, pool)
            behind = [
                asyncio.ensure_future(batcher.submit(f"q{i}")) for i in range(5)
            ]
            await asyncio.sleep(0)  # let all five enqueue
            assert [len(batch) for batch in pool.batches] == [1]  # slot held
            pool.gate.set()
            answers = [await future for future in holders + behind]
            await batcher.stop()
            assert answers == ["answer:hold0"] + [f"answer:q{i}" for i in range(5)]
            assert [len(batch) for batch in pool.batches] == sizes
            histogram = batcher.metrics.snapshot()["histograms"][names.MICROBATCH_SIZE]
            assert histogram["count"] == len(sizes) and histogram["max"] == max(sizes)

        asyncio.run(scenario())

    def test_a_batch_does_not_leave_smaller_than_one_still_out(self):
        async def scenario():
            pool = _GatedPool()
            batcher = MicroBatcher(pool, max_inflight=4)
            await batcher.start()

            async def out(tag):
                # Three submits in one turn: one batch of three, held by the gate.
                pool.entered.clear()
                futures = [
                    asyncio.ensure_future(batcher.submit(f"{tag}{i}")) for i in range(3)
                ]
                await asyncio.wait_for(pool.entered.wait(), 10)
                return futures

            async def queued(query):
                future = asyncio.ensure_future(batcher.submit(query))
                for _ in range(3):  # the submit, its pump, a dispatch's first step
                    await asyncio.sleep(0)
                return future

            # Slots are free, but the lone request would only queue behind
            # the three on the pipes: it waits, and leaves when they are done.
            first = await out("a")
            lone = await queued("lone")
            assert [len(batch) for batch in pool.batches] == [3]
            pool.gate.set()
            assert await lone == "answer:lone"
            assert pool.batches[1:] == [["lone"]]
            # Or sooner, once it has grown to their size.
            pool.gate.clear()
            second = await out("b")
            grown = [await queued("g0"), await queued("g1")]
            assert len(pool.batches) == 3
            grown.append(await queued("g2"))
            assert pool.batches[3:] == [["g0", "g1", "g2"]]
            assert not any(future.done() for future in second)
            pool.gate.set()
            await asyncio.gather(*first, *second, *grown)
            await batcher.stop()
            assert batcher._out == []

        asyncio.run(scenario())

    def test_backlog_dispatches_by_priority_class_then_arrival(self):
        arrivals = [
            ("bg0", PRIORITY_BACKGROUND),
            ("b0", PRIORITY_BATCH),
            ("i0", "interactive"),
            ("bg1", PRIORITY_BACKGROUND),
            ("i1", "interactive"),
            ("b1", PRIORITY_BATCH),
        ]

        async def scenario():
            pool = _GatedPool()
            batcher = MicroBatcher(pool, max_batch_size=2, max_inflight=1)
            await batcher.start()
            holders = await _hold_every_slot(batcher, pool)
            behind = [
                asyncio.ensure_future(batcher.submit(query, priority=priority))
                for query, priority in arrivals
            ]
            await asyncio.sleep(0)  # let all six enqueue
            pool.gate.set()
            await asyncio.gather(*holders, *behind)
            await batcher.stop()
            return pool.batches

        assert asyncio.run(scenario()) == [
            ["hold0"], ["i0", "i1"], ["b0", "b1"], ["bg0", "bg1"],
        ]

    def test_stop_drains_the_queue_behind_held_slots(self):
        async def scenario():
            pool = _GatedPool()
            batcher = MicroBatcher(pool, max_batch_size=2, max_inflight=2)
            await batcher.start()
            holders = await _hold_every_slot(batcher, pool)
            behind = [
                asyncio.ensure_future(batcher.submit(f"q{i}")) for i in range(5)
            ]
            await asyncio.sleep(0)  # let all five enqueue
            stopping = asyncio.ensure_future(batcher.stop())
            await asyncio.sleep(0)
            assert not stopping.done() and not any(f.done() for f in behind)
            pool.gate.set()
            await stopping
            # Everything accepted before stop() was answered, nothing new is.
            assert all(future.done() for future in holders + behind)
            assert [await future for future in behind] == [
                f"answer:q{i}" for i in range(5)
            ]
            assert sorted(len(batch) for batch in pool.batches) == [1, 1, 1, 2, 2]
            with pytest.raises(RuntimeError, match="before start"):
                await batcher.submit("late")

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# One malformed request fails alone; the dispatch loop never dies quietly
# ---------------------------------------------------------------------------
class TestMicroBatcherSurvivesBadInput:
    @pytest.mark.parametrize("priority", [[], "vip", 7, None])
    def test_malformed_priority_fails_only_its_own_submit(self, priority):
        # At the parent an unhashable priority passed submit() and killed the
        # flusher task in its backlog sort: nothing queued then or submitted
        # later was ever answered.
        async def scenario():
            pool = _StubPool()
            batcher = MicroBatcher(pool, max_batch_size=1)
            await batcher.start()
            bad = await asyncio.gather(
                *(batcher.submit(f"bad{i}", priority=priority) for i in range(3)),
                return_exceptions=True,
            )
            good = await asyncio.gather(*(batcher.submit(f"q{i}") for i in range(3)))
            await batcher.stop()
            return bad, good, pool.batches

        bad, good, batches = asyncio.run(scenario())
        for error in bad:
            assert isinstance(error, ValueError)
            assert "unknown priority" in str(error) and "interactive" in str(error)
        assert good == ["answer:q0", "answer:q1", "answer:q2"]
        assert batches == [["q0"], ["q1"], ["q2"]]

    def test_malformed_priority_is_refused_under_a_controller_too(self):
        async def scenario():
            batcher = MicroBatcher(
                _StubPool(), admission=AdmissionController(max_queue=8)
            )
            await batcher.start()
            with pytest.raises(ValueError, match="unknown priority"):
                await batcher.submit("q", priority=[])
            assert await batcher.submit("q") == "answer:q"
            await batcher.stop()

        asyncio.run(scenario())

    def test_dispatching_outlives_a_batch_it_cannot_form(self, monkeypatch):
        async def scenario():
            pool = _StubPool()
            batcher = MicroBatcher(pool)
            await batcher.start()
            take_batch = batcher._take_batch

            def broken():
                monkeypatch.setattr(batcher, "_take_batch", take_batch)
                raise TypeError("cannot order this queue")

            monkeypatch.setattr(batcher, "_take_batch", broken)
            taken = await asyncio.gather(
                batcher.submit("q0"), batcher.submit("q1"), return_exceptions=True
            )
            # The requests it had taken fail loudly, no slot is lost, and
            # what arrives next is served.
            assert [type(error) for error in taken] == [TypeError, TypeError]
            assert await batcher.submit("q2") == "answer:q2"
            await batcher.stop()
            assert batcher._out == []
            assert pool.batches == [["q2"]]

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Asyncio front-end and socket server
# ---------------------------------------------------------------------------
async def _ask(port, request_id, sql):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(json.dumps({"id": request_id, "sql": sql}).encode() + b"\n")
    await writer.drain()
    response = json.loads(await reader.readline())
    writer.close()
    await writer.wait_closed()
    return response


class TestAsyncFrontend:
    def test_concurrent_clients_bit_identical(self, themis, sweep_queries, expected):
        async def scenario():
            async with AsyncServingFrontend(themis, n_workers=2) as frontend:
                answers = await asyncio.gather(
                    *(frontend.query(q) for q in sweep_queries)
                )
                snapshot = frontend.statistics()
            assert list(answers) == expected, (
                f"async sharded answers diverged (seed {SWEEP_SEED})"
            )
            assert snapshot["counters"][names.SCALE_REQUESTS] == len(sweep_queries)
            assert snapshot["histograms"][names.MICROBATCH_SIZE]["count"] >= 1
            assert snapshot["histograms"][names.MICROBATCH_SIZE]["mean"] >= 1.0
            assert (
                snapshot["histograms"][names.SCALE_REQUEST_SECONDS]["count"]
                == len(sweep_queries)
            )
            # Both shards served traffic.
            occupancy = [
                value
                for name, value in snapshot["counters"].items()
                if name.startswith(names.SCALE_SHARD_PREFIX)
            ]
            assert len(occupancy) == 2 and all(value > 0 for value in occupancy)

        asyncio.run(scenario())

    def test_socket_server_round_trip(self, themis):
        statement = "SELECT A, COUNT(*) FROM R WHERE B <= 1 GROUP BY A"
        scalar = "SELECT COUNT(*) FROM R WHERE A = 1 AND B = 0"
        oracle = build_fitted_themis()

        async def scenario():
            async with AsyncServingFrontend(themis, n_workers=1) as frontend:
                server = await serve_async(frontend, port=0)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                for request_id, sql in ((1, statement), (2, scalar), (3, "syntax (")):
                    writer.write(
                        json.dumps({"id": request_id, "sql": sql}).encode() + b"\n"
                    )
                await writer.drain()
                responses = [
                    json.loads(await reader.readline()) for _ in range(3)
                ]
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
            return responses

        groups, scalar_resp, bad = asyncio.run(scenario())
        assert groups["ok"] and groups["id"] == 1 and groups["kind"] == "groups"
        expected_groups = oracle.query(statement)
        assert groups["groups"] == sorted(
            [list(group), value] for group, value in expected_groups
        )
        assert scalar_resp["ok"] and scalar_resp["kind"] == "scalar"
        assert scalar_resp["value"] == oracle.query(scalar)
        assert not bad["ok"] and "error" in bad

    def test_bad_statement_fails_only_its_own_request(self, themis):
        good = [
            "SELECT A, COUNT(*) FROM R WHERE B <= 1 GROUP BY A",
            "SELECT COUNT(*) FROM R WHERE A = 1 AND B = 0",
        ]
        oracle = build_fitted_themis()

        async def scenario():
            # One gather = one event-loop turn, so all three share one
            # micro-batch.
            async with AsyncServingFrontend(themis, n_workers=2) as frontend:
                answers = await asyncio.gather(
                    frontend.query(good[0]),
                    frontend.query("SELEC nonsense FROM"),
                    frontend.query(good[1]),
                    return_exceptions=True,
                )
                sizes = frontend.statistics()["histograms"][names.MICROBATCH_SIZE]
            return answers, sizes

        (first, bad, second), sizes = asyncio.run(scenario())
        assert sizes["count"] == 1 and sizes["max"] == 3, sizes
        assert first == oracle.query(good[0])
        assert second == oracle.query(good[1])
        assert isinstance(bad, SQLSyntaxError)

    def test_socket_bad_statement_fails_only_its_own_request(self, themis):
        good = [
            "SELECT A, COUNT(*) FROM R WHERE B <= 1 GROUP BY A",
            "SELECT COUNT(*) FROM R WHERE A = 1 AND B = 0",
        ]
        oracle = build_fitted_themis()

        async def scenario():
            async with AsyncServingFrontend(themis, n_workers=2) as frontend:
                server = await serve_async(frontend, port=0)
                port = server.sockets[0].getsockname()[1]
                # Three clients at once: their requests may share a micro-batch.
                responses = await asyncio.gather(
                    _ask(port, 1, good[0]),
                    _ask(port, 2, "SELEC nonsense FROM"),
                    _ask(port, 3, good[1]),
                )
                server.close()
                await server.wait_closed()
            return responses

        groups, bad, scalar = asyncio.run(scenario())
        assert groups == {
            "id": 1, "ok": True, **encode_result(oracle.query(good[0]))
        }
        assert scalar == {
            "id": 3, "ok": True, **encode_result(oracle.query(good[1]))
        }
        assert bad["id"] == 2 and not bad["ok"]
        assert "SELEC" in bad["error"]

    def test_socket_malformed_priority_fails_only_its_own_request(self, themis):
        scalar = "SELECT COUNT(*) FROM R WHERE A = 1 AND B = 0"
        oracle = build_fitted_themis()

        async def scenario():
            async with AsyncServingFrontend(themis, n_workers=1) as frontend:
                server = await serve_async(frontend, port=0)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                responses = []
                for request_id, priority in enumerate([[], "vip", 7]):
                    request = {"id": request_id, "sql": scalar, "priority": priority}
                    writer.write(json.dumps(request).encode() + b"\n")
                    await writer.drain()
                    responses.append(json.loads(await reader.readline()))
                # The same connection, and the server behind it, still serve.
                writer.write(json.dumps({"id": 9, "sql": scalar}).encode() + b"\n")
                await writer.drain()
                responses.append(json.loads(await reader.readline()))
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
            return responses

        *refused, served = asyncio.run(scenario())
        for request_id, response in enumerate(refused):
            assert response["id"] == request_id and response["ok"] is False
            assert "unknown priority" in response["error"]
        assert served == {
            "id": 9, "ok": True, "kind": "scalar", "value": oracle.query(scalar)
        }

    def test_socket_wrong_typed_sql_fails_only_its_own_request(self, themis):
        """The parent plans raw client values through its facade's plan
        cache: a ``sql`` that is not a query at all gets its own error
        reply, and the same connection goes on serving."""
        scalar = "SELECT COUNT(*) FROM R WHERE A = 1 AND B = 0"
        oracle = build_fitted_themis()
        wrong = [5, None, [1], {"a": 1}]

        async def scenario():
            async with AsyncServingFrontend(themis, n_workers=1) as frontend:
                server = await serve_async(frontend, port=0)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                responses = []
                for request_id, value in enumerate(wrong):
                    for request in (
                        {"id": request_id, "sql": value},
                        {"id": request_id, "sql": scalar},
                    ):
                        writer.write(json.dumps(request).encode() + b"\n")
                        await writer.drain()
                        responses.append(json.loads(await reader.readline()))
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
            return responses

        responses = asyncio.run(scenario())
        for request_id, value in enumerate(wrong):
            refused, served = responses[2 * request_id : 2 * request_id + 2]
            assert refused["id"] == request_id and refused["ok"] is False, value
            assert "unsupported query type" in refused["error"]
            assert served == {
                "id": request_id,
                "ok": True,
                "kind": "scalar",
                "value": oracle.query(scalar),
            }

    def test_socket_survives_undecodable_and_oversized_lines(self, themis):
        scalar = "SELECT COUNT(*) FROM R WHERE A = 1 AND B = 0"
        oracle = build_fitted_themis()
        valid = json.dumps({"id": 9, "sql": scalar}).encode() + b"\n"

        async def scenario():
            async with AsyncServingFrontend(themis, n_workers=1) as frontend:
                server = await serve_async(frontend, port=0)
                port = server.sockets[0].getsockname()[1]
                # Bytes json.loads cannot decode: answered, and the same
                # connection keeps serving.
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b"\xc3\x28\n" + b"\xff\xfe{}\n" + valid)
                await writer.drain()
                same_connection = [
                    json.loads(await reader.readline()) for _ in range(3)
                ]
                # A line past the StreamReader limit: answered, then closed.
                writer.write(b"x" * (100 * 1024) + b"\n")
                await writer.drain()
                too_long = json.loads(await reader.readline())
                at_eof = await reader.readline()
                writer.close()
                await writer.wait_closed()
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(valid)
                await writer.drain()
                fresh_connection = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
            return same_connection, too_long, at_eof, fresh_connection

        same_connection, too_long, at_eof, fresh = asyncio.run(scenario())
        answer = {"id": 9, "ok": True, "kind": "scalar", "value": oracle.query(scalar)}
        for malformed in same_connection[:2]:
            assert malformed["ok"] is False and malformed["error"]
        assert same_connection[2] == answer
        assert too_long["ok"] is False and too_long["error"]
        assert at_eof == b""
        assert fresh == answer


# ---------------------------------------------------------------------------
# Pipes on the event loop: per-shard settle, two-phase release, real timeouts
# ---------------------------------------------------------------------------
def _serving_threads():
    """Threads the tier or a loop of its could have started: there are none."""
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(("themis", "microbatch", "asyncio"))
    ]


def _shard_processes():
    return [
        process.name
        for process in mp.active_children()
        if process.name.startswith("themis-shard-")
    ]


def _exits_at_once(spec, conn, *args):
    """A worker entry point that hangs up before it answers anything."""
    conn.close()


class TestPipesOnTheEventLoop:
    SCALAR = "SELECT COUNT(*) FROM R WHERE A = 1 AND B = 0"

    def test_answers_leave_shard_by_shard(self, themis, sweep_queries, expected):
        slow = 0
        late = FaultInjector().delay_reply(slow, seconds=0.5, at=1)

        async def scenario():
            async with AsyncServingFrontend(
                themis, n_workers=2, fault_injector=late
            ) as frontend:
                pool = frontend.pool
                homes = [
                    pool.router.shard_for(plan.key)
                    for plan in pool.compile_batch(sweep_queries)
                ]
                # One event-loop turn: all of them leave in one micro-batch.
                futures = [
                    asyncio.ensure_future(frontend.query(q)) for q in sweep_queries
                ]
                await asyncio.gather(
                    *(f for f, home in zip(futures, homes) if home != slow)
                )
                slow_done = [f.done() for f, home in zip(futures, homes) if home == slow]
                answers = await asyncio.gather(*futures)
                sizes = frontend.statistics()["histograms"][names.MICROBATCH_SIZE]
            return homes, slow_done, answers, sizes

        homes, slow_done, answers, sizes = asyncio.run(scenario())
        assert set(homes) == {0, 1}, "the sweep must reach both shards"
        assert sizes["count"] == 1 and sizes["max"] == len(sweep_queries)
        # The fast shard's answers resolved while the slow shard of the same
        # batch had not replied yet.
        assert slow_done and not any(slow_done)
        assert answers == expected

    def test_refit_racing_two_shard_batches_is_none_or_all(
        self, monkeypatch, sweep_queries, expected
    ):
        # Shard 1 lags on every other batch, so shard 0's lock is let go
        # while the conversation is still out on shard 1.
        lag = FaultInjector()
        for ordinal in range(1, 200, 2):
            lag.delay_reply(1, seconds=0.01, at=ordinal)
        errors, batches, seen = [], [], []

        pool = SupervisedWorkerPool(
            build_fitted_themis(), n_workers=2, fault_injector=lag
        )
        converse = pool._converse

        async def recording(workers, command, payload_for, timeout, on_reply=None):
            def replied(worker, reply):
                if on_reply is not None:
                    on_reply(worker, reply)
                if command == pool_module.CMD_BATCH and isinstance(reply, dict):
                    seen.append((reply["shard_id"], reply["generation"]))

            return await converse(workers, command, payload_for, timeout, replied)

        monkeypatch.setattr(pool, "_converse", recording)

        def mutate():
            # Blocking refits from another thread run on the serving loop,
            # interleaved with the batches the loop dispatches meanwhile.
            try:
                for _ in range(3):
                    pool.refit()
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        async def scenario():
            await pool.start()
            try:
                mutator = asyncio.ensure_future(asyncio.to_thread(mutate))
                while (not mutator.done() or len(batches) < 3) and len(batches) < 500:
                    del seen[:]
                    outcomes = [None] * len(sweep_queries)
                    await pool.dispatch(sweep_queries, outcomes.__setitem__)
                    answers = [outcome.value for outcome in outcomes]
                    batches.append((sorted(seen), answers))
                await asyncio.wait_for(mutator, 30)
                (body, _) = await asyncio.to_thread(pool.describe)
            finally:
                await pool.aclose()
            return body["generation"]

        final_generation = asyncio.run(scenario())
        assert not errors, errors
        generations = []
        for replies, answers in batches:
            assert [shard for shard, _ in replies] == [0, 1]
            # Both shards of a batch served it under one generation ...
            (generation,) = {generation for _, generation in replies}
            generations.append(generation)
            # ... whose oracle it equals (same inputs and seed: the refitted
            # model answers as the first one did).
            assert answers == expected
        assert generations == sorted(generations)
        assert generations[-1] == final_generation

    def test_reply_timeout_leaves_nothing_of_the_dispatch_behind(self, themis):
        oracle = build_fitted_themis()
        late = FaultInjector().delay_reply(0, seconds=0.3, at=1)

        async def scenario():
            async with AsyncServingFrontend(
                themis,
                n_workers=1,
                dispatch_timeout=0.05,
                max_retries=0,
                fault_injector=late,
            ) as frontend:
                loop = asyncio.get_running_loop()
                (worker,) = frontend.pool._workers
                with pytest.raises(ServingOverloadError) as excinfo:
                    await frontend.query(self.SCALAR)
                assert excinfo.value.shard_id == 0
                # Nothing of that dispatch is left: no task, no reader on the
                # pipe, the shard's lock free.
                assert asyncio.all_tasks() == {asyncio.current_task()}
                assert not worker.lock.locked()
                assert loop.remove_reader(worker.conn.fileno()) is False
                # Gate on the late reply reaching the pipe; the next
                # conversation discards it by sequence number.
                arrived = asyncio.Event()
                loop.add_reader(worker.conn.fileno(), arrived.set)
                await asyncio.wait_for(arrived.wait(), 10)
                loop.remove_reader(worker.conn.fileno())
                return await frontend.query(self.SCALAR)

        assert asyncio.run(scenario()) == oracle.query(self.SCALAR)

    def test_synchronous_refit_and_describe_from_a_thread_under_socket_traffic(self):
        oracle = build_fitted_themis()

        def mutate(frontend):
            applied = frontend.refit()
            return applied, frontend.pool.describe()

        async def scenario():
            # Own facade: refit mutates the parent.
            parent = build_fitted_themis()
            async with AsyncServingFrontend(parent, n_workers=2) as frontend:
                server = await serve_async(frontend)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                mutation = asyncio.ensure_future(asyncio.to_thread(mutate, frontend))
                responses = []
                while not mutation.done() or len(responses) < 5:
                    writer.write(json.dumps({"sql": self.SCALAR}).encode() + b"\n")
                    await writer.drain()
                    responses.append(json.loads(await reader.readline()))
                writer.close()
                await writer.wait_closed()
                server.close()
                await server.wait_closed()
                applied, described = await mutation
                # On the loop itself it would wait for itself: refused before
                # the parent facade is touched, not after it was refit.
                before = parent.generation
                with pytest.raises(RuntimeError, match="running event loop"):
                    frontend.refit()
                assert parent.generation == before
                return (applied, described), responses

        (applied, described), responses = asyncio.run(scenario())
        assert [body["broadcasts"] for body in described] == [applied] * 2 == [1, 1]
        assert len({body["generation"] for body in described}) == 1
        # Same inputs, same seed: every generation answers the same.
        answer = {"id": None, "ok": True, **encode_result(oracle.query(self.SCALAR))}
        assert len(responses) >= 5 and all(r == answer for r in responses)

    def test_no_serving_thread_during_or_after_a_request(self, themis):
        oracle = build_fitted_themis()

        async def scenario():
            async with AsyncServingFrontend(
                themis, n_workers=1, heartbeat_interval=0.05
            ) as frontend:
                request = asyncio.ensure_future(frontend.query(self.SCALAR))
                await asyncio.sleep(0)  # the batch is on its way to the pipe
                during = _serving_threads()
                return await request, during, _serving_threads()

        answer, during, after_request = asyncio.run(scenario())
        assert answer == oracle.query(self.SCALAR)
        assert during == after_request == _serving_threads() == []

    def test_worker_join_side_tiers_show_through_describe(self, themis):
        group_by = "SELECT A, COUNT(*) FROM R WHERE B <= 1 GROUP BY A"

        def side_lookups_and_entries(pool):
            (shard,) = pool.describe()
            tiers = [
                stats for tier, stats in shard["cache"].items() if tier.endswith("join_side_cache")
            ]
            return (
                sum(stats["hits"] + stats["misses"] for stats in tiers),
                sum(stats["cached_sides"] for stats in tiers),
            )

        with SupervisedWorkerPool(themis, n_workers=1) as pool:
            pool.execute_batch(
                [group_by, group_by.replace("<= 1", "<= 0"), group_by.replace("<= 1", ">= 1")]
            )
            assert side_lookups_and_entries(pool) == (0, 0)
            # A self-join computes its one shared side once, in the worker.
            pool.execute_batch([JoinGroupByQuery("A", "A", "B", "B")])
            assert side_lookups_and_entries(pool) == (1, 1)
            assert pool.metrics.value(names.SCALE_POOL_BATCHES) == 2

    def test_close_leaves_no_process_task_or_loop_thread(self, themis):
        # No pool thread, ever: not once it is built, not for its blocking
        # calls (each runs on a loop of its own and closes it), not after.
        before = set(threading.enumerate())
        pool = SupervisedWorkerPool(themis, n_workers=2, heartbeat_interval=60.0)
        assert _serving_threads() == [] and set(threading.enumerate()) == before
        assert pool._heartbeat_task is None  # a prober needs a serving loop
        assert pool.execute_batch([self.SCALAR]) == [themis.query(self.SCALAR)]
        assert len(pool.describe()) == 2
        assert _serving_threads() == [] and set(threading.enumerate()) == before
        processes = [worker.process for worker in pool._workers]

        async def serve_then_close():
            await pool.start()
            heartbeat = pool._heartbeat_task
            # The blocking close, from another thread while the serving loop
            # runs: it runs aclose() there.
            await asyncio.to_thread(pool.close)
            return heartbeat.cancelled(), [process.is_alive() for process in processes]

        cancelled, alive = asyncio.run(serve_then_close())
        assert cancelled
        assert alive == [False, False]
        assert _serving_threads() == [] and set(threading.enumerate()) == before

    def test_bare_pool_driven_by_asyncio_run_answers_as_the_oracle(
        self, themis, sweep_queries, expected
    ):
        with SupervisedWorkerPool(themis, n_workers=2) as pool:
            outcomes = dispatch_outcomes(pool, sweep_queries)
            again = dispatch_outcomes(pool, sweep_queries)
        assert [outcome.value for outcome in outcomes] == expected
        assert [outcome.value for outcome in again] == expected

    def test_contended_locks_follow_the_pool_onto_the_next_loop(
        self, themis, sweep_queries, expected
    ):
        async def two_at_once(pool):
            # Both batches reach both shards: the second waits for the locks.
            firsts, seconds = [None] * len(sweep_queries), [None] * len(sweep_queries)
            await asyncio.gather(
                pool.dispatch(sweep_queries, firsts.__setitem__),
                pool.dispatch(sweep_queries, seconds.__setitem__),
            )
            return [outcome.value for outcome in firsts + seconds]

        with SupervisedWorkerPool(themis, n_workers=2) as pool:
            for _ in range(2):  # a fresh loop each time
                assert asyncio.run(two_at_once(pool)) == expected * 2

    def test_reply_timeout_does_not_bound_the_workers_start(
        self, themis, sweep_queries, expected
    ):
        # Every worker fits its model before the handshake's first reply.
        with SupervisedWorkerPool(themis, n_workers=2, timeout=1e-3) as pool:
            assert pool.execute_batch(sweep_queries, timeout=30.0) == expected

    def test_pool_built_inside_a_running_loop_answers_as_the_oracle(
        self, themis, sweep_queries, expected
    ):
        async def scenario():
            # The constructor's handshake blocks on the bare pipes, so it
            # does not need (or touch) the loop it is called on.
            pool = SupervisedWorkerPool(themis, n_workers=2)
            try:
                outcomes = [None] * len(sweep_queries)
                await pool.dispatch(sweep_queries, outcomes.__setitem__)
                with pytest.raises(RuntimeError, match="running event loop"):
                    pool.execute_batch(sweep_queries)
            finally:
                await pool.aclose()
            return [outcome.value for outcome in outcomes]

        assert asyncio.run(scenario()) == expected
        assert _shard_processes() == []

    @pytest.mark.parametrize("inside_a_loop", [False, True])
    def test_failed_frontend_constructor_leaves_no_worker_or_thread(
        self, themis, inside_a_loop
    ):
        def construct():
            with pytest.raises(ValueError, match="max_batch_size"):
                AsyncServingFrontend(themis, max_batch_size=0)

        async def in_a_loop():
            construct()

        if inside_a_loop:
            asyncio.run(in_a_loop())
        else:
            construct()
        assert _shard_processes() == []
        assert _serving_threads() == []

    def test_failed_handshake_reaps_the_workers_before_it_raises(
        self, monkeypatch, themis
    ):
        monkeypatch.setattr(pool_module, "worker_main", _exits_at_once)
        with pytest.raises(WorkerCrashedError):
            SupervisedWorkerPool(themis, n_workers=2)
        assert _shard_processes() == []


class TestSocketLifecycle:
    SCALAR = TestPipesOnTheEventLoop.SCALAR

    def test_client_that_vanishes_mid_flight_ends_its_handler_quietly(self, themis):
        oracle = build_fitted_themis()

        async def scenario():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            async with AsyncServingFrontend(themis, n_workers=1) as frontend:
                server = await serve_async(frontend)
                port = server.sockets[0].getsockname()[1]
                _, writer = await asyncio.open_connection("127.0.0.1", port)
                for request_id in range(50):
                    request = {"id": request_id, "sql": self.SCALAR}
                    writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                writer.transport.abort()
                # Everyone else keeps being served ...
                served = await _ask(port, 99, self.SCALAR)
                # ... and the abandoned handler ends by itself, quietly.
                endings = await asyncio.wait_for(
                    asyncio.gather(*frontend._handlers, return_exceptions=True), 10
                )
                server.close()
                await server.wait_closed()
            return served, endings, unhandled

        served, endings, unhandled = asyncio.run(scenario())
        assert served == {"id": 99, "ok": True, **encode_result(oracle.query(self.SCALAR))}
        assert all(ending is None for ending in endings), endings
        assert unhandled == []

    def test_stop_leaves_no_task_process_or_reader_behind(self, themis):
        async def scenario():
            loop = asyncio.get_running_loop()
            # The pool's registrations come through the public methods (the
            # streams use the loop's private ones): every add must be undone.
            registered = set()
            add_reader, remove_reader = loop.add_reader, loop.remove_reader
            loop.add_reader = lambda fd, *args: (registered.add(fd), add_reader(fd, *args))[1]
            loop.remove_reader = lambda fd: (registered.discard(fd), remove_reader(fd))[1]
            frontend = AsyncServingFrontend(themis, n_workers=2, heartbeat_interval=0.05)
            await frontend.start()
            server = await serve_async(frontend)
            port = server.sockets[0].getsockname()[1]
            gone = await asyncio.open_connection("127.0.0.1", port)
            idle = await asyncio.open_connection("127.0.0.1", port)
            for reader, writer in (gone, idle):
                writer.write(json.dumps({"sql": self.SCALAR}).encode() + b"\n")
                await writer.drain()
                assert json.loads(await reader.readline())["ok"]
            # One client leaves just before the stop, one stays connected.
            gone[1].close()
            await gone[1].wait_closed()
            server.close()
            await frontend.stop()
            await frontend.stop()  # idempotent
            await server.wait_closed()
            tasks = asyncio.all_tasks() - {asyncio.current_task()}
            at_eof = await idle[0].readline()
            idle[1].close()
            await idle[1].wait_closed()
            return frontend.pool, tasks, registered, at_eof

        pool, tasks, registered, at_eof = asyncio.run(scenario())
        assert tasks == set()
        assert registered == set()
        assert at_eof == b""
        assert pool._heartbeat_task is None and not pool._supervision.locked()
        assert not any(worker.process.is_alive() for worker in pool._workers)
        assert _serving_threads() == []

    def test_stop_without_start_reaps_the_workers(self, themis):
        async def scenario():
            frontend = AsyncServingFrontend(themis, n_workers=1)
            await frontend.stop()
            await frontend.stop()
            return frontend.pool

        pool = asyncio.run(scenario())
        assert not any(worker.process.is_alive() for worker in pool._workers)
        assert _shard_processes() == []


# ---------------------------------------------------------------------------
# Workload seed contract
# ---------------------------------------------------------------------------
class TestWorkloadSeedContract:
    def test_same_seed_same_workload(self, themis):
        first = MixedQueryWorkload(themis.sample, seed=99).generate(
            n_point=5, n_scalar=5, n_group_by=5, n_analytic=5
        )
        second = MixedQueryWorkload(themis.sample, seed=99).generate(
            n_point=5, n_scalar=5, n_group_by=5, n_analytic=5
        )
        assert [e.sql for e in first] == [e.sql for e in second]
        assert [e.query for e in first] == [e.query for e in second]

    def test_different_seeds_differ(self, themis):
        first = MixedQueryWorkload(themis.sample, seed=1).generate(n_point=8)
        second = MixedQueryWorkload(themis.sample, seed=2).generate(n_point=8)
        assert [e.sql for e in first] != [e.sql for e in second]

    def test_instances_do_not_share_state(self, themis):
        solo = MixedQueryWorkload(themis.sample, seed=5)
        paired = MixedQueryWorkload(themis.sample, seed=5)
        interloper = MixedQueryWorkload(themis.sample, seed=6)
        a = solo.generate(n_point=4)
        interloper.generate(n_point=4)  # must not advance `paired`
        b = paired.generate(n_point=4)
        assert [e.sql for e in a] == [e.sql for e in b]
