"""A fitted model is one immutable snapshot, and a refit swaps one reference.

Every request reads the facade's model once, at entry, and answers from that
snapshot alone — even when a refit lands in the middle of it.  A serving
session rebuilds only when the facade holds a different model object, and the
model's own caches (masks, join sides, factors) are never invalidated: they
come and go with their model, which nothing but the facade and the sessions
serving it refers to, so a dropped model is freed by reference counting.
Routed plans belong to the loaded sample: the facade and every session plan
a statement once through the facade's cache, which survives a refit and an
``add_aggregate`` and which a new sample replaces.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from oracle import hybrid_reference
from repro.aggregates import AggregateQuery
from repro.core import Themis, ThemisConfig, ThemisModel
from repro.core import themis as themis_module
from repro.lru import LRUCache
from repro.query import PointQuery
from worlds import (
    build_biased_correlated_sample,
    build_correlated_aggregates,
    build_correlated_population,
    build_fitted_themis,
    build_sparse_fitted_themis,
)

#: Filtered on both attributes the extra aggregate constrains, so a fit with
#: it answers differently from a fit without it.
STATEMENT = "SELECT COUNT(*) FROM sample WHERE A = 1 AND C = 1"


def extra_aggregate() -> AggregateQuery:
    """A population aggregate the test worlds do not register."""
    return AggregateQuery.from_relation(build_correlated_population(), ["A", "C"])


def oracle(model, statement: str):
    """The answer of one snapshot: the hybrid rule over the reference engines."""
    return hybrid_reference(model, [statement])[0]


#: One statement per route on the full sample: two scalars the sample
#: answers (on the sparse sample the network answers them), and a GROUP BY
#: the hybrid merges.
ROUTED = [
    STATEMENT,
    "SELECT COUNT(*) FROM sample WHERE A = 2 AND B = 0",
    "SELECT A, COUNT(*) FROM sample WHERE B <= 1 GROUP BY A",
    "SELECT A, SUM(B) FROM sample WHERE C = 0 GROUP BY A",
]


def cached_plans(cache: LRUCache) -> dict:
    """The cache's plans by SQL text, read without touching its counters."""
    return dict(cache.entries())


def run_once_after(monkeypatch, owner, name: str, action) -> None:
    """Make ``owner.name`` (a method or property) run ``action()`` right
    after the first call to it has done its own work."""
    original = getattr(owner, name)
    call = original.fget if isinstance(original, property) else original
    fired = []

    def hooked(self, *args):
        result = call(self, *args)
        if not fired:
            fired.append(True)
            action()
        return result

    monkeypatch.setattr(
        owner, name, property(hooked) if isinstance(original, property) else hooked
    )


def refit_once_after(themis: Themis, monkeypatch, owner, name: str) -> None:
    """Make ``owner.name`` swap in a different fit the first time it is
    called: an ``add_aggregate`` and ``fit`` land right after the call."""

    def refit() -> None:
        themis.add_aggregate(extra_aggregate())
        themis.fit()

    run_once_after(monkeypatch, owner, name, refit)


def sparse_sample():
    """A sample so sparse that the scalars of :data:`ROUTED` route to the
    network instead of the sample."""
    return build_biased_correlated_sample(build_correlated_population()).take(np.arange(30))


#: The two doors a statement comes in by; both plan through one cache.
DOORS = ["facade", "session"]


def answering(themis: Themis, door: str):
    """Answer statements through ``door``: the facade's ``sql``, or a
    session's ``execute_batch`` and then ``execute`` (which must agree, and
    which never answer from a result cache the model change dropped)."""
    if door == "facade":
        return lambda statements: [themis.sql(statement) for statement in statements]
    session = themis.serve()
    assert session.plan_cache is themis.plan_cache

    def answer(statements):
        batch = session.execute_batch(statements)
        assert not any(outcome.from_result_cache for outcome in batch.outcomes)
        assert batch.generation == themis.model.generation
        assert [session.execute(statement) for statement in statements] == batch.results()
        return batch.results()

    return answer


@pytest.mark.parametrize("entry", ["sql", "query"])
def test_facade_answers_from_the_snapshot_read_at_entry(monkeypatch, entry):
    themis = build_fitted_themis()
    snapshot = themis.model
    refit_once_after(themis, monkeypatch, ThemisModel, "plan")
    answer = getattr(themis, entry)(STATEMENT)
    assert themis.model is not snapshot  # the refit landed after routing
    assert oracle(themis.model, STATEMENT) != oracle(snapshot, STATEMENT)
    assert answer == oracle(snapshot, STATEMENT)


def test_session_serves_the_model_it_read_then_the_new_one(monkeypatch):
    themis = build_fitted_themis()
    session = themis.serve()
    session.execute(STATEMENT)
    themis.refit()
    # The next request's model read races a refit that lands right after it.
    refit_once_after(themis, monkeypatch, Themis, "model")
    read = session.execute(STATEMENT)
    monkeypatch.undo()
    latest = themis.model
    assert oracle(latest, STATEMENT) != read
    # That request was served by the model it read; the next one sees that
    # the facade holds a different model and rebuilds on it.
    assert session.execute(STATEMENT) == oracle(latest, STATEMENT)
    assert session.generation == latest.generation


def test_refit_keeps_the_new_fits_factors():
    themis = build_sparse_fitted_themis()
    session = themis.serve()
    session.execute_batch([PointQuery({"A": 1, "B": 0}), PointQuery({"A": 2, "B": 0})])
    themis.refit()
    point = PointQuery({"A": 1, "B": 0})
    assert themis.plan(point).route == "bayes-net"
    themis.query(point)  # caches the {A, B} factor on the new model's engine
    batch = session.execute_batch([point, PointQuery({"A": 1, "B": 1})])
    assert batch.cache_hits == 0
    assert batch.bn_elimination_passes == 0


@pytest.mark.parametrize("door", DOORS)
@pytest.mark.parametrize("change", ["refit", "add_aggregate"])
def test_routed_plans_survive_a_refit_of_the_same_sample(change, door):
    """A refit changes the weights, an ``add_aggregate`` the aggregates and
    the network too; neither reaches a routed plan, so the facade and its
    sessions serve their seen statements without planning them again, and
    the new model's answers are those of a facade fitted afresh on the same
    inputs."""
    themis, fresh = build_fitted_themis(), build_fitted_themis()
    answer = answering(themis, door)
    answer(ROUTED)
    plans = cached_plans(themis.plan_cache)
    assert list(plans) == ROUTED
    if change == "refit":
        themis.refit()
    else:
        for facade in (themis, fresh):
            facade.add_aggregate(extra_aggregate())
            facade.fit()
    expected = [fresh.query(statement) for statement in ROUTED]
    misses = themis.plan_cache.statistics.misses

    assert answer(ROUTED) == expected
    assert themis.plan_cache.statistics.misses == misses
    survivors = cached_plans(themis.plan_cache)
    assert all(survivors[statement] is plans[statement] for statement in ROUTED)


def test_outcomes_name_the_snapshot_that_answered():
    """Each batch and each outcome carries the generation of the model that
    answered it, so an answer can be checked against that snapshot alone."""
    themis = build_fitted_themis()
    session = themis.serve()
    answered = []
    for _ in range(2):
        model = themis.model
        expected = [themis.query(statement) for statement in ROUTED]
        batches = [session.execute_batch(ROUTED), session.execute_batch(ROUTED[:1])]
        outcome = session.execute_with_outcome(ROUTED[0])
        for batch in batches:
            assert batch.generation == model.generation
            assert [o.generation for o in batch] == [model.generation] * len(batch)
        assert outcome.generation == model.generation
        assert batches[0].results() == expected
        assert expected == [oracle(model, statement) for statement in ROUTED]
        answered.append(batches[0])
        themis.add_aggregate(extra_aggregate())
        themis.refit()
    first, second = answered
    assert first.generation != second.generation
    assert first.results() != second.results()


@pytest.mark.parametrize("door", DOORS)
def test_a_new_sample_drops_the_routed_plans(door):
    """Routing reads which sample rows satisfy a plan's predicates: on a
    sparser sample the two scalars route to the network, so the plans of
    the old sample must go."""
    themis = build_fitted_themis()
    answer = answering(themis, door)
    answer(ROUTED)
    routes = [plan.route for plan in cached_plans(themis.plan_cache).values()]
    themis.load_sample(sparse_sample())
    themis.fit()

    unseen = "SELECT COUNT(*) FROM sample WHERE B = 2"
    answer([unseen])
    assert list(cached_plans(themis.plan_cache)) == [unseen]
    assert answer(ROUTED) == [themis.query(statement) for statement in ROUTED]
    assert [themis.plan(statement).route for statement in ROUTED] != routes


def test_a_repeated_statement_is_planned_once_by_the_facade_and_every_session():
    themis = build_fitted_themis()
    statistics = themis.plan_cache.statistics

    def counts_since(before):
        delta = statistics.since(before)
        return delta.misses, delta.hits

    before = statistics.snapshot()
    for _ in range(4):
        themis.sql(STATEMENT)
    assert counts_since(before) == (1, 3)
    assert themis.plan(STATEMENT) is themis.plan(STATEMENT)

    # Planned by the facade, a hit in a session; and the other way round.
    session = themis.serve()
    before = statistics.snapshot()
    session.execute(STATEMENT)
    assert counts_since(before) == (0, 1)
    before = statistics.snapshot()
    session.execute(ROUTED[1])
    themis.sql(ROUTED[1])
    themis.query(ROUTED[1])
    assert counts_since(before) == (1, 2)
    # An AST is a key too.
    point = PointQuery({"A": 1, "B": 0})
    before = statistics.snapshot()
    themis.query(point)
    assert session.execute_batch([point, ROUTED[2]]).results() == [
        themis.query(point),
        themis.sql(ROUTED[2]),
    ]
    assert counts_since(before) == (2, 3)


@pytest.mark.parametrize("door", DOORS)
@pytest.mark.parametrize("moment", ["after the model read", "while planning"])
def test_a_plan_routed_on_the_old_sample_stays_out_of_the_new_cache(
    monkeypatch, door, moment
):
    """A ``load_sample`` lands in the middle of a request: the request
    answers from the model it read, and the plan it routed on the old
    sample never reaches the new sample's cache."""
    themis = build_fitted_themis()
    expected = oracle(themis.model, STATEMENT)
    routed_on_the_old_sample = build_fitted_themis().plan(STATEMENT)
    sparse = sparse_sample()
    serve = themis.sql if door == "facade" else themis.serve().execute
    load = lambda: themis.load_sample(sparse)  # noqa: E731
    if moment == "after the model read":
        run_once_after(monkeypatch, Themis, "model", load)
    else:
        run_once_after(monkeypatch, ThemisModel, "plan", load)
    assert serve(STATEMENT) == expected
    monkeypatch.undo()
    assert themis.sample is sparse
    assert len(themis.plan_cache) == 0
    on_sparse = Themis(themis.config)
    on_sparse.load_sample(sparse)
    on_sparse.add_aggregates(themis.aggregates)
    plan = themis.plan(STATEMENT)
    assert plan == on_sparse.plan(STATEMENT)
    assert plan.route != routed_on_the_old_sample.route


def test_the_plan_cache_holds_at_most_its_capacity(monkeypatch):
    themis = build_fitted_themis()
    assert themis.plan_cache.capacity == themis_module.PLAN_CACHE_CAPACITY == 4096
    monkeypatch.setattr(themis_module, "PLAN_CACHE_CAPACITY", 2)
    themis = build_fitted_themis()
    session = themis.serve()
    session.execute_batch(ROUTED)
    assert len(themis.plan_cache) == 2
    for statement in ROUTED:
        themis.sql(statement)
        session.execute(statement)
        assert len(themis.plan_cache) <= 2
    assert list(cached_plans(themis.plan_cache)) == ROUTED[-2:]


def test_a_dropped_model_is_freed_by_reference_counting():
    statements = [
        PointQuery({"A": 1, "B": 0}),
        "SELECT COUNT(*) FROM sample WHERE A = 0",
        "SELECT A, COUNT(*) FROM sample WHERE B <= 1 GROUP BY A",
    ]
    gc.collect()
    gc.disable()
    try:
        themis = build_sparse_fitted_themis()
        session = themis.serve()
        session.execute_batch(statements)
        planned_by_the_facade = "SELECT COUNT(*) FROM sample WHERE B = 2"
        themis.sql(planned_by_the_facade)
        model = themis.model
        engine = model.bayes_net_evaluator.inference.batched
        masks = model.sample_evaluator.mask_cache.lru
        stacks = (model.bayes_net_evaluator.stack, model.hybrid_evaluator.stack)
        assert len(engine.factors) > 0 and len(masks) > 0 and None not in stacks
        refs = [weakref.ref(value) for value in (model, engine, engine.factors, masks, *stacks)]
        plans = cached_plans(themis.plan_cache)
        assert set(plans) == {*statements, planned_by_the_facade}
        del model, engine, masks, stacks
        themis.refit()
        session.execute(statements[1])
        themis.sql(planned_by_the_facade)
        assert [ref() for ref in refs] == [None] * len(refs)
        # The plans, the facade's and the session's, outlived the model
        # they were routed on.
        assert cached_plans(themis.plan_cache) == plans
    finally:
        gc.enable()


def test_refits_on_a_second_thread_never_tear_an_answer():
    """A thread refits the facade in a loop while this one serves through
    the facade and a session: every answer is one whole snapshot's (every
    fit of the same inputs answers alike), and no request ever meets a
    facade without a model."""
    themis = build_fitted_themis()
    session = themis.serve()
    statements = [
        STATEMENT,
        "SELECT COUNT(*) FROM sample WHERE A = 2 AND B = 0",
        "SELECT A, SUM(B) FROM sample WHERE C = 0 GROUP BY A",
    ]
    expected = [themis.sql(statement) for statement in statements]
    stop = threading.Event()
    refits: list[int] = []
    errors: list[Exception] = []

    def refit_loop() -> None:
        try:
            while not stop.is_set():
                refits.append(themis.refit().generation)
        except Exception as error:  # noqa: BLE001 - asserted on below
            errors.append(error)

    thread = threading.Thread(target=refit_loop, name="refit-loop")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: hunt torn reads
    thread.start()
    try:
        rounds = 0
        while rounds < 30 or (len(refits) < 8 and rounds < 3000):
            rounds += 1
            assert [themis.sql(statement) for statement in statements] == expected
            assert session.execute_batch(statements).results() == expected
            assert session.execute(statements[0]) == expected[0]
    finally:
        stop.set()
        thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert not errors
    assert len(refits) >= 8
    assert session.execute_batch(statements).results() == expected
    assert session.generation == themis.model.generation == themis.generation


def sparse_themis_with_wide_worlds() -> Themis:
    """The sparse world, drawing ``K = 8`` worlds of 4,000 rows: the draw
    takes long enough for a second thread to walk into it."""
    population = build_correlated_population()
    themis = Themis(
        ThemisConfig(
            seed=3, ipf_max_iterations=20, n_generated_samples=8, generated_sample_size=4000
        )
    )
    themis.load_sample(build_biased_correlated_sample(population).take(np.arange(30)))
    themis.add_aggregates(build_correlated_aggregates(population))
    themis.fit()
    return themis


def test_a_freshly_fitted_model_draws_its_worlds_once():
    """Two threads serve GROUP BYs right after ``fit()``: the ``K`` worlds
    (and the stacks over them) are built lazily, from one shared generator,
    so both threads must meet the same worlds — the ones a single thread
    draws — or the answers depend on who came first.  The sparse sample
    leaves most groups to the network, so the worlds show in every answer."""
    statements = [
        f"SELECT A, B, C, {aggregate} FROM sample WHERE B {comparison} {b} GROUP BY A, B, C"
        for aggregate in ("COUNT(*)", "SUM(C)")
        for comparison in ("=", "<=")
        for b in range(3)
    ] + [f"SELECT B, C, COUNT(*) FROM sample WHERE A = {a} GROUP BY B, C" for a in range(3)]
    statements = statements[:20]
    expected = [sparse_themis_with_wide_worlds().sql(statement) for statement in statements]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: hunt the race
    try:
        for _ in range(5):
            themis = sparse_themis_with_wide_worlds()
            barrier = threading.Barrier(2)
            answers: list[list] = [[], []]

            def serve(out: list) -> None:
                barrier.wait()
                out.extend(themis.sql(statement) for statement in statements)

            threads = [threading.Thread(target=serve, args=(out,)) for out in answers]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert answers == [expected, expected]
    finally:
        sys.setswitchinterval(interval)
