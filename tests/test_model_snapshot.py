"""A fitted model is one immutable snapshot, and a refit swaps one reference.

Every request reads the facade's model once, at entry, and answers from that
snapshot alone — even when a refit lands in the middle of it.  A serving
session rebuilds only when the facade holds a different model object, and the
model's own caches (masks, join sides, factors) are never invalidated: they
come and go with their model, which nothing but the facade and the sessions
serving it refers to, so a dropped model is freed by reference counting.
A session's routed plans belong to the loaded sample: they survive a refit
and an ``add_aggregate``, and a new sample drops them.
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
from repro.core import Themis, ThemisConfig
from repro.lru import LRUCache
from repro.query import PointQuery
from repro.serving import QueryPlanner
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


def refit_once_after(themis: Themis, monkeypatch, owner, name: str) -> None:
    """Make ``owner.name`` (a method or property) swap in a different fit
    the first time it is called: an ``add_aggregate`` and ``fit`` land right
    after the call has done its own work."""
    original = getattr(owner, name)
    call = original.fget if isinstance(original, property) else original
    fired = []

    def hooked(self, *args):
        result = call(self, *args)
        if not fired:
            fired.append(True)
            themis.add_aggregate(extra_aggregate())
            themis.fit()
        return result

    monkeypatch.setattr(
        owner, name, property(hooked) if isinstance(original, property) else hooked
    )


@pytest.mark.parametrize("entry", ["sql", "query"])
def test_facade_answers_from_the_snapshot_read_at_entry(monkeypatch, entry):
    themis = build_fitted_themis()
    snapshot = themis.model
    refit_once_after(themis, monkeypatch, QueryPlanner, "plan_sql")
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
    assert batch.bn_batched_points == 2
    assert batch.bn_elimination_passes == 0


@pytest.mark.parametrize("change", ["refit", "add_aggregate"])
def test_routed_plans_survive_a_refit_of_the_same_sample(change):
    """A refit changes the weights, an ``add_aggregate`` the aggregates and
    the network too; neither reaches a routed plan, so the session serves
    its seen statements without planning them again, and the new model's
    answers are those of a facade fitted afresh on the same inputs."""
    themis, fresh = build_fitted_themis(), build_fitted_themis()
    session = themis.serve()
    session.execute_batch(ROUTED)
    for statement in ROUTED:
        session.execute(statement)
    plans = cached_plans(session.plan_cache)
    assert list(plans) == ROUTED
    if change == "refit":
        themis.refit()
    else:
        for facade in (themis, fresh):
            facade.add_aggregate(extra_aggregate())
            facade.fit()
    expected = [fresh.query(statement) for statement in ROUTED]
    misses = session.plan_cache.statistics.misses

    batch = session.execute_batch(ROUTED)
    assert not any(outcome.from_result_cache for outcome in batch.outcomes)
    assert batch.results() == expected
    assert [session.execute(statement) for statement in ROUTED] == expected
    assert session.plan_cache.statistics.misses == misses
    survivors = cached_plans(session.plan_cache)
    assert all(survivors[statement] is plans[statement] for statement in ROUTED)
    assert session.generation == themis.model.generation


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


def test_a_new_sample_drops_the_routed_plans():
    """Routing reads which sample rows satisfy a plan's predicates: on a
    sparser sample the two scalars route to the network, so the plans of
    the old sample must go."""
    themis = build_fitted_themis()
    session = themis.serve()
    session.execute_batch(ROUTED)
    routes = [plan.route for plan in cached_plans(session.plan_cache).values()]
    sparse = build_biased_correlated_sample(build_correlated_population()).take(np.arange(30))
    themis.load_sample(sparse)
    themis.fit()

    unseen = "SELECT COUNT(*) FROM sample WHERE B = 2"
    session.execute(unseen)
    assert list(cached_plans(session.plan_cache)) == [unseen]
    batch = session.execute_batch(ROUTED)
    assert batch.results() == [themis.query(statement) for statement in ROUTED]
    assert [outcome.plan.route for outcome in batch.outcomes] != routes


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
        themis.sql("SELECT COUNT(*) FROM sample WHERE B = 2")
        model = themis.model
        engine = model.bayes_net_evaluator.inference.batched
        masks = model.sample_evaluator.mask_cache.lru
        stacks = (model.bayes_net_evaluator.stack, model.hybrid_evaluator.stack)
        assert len(engine.factors) > 0 and len(masks) > 0 and None not in stacks
        refs = [weakref.ref(value) for value in (model, engine, engine.factors, masks, *stacks)]
        plans = cached_plans(session.plan_cache)
        del model, engine, masks, stacks
        themis.refit()
        session.execute(statements[1])
        assert [ref() for ref in refs] == [None] * len(refs)
        # The session's plans outlived the model they were routed on.
        assert cached_plans(session.plan_cache) == plans and plans
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
