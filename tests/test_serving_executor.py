"""Tests for batched execution and serving sessions.

The load-bearing guarantee: ``ServingSession.execute_batch()`` returns
exactly what issuing the same queries one-by-one through ``Themis.query()``
returns, while the caches make repeats cheap and a refit invalidates
everything.
"""

from __future__ import annotations

import pytest

from repro.obs import names
from repro.query import (
    Comparison,
    GroupByQuery,
    JoinGroupByQuery,
    PointQuery,
    Predicate,
    ScalarAggregateQuery,
)
from repro.exceptions import QueryCancelledError
from repro.plan import LogicalPlan
from repro.serving import BatchResult, ServingSession
from repro.serving.governance import CancelToken
from repro.sql.engine import QueryResult
from golden_plans import golden_queries
from worlds import build_sparse_fitted_themis


WORKLOAD = [
    "SELECT COUNT(*) FROM sample WHERE A = 0",
    "SELECT COUNT(*) FROM sample WHERE A = 0 AND B = 1",
    "SELECT COUNT(*) FROM sample WHERE B = 1 AND A = 0",  # equivalent reorder
    "SELECT A, COUNT(*) FROM sample GROUP BY A",
    "SELECT B, COUNT(*) FROM sample WHERE C = 1 GROUP BY B",
    "SELECT AVG(B) FROM sample WHERE A = 0",
    "SELECT COUNT(*) FROM sample WHERE A = 2 AND B = 2 AND C = 0",
]


def assert_same_answer(left, right):
    """Bit-identity: QueryResult equality compares groups and exact floats."""
    if isinstance(left, QueryResult):
        assert isinstance(right, QueryResult)
    assert left == right


class TestBatchMatchesSingleQuery:
    def test_sql_batch_matches_query_loop(self, serving_themis):
        batch = serving_themis.serve().execute_batch(WORKLOAD)
        singles = [serving_themis.query(statement) for statement in WORKLOAD]
        assert len(batch) == len(WORKLOAD)
        for outcome, single in zip(batch, singles):
            assert_same_answer(outcome.result, single)

    def test_ast_batch_matches_query_loop(self, serving_themis):
        queries = [
            PointQuery({"A": 0}),
            PointQuery({"A": 2, "B": 2, "C": 1}),
            GroupByQuery(("A", "B")),
            ScalarAggregateQuery(predicates=(Predicate("B", Comparison.GE, 1),)),
        ]
        batch = serving_themis.serve().execute_batch(queries)
        for outcome, query in zip(batch, queries):
            assert_same_answer(outcome.result, serving_themis.query(query))

    def test_point_and_count_scalar_do_not_share_answers(self, serving_themis):
        """Regression: a PointQuery and an AST COUNT scalar over the same
        missing tuple take different BN paths (exact inference vs. generated
        samples) and must each match their own single-query answer."""
        from repro.query import AggregateFunction, AggregateSpec

        sample = serving_themis.model.weighted_sample
        missing = next(
            (
                {"A": a, "B": b, "C": c}
                for a in (0, 1, 2)
                for b in (0, 1, 2)
                for c in (0, 1)
                if not sample.contains({"A": a, "B": b, "C": c})
            ),
            None,
        )
        if missing is None:
            pytest.skip("sample covers the full domain at this seed")
        point = PointQuery(missing)
        scalar = ScalarAggregateQuery(
            aggregate=AggregateSpec(AggregateFunction.COUNT),
            predicates=tuple(
                Predicate(name, Comparison.EQ, value) for name, value in missing.items()
            ),
        )
        batch = serving_themis.serve().execute_batch([point, scalar])
        assert batch.outcomes[0].result == serving_themis.query(point)
        assert batch.outcomes[1].result == serving_themis.query(scalar)
        assert not batch.outcomes[1].deduplicated

    def test_results_are_in_submission_order(self, serving_themis):
        batch = serving_themis.serve().execute_batch(WORKLOAD)
        assert [outcome.index for outcome in batch] == list(range(len(WORKLOAD)))
        assert len(batch.results()) == len(WORKLOAD)

    def test_session_execute_batch_entry_point(self, fresh_serving_themis):
        assert not hasattr(fresh_serving_themis, "execute_batch")
        session = fresh_serving_themis.serve()
        batch = session.execute_batch(WORKLOAD[:3])
        assert isinstance(batch, BatchResult)
        for outcome, statement in zip(batch, WORKLOAD[:3]):
            assert_same_answer(outcome.result, fresh_serving_themis.query(statement))
        # A kept session keeps its result cache across calls.
        again = session.execute_batch(WORKLOAD[:3])
        assert all(o.from_result_cache or o.deduplicated for o in again)


#: One statement per (route, shape) pair the router can produce.  On the
#: sparse facade ``A = 1`` never occurs in the sample, so filters on it route
#: to the network.
ROUTE_SHAPE_MATRIX = [
    ("sample", "point", "SELECT COUNT(*) FROM sample WHERE A = 0"),
    ("bayes-net", "point", "SELECT COUNT(*) FROM sample WHERE A = 1 AND B = 0"),
    ("bayes-net", "point", PointQuery({"A": 1, "B": 2, "C": 1})),
    ("sample", "scalar", "SELECT AVG(B) FROM sample WHERE A = 0"),
    ("bayes-net", "scalar", "SELECT AVG(B) FROM sample WHERE A = 1"),
    ("bayes-net", "scalar", "SELECT SUM(C) FROM sample WHERE A = 1 AND B <= 1"),
    ("sample", "table", "SELECT COUNT(*) AS n, AVG(B) AS m FROM sample WHERE A = 0"),
    ("bayes-net", "table", "SELECT COUNT(*) AS n, AVG(B) AS m FROM sample WHERE A = 1"),
    ("hybrid", "group-by", "SELECT A, COUNT(*) FROM sample GROUP BY A"),
    ("hybrid", "group-by", "SELECT A, SUM(B) FROM sample WHERE C = 1 GROUP BY A"),
    ("hybrid", "join-group-by", JoinGroupByQuery("A", "A", "B", "C")),
    (
        "hybrid",
        "table",
        "SELECT A, COUNT(*) AS n, SUM(B) AS s FROM sample GROUP BY A ORDER BY n DESC",
    ),
    (
        "hybrid",
        "table",
        "SELECT A, COUNT(*) AS n, RANK() OVER (ORDER BY n DESC) AS r "
        "FROM sample GROUP BY A HAVING n > 1",
    ),
]
MATRIX_QUERIES = [query for _, _, query in ROUTE_SHAPE_MATRIX]
MATRIX_QUERIES = MATRIX_QUERIES + MATRIX_QUERIES[::3]  # exact duplicates


class TestRouteShapeMatrix:
    """``run`` per route == the single-plan kernels, for every shape."""

    def test_matrix_covers_what_it_claims(self, sparse_serving_themis):
        for route, shape, query in ROUTE_SHAPE_MATRIX:
            plan = sparse_serving_themis.plan(query)
            assert (plan.route, plan.shape) == (route, shape), query

    def test_batch_equals_singles_cold_and_warm(self, sparse_serving_themis):
        singles = [sparse_serving_themis.query(query) for query in MATRIX_QUERIES]
        session = sparse_serving_themis.serve()
        cold = session.execute_batch(MATRIX_QUERIES)
        assert cold.results() == singles
        assert cold.cache_hits == 0
        warm = session.execute_batch(MATRIX_QUERIES)
        assert warm.results() == singles
        assert warm.cache_hits == len(MATRIX_QUERIES)
        # ... and so does single-query serving, on a session of its own.
        single_session = sparse_serving_themis.serve()
        assert [single_session.execute(query) for query in MATRIX_QUERIES] == singles

    def test_batch_equals_singles_after_refit(self):
        themis = build_sparse_fitted_themis()
        session = themis.serve()
        session.execute_batch(MATRIX_QUERIES)
        themis.refit()
        after = session.execute_batch(MATRIX_QUERIES)
        assert after.cache_hits == 0
        assert after.results() == [themis.query(query) for query in MATRIX_QUERIES]

    def test_bn_routed_aggregates_run_under_the_execute_stage(self, sparse_serving_themis):
        """Regression: BN-routed sampled scalars and group-less tables used
        to match no dispatch bucket and were evaluated, untraced, inside the
        cache-probe stage.  They are one network family under ``execute``."""
        queries = [
            query
            for route, shape, query in ROUTE_SHAPE_MATRIX
            if route == "bayes-net" and shape != "point"
        ]
        batch = sparse_serving_themis.serve(trace=True).execute_batch(queries)
        probe = batch.trace.find(names.STAGE_CACHE_PROBE)
        assert probe.children == []
        execute = batch.trace.find(names.STAGE_EXECUTE)
        (network,) = execute.spans("bn-samples")
        assert network.attributes["plans"] == len(queries)
        assert all(outcome.seconds > 0.0 for outcome in batch)


#: One statement per query shape; the join has no SQL form.
ONE_PER_SHAPE = {
    "point": "SELECT COUNT(*) FROM sample WHERE A = 0 AND B = 1",
    "scalar": "SELECT AVG(B) FROM sample WHERE A = 1",
    "group-by": "SELECT A, SUM(B) FROM sample WHERE C = 1 GROUP BY A",
    "join-group-by": JoinGroupByQuery("A", "A", "B", "C"),
    "table": "SELECT A, COUNT(*) AS n FROM sample GROUP BY A ORDER BY n DESC LIMIT 2",
}


@pytest.mark.parametrize("shape", ONE_PER_SHAPE)
def test_every_door_serves_one_routed_plan(sparse_serving_themis, shape):
    """The facade, its EXPLAIN, the session and a batch all hold the one
    routed ``LogicalPlan`` of a statement."""
    themis = sparse_serving_themis
    statement = ONE_PER_SHAPE[shape]
    session = themis.serve()
    plans = [
        themis.plan(statement),
        themis.query(statement, explain=True).plan,
        session.execute_with_outcome(statement).plan,
        session.execute_batch([statement, WORKLOAD[0]]).outcomes[0].plan,
    ]
    assert all(isinstance(plan, LogicalPlan) and plan.is_routed for plan in plans)
    assert all(plan == plans[0] for plan in plans)
    assert plans[0].shape == shape


class TestBatchAmortization:
    def test_equivalent_plans_deduplicate_within_batch(self, serving_themis):
        batch = serving_themis.serve().execute_batch(WORKLOAD)
        reordered = batch.outcomes[2]
        assert reordered.deduplicated
        assert reordered.result == batch.outcomes[1].result

    def test_warm_batch_is_fully_cached(self, serving_themis):
        session = serving_themis.serve()
        assert session.execute_batch(WORKLOAD).cache_hits == 0
        warm = session.execute_batch(WORKLOAD)
        assert all(o.from_result_cache for o in warm)
        assert warm.cache_hits == len(WORKLOAD)

    def test_cached_batch_does_not_warm_the_generated_samples(self, fresh_serving_themis):
        """A batch the result cache answers whole runs nothing, so it neither
        warms the generated samples nor counts an inference-cache hit."""
        session = fresh_serving_themis.serve()
        statements = [
            "SELECT A, COUNT(*) FROM sample GROUP BY A",
            "SELECT COUNT(*) FROM sample WHERE A = 0",
        ]
        session.execute_batch(statements)
        before = session.cache_statistics()["inference_cache"]
        again = session.execute_batch(statements)
        assert again.cache_hits == len(statements)
        assert session.cache_statistics()["inference_cache"] == before
        assert all(outcome.seconds == 0.0 for outcome in again)

    def test_bn_samples_warm_once_per_batch(self, fresh_serving_themis):
        session = fresh_serving_themis.serve()
        evaluator = fresh_serving_themis.model.bayes_net_evaluator
        assert not evaluator.has_generated_samples
        session.execute_batch(["SELECT A, COUNT(*) FROM sample GROUP BY A"])
        assert evaluator.has_generated_samples

    def test_single_query_session_interface(self, serving_themis):
        session = serving_themis.serve()
        statement = "SELECT COUNT(*) FROM sample WHERE A = 0"
        first = session.execute_with_outcome(statement)
        second = session.execute_with_outcome(statement)
        assert not first.from_result_cache
        assert second.from_result_cache
        assert first.result == second.result
        assert session.execute(statement) == first.result


class TestInvalidation:
    def test_refit_invalidates_session_caches(self, fresh_serving_themis):
        session = fresh_serving_themis.serve()
        session.execute_batch(WORKLOAD[:3])
        generation = session.generation
        assert len(session.result_cache) > 0

        fresh_serving_themis.refit()
        batch = session.execute_batch(WORKLOAD[:3])
        assert session.generation != generation
        assert session.statistics.invalidations == 1
        assert not batch.outcomes[0].from_result_cache

    def test_new_aggregate_invalidates_too(self, fresh_serving_themis, correlated_population):
        from repro.aggregates import AggregateQuery

        session = fresh_serving_themis.serve()
        session.execute_batch(WORKLOAD[:2])
        generation = session.generation
        fresh_serving_themis.add_aggregate(
            AggregateQuery.from_relation(correlated_population, ["C"])
        )
        session.execute_batch(WORKLOAD[:2])
        assert session.generation != generation

    def test_refit_answers_stay_consistent(self, fresh_serving_themis):
        session = fresh_serving_themis.serve()
        before = session.execute_batch(WORKLOAD).results()
        fresh_serving_themis.refit()
        after = session.execute_batch(WORKLOAD).results()
        # Same inputs and seed: the refitted model answers identically.
        for left, right in zip(before, after):
            assert_same_answer(left, right)

    def test_clear_caches_preserves_model(self, serving_themis):
        session = serving_themis.serve()
        session.execute_batch(WORKLOAD[:2])
        session.clear_caches()
        batch = session.execute_batch(WORKLOAD[:2])
        assert not batch.outcomes[0].from_result_cache
        assert session.generation == serving_themis.generation


class TestStatistics:
    def test_session_statistics_accumulate(self, serving_themis):
        session = serving_themis.serve()
        session.execute_batch(WORKLOAD)
        session.execute_batch(WORKLOAD)
        stats = session.statistics
        assert stats.queries_served == 2 * len(WORKLOAD)
        assert stats.batches_served == 2
        assert sum(stats.route_counts.values()) == 2 * len(WORKLOAD)

    def test_describe_includes_cache_tiers(self, serving_themis):
        session = serving_themis.serve()
        session.execute_batch(WORKLOAD)
        description = session.describe()
        assert "result_cache" in description["caches"]
        assert "plan_cache" in description["caches"]
        assert "inference_cache" in description["caches"]
        assert 0.0 <= description["caches"]["result_cache"]["hit_rate"] <= 1.0

    def test_batch_statistics_shape(self, serving_themis):
        batch = serving_themis.serve().execute_batch(WORKLOAD)
        stats = batch.statistics()
        assert stats["n_queries"] == len(WORKLOAD)
        assert stats["queries_per_second"] > 0
        assert set(stats["routes"]) <= {"sample", "bayes-net", "hybrid"}


class _CountingToken(CancelToken):
    """Counts its polls and cancels itself on the ``fire_at``-th."""

    def __init__(self, fire_at: float = float("inf")):
        super().__init__()
        self.polls = 0
        self.fire_at = fire_at

    def poll(self) -> None:
        self.polls += 1
        if self.polls >= self.fire_at:
            self.cancel()
        super().poll()


class TestBatchOfOne:
    """A batch of one takes the batch path and answers what ``execute`` does."""

    @pytest.mark.parametrize("name", sorted(golden_queries()))
    def test_equals_execute_and_query_with_the_batch_paths_cache_statistics(
        self, serving_themis, name
    ):
        query = golden_queries()[name]
        single, governed = serving_themis.serve(), serving_themis.serve()
        for _ in range(2):  # a miss, then a hit
            one = single.execute_batch([query])
            # A governed batch of one: the same path, polled.
            reference = governed.execute_batch([query], cancel=CancelToken())
            assert_same_answer(one.results()[0], reference.results()[0])
            assert one.cache_hits == reference.cache_hits
        assert_same_answer(one.results()[0], serving_themis.serve().execute(query))
        assert_same_answer(one.results()[0], serving_themis.query(query))
        assert (
            single.cache_statistics()["result_cache"]
            == governed.cache_statistics()["result_cache"]
        )
        assert single.statistics.batches_served == 2
        assert single.statistics.queries_served == 2

    def test_a_lone_self_join_computes_its_one_side_once(self, serving_themis):
        session = serving_themis.serve()

        def side_lookups_and_entries():
            window = session.cache_statistics(window=True)
            tiers = [window[tier] for tier in window if tier.endswith("join_side_cache")]
            return (
                sum(tier["hits"] + tier["misses"] for tier in tiers),
                sum(tier["cached_sides"] for tier in tiers),
            )

        statement = "SELECT A, COUNT(*) FROM sample WHERE B <= 1 GROUP BY A"
        session.clear_caches()
        session.reset_cache_window()
        batch = session.execute_batch([statement])
        assert batch.results() == [serving_themis.query(statement)]
        assert side_lookups_and_entries() == (0, 0)  # a GROUP BY reads no side
        # Both sides of the self-join are (A, B) unfiltered: one lookup and
        # one cached side, not two.
        self_join = JoinGroupByQuery("A", "A", "B", "B")
        joined = session.execute_batch([self_join])
        assert side_lookups_and_entries() == (1, 1)
        assert joined.results() == [serving_themis.query(self_join)]

    def test_a_governed_statement_still_polls_per_chunk(self, fresh_serving_themis):
        session = fresh_serving_themis.serve()
        statement = "SELECT A, COUNT(*) FROM sample WHERE B <= 1 GROUP BY A"
        counting = _CountingToken()
        answer = session.execute_batch([statement], cancel=counting).results()
        # The stage boundary, the dispatch, and at least one execution unit.
        assert counting.polls >= 3
        session.clear_caches()
        # The last poll is inside the execution: firing there kills it midway.
        with pytest.raises(QueryCancelledError):
            session.execute_batch(
                [statement], cancel=_CountingToken(fire_at=counting.polls)
            )
        assert session.execute_batch([statement]).results() == answer


class TestServedBatchesNeverSchedule:
    """A served batch runs every plan as its own unit: no schedule, no
    normalized plan, one cancel poll per plan."""

    MIXED = [
        PointQuery({"A": 0, "B": 1}),
        "SELECT COUNT(*) FROM sample WHERE A = 1 AND B = 1",
        "SELECT AVG(B) FROM sample WHERE C = 1",
        "SELECT SUM(A) FROM sample WHERE B <= 1",
        "SELECT A, COUNT(*) FROM sample GROUP BY A",
        "SELECT B, AVG(A) FROM sample WHERE C = 1 GROUP BY B",
        "SELECT A, COUNT(*) AS n, RANK() OVER (ORDER BY n DESC) AS r "
        "FROM sample GROUP BY A ORDER BY r",
        "SELECT COUNT(*) AS n, AVG(C) AS m FROM sample WHERE B != 0",
        # Two joins sharing their unfiltered right side.
        JoinGroupByQuery("A", "A", "B", "C"),
        JoinGroupByQuery("A", "A", "B", "C", left_predicates=(Predicate("B", Comparison.EQ, 1),)),
    ]

    def test_a_mixed_batch_runs_plan_by_plan(self, serving_themis, monkeypatch):
        import repro.plan
        import repro.plan.optimize

        def refuse(*args, **kwargs):
            raise AssertionError("a served batch built a schedule")

        for module in (repro.plan, repro.plan.optimize):
            monkeypatch.setattr(module, "optimize_batch", refuse)
            monkeypatch.setattr(module, "normalize_plan", refuse)
        plans = [serving_themis.plan(query) for query in self.MIXED]
        assert len({plan.key for plan in plans}) == len(plans)
        assert {plan.shape for plan in plans} == {
            "point", "scalar", "group-by", "table", "join-group-by",
        }  # fmt: skip
        # In-sample points: no network evidence signature is polled.
        assert {plan.route for plan in plans if plan.shape == "point"} == {"sample"}
        session = serving_themis.serve()
        session.clear_caches()  # the joins' sides start cold
        session.reset_cache_window()
        token = _CountingToken()
        batch = session.execute_batch(self.MIXED, cancel=token)
        # The second join reads the one side the first one computed (read
        # before the facade's reference answers share the same tiers).
        window = session.cache_statistics(window=True)
        assert sum(window[tier]["hits"] for tier in window if tier.endswith("join_side_cache")) == 1
        assert batch.results() == [serving_themis.query(query) for query in self.MIXED]
        # After compile, after the cache probe, then before every plan.
        assert token.polls == 2 + len(self.MIXED)


class TestServingSessionConstruction:
    def test_session_fits_lazily(
        self, biased_correlated_sample, correlated_aggregates
    ):
        from repro.core import Themis, ThemisConfig

        themis = Themis(
            ThemisConfig(seed=1, n_generated_samples=3, generated_sample_size=300)
        )
        themis.load_sample(biased_correlated_sample)
        themis.add_aggregates(correlated_aggregates)
        session = ServingSession(themis)
        assert not themis.is_fitted
        session.execute("SELECT COUNT(*) FROM sample WHERE A = 0")
        assert themis.is_fitted

    def test_cache_capacities_are_configurable(self, serving_themis):
        session = serving_themis.serve(result_cache_size=2)
        session.execute_batch(WORKLOAD)
        assert len(session.result_cache) <= 2
