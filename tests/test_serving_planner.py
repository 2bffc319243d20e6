"""Tests for the query planner: canonical plan keys and evaluator routing."""

from __future__ import annotations

import pytest

from repro.exceptions import QueryError
from repro.query import (
    AggregateFunction,
    AggregateSpec,
    Comparison,
    GroupByQuery,
    PointQuery,
    Predicate,
    ScalarAggregateQuery,
)
from repro.serving import (
    ROUTE_BAYES_NET,
    ROUTE_HYBRID,
    ROUTE_SAMPLE,
    QueryPlanner,
)
from repro.sql.parser import parse_sql


@pytest.fixture
def planner(serving_themis):
    """The fitted model's own planner."""
    return serving_themis.model.planner


@pytest.fixture
def bare_planner(correlated_population):
    """A planner with no mask cache (routes everything to the hybrid)."""
    return QueryPlanner(correlated_population.schema)


class TestCanonicalKeys:
    def test_reordered_conjuncts_hash_identically(self, planner):
        first = parse_sql("SELECT COUNT(*) FROM s WHERE A = 0 AND B = 1").query
        second = parse_sql("SELECT COUNT(*) FROM s WHERE B = 1 AND A = 0").query
        assert planner.plan(first).key == planner.plan(second).key

    def test_sql_count_of_equalities_plans_as_point(self, planner):
        """SQL COUNT-of-equalities parses to PointQuery, so text canonicalizes."""
        plan = planner.plan("SELECT COUNT(*) FROM s WHERE B = 1 AND A = 0")
        assert isinstance(plan.query, PointQuery)
        assert plan.key == planner.plan(PointQuery({"A": 0, "B": 1})).key

    def test_scalar_count_ast_keeps_its_own_key(self, planner):
        """An AST COUNT scalar is NOT folded into the point key: on the BN
        route exact inference (point) and generated-sample averaging (scalar)
        give different answers, so the shapes must not share cache entries."""
        point = PointQuery({"A": 0, "B": 1})
        scalar = ScalarAggregateQuery(
            aggregate=AggregateSpec(AggregateFunction.COUNT),
            predicates=(
                Predicate("B", Comparison.EQ, 1),
                Predicate("A", Comparison.EQ, 0),
            ),
        )
        assert planner.plan(point).key != planner.plan(scalar).key

    def test_different_constants_hash_differently(self, planner):
        zero, one = planner.plan(PointQuery({"A": 0})), planner.plan(PointQuery({"A": 1}))
        assert zero.key != one.key

    def test_ordered_literals_bucketize(self, planner):
        # Domain of A is [0, 1, 2]; both literals share the bucket threshold 1.
        same_bucket = [
            GroupByQuery(("B",), predicates=(Predicate("A", Comparison.LT, 1),)),
            GroupByQuery(("B",), predicates=(Predicate("A", Comparison.LT, 1.5),)),
        ]
        other_bucket = GroupByQuery(
            ("B",), predicates=(Predicate("A", Comparison.LT, 2),)
        )
        keys = [planner.plan(query).key for query in same_bucket]
        assert keys[0] == keys[1]
        assert planner.plan(other_bucket).key != keys[0]

    def test_in_lists_canonicalize(self, planner):
        first = GroupByQuery(("B",), predicates=(Predicate("A", Comparison.IN, (2, 0, 0)),))
        second = GroupByQuery(("B",), predicates=(Predicate("A", Comparison.IN, [0, 2]),))
        assert planner.plan(first).key == planner.plan(second).key

    def test_group_by_order_is_semantic(self, planner):
        ab = GroupByQuery(("A", "B"))
        ba = GroupByQuery(("B", "A"))
        assert planner.plan(ab).key != planner.plan(ba).key

    def test_aggregate_function_distinguishes_plans(self, planner):
        count = GroupByQuery(("A",))
        avg = GroupByQuery(("A",), aggregate=AggregateSpec(AggregateFunction.AVG, "B"))
        assert planner.plan(count).key != planner.plan(avg).key

    def test_keys_are_hashable(self, planner):
        key = planner.plan(PointQuery({"A": 0})).key
        assert hash(key) == hash(key)
        assert {key: 1}[key] == 1


class TestRouting:
    def test_point_in_sample_routes_to_sample(self, planner, serving_themis):
        sample = serving_themis.model.weighted_sample
        values = dict(zip(sample.attribute_names, sample.row(0)))
        plan = planner.plan(PointQuery(values))
        assert plan.route == ROUTE_SAMPLE

    def test_point_missing_from_sample_routes_to_bn(self, planner, serving_themis):
        sample = serving_themis.model.weighted_sample
        missing = None
        for a in (0, 1, 2):
            for b in (0, 1, 2):
                for c in (0, 1):
                    candidate = {"A": a, "B": b, "C": c}
                    if not sample.contains(candidate):
                        missing = candidate
                        break
        if missing is None:
            pytest.skip("sample covers the full domain at this seed")
        plan = planner.plan(PointQuery(missing))
        assert plan.route == ROUTE_BAYES_NET

    def test_group_by_routes_to_hybrid(self, planner):
        plan = planner.plan(GroupByQuery(("A",)))
        assert plan.route == ROUTE_HYBRID
        assert plan.needs_generated_samples

    def test_unfiltered_scalar_routes_to_sample(self, planner):
        plan = planner.plan(ScalarAggregateQuery())
        assert plan.route == ROUTE_SAMPLE

    def test_plans_without_model_route_to_hybrid(self, bare_planner):
        plan = bare_planner.plan(PointQuery({"A": 0}))
        assert plan.route == ROUTE_HYBRID

    def test_routes_match_hybrid_answers(self, planner, serving_themis):
        """Whatever the route, the served answer equals the hybrid's."""
        model = serving_themis.model
        queries = [
            PointQuery({"A": 0}),
            PointQuery({"A": 2, "B": 2, "C": 1}),
            ScalarAggregateQuery(predicates=(Predicate("A", Comparison.LE, 1),)),
        ]
        for query in queries:
            plan = planner.plan(query)
            evaluator = {
                ROUTE_SAMPLE: model.sample_evaluator,
                ROUTE_BAYES_NET: model.bayes_net_evaluator,
                ROUTE_HYBRID: model.hybrid_evaluator,
            }[plan.route]
            assert evaluator.execute(query) == model.hybrid_evaluator.execute(query)


class TestPlanningSurface:
    def test_sql_text_is_recorded(self, planner):
        plan = planner.plan("SELECT COUNT(*) FROM s WHERE A = 0")
        assert plan.sql == "SELECT COUNT(*) FROM s WHERE A = 0"

    def test_unknown_attribute_rejected(self, planner):
        with pytest.raises(QueryError):
            planner.plan(PointQuery({"bogus": 1}))
