"""Tests for the open-world evaluators (sample, Bayesian network, hybrid)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregates import AggregateQuery, AggregateSet
from repro.bayesnet import LearningMode, ThemisBayesNetLearner
from repro.core import BayesNetEvaluator, HybridEvaluator, ReweightedSampleEvaluator
from repro.exceptions import QueryError
from repro.metrics import percent_difference
from repro.plan import ColumnarExecutor
from repro.query import (
    AggregateFunction,
    AggregateSpec,
    Comparison,
    GroupByQuery,
    JoinGroupByQuery,
    PointQuery,
    Predicate,
    ScalarAggregateQuery,
)
from repro.reweighting import IPFReweighter


@pytest.fixture
def fitted_components(correlated_population, biased_correlated_sample, correlated_aggregates):
    """IPF-weighted sample and BB network for the correlated dataset."""
    n = correlated_population.n_rows
    weighted = IPFReweighter(max_iterations=60).reweight(
        biased_correlated_sample, correlated_aggregates
    )
    learner = ThemisBayesNetLearner.from_mode(LearningMode.BB)
    network = learner.learn(
        biased_correlated_sample, correlated_aggregates, population_size=n
    ).network
    bn_evaluator = BayesNetEvaluator(
        network, population_size=n, n_generated_samples=4, generated_sample_size=800, seed=3
    )
    return weighted, bn_evaluator, n


class TestReweightedSampleEvaluator:
    def test_point_matches_engine(self, fitted_components):
        weighted, _, _ = fitted_components
        evaluator = ReweightedSampleEvaluator(weighted)
        query = PointQuery({"A": 0})
        assert evaluator.execute(query) == ColumnarExecutor(weighted).execute(query)

    def test_execute_dispatch(self, fitted_components):
        weighted, _, _ = fitted_components
        evaluator = ReweightedSampleEvaluator(weighted)
        query = PointQuery({"A": 0})
        assert evaluator.execute(query) == evaluator.run([evaluator.compiler.compile(query)])[0]
        result = evaluator.execute(GroupByQuery(group_by=("A",)))
        assert len(result) >= 1

    def test_masks_and_compiler_are_the_executors(self, fitted_components):
        # The evaluator holds no caches of its own: routing reads the very
        # masks and compiler its executor answers with.
        weighted, _, _ = fitted_components
        evaluator = ReweightedSampleEvaluator(weighted)
        executor = evaluator.executor
        assert evaluator.mask_cache is executor.mask_cache
        assert evaluator.compiler is executor.compiler
        assert evaluator.sample is executor.relation is weighted
        query = ScalarAggregateQuery(predicates=(Predicate("A", Comparison.EQ, 0),))
        assert evaluator.execute(query) == executor.execute(query)

    def test_unknown_query_type_rejected(self, fitted_components):
        weighted, _, _ = fitted_components
        with pytest.raises(QueryError) as excinfo:
            ReweightedSampleEvaluator(weighted).execute("not a query")
        # The error names the offending query itself, not just its type.
        assert "str" in str(excinfo.value)
        assert repr("not a query") in str(excinfo.value)


class TestBayesNetEvaluator:
    def test_point_is_population_scaled_probability(self, fitted_components, correlated_population):
        _, bn_evaluator, n = fitted_components
        estimate = bn_evaluator.execute(PointQuery({"A": 1}))
        truth = correlated_population.count({"A": 1})
        assert percent_difference(truth, estimate) < 25

    def test_point_out_of_domain_is_zero(self, fitted_components):
        _, bn_evaluator, _ = fitted_components
        assert bn_evaluator.execute(PointQuery({"A": 99})) == 0.0

    def test_group_by_total_close_to_population(self, fitted_components, correlated_population):
        _, bn_evaluator, n = fitted_components
        result = bn_evaluator.group_by(GroupByQuery(group_by=("A",)))
        assert sum(result.as_dict().values()) == pytest.approx(n, rel=0.1)

    def test_group_by_is_cached_across_calls(self, fitted_components):
        _, bn_evaluator, _ = fitted_components
        first = bn_evaluator.group_by(GroupByQuery(group_by=("A",))).as_dict()
        second = bn_evaluator.group_by(GroupByQuery(group_by=("A",))).as_dict()
        assert first == second

    def test_scalar_query(self, fitted_components):
        _, bn_evaluator, n = fitted_components
        value = bn_evaluator.execute(
            ScalarAggregateQuery(predicates=(Predicate("A", Comparison.LE, 1),))
        )
        assert 0 < value < n * 1.2

    def test_invalid_population_size_rejected(self, fitted_components):
        _, bn_evaluator, _ = fitted_components
        with pytest.raises(QueryError):
            BayesNetEvaluator(bn_evaluator.network, population_size=0)


class TestHybridEvaluator:
    def test_point_uses_sample_when_tuple_present(self, fitted_components):
        weighted, bn_evaluator, _ = fitted_components
        hybrid = HybridEvaluator(weighted, bn_evaluator)
        sample_answer = ReweightedSampleEvaluator(weighted).execute(PointQuery({"A": 0, "B": 0}))
        assert hybrid.execute(PointQuery({"A": 0, "B": 0})) == sample_answer

    def test_point_falls_back_to_bn_for_missing_tuple(self, fitted_components):
        weighted, bn_evaluator, _ = fitted_components
        hybrid = HybridEvaluator(weighted, bn_evaluator)
        # Find an assignment absent from the sample (if none exists, fabricate
        # one by checking the rarest combination).
        missing = None
        for a in (2, 1, 0):
            for b in (2, 1, 0):
                for c in (1, 0):
                    if not weighted.contains({"A": a, "B": b, "C": c}):
                        missing = {"A": a, "B": b, "C": c}
                        break
        if missing is None:
            pytest.skip("sample covers the full domain for this seed")
        assert hybrid.execute(PointQuery(missing)) == bn_evaluator.execute(PointQuery(missing))

    def test_group_by_union_includes_bn_only_groups(self, fitted_components):
        weighted, bn_evaluator, _ = fitted_components
        hybrid = HybridEvaluator(weighted, bn_evaluator)
        query = GroupByQuery(group_by=("A", "B", "C"))
        sample_groups = ReweightedSampleEvaluator(weighted).group_by(query).groups()
        hybrid_groups = hybrid.group_by(query).groups()
        assert sample_groups <= hybrid_groups

    def test_group_by_prefers_sample_values_for_shared_groups(self, fitted_components):
        weighted, bn_evaluator, _ = fitted_components
        hybrid = HybridEvaluator(weighted, bn_evaluator)
        query = GroupByQuery(group_by=("A",))
        sample_result = ReweightedSampleEvaluator(weighted).group_by(query)
        hybrid_result = hybrid.group_by(query)
        for group in sample_result.groups():
            assert hybrid_result.value(group) == sample_result.value(group)

    def test_scalar_uses_bn_when_sample_filtered_empty(self, fitted_components):
        weighted, bn_evaluator, _ = fitted_components
        hybrid = HybridEvaluator(weighted, bn_evaluator)
        query = ScalarAggregateQuery(
            predicates=(Predicate("A", Comparison.EQ, 99),)
        )
        assert hybrid.execute(query) == bn_evaluator.execute(query)

    def test_hybrid_more_accurate_than_sample_on_missing_tuples(
        self, fitted_components, correlated_population
    ):
        """The hybrid's whole point: missing tuples get non-zero BN answers."""
        weighted, bn_evaluator, _ = fitted_components
        hybrid = HybridEvaluator(weighted, bn_evaluator)
        sample_evaluator = ReweightedSampleEvaluator(weighted)
        improvements = 0
        comparisons = 0
        for a in (0, 1, 2):
            for b in (0, 1, 2):
                for c in (0, 1):
                    assignment = {"A": a, "B": b, "C": c}
                    if weighted.contains(assignment):
                        continue
                    truth = correlated_population.count(assignment)
                    if truth == 0:
                        continue
                    comparisons += 1
                    hybrid_error = percent_difference(truth, hybrid.execute(PointQuery(assignment)))
                    sample_error = percent_difference(
                        truth, sample_evaluator.execute(PointQuery(assignment))
                    )
                    if hybrid_error <= sample_error:
                        improvements += 1
        if comparisons == 0:
            pytest.skip("sample covers every populated combination for this seed")
        assert improvements == comparisons


class TestHybridSchemas:
    def test_a_network_over_another_schema_is_rejected_at_construction(
        self, fitted_components
    ):
        weighted, bn_evaluator, _ = fitted_components
        projected = weighted.project(["A", "B"])
        with pytest.raises(QueryError) as excinfo:
            HybridEvaluator(projected, bn_evaluator)
        message = str(excinfo.value)
        assert f"network's schema {list(bn_evaluator.network.schema)}" in message
        assert f"sample's schema {list(projected.schema)}" in message


class TestAnswerCombination:
    """The two rules that turn per-relation answers into one, on hand-built
    results (semantics written out in ``repro.core.evaluators``)."""

    def test_intersect_and_average_keeps_groups_present_in_every_answer(self):
        # The dict-based rule is the test-side reference now: src/ computes
        # the same consensus on (K, G) arrays, and
        # tests/test_generated_stack.py holds the two equal.
        from oracle import intersect_and_average as _intersect_and_average
        from repro.sql.engine import QueryResult

        answers = [
            QueryResult(("g",), {("a",): 1.0, ("b",): 4.0, ("c",): 9.0}),
            QueryResult(("g",), {("a",): 2.0, ("b",): 5.0}),
            QueryResult(("g",), {("a",): 6.0, ("b",): 0.0, ("d",): 7.0}),
        ]
        combined = _intersect_and_average(("g",), answers)
        # "c" and "d" are phantom groups (missing from some generated
        # answer); "b" survives although one value is 0.0 — presence counts,
        # not positivity.  Values are arithmetic means over all K answers.
        assert combined == QueryResult(("g",), {("a",): 3.0, ("b",): 3.0})
        # K = 1 is the answer itself; K = 0 is the empty answer.
        assert _intersect_and_average(("g",), answers[:1]) == answers[0]
        assert _intersect_and_average(("g",), []) == QueryResult(("g",), {})

    def test_part_zero_wins_where_it_has_the_group_and_the_worlds_decide_elsewhere(self):
        """The combine rule of a partitioned executor, on a hand-built stack
        of a weighted sample (part 0) and ``K = 2`` generated worlds."""
        from repro.plan import ColumnarExecutor, RowPartition
        from repro.schema import Attribute, Relation, Schema
        from repro.sql.engine import QueryResult

        schema = Schema([Attribute("g", ["a", "b", "c", "s", "z"]), Attribute("k", [0])])
        parts = [
            {"a": 10.0, "b": 0.0, "s": 0.0},  # the sample: b and s weigh nothing
            {"a": 1.0, "b": 2.0, "z": 3.0, "c": 4.0},
            {"a": 3.0, "b": 4.0, "z": 5.0},  # c is missing from this world
        ]
        rows = [(group, 0) for part in parts for group in part]
        weights = [weight for part in parts for weight in part.values()]
        stack = ColumnarExecutor(
            Relation.from_rows(schema, rows, weights),
            partition=RowPartition.of_sizes([len(part) for part in parts]),
        )
        sample, *worlds = parts

        def consensus(value):
            return float(np.mean([value(world) for world in worlds]))

        # GROUP BY: "a" keeps the sample's value; "b", present in the sample
        # with zero weight, falls to the consensus; "z", which only the
        # network found, is kept because all K worlds have it, and "c",
        # missing from one world, is a phantom.  "s" has no weight anywhere.
        counts = stack.execute(GroupByQuery(("g",)))
        assert counts == QueryResult(
            ("g",),
            {
                ("a",): 10.0,
                ("b",): consensus(lambda world: world["b"]),
                ("z",): consensus(lambda world: world["z"]),
            },
        )
        # Join: part 0's merged world holds every pair over {a, b, s}, at
        # weight 0.0 off (a, a), and keeps them all — presence, not weight,
        # decides for a join, so the pairs only the sample has survive too.
        # Pairs with "z" come from the worlds; pairs with "c" are phantoms.
        joined = stack.execute(JoinGroupByQuery("k", "k", "g", "g"))
        expected = {(left, right): sample[left] * sample[right] for left in sample for right in sample}
        for left, right in [("a", "z"), ("b", "z"), ("z", "a"), ("z", "b"), ("z", "z")]:
            expected[(left, right)] = consensus(lambda world: world[left] * world[right])
        assert joined == QueryResult(("g", "g"), expected)
        assert joined.value(("s", "s"), default=-1.0) == 0.0


# Every shape, with filters the sparse sample misses, so that on the sparse
# world every route is taken: sample, network and the hybrid merge.
HYBRID_STATEMENTS = [
    PointQuery({"A": 0, "B": 0}),
    PointQuery({"A": 2, "B": 2, "C": 1}),
    PointQuery({"A": 1, "C": 0}),
    PointQuery({"A": 99}),  # out of the domain
    "SELECT COUNT(*) FROM sample WHERE A = 0",
    "SELECT SUM(B) FROM sample WHERE A = 2 AND B = 2 AND C = 1",
    "SELECT AVG(B) FROM sample WHERE C = 1 AND A IN (0, 2)",
    "SELECT COUNT(*) FROM sample",
    "SELECT A, COUNT(*) FROM sample GROUP BY A",
    "SELECT B, C, AVG(B) FROM sample WHERE A = 2 GROUP BY B, C",
    "SELECT A, B, C, SUM(B) FROM sample WHERE C = 1 GROUP BY A, B, C",
    "SELECT COUNT(*) AS n, AVG(B) AS m FROM sample WHERE A <= 1",
    "SELECT COUNT(*) AS n, SUM(C) AS s FROM sample WHERE A = 2 AND B = 2 AND C = 1",
    "SELECT A, COUNT(*) AS n, SUM(B) AS s FROM sample GROUP BY A ORDER BY n DESC",
    "SELECT B, C, COUNT(*) AS n, RANK() OVER (ORDER BY n DESC) AS r "
    "FROM sample WHERE A = 2 GROUP BY B, C HAVING n > 0 LIMIT 4",
]
HYBRID_JOINS = [
    JoinGroupByQuery("A", "A", "B", "C"),
    JoinGroupByQuery("B", "B", "A", "C", left_predicates=(Predicate("C", Comparison.EQ, 1),)),
    JoinGroupByQuery("A", "A", "B", "C", (Predicate("A", Comparison.EQ, 2),)),
]


@pytest.mark.parametrize("world", ["serving_themis", "sparse_serving_themis"])
class TestHybridEqualsTheReference:
    """``HybridEvaluator.execute`` and ``.run`` == the hybrid rule written
    out over the reference engines (``oracle.hybrid_reference``)."""

    def test_execute_and_run_equal_the_reference(self, world, request):
        from oracle import hybrid_reference

        themis = request.getfixturevalue(world)
        model = themis.model
        hybrid = model.hybrid_evaluator
        statements = HYBRID_STATEMENTS + HYBRID_JOINS
        plans = [themis.plan(statement) for statement in statements]
        expected = hybrid_reference(model, statements)
        assert [hybrid.execute(plan.query) for plan in plans] == expected
        assert hybrid.run(plans) == expected
        assert [themis.query(statement) for statement in statements] == expected
        routes = {plan.route for plan in plans}
        if world == "sparse_serving_themis":
            assert routes == {"sample", "bayes-net", "hybrid"}

    def test_the_sides_differ_where_the_rule_decides(self, world, request):
        """The reference is not vacuous: the merged GROUP BY adds groups the
        sample lacks on the sparse world, and a network-routed point is
        answered by inference, not by the (empty) sample."""
        from oracle import ReferenceEngine, hybrid_reference

        themis = request.getfixturevalue(world)
        model = themis.model
        query = GroupByQuery(group_by=("A", "B", "C"))
        merged = hybrid_reference(model, [query])[0]
        sample_only = ReferenceEngine(model.weighted_sample).execute(query)
        assert sample_only.groups() <= merged.groups()
        if world == "sparse_serving_themis":
            assert sample_only.groups() < merged.groups()
            missing = [
                PointQuery({"A": a, "B": b, "C": c})
                for a in (0, 1, 2)
                for b in (0, 1, 2)
                for c in (0, 1)
                if not model.weighted_sample.contains({"A": a, "B": b, "C": c})
            ]
            assert missing and themis.plan(missing[0]).route == "bayes-net"
            assert all(answer > 0.0 for answer in hybrid_reference(model, missing))
