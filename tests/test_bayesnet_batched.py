"""Tests for batched variable-elimination inference.

The load-bearing guarantee: batching shares work but never changes answers —
``BatchedInference.probability_batch`` is bit-identical to per-query
``ExactInference.probability``, across mixed evidence signatures,
out-of-domain values, and cache generations; ``conditional_batch`` is
likewise bit-identical to per-query ``ExactInference.conditional``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bayesnet import (
    BatchedInference,
    ExactInference,
    group_by_signature,
    signature_of,
)
from repro.bayesnet import batched
from repro.exceptions import BayesNetError
from repro.query import PointQuery
from worlds import build_sparse_fitted_themis

MIXED_BATCH = [
    {"A": 0},
    {"B": 1, "A": 2},
    {"A": 2, "B": 1},  # same signature (and same assignment) as above
    {"C": 1},
    {"A": 1, "B": 0, "C": 1},
    {"C": 0, "A": 0},
    {"B": 2},
    {"A": 1, "C": 0},  # same signature as {"C": 0, "A": 0}
]


@pytest.fixture
def network(serving_themis):
    return serving_themis.model.bayes_net_evaluator.network


def missing_assignments(themis) -> list[dict]:
    """Mixed-signature assignments absent from the sample (hence BN-routed)."""
    sample = themis.model.weighted_sample
    candidates = [
        {"A": a, "B": b} for a in (0, 1, 2) for b in (0, 1, 2)
    ] + [
        {"B": b, "C": c} for b in (0, 1, 2) for c in (0, 1)
    ] + [
        {"A": a, "B": b, "C": c}
        for a in (0, 1, 2)
        for b in (0, 1, 2)
        for c in (0, 1)
    ]
    return [a for a in candidates if not sample.contains(a)]


class TestSignatureHelpers:
    def test_signature_is_sorted_variable_names(self):
        assert signature_of({"b": 1, "a": 0}) == ("a", "b")
        assert signature_of({}) == ()

    def test_insertion_order_does_not_matter(self):
        assert signature_of({"x": 1, "y": 2}) == signature_of({"y": 9, "x": 0})

    def test_grouping_preserves_batch_order(self):
        groups = group_by_signature([{"a": 0}, {"b": 1}, {"a": 2}, {"a": 1, "b": 0}])
        assert groups == {("a",): [0, 2], ("b",): [1], ("a", "b"): [3]}


class TestBitIdentity:
    def test_mixed_signature_batch_matches_per_query(self, network):
        engine = BatchedInference(network)
        batched = engine.probability_batch(MIXED_BATCH)
        # Fresh single-query engines: one independent elimination per query.
        singles = [ExactInference(network).probability(a) for a in MIXED_BATCH]
        assert batched.tolist() == singles  # exact float equality, bit for bit

    def test_delegating_single_path_is_the_batched_path(self, network):
        shared = ExactInference(network)
        singles = [shared.probability(a) for a in MIXED_BATCH]
        batched = BatchedInference(network).probability_batch(MIXED_BATCH)
        assert batched.tolist() == singles

    def test_evaluator_run_matches_point(self, serving_themis):
        evaluator = serving_themis.model.bayes_net_evaluator
        plans = [serving_themis.plan(PointQuery(a)) for a in MIXED_BATCH]
        assert evaluator.run(plans) == [evaluator.point(a) for a in MIXED_BATCH]

    def test_hybrid_run_routes_like_point(self, sparse_serving_themis):
        hybrid = sparse_serving_themis.model.hybrid_evaluator
        # Mix of in-sample tuples (sample route) and missing ones (BN route).
        batch = MIXED_BATCH + missing_assignments(sparse_serving_themis)
        plans = [sparse_serving_themis.plan(PointQuery(a)) for a in batch]
        assert {plan.route for plan in plans} == {"sample", "bayes-net"}
        assert hybrid.run(plans) == [hybrid.point(a) for a in batch]

    def test_themis_facade_batch_of_points(self, serving_themis):
        batch = serving_themis.serve().execute_batch([PointQuery(a) for a in MIXED_BATCH])
        assert batch.results() == [serving_themis.query(PointQuery(a)) for a in MIXED_BATCH]


class TestEdgeCases:
    def test_empty_batch(self, network):
        engine = BatchedInference(network)
        assert engine.probability_batch([]).tolist() == []
        assert engine.elimination_passes == 0

    def test_singleton_batch(self, network):
        engine = BatchedInference(network)
        assert engine.probability_batch([{"A": 0}])[0] == ExactInference(
            network
        ).probability({"A": 0})

    def test_empty_assignment_has_probability_one(self, network):
        engine = BatchedInference(network)
        assert engine.probability_batch([{}]).tolist() == [1.0]
        assert engine.elimination_passes == 0

    def test_out_of_domain_value_is_zero_inside_a_batch(self, network):
        engine = BatchedInference(network)
        batch = [{"A": 0}, {"A": 99}, {"B": 1, "A": "nope"}, {"B": 1}]
        results = engine.probability_batch(batch)
        assert results[1] == 0.0
        assert results[2] == 0.0
        assert results[0] == ExactInference(network).probability({"A": 0})
        assert results[3] == ExactInference(network).probability({"B": 1})
        # Out-of-domain assignments never pay an elimination pass.
        assert engine.elimination_passes == 2

    def test_unknown_attribute_raises_like_single_path(self, network):
        engine = BatchedInference(network)
        with pytest.raises(BayesNetError):
            engine.probability_batch([{"A": 0}, {"Z": 1}])
        assert engine.probability_or_zero_batch([{"Z": 1}, {"A": 0}])[0] == 0.0

    def test_probabilities_are_clipped_to_unit_interval(self, network):
        engine = BatchedInference(network)
        values = engine.probability_batch(MIXED_BATCH)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)


class TestFactorCache:
    def test_one_elimination_pass_per_signature(self, network):
        engine = BatchedInference(network)
        engine.probability_batch(MIXED_BATCH)
        signatures = {signature_of(a) for a in MIXED_BATCH}
        assert engine.elimination_passes == len(signatures)
        assert engine.cached_factor_count == len(signatures)

    def test_repeat_batch_runs_no_new_eliminations(self, network):
        engine = BatchedInference(network)
        engine.probability_batch(MIXED_BATCH)
        passes = engine.elimination_passes
        engine.probability_batch(MIXED_BATCH)
        assert engine.elimination_passes == passes
        assert engine.factor_cache_hits > 0

    def test_capacity_is_lru_bounded(self, network, monkeypatch):
        monkeypatch.setattr(batched, "FACTOR_CACHE_CAPACITY", 2)
        engine = BatchedInference(network)
        engine.probability_batch(MIXED_BATCH)
        assert engine.cached_factor_count <= 2
        signatures = {signature_of(a) for a in MIXED_BATCH}
        assert engine.factors.statistics.evictions == len(signatures) - 2

    def test_each_engine_owns_its_factors(self, network):
        """Factors are keyed by kept-variable set alone: an engine belongs
        to one network, and a new engine (a refit's) starts cold."""
        engine = BatchedInference(network)
        engine.probability_batch([{"A": 0}])
        assert [key for key, _ in engine.factors.entries()] == [frozenset({"A"})]
        fresh = BatchedInference(network)
        assert fresh.cached_factor_count == 0
        assert fresh.probability_batch([{"A": 0}])[0] == engine.probability_batch(
            [{"A": 0}]
        )[0]
        assert (engine.elimination_passes, fresh.elimination_passes) == (1, 1)

    def test_conditional_is_cached_and_bit_identical(self, sparse_serving_themis):
        bn = sparse_serving_themis.model.bayes_net_evaluator
        fresh = ExactInference(bn.network)
        reference = fresh.eliminate(keep=("C", "A")).restrict({"A": 1})
        expected = reference.table / reference.table.sum()
        engine = bn.inference.batched
        first = bn.inference.conditional("C", {"A": 1})
        passes_after_first = engine.elimination_passes
        second = bn.inference.conditional("C", {"A": 1})
        assert engine.elimination_passes == passes_after_first  # cached factor
        assert np.array_equal(first, second)
        assert np.array_equal(first, expected)


CONDITIONAL_BATCH = [
    ("C", {"A": 1}),
    ("A", {"C": 0}),  # same kept set as above
    ("B", {"A": 2, "C": 1}),
    ("C", {"B": 0, "A": 2}),  # same kept set as above
    ("A", {}),
    ("C", {"A": 0}),
]


class TestConditionalBatch:
    def test_mixed_batch_matches_per_query_conditionals(self, network):
        batched = BatchedInference(network).conditional_batch(CONDITIONAL_BATCH)
        # Fresh single-query engines: one independent elimination per query.
        singles = [
            ExactInference(network).conditional(target, evidence)
            for target, evidence in CONDITIONAL_BATCH
        ]
        assert len(batched) == len(singles)
        for got, expected in zip(batched, singles):
            assert np.array_equal(got, expected)  # bit for bit

    def test_one_pass_per_kept_variable_set(self, network):
        engine = BatchedInference(network)
        results = engine.conditional_batch(CONDITIONAL_BATCH)
        kept_sets = {
            frozenset({target, *evidence}) for target, evidence in CONDITIONAL_BATCH
        }
        assert engine.elimination_passes == len(kept_sets)
        for (target, _), result in zip(CONDITIONAL_BATCH, results):
            assert result.shape == (network.schema[target].size,)
            assert result.sum() == pytest.approx(1.0)
        # Point queries over a kept set already eliminated reuse its factor.
        engine.probability_batch([{"A": 1, "C": 0}, {"A": 2, "B": 1, "C": 1}])
        assert engine.elimination_passes == len(kept_sets)

    def test_empty_evidence_is_the_normalized_marginal(self, network):
        engine = BatchedInference(network)
        (marginal,) = engine.conditional_batch([("A", {})])
        point = engine.probability_batch([{"A": code} for code in (0, 1, 2)])
        assert marginal.sum() == pytest.approx(1.0)
        assert np.allclose(marginal, point / point.sum(), rtol=1e-12)
        (again,) = engine.conditional_batch([("A", {})])
        assert np.array_equal(again, marginal)
        assert engine.elimination_passes == 1  # both calls and the points share it

    def test_target_fixed_by_its_own_evidence_raises(self, network):
        engine = BatchedInference(network)
        with pytest.raises(BayesNetError, match="could not isolate the target"):
            engine.conditional_batch([("C", {"A": 0}), ("A", {"A": 1})])


class TestServingIntegration:
    def test_one_query_at_a_time_pays_a_pass_per_assignment(self, sparse_serving_themis):
        missing = missing_assignments(sparse_serving_themis)
        network = sparse_serving_themis.model.bayes_net_evaluator.network
        singles = [ExactInference(network) for _ in missing]
        for engine, assignment in zip(singles, missing):
            engine.probability(assignment)
        assert [engine.batched.elimination_passes for engine in singles] == [1] * len(
            missing
        )

    def test_batch_of_network_points_pays_one_pass_per_signature(self):
        # A facade of its own: the factor cache starts cold, so passes count.
        themis = build_sparse_fitted_themis()
        missing = missing_assignments(themis)
        signatures = {signature_of(a) for a in missing}
        assert len(signatures) >= 2  # mixed signatures
        # A cold batch pays one elimination pass per evidence signature, a
        # warm one none.
        session = themis.serve()
        queries = [PointQuery(a) for a in missing]
        batch = session.execute_batch(queries)
        assert batch.bn_elimination_passes == len(signatures)
        assert session.execute_batch(queries).bn_elimination_passes == 0
        for outcome, assignment in zip(batch, missing):
            assert outcome.route == "bayes-net"
            assert outcome.result == themis.query(PointQuery(assignment))

    def test_batched_dispatch_counts_result_cache_misses(self, sparse_serving_themis):
        """The batched dispatch must not distort result-cache statistics."""
        missing = missing_assignments(sparse_serving_themis)
        session = sparse_serving_themis.serve()
        session.execute_batch([PointQuery(a) for a in missing])
        stats = session.result_cache.statistics
        assert stats.misses == len(missing)  # one counted miss per cold plan
        assert stats.hits == 0
        session.execute_batch([PointQuery(a) for a in missing])
        assert session.result_cache.statistics.hits == len(missing)

    def test_out_of_domain_point_in_a_batch_is_zero(self, sparse_serving_themis):
        in_domain = missing_assignments(sparse_serving_themis)[0]
        out_of_domain = {"A": 99, "B": 0}
        session = sparse_serving_themis.serve()
        batch = session.execute_batch(
            [PointQuery(in_domain), PointQuery(out_of_domain)]
        )
        assert batch.outcomes[1].result == 0.0
        assert batch.outcomes[0].result == sparse_serving_themis.query(PointQuery(in_domain))

    def test_refit_serves_from_the_new_models_cold_engine(self, fresh_serving_themis):
        session = fresh_serving_themis.serve()
        missing = missing_assignments(fresh_serving_themis)
        assert missing, "expected at least one out-of-sample assignment"
        queries = [PointQuery(a) for a in missing]
        before = session.execute_batch(queries)
        old_engine = session.inference_cache.engine
        assert old_engine.cached_factor_count > 0

        model = fresh_serving_themis.refit()
        engine = model.bayes_net_evaluator.inference.batched
        assert engine is not old_engine and engine.cached_factor_count == 0
        after = session.execute_batch(queries)
        assert session.inference_cache.engine is engine
        # Same inputs and seed: the refitted model answers identically, and
        # the batch paid the new engine's own elimination passes.
        assert after.bn_elimination_passes == engine.elimination_passes > 0
        assert before.results() == after.results()

    def test_inference_cache_describe_exposes_engine_counters(self, serving_themis):
        session = serving_themis.serve()
        session.execute_batch(["SELECT COUNT(*) FROM sample WHERE A = 0"])
        description = session.describe()
        inference = description["caches"]["inference_cache"]
        assert {"elimination_passes", "factor_cache_hits", "cached_factors"} <= set(
            inference
        )


class TestExports:
    def test_public_api_exports_batched_names(self):
        import repro

        for name in ("BatchedInference", "signature_of", "group_by_signature"):
            assert name in repro.__all__
            assert hasattr(repro, name)
