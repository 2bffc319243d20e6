"""Robustness tests: noisy aggregates and end-to-end integration invariants.

The paper notes (Sec. 3) that population aggregates "do not need to be exact"
— they may be perturbed, e.g. for differential privacy — and Themis still
treats them as constraints.  These tests check that the pipeline degrades
gracefully with noisy aggregates and that end-to-end invariants hold.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregates import AggregateQuery, AggregateSet
from repro.core import Themis, ThemisConfig
from repro.metrics import percent_difference
from repro.query import GroupByQuery, PointQuery
from repro.reweighting import IPFReweighter


def _noisy_aggregates(aggregates: AggregateSet, scale: float, seed: int) -> AggregateSet:
    rng = np.random.default_rng(seed)
    return AggregateSet(
        aggregate.perturbed(scale, rng) for aggregate in aggregates
    )


class TestNoisyAggregates:
    def test_ipf_with_noisy_aggregates_still_beats_uniform(
        self, correlated_population, biased_correlated_sample, correlated_aggregates
    ):
        noisy = _noisy_aggregates(correlated_aggregates, scale=20.0, seed=5)
        weighted = IPFReweighter(max_iterations=60).reweight(
            biased_correlated_sample, noisy
        )
        truth = correlated_population.value_counts(["A"])
        estimated = weighted.value_counts(["A"], weighted=True)
        uniform_scale = correlated_population.n_rows / biased_correlated_sample.n_rows
        uniform = {
            key: value * uniform_scale
            for key, value in biased_correlated_sample.value_counts(["A"]).items()
        }
        noisy_error = sum(
            abs(estimated.get(key, 0.0) - value) for key, value in truth.items()
        )
        uniform_error = sum(
            abs(uniform.get(key, 0.0) - value) for key, value in truth.items()
        )
        assert noisy_error < uniform_error

    def test_themis_fits_with_noisy_aggregates(
        self, biased_correlated_sample, correlated_aggregates
    ):
        noisy = _noisy_aggregates(correlated_aggregates, scale=30.0, seed=9)
        themis = Themis(
            ThemisConfig(seed=0, n_generated_samples=3, generated_sample_size=300)
        )
        themis.load_sample(biased_correlated_sample)
        themis.add_aggregates(noisy)
        model = themis.fit()
        assert model.weighted_sample.total_weight() > 0
        for node in model.network.nodes:
            assert model.network.cpt(node).is_normalized()


class TestEndToEndInvariants:
    @pytest.fixture
    def model(self, biased_correlated_sample, correlated_aggregates):
        themis = Themis(
            ThemisConfig(seed=2, n_generated_samples=4, generated_sample_size=500)
        )
        themis.load_sample(biased_correlated_sample)
        themis.add_aggregates(correlated_aggregates)
        return themis.fit()

    def test_group_by_total_matches_population_size(self, model):
        """The hybrid GROUP BY over one covered attribute sums to ~n."""
        result = model.hybrid_evaluator.group_by(GroupByQuery(group_by=("A",)))
        assert sum(result.as_dict().values()) == pytest.approx(
            model.population_size, rel=0.15
        )

    def test_point_answers_are_non_negative(self, model):
        for a in (0, 1, 2):
            for b in (0, 1, 2):
                assert model.hybrid_evaluator.execute(PointQuery({"A": a, "B": b})) >= 0.0

    def test_point_answers_bounded_by_population(self, model):
        for a in (0, 1, 2):
            estimate = model.hybrid_evaluator.execute(PointQuery({"A": a}))
            assert estimate <= model.population_size * 1.05

    def test_aggregate_marginals_respected_by_hybrid(self, model, correlated_population):
        """Answers for the aggregate-covered attribute A are close to the truth."""
        for a in (0, 1, 2):
            truth = correlated_population.count({"A": a})
            estimate = model.hybrid_evaluator.execute(PointQuery({"A": a}))
            assert percent_difference(truth, estimate) < 30

    def test_bn_and_sample_evaluators_agree_on_total_mass(self, model):
        bn_total = sum(
            model.bayes_net_evaluator.group_by(GroupByQuery(group_by=("A",)))
            .as_dict()
            .values()
        )
        sample_total = model.weighted_sample.total_weight()
        assert bn_total == pytest.approx(sample_total, rel=0.2)
