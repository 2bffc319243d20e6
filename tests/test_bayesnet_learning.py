"""Tests for BN scoring, structure learning, parameter learning, and modes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregates import AggregateQuery, AggregateSet
from repro.bayesnet import (
    AggregateCountSource,
    ConditionalProbabilityTable,
    DirectedAcyclicGraph,
    ExactInference,
    GreedyHillClimbing,
    LearningMode,
    ParameterLearner,
    SampleCountSource,
    ThemisBayesNetLearner,
    family_bic,
    family_log_likelihood,
    structure_bic,
)
from repro.exceptions import BayesNetError
from repro.experiments import SMALL_SCALE, build_aggregates, dataset_bundle
from repro.schema import Attribute, Domain, Relation, Schema


class TestCountSources:
    def test_sample_counts_match_relation(self, correlated_population):
        source = SampleCountSource(correlated_population)
        counts = source.counts("B", ("A",))
        assert counts.sum() == correlated_population.n_rows
        assert source.total() == correlated_population.n_rows
        assert source.supports(["A", "B"])

    def test_aggregate_counts_from_covering_aggregate(
        self, correlated_population, correlated_aggregates
    ):
        source = AggregateCountSource(
            correlated_aggregates, correlated_population.schema
        )
        assert source.supports(["A", "B"])
        assert not source.supports(["A", "C"])
        counts = source.counts("B", ("A",))
        truth = correlated_population.value_counts(["A", "B"])
        assert counts.sum() == pytest.approx(sum(truth.values()))

    def test_aggregate_counts_missing_family_rejected(
        self, correlated_population, correlated_aggregates
    ):
        source = AggregateCountSource(
            correlated_aggregates, correlated_population.schema
        )
        with pytest.raises(BayesNetError):
            source.counts("C", ("A",))

    def test_family_log_likelihood_zero_counts(self):
        assert family_log_likelihood(np.zeros((2, 3))) == 0.0

    def test_family_bic_penalizes_parents(self, correlated_population):
        source = SampleCountSource(correlated_population)
        schema = correlated_population.schema
        independent = family_bic("C", (), source, schema)
        dependent = family_bic("C", ("B",), source, schema)
        # C depends on B strongly, so the extra parameters pay off.
        assert dependent > independent

    def test_structure_bic_total(self, correlated_population):
        source = SampleCountSource(correlated_population)
        schema = correlated_population.schema
        empty = structure_bic({"A": (), "B": (), "C": ()}, source, schema)
        chained = structure_bic({"A": (), "B": ("A",), "C": ("B",)}, source, schema)
        assert chained > empty


class TestStructureLearning:
    def test_learns_dependencies_from_sample(self, correlated_population):
        climber = GreedyHillClimbing(max_parents=1)
        graph, report = climber.learn(
            correlated_population.schema,
            correlated_population,
            aggregates=None,
            use_aggregate_phase=False,
        )
        connected = {frozenset(edge) for edge in graph.edges}
        assert frozenset({"A", "B"}) in connected
        assert frozenset({"B", "C"}) in connected
        assert report.n_iterations >= 2

    def test_aggregate_phase_only_uses_supported_edges(
        self, biased_correlated_sample, correlated_aggregates, correlated_population
    ):
        climber = GreedyHillClimbing(max_parents=1)
        graph, report = climber.learn(
            correlated_population.schema,
            None,
            correlated_aggregates,
            use_sample_phase=False,
        )
        for parent, child in graph.edges:
            assert correlated_aggregates.best_covering([parent, child]) is not None
        assert set(report.phase1_edges) == set(graph.edges)

    def test_phase1_edges_are_locked(self, biased_correlated_sample, correlated_aggregates):
        climber = GreedyHillClimbing(max_parents=1)
        graph, report = climber.learn(
            biased_correlated_sample.schema,
            biased_correlated_sample,
            correlated_aggregates,
        )
        # Every phase-1 edge must survive into the final graph.
        for edge in report.phase1_edges:
            assert graph.has_edge(*edge)

    def test_max_parents_respected(self, correlated_population):
        climber = GreedyHillClimbing(max_parents=1)
        graph, _ = climber.learn(
            correlated_population.schema,
            correlated_population,
            aggregates=None,
            use_aggregate_phase=False,
        )
        assert graph.is_tree()

    def test_invalid_max_parents(self):
        with pytest.raises(BayesNetError):
            GreedyHillClimbing(max_parents=0)


class TestParameterLearning:
    def test_sample_only_mle(self, correlated_population):
        graph = DirectedAcyclicGraph(
            correlated_population.schema.names, [("A", "B"), ("B", "C")]
        )
        learner = ParameterLearner(use_aggregates=False, smoothing=0.0)
        network, report = learner.learn(
            graph, correlated_population.schema, correlated_population
        )
        counts = correlated_population.value_counts(["A"])
        total = correlated_population.n_rows
        marginal = ExactInference(network).marginal("A")
        assert marginal[0] == pytest.approx(counts[(0,)] / total, abs=1e-6)
        assert not report.constrained_nodes

    def test_constraints_fix_biased_marginal(
        self, correlated_population, biased_correlated_sample, correlated_aggregates
    ):
        graph = DirectedAcyclicGraph(
            correlated_population.schema.names, [("A", "B"), ("B", "C")]
        )
        n = correlated_population.n_rows
        constrained = ParameterLearner(use_aggregates=True)
        network, report = constrained.learn(
            graph,
            correlated_population.schema,
            biased_correlated_sample,
            aggregates=correlated_aggregates,
            population_size=n,
        )
        unconstrained_network, _ = ParameterLearner(use_aggregates=False).learn(
            graph, correlated_population.schema, biased_correlated_sample
        )
        truth = np.array(
            [correlated_population.count({"A": value}) / n for value in (0, 1, 2)]
        )
        constrained_error = np.abs(ExactInference(network).marginal("A") - truth).max()
        unconstrained_error = np.abs(
            ExactInference(unconstrained_network).marginal("A") - truth
        ).max()
        assert constrained_error < 0.02
        assert constrained_error < unconstrained_error
        assert "A" in report.constrained_nodes

    def test_full_family_aggregate_closed_form(
        self, correlated_population, biased_correlated_sample, correlated_aggregates
    ):
        """A (child, parent) aggregate pins the conditional in closed form."""
        graph = DirectedAcyclicGraph(
            correlated_population.schema.names, [("A", "B"), ("B", "C")]
        )
        learner = ParameterLearner(use_aggregates=True)
        network, report = learner.learn(
            graph,
            correlated_population.schema,
            biased_correlated_sample,
            aggregates=correlated_aggregates,
            population_size=correlated_population.n_rows,
        )
        assert "B" in report.closed_form_nodes
        # Pr(B | A) is the population conditional, not merely close to it.
        population_counts = correlated_population.value_counts(["A", "B"])
        a0_total = sum(v for (a, _), v in population_counts.items() if a == 0)
        true_conditional = population_counts[(0, 1)] / a0_total
        learned = network.cpt("B").probability(1, [0])
        assert learned == pytest.approx(true_conditional, abs=1e-12)

    @pytest.mark.parametrize("n_two_dimensional", [2, 4])
    def test_full_family_aggregate_pins_imdb_factors(self, n_two_dimensional):
        """Every factor a 2D aggregate covers equals the population conditional.

        A likelihood solver placed after the closed form used to walk these
        factors towards the sample (``movie_country | movie_year`` 9.1e-6
        off, ``rating | movie_country`` 5.4e-9); the 1D marginals projected
        onto afterwards are consistent with the 2D ones and leave them be.
        """
        bundle = dataset_bundle("imdb", SMALL_SCALE)
        aggregates = build_aggregates(
            bundle, n_two_dimensional=n_two_dimensional, seed=SMALL_SCALE.seed
        )
        result = ThemisBayesNetLearner.from_mode("BB").learn(
            bundle.sample("SR159"), aggregates, population_size=bundle.population_size
        )
        network = result.network
        pinned = [
            node
            for node in result.parameter_report.closed_form_nodes
            if network.parents(node)
        ]
        assert {"movie_year", "movie_country"} <= set(pinned)
        for node in pinned:
            counts = ConditionalProbabilityTable.counts_from_relation(
                bundle.population, node, network.parents(node), weighted=False
            )
            seen = counts.sum(axis=1) > 0
            truth = counts[seen] / counts[seen].sum(axis=1, keepdims=True)
            assert np.abs(network.cpt(node).table[seen] - truth).max() <= 1e-12, node

    def test_report_says_what_the_projection_did(
        self, correlated_population, biased_correlated_sample
    ):
        schema = correlated_population.schema
        graph = DirectedAcyclicGraph(schema.names, [("A", "B"), ("B", "C")])
        marginals = [
            AggregateQuery.from_relation(correlated_population, [name]) for name in "ABC"
        ]
        _, report = ParameterLearner().learn(
            graph, schema, biased_correlated_sample, AggregateSet(marginals)
        )
        assert list(report.projection_sweeps) == report.constrained_nodes == ["A", "B", "C"]
        # A's marginal covers its whole family: closed form, nothing to project.
        assert report.projection_sweeps["A"] == 0
        assert 1 <= report.projection_sweeps["B"] < 50
        assert max(report.projection_gaps.values()) <= 1e-8

        # Two marginals over B that disagree (half the mass, all of it on one
        # value): the projection runs out of sweeps and says how far apart
        # it ended instead of hiding it.
        other = AggregateQuery(("B",), {(2,): correlated_population.n_rows / 2})
        _, report = ParameterLearner().learn(
            graph, schema, biased_correlated_sample, AggregateSet([*marginals, other])
        )
        assert report.projection_sweeps["B"] == 50
        assert report.projection_gaps["B"] > 0.1
        assert report.projection_gaps["A"] == 0.0

    def test_rows_are_normalized(self, biased_correlated_sample, correlated_aggregates):
        graph = DirectedAcyclicGraph(
            biased_correlated_sample.schema.names, [("A", "B"), ("B", "C")]
        )
        network, _ = ParameterLearner(use_aggregates=True).learn(
            graph,
            biased_correlated_sample.schema,
            biased_correlated_sample,
            aggregates=correlated_aggregates,
            population_size=4000,
        )
        for node in network.nodes:
            assert network.cpt(node).is_normalized()

    def test_negative_smoothing_rejected(self):
        with pytest.raises(BayesNetError):
            ParameterLearner(smoothing=-1.0)


class TestLearningModes:
    def test_mode_letters_map_to_sources(self):
        assert LearningMode.BB.structure_source.value == "both"
        assert LearningMode.BB.parameter_source.value == "both"
        assert LearningMode.SS.structure_source.value == "sample"
        assert LearningMode.AB.structure_source.value == "aggregates"
        assert LearningMode.SB.parameter_source.value == "both"

    @pytest.mark.parametrize("mode", ["SS", "SB", "BS", "AB", "BB"])
    def test_all_modes_learn_a_network(
        self, mode, biased_correlated_sample, correlated_aggregates
    ):
        learner = ThemisBayesNetLearner.from_mode(mode)
        result = learner.learn(
            biased_correlated_sample, correlated_aggregates, population_size=4000
        )
        assert result.network.nodes == biased_correlated_sample.schema.names
        assert result.mode == LearningMode(mode)
        for node in result.network.nodes:
            assert result.network.cpt(node).is_normalized()

    def test_bb_beats_ss_on_biased_marginal(
        self, correlated_population, biased_correlated_sample, correlated_aggregates
    ):
        n = correlated_population.n_rows
        truth = np.array(
            [correlated_population.count({"A": value}) / n for value in (0, 1, 2)]
        )

        def marginal_error(mode):
            result = ThemisBayesNetLearner.from_mode(mode).learn(
                biased_correlated_sample, correlated_aggregates, population_size=n
            )
            return np.abs(ExactInference(result.network).marginal("A") - truth).max()

        assert marginal_error("BB") < marginal_error("SS")

    def test_empty_sample_rejected(self, correlated_population, correlated_aggregates):
        empty = Relation.empty(correlated_population.schema)
        with pytest.raises(BayesNetError):
            ThemisBayesNetLearner().learn(empty, correlated_aggregates)
