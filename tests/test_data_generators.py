"""Tests for the synthetic dataset generators and biased samplers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregates import information_content_of_relation
from repro.data import (
    CHILD_CARDINALITIES,
    CHILD_EDGES,
    CORNER_STATES,
    biased_sample,
    child_network,
    generate_child_population,
    generate_flights_population,
    generate_imdb_population,
    load_child,
    load_flights,
    load_imdb,
    uniform_sample,
)
from repro.exceptions import ThemisError


class TestFlightsGenerator:
    @pytest.fixture(scope="class")
    def population(self):
        return generate_flights_population(n_rows=8000, seed=3)

    def test_schema_attributes(self, population):
        assert population.attribute_names == (
            "fl_date",
            "origin_state",
            "dest_state",
            "elapsed_time",
            "distance",
        )
        assert population.n_rows == 8000

    def test_deterministic_for_seed(self):
        first = generate_flights_population(n_rows=500, seed=9)
        second = generate_flights_population(n_rows=500, seed=9)
        assert list(first.iter_rows()) == list(second.iter_rows())

    def test_hub_states_dominate(self, population):
        counts = population.value_counts(["origin_state"])
        ca = counts.get(("CA",), 0)
        me = counts.get(("ME",), 0)
        assert ca > 5 * max(me, 1)

    def test_distance_elapsed_time_correlated(self, population):
        """The E-DT correlation the paper's LinReg analysis relies on."""
        assert information_content_of_relation(
            population, ["elapsed_time", "distance"]
        ) > 0.3

    def test_origin_dest_correlated(self, population):
        assert information_content_of_relation(
            population, ["origin_state", "dest_state"]
        ) > 0.05


class TestIMDBGenerator:
    @pytest.fixture(scope="class")
    def population(self):
        return generate_imdb_population(n_rows=6000, n_names=300, seed=5)

    def test_schema_attributes(self, population):
        assert "name" in population.attribute_names
        assert population.schema["name"].size == 300
        assert population.schema["movie_country"].size == 3

    def test_name_is_dense_attribute(self, population):
        distinct_names = len(population.distinct(["name"]))
        assert distinct_names > 100

    def test_gender_is_functionally_determined_by_name(self, population):
        """Each name maps to exactly one gender (actor identity)."""
        pairs = population.value_counts(["name", "gender"])
        names = {}
        for (name, gender), _ in pairs.items():
            names.setdefault(name, set()).add(gender)
        assert all(len(genders) == 1 for genders in names.values())

    def test_rating_correlates_with_rank(self, population):
        assert information_content_of_relation(
            population, ["rating", "top_250_rank"]
        ) > 0.02


class TestChildGenerator:
    def test_network_structure(self):
        network = child_network(seed=1)
        assert len(network.nodes) == 20
        assert set(network.graph.edges) == set(CHILD_EDGES)
        for node, cardinality in CHILD_CARDINALITIES.items():
            assert network.schema[node].size == cardinality

    def test_population_sampled_from_network(self):
        population, network = generate_child_population(n_rows=3000, seed=2)
        assert population.n_rows == 3000
        assert population.attribute_names == network.schema.names

    def test_cpts_normalized(self):
        network = child_network(seed=4)
        for node in network.nodes:
            assert network.cpt(node).is_normalized()


class TestSamplers:
    @pytest.fixture(scope="class")
    def population(self):
        return generate_flights_population(n_rows=6000, seed=13)

    def test_uniform_sample_size(self, population):
        sample = uniform_sample(population, 0.1, seed=0)
        assert sample.n_rows == 600

    def test_biased_sample_fraction_of_matching_rows(self, population):
        sample = biased_sample(
            population, {"origin_state": list(CORNER_STATES)}, 0.1, bias=0.9, seed=0
        )
        matching = sum(
            1 for row in sample.iter_rows() if row[1] in CORNER_STATES
        )
        assert matching / sample.n_rows == pytest.approx(0.9, abs=0.03)

    def test_fully_biased_sample_has_only_matching_rows(self, population):
        sample = biased_sample(
            population, {"origin_state": list(CORNER_STATES)}, 0.1, bias=1.0, seed=1
        )
        assert all(row[1] in CORNER_STATES for row in sample.iter_rows())

    def test_callable_selection(self, population):
        sample = biased_sample(
            population,
            lambda relation: relation.column("fl_date") == 5,
            0.05,
            bias=1.0,
            seed=2,
        )
        assert sample.n_rows > 0

    def test_invalid_fraction_rejected(self, population):
        with pytest.raises(ThemisError):
            uniform_sample(population, 0.0)
        with pytest.raises(ThemisError):
            biased_sample(population, {"fl_date": "01"}, 1.5)

    def test_invalid_bias_rejected(self, population):
        with pytest.raises(ThemisError):
            biased_sample(population, {"fl_date": "01"}, 0.1, bias=2.0)

    def test_empty_selection_rejected(self, population):
        with pytest.raises(ThemisError):
            biased_sample(population, {"origin_state": "ZZ"}, 0.1)


class TestRegistry:
    def test_load_flights_bundle(self):
        bundle = load_flights(n_rows=3000, seed=1)
        assert set(bundle.samples) == {"Unif", "June", "SCorners", "Corners"}
        assert bundle.population_size == 3000
        assert all(sample.n_rows == 300 for sample in bundle.samples.values())

    def test_load_imdb_bundle(self):
        bundle = load_imdb(n_rows=2000, seed=1)
        assert set(bundle.samples) == {"Unif", "GB", "SR159", "R159"}
        assert bundle.aggregate_attributes == (
            "movie_year",
            "movie_country",
            "gender",
            "rating",
            "runtime",
        )

    def test_load_imdb_n_names(self):
        # The name domain follows n_names (default 2,000, as the generator's),
        # and the population is the generator's own.
        bundle = load_imdb(n_rows=1500, n_names=40, seed=3)
        population = bundle.population
        assert len(population.schema["name"].domain.values) == 40
        expected = generate_imdb_population(n_rows=1500, n_names=40, seed=3)
        for attribute in population.schema:
            assert np.array_equal(
                population.column(attribute.name), expected.column(attribute.name)
            )
        default = load_imdb(n_rows=1500, seed=3).population
        assert len(default.schema["name"].domain.values) == 2000

    def test_load_child_bundle_has_true_network(self):
        bundle = load_child(n_rows=1500, seed=1)
        assert "true_network" in bundle.extra
        assert set(bundle.samples) == {"Unif"}

    def test_bundle_aggregates_and_pruning(self):
        bundle = load_flights(n_rows=3000, seed=2)
        aggregates = bundle.aggregates([("origin_state",), ("fl_date", "origin_state")])
        assert len(aggregates) == 2
        pruned = bundle.pruned_attribute_sets(2, 3)
        assert len(pruned) == 3
        assert all(len(attributes) == 2 for attributes in pruned)

    def test_unknown_sample_rejected(self):
        bundle = load_flights(n_rows=2000, seed=3)
        with pytest.raises(Exception):
            bundle.sample("nope")
