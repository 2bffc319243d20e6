"""The model build == the loops it replaced, bit for bit.

``fit()`` reweights over index lists (``IncidenceSystem.members``) and
fits constrained CPTs from array-built linear systems.  The versions it
replaced live on in ``oracle.py`` as the reference — IPF over boolean masks
cut from the dense matrix with ``np.isclose`` and a mat-vec violation, the
per-group-per-configuration constraint builder, dict-walking count tables,
row-at-a-time renormalization — and everything the fitted model is made of
must be ``==`` to them: weights, ``converged``, ``n_iterations``, every CPT
table.  (Only ``max_violation`` may differ in its last bits: a segment sum
is not a BLAS mat-vec.)
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    dense_incidence,
    family_counts_reference,
    ipf_reference,
    learn_parameters_reference,
    linear_constraints_reference,
)
from repro.aggregates import AggregateQuery, AggregateSet, IncidenceSystem
from repro.bayesnet import ConditionalProbabilityTable, DirectedAcyclicGraph, ParameterLearner
from repro.core import Themis, ThemisConfig
from repro.data import load_flights
from repro.experiments import build_aggregates
from repro.reweighting import IPFReweighter
from repro.schema import Attribute, Domain, Relation, Schema
from worlds import (
    build_biased_correlated_sample,
    build_correlated_aggregates,
    build_correlated_population,
)


def assert_ipf_equals_reference(sample, aggregates, result=None, **options):
    if result is None:
        result = IPFReweighter(**options).fit(sample, aggregates)
    weights, converged, n_iterations = ipf_reference(sample, aggregates, **options)
    assert np.array_equal(result.weights, weights)
    assert result.converged == converged
    assert result.n_iterations == n_iterations
    return result


def assert_cpts_equal_reference(network, sample, aggregates, smoothing=0.1):
    reference = learn_parameters_reference(
        network.graph, network.schema, sample, aggregates, smoothing=smoothing
    )
    assert set(reference) == set(network.nodes)
    for node, table in reference.items():
        assert np.array_equal(network.cpt(node).table, table), node


# ----------------------------------------------------------------------
# Flights: a supported and an unsupported sample, one aggregate and seven
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def flights():
    return load_flights(n_rows=8_000, seed=7, sample_fraction=0.1)


@pytest.mark.parametrize("sample_name", ["SCorners", "Corners"])
@pytest.mark.parametrize("n_aggregates", [1, 7])
def test_flights_fit_equals_reference(flights, sample_name, n_aggregates):
    aggregates = build_aggregates(flights, n_two_dimensional=2, seed=3)
    assert len(aggregates) == 7
    aggregates = AggregateSet(aggregates.aggregates[-n_aggregates:])
    sample = flights.sample(sample_name)
    themis = Themis(ThemisConfig(seed=3, ipf_max_iterations=30, n_generated_samples=1))
    themis.load_sample(sample)
    themis.add_aggregates(aggregates)
    model = themis.fit()

    assert_ipf_equals_reference(
        sample, aggregates, result=model.reweighting_result, max_iterations=30
    )
    assert model.bayes_net_result.parameter_report.constrained_nodes
    assert_cpts_equal_reference(
        model.bayes_net_result.network, sample, aggregates, themis.config.smoothing
    )


def test_correlated_world_fit_equals_reference():
    population = build_correlated_population()
    sample = build_biased_correlated_sample(population)
    aggregates = build_correlated_aggregates(population)
    # Sweeps stop rescaling a constraint once it is np.isclose (rtol 1e-5),
    # so the default 1e-6 violation is never reached here; 1e-4 is, mid-run.
    result = assert_ipf_equals_reference(sample, aggregates, tolerance=1e-4)
    assert result.converged and 1 < result.n_iterations < 100
    graph = DirectedAcyclicGraph(["A", "B", "C"], [("A", "B"), ("B", "C")])
    network, report = ParameterLearner().learn(graph, sample.schema, sample, aggregates)
    assert report.closed_form_nodes == ["A", "B", "C"]
    assert_cpts_equal_reference(network, sample, aggregates)


# ----------------------------------------------------------------------
# IPF's branches, each on a world built to take it
# ----------------------------------------------------------------------
EDGE_SCHEMA = Schema(
    [Attribute("A", Domain(["a0", "a1", "a2"])), Attribute("B", Domain(["b0", "b1"]))]
)


def edge_sample(rows):
    return Relation.from_rows(EDGE_SCHEMA, rows)


def test_group_with_target_zero():
    sample = edge_sample([("a0", "b0"), ("a1", "b0"), ("a1", "b1"), ("a2", "b1")])
    aggregates = AggregateSet(
        [
            AggregateQuery(("A",), {("a0",): 5.0, ("a1",): 0.0, ("a2",): 7.0}),
            AggregateQuery(("B",), {("b0",): 5.0, ("b1",): 7.0}),
        ]
    )
    result = assert_ipf_equals_reference(sample, aggregates)
    assert result.weights.tolist() == [5.0, 0.0, 0.0, 7.0]


def test_group_with_no_sample_tuple():
    sample = edge_sample([("a0", "b0"), ("a0", "b1"), ("a1", "b1")])
    aggregates = AggregateSet(
        [
            # a2 is in the domain but not in the sample; "zz" is in neither.
            AggregateQuery(("A",), {("a0",): 4.0, ("a1",): 2.0, ("a2",): 9.0, ("zz",): 1.0}),
            AggregateQuery(("A", "B"), {("a0", "b0"): 1.0, ("a2", "b0"): 9.0, ("a0", "zz"): 3.0}),
        ]
    )
    system = IncidenceSystem(sample, aggregates)
    assert system.empty_constraints().tolist() == [2, 3, 5, 6]
    assert_ipf_equals_reference(sample, aggregates)


def test_collapsed_group_is_reset():
    # A zeroes the two a1 rows; they are all of b1, which finds nothing to
    # scale and resets them to target / size — every sweep, so IPF never
    # converges and the weights after the last constraint show the reset.
    sample = edge_sample(
        [("a0", "b0")] * 3 + [("a1", "b1")] * 2 + [("a2", "b0")] * 2
    )
    aggregates = AggregateSet(
        [
            AggregateQuery(("A",), {("a0",): 4.0, ("a1",): 0.0, ("a2",): 6.0}),
            AggregateQuery(("B",), {("b0",): 7.0, ("b1",): 3.0}),
        ]
    )
    result = assert_ipf_equals_reference(sample, aggregates, max_iterations=7)
    assert not result.converged and result.n_iterations == 7
    assert result.weights[3:5].tolist() == [1.5, 1.5]


# ----------------------------------------------------------------------
# Iterative scaling's branches, each on a factor built to take it
# ----------------------------------------------------------------------
def test_scaling_bumps_a_massless_group_inside_a_multi_group_aggregate():
    # The full-family (A, B) aggregate has no b1, so B's closed form leaves
    # every b1 cell at zero; the (B,) aggregate's b1 group then has nothing
    # to scale (achieved 0 < target) and takes the 1e-6 bump, while its b0
    # and b2 groups are rescaled in the same aggregate step.
    schema = Schema(
        [Attribute("A", Domain(["a0", "a1"])), Attribute("B", Domain(["b0", "b1", "b2"]))]
    )
    sample = Relation.from_rows(
        schema, [("a0", "b0"), ("a0", "b1"), ("a1", "b2"), ("a1", "b0"), ("a0", "b2")]
    )
    aggregates = AggregateSet(
        [
            AggregateQuery(
                ("A", "B"),
                {("a0", "b0"): 30.0, ("a0", "b2"): 10.0, ("a1", "b0"): 20.0, ("a1", "b2"): 40.0},
            ),
            AggregateQuery(("B",), {("b0",): 50.0, ("b1",): 10.0, ("b2",): 40.0}),
        ]
    )
    graph = DirectedAcyclicGraph(["A", "B"], [("A", "B")])
    network, report = ParameterLearner().learn(graph, schema, sample, aggregates)
    assert report.closed_form_nodes == ["B"] and report.projection_sweeps["B"] > 1
    assert (network.cpt("B").table[:, 1] > 0).all()  # only the bump gives b1 mass
    assert_cpts_equal_reference(network, sample, aggregates)


def test_scaling_sweeps_two_partial_family_aggregates_on_one_family():
    # C has parents A and B and no aggregate over all three: (A, C), (B, C)
    # and (C,) each constrain part of the family, scaled one after another.
    population = build_correlated_population()
    sample = build_biased_correlated_sample(population)
    aggregates = AggregateSet(
        [
            AggregateQuery.from_relation(population, attributes)
            for attributes in (["A"], ["A", "C"], ["B", "C"], ["C"])
        ]
    )
    graph = DirectedAcyclicGraph(["A", "B", "C"], [("A", "C"), ("B", "C")])
    network, report = ParameterLearner().learn(graph, sample.schema, sample, aggregates)
    assert "C" in report.constrained_nodes and "C" not in report.closed_form_nodes
    assert report.projection_sweeps["C"] > 1
    assert_cpts_equal_reference(network, sample, aggregates)


# ----------------------------------------------------------------------
# The incidence system against the dense matrix it no longer stores
# ----------------------------------------------------------------------
def test_members_are_the_dense_rows(flights):
    sample = flights.sample("Corners")
    aggregates = build_aggregates(flights, n_two_dimensional=2, seed=3)
    system = IncidenceSystem(sample, aggregates)
    matrix, counts = dense_incidence(sample, aggregates)
    assert np.array_equal(system.matrix, matrix)
    assert np.array_equal(system.counts, counts)
    for members, row in zip(system.members, matrix):
        assert np.array_equal(members, np.nonzero(row)[0])
    weights = np.random.default_rng(0).random(sample.n_rows) * 40
    np.testing.assert_allclose(system.residuals(weights), matrix @ weights - counts, rtol=1e-12)


# ----------------------------------------------------------------------
# Small random worlds
# ----------------------------------------------------------------------
def random_world(seed: int, n_rows: int):
    """A 3-attribute schema, a sample, and 1-4 aggregates of a 60-row
    population — one of them with a zeroed group and a group outside the
    schema's domains."""
    rng = np.random.default_rng(seed)
    names = ("A", "B", "C")
    sizes = rng.integers(2, 5, size=3)
    schema = Schema(
        Attribute(name, Domain([f"{name.lower()}{code}" for code in range(size)]))
        for name, size in zip(names, sizes)
    )

    def relation(n):
        return Relation(schema, {name: rng.integers(0, size, n) for name, size in zip(names, sizes)})

    sample, population = relation(n_rows), relation(60)
    attribute_sets = [
        tuple(rng.permutation(names)[: rng.integers(1, 4)])
        for _ in range(rng.integers(1, 5))
    ]
    aggregates = [AggregateQuery.from_relation(population, attrs) for attrs in attribute_sets]
    groups = aggregates[0].groups()
    groups[next(iter(groups))] = 0.0
    groups[("??",) * aggregates[0].dimension] = 2.0
    aggregates[0] = AggregateQuery(aggregates[0].attributes, groups)
    return schema, sample, AggregateSet(aggregates)


GRAPHS = (
    (),
    (("A", "B"), ("B", "C")),
    (("A", "C"), ("B", "C")),
    (("C", "A"), ("C", "B"), ("A", "B")),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 40),
    edges=st.sampled_from(GRAPHS),
)
def test_random_worlds_fit_equals_reference(seed, n_rows, edges):
    schema, sample, aggregates = random_world(seed, n_rows)
    assert_ipf_equals_reference(sample, aggregates, max_iterations=12)

    graph = DirectedAcyclicGraph(schema.names, edges)
    network, _ = ParameterLearner().learn(graph, schema, sample, aggregates)
    assert_cpts_equal_reference(network, sample, aggregates)

    for node in schema.names:
        parents = network.parents(node)
        marginal = ParameterLearner._parent_marginal(network, parents)
        constraints = ParameterLearner._single_factor_constraints(node, parents, aggregates)
        got = ParameterLearner._linear_constraints(
            constraints, node, parents, schema, marginal, 60.0
        )
        want = linear_constraints_reference(constraints, node, parents, schema, marginal, 60.0)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        for aggregate in aggregates.covering([*parents, node]):
            assert np.array_equal(
                ConditionalProbabilityTable.counts_from_aggregate(
                    aggregate, schema, node, parents
                ),
                family_counts_reference(aggregate, schema, node, parents),
            )
