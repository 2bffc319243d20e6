"""Tests for the sample reweighting techniques (Sec. 4.1)."""

from __future__ import annotations

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import ipf_reference
from repro.aggregates import AggregateQuery, AggregateSet, IncidenceSystem
from repro.data import load_flights
from repro.exceptions import ReweightingError
from repro.experiments import build_aggregates
from repro.reweighting import (
    HorvitzThompsonReweighter,
    IPFReweighter,
    LinearRegressionReweighter,
    UniformReweighter,
)
from repro.schema import Attribute, Domain, Relation, Schema


class TestUniformReweighter:
    def test_weights_are_population_over_sample(self, paper_sample, paper_aggregates):
        result = UniformReweighter().fit(paper_sample, paper_aggregates)
        assert np.allclose(result.weights, 10.0 / 4.0)
        assert result.converged

    def test_explicit_population_size(self, paper_sample):
        result = UniformReweighter(population_size=100).fit(paper_sample, AggregateSet())
        assert np.allclose(result.weights, 25.0)

    def test_missing_population_size_rejected(self, paper_sample):
        with pytest.raises(ReweightingError):
            UniformReweighter().fit(paper_sample, AggregateSet())

    def test_empty_sample_rejected(self, paper_schema, paper_aggregates):
        empty = Relation.empty(paper_schema)
        with pytest.raises(ReweightingError):
            UniformReweighter().fit(empty, paper_aggregates)

    def test_apply_attaches_weights(self, paper_sample, paper_aggregates):
        weighted = UniformReweighter().reweight(paper_sample, paper_aggregates)
        assert weighted.has_weights
        assert weighted.total_weight() == pytest.approx(10.0)


class TestHorvitzThompson:
    def test_inverse_probability_weights(self, paper_sample, paper_aggregates):
        probabilities = [0.5, 0.5, 0.25, 0.1]
        result = HorvitzThompsonReweighter(probabilities).fit(
            paper_sample, paper_aggregates
        )
        assert np.allclose(result.weights, [2.0, 2.0, 4.0, 10.0])

    def test_normalization(self, paper_sample, paper_aggregates):
        result = HorvitzThompsonReweighter([0.5] * 4, normalize_to=10.0).fit(
            paper_sample, paper_aggregates
        )
        assert result.total_weight == pytest.approx(10.0)

    def test_mapping_probabilities(self, paper_sample, paper_aggregates):
        probabilities = {row: 0.4 for row in paper_sample.iter_rows()}
        result = HorvitzThompsonReweighter(probabilities).fit(
            paper_sample, paper_aggregates
        )
        assert np.allclose(result.weights, 2.5)

    def test_callable_probabilities(self, paper_sample, paper_aggregates):
        result = HorvitzThompsonReweighter(lambda row: 0.2).fit(
            paper_sample, paper_aggregates
        )
        assert np.allclose(result.weights, 5.0)

    def test_invalid_probability_rejected(self, paper_sample, paper_aggregates):
        with pytest.raises(ReweightingError):
            HorvitzThompsonReweighter([0.0, 0.5, 0.5, 0.5]).fit(
                paper_sample, paper_aggregates
            )

    def test_wrong_length_rejected(self, paper_sample, paper_aggregates):
        with pytest.raises(ReweightingError):
            HorvitzThompsonReweighter([0.5, 0.5]).fit(paper_sample, paper_aggregates)


class TestLinearRegression:
    def test_weights_sum_to_population_size(self, paper_sample, paper_aggregates):
        result = LinearRegressionReweighter().fit(paper_sample, paper_aggregates)
        assert result.total_weight == pytest.approx(10.0)

    def test_weights_strictly_positive(self, paper_sample, paper_aggregates):
        result = LinearRegressionReweighter().fit(paper_sample, paper_aggregates)
        assert np.all(result.weights > 0)

    def test_requires_aggregates(self, paper_sample):
        with pytest.raises(ReweightingError):
            LinearRegressionReweighter(population_size=10).fit(
                paper_sample, AggregateSet()
            )

    def test_dropped_constraints_recorded(self, paper_sample, paper_aggregates):
        result = LinearRegressionReweighter().fit(paper_sample, paper_aggregates)
        # Four (o_st, d_st) groups are missing from the sample.
        assert result.diagnostics["dropped_constraints"] == 4

    def test_uniform_recovery_on_unbiased_data(self, correlated_population):
        """On the full population with exact aggregates, weights are ~1."""
        aggregates = AggregateSet(
            [AggregateQuery.from_relation(correlated_population, ["A"])]
        )
        result = LinearRegressionReweighter().fit(correlated_population, aggregates)
        assert result.total_weight == pytest.approx(correlated_population.n_rows)
        assert result.weights.std() < 0.5

    def test_corrects_known_bias(self, correlated_population, biased_correlated_sample,
                                 correlated_aggregates):
        """Weighted marginal of the biased attribute approaches the truth."""
        result = LinearRegressionReweighter().fit(
            biased_correlated_sample, correlated_aggregates
        )
        weighted = result.apply(biased_correlated_sample)
        estimated = weighted.value_counts(["A"], weighted=True)
        truth = correlated_population.value_counts(["A"])
        for key, true_count in truth.items():
            assert estimated.get(key, 0.0) == pytest.approx(true_count, rel=0.35)


class TestIPF:
    def test_paper_example_first_iteration(self, paper_sample, paper_aggregates):
        """After one sweep the weights match Example 4.2's last column."""
        result = IPFReweighter(max_iterations=1).fit(paper_sample, paper_aggregates)
        assert np.allclose(result.weights, [1.0, 1.0, 3.0, 1.0])
        assert not result.converged

    def test_non_convergence_reported_for_missing_support(
        self, paper_sample, paper_aggregates
    ):
        result = IPFReweighter(max_iterations=20).fit(paper_sample, paper_aggregates)
        assert not result.converged
        assert result.max_violation > 0

    def test_convergence_on_consistent_system(self, correlated_population):
        aggregates = AggregateSet(
            [
                AggregateQuery.from_relation(correlated_population, ["A"]),
                AggregateQuery.from_relation(correlated_population, ["B"]),
            ]
        )
        result = IPFReweighter(max_iterations=50).fit(correlated_population, aggregates)
        assert result.converged
        assert result.max_violation < 1e-5

    def test_fit_stays_sparse_on_a_large_sample(self, monkeypatch):
        """30,000 rows x 287 groups: the dense ``G`` alone would be 69 MB."""
        bundle = load_flights(n_rows=100_000, seed=7, sample_fraction=0.3)
        sample = bundle.sample("SCorners")
        aggregates = build_aggregates(bundle, n_two_dimensional=2, seed=11)
        assert sample.n_rows == 30_000 and len(aggregates) == 7

        def no_matrix(self):
            raise AssertionError("IPF materialized the dense incidence matrix")

        monkeypatch.setattr(IncidenceSystem, "matrix", property(no_matrix))
        tracemalloc.start()
        try:
            IPFReweighter(max_iterations=30).fit(sample, aggregates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_constraints_satisfied_after_fit(
        self, correlated_population, biased_correlated_sample, correlated_aggregates
    ):
        result = IPFReweighter(max_iterations=100).fit(
            biased_correlated_sample, correlated_aggregates
        )
        system = IncidenceSystem(biased_correlated_sample, correlated_aggregates)
        assert system.max_relative_violation(result.weights) < 0.05

    def test_supported_totals_drop_a_missing_group(
        self, correlated_population, biased_correlated_sample, correlated_aggregates
    ):
        """A population group the sample lacks leaves its aggregate's
        supported total short by exactly that group's count."""
        totals = [aggregate.total for aggregate in correlated_aggregates]
        full = IncidenceSystem(biased_correlated_sample, correlated_aggregates)
        assert full.supported_totals()[0] == totals[0]  # every A group is in the sample
        kept = biased_correlated_sample.filter_mask(
            biased_correlated_sample.column("A") != 2
        )
        supported = IncidenceSystem(kept, correlated_aggregates).supported_totals()
        assert supported[0] == totals[0] - correlated_population.count({"A": 2})
        result = IPFReweighter(max_iterations=5).fit(kept, correlated_aggregates)
        assert result.diagnostics["supported_totals"] == supported.tolist()
        assert result.diagnostics["unsupported_mass"] == max(
            total - value for total, value in zip(totals, supported.tolist())
        )

    def test_corrects_known_bias_better_than_uniform(
        self, correlated_population, biased_correlated_sample, correlated_aggregates
    ):
        ipf = IPFReweighter(max_iterations=100).reweight(
            biased_correlated_sample, correlated_aggregates
        )
        uniform = UniformReweighter().reweight(
            biased_correlated_sample, correlated_aggregates
        )
        truth = correlated_population.value_counts(["A", "B"])

        def total_error(weighted):
            estimated = weighted.value_counts(["A", "B"], weighted=True)
            return sum(
                abs(estimated.get(key, 0.0) - value) for key, value in truth.items()
            )

        assert total_error(ipf) < total_error(uniform)

    def test_normalize_population_size(self, paper_sample, paper_aggregates):
        result = IPFReweighter(
            max_iterations=5, normalize_population_size=True
        ).fit(paper_sample, paper_aggregates)
        assert result.total_weight == pytest.approx(10.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ReweightingError):
            IPFReweighter(max_iterations=0)
        with pytest.raises(ReweightingError):
            IPFReweighter(tolerance=-1.0)
        with pytest.raises(ReweightingError):
            IPFReweighter(initial_weight=0.0)

    def test_requires_aggregates(self, paper_sample):
        with pytest.raises(ReweightingError):
            IPFReweighter().fit(paper_sample, AggregateSet())


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_ipf_weights_always_non_negative(seed):
    """Property: IPF never produces negative weights on random data."""
    rng = np.random.default_rng(seed)
    schema = Schema([Attribute("a", [0, 1, 2]), Attribute("b", [0, 1])])
    population = Relation(
        schema,
        {
            "a": rng.integers(0, 3, size=200),
            "b": rng.integers(0, 2, size=200),
        },
    )
    sample = population.take(rng.choice(200, size=40, replace=False))
    aggregates = AggregateSet(
        [
            AggregateQuery.from_relation(population, ["a"]),
            AggregateQuery.from_relation(population, ["b"]),
        ]
    )
    result = IPFReweighter(max_iterations=30).fit(sample, aggregates)
    assert np.all(result.weights >= 0)


def test_a_cell_whose_ratio_overflows_is_reset_like_a_collapsed_one():
    """A subnormal target rakes its cell's weights down to ~5e-311; the next
    aggregate's ratio over those rows, 12.5 / 1e-310, overflows.  The cell
    is reset evenly instead of its weights turning ``inf`` (and ``nan`` on
    the next sweep, ``inf * 0``)."""
    schema = Schema([Attribute("A", Domain(["a0", "a1"])), Attribute("B", Domain(["b0", "b1"]))])
    codes = np.asarray([0, 0, 1], dtype=np.int64)
    sample = Relation(schema, {"A": codes, "B": codes.copy()})
    aggregates = AggregateSet(
        [
            AggregateQuery(("A",), {("a0",): 1e-310, ("a1",): 1.0}),
            AggregateQuery(("B",), {("b0",): 12.5, ("b1",): 1.0}),
        ]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        first = IPFReweighter(max_iterations=1).fit(sample, aggregates)
        result = IPFReweighter(max_iterations=5).fit(sample, aggregates)
    assert first.weights.tolist() == [6.25, 6.25, 1.0]
    assert np.isfinite(result.weights).all()
    weights, converged, n_iterations = ipf_reference(sample, aggregates, max_iterations=5)
    assert result.weights.tolist() == weights.tolist()
    assert (result.converged, result.n_iterations) == (converged, n_iterations)


RAKING_ATTRIBUTES = ("A", "B", "C")


@st.composite
def raking_worlds(draw):
    """A small random sample and 1-3 aggregates over it.

    Groups are drawn from every domain value plus ``"??"``, a value outside
    the schema (code ``-1``), so a world holds groups the sample lacks and
    groups no sample can hold; targets include zero, which collapses the
    groups another aggregate shares tuples with (the reset branch).
    """
    sizes = [draw(st.integers(1, 4)) for _ in RAKING_ATTRIBUTES]
    schema = Schema(
        Attribute(name, Domain([f"{name.lower()}{code}" for code in range(size)]))
        for name, size in zip(RAKING_ATTRIBUTES, sizes)
    )
    n_rows = draw(st.integers(1, 30))
    sample = Relation(
        schema,
        {
            name: np.asarray(
                draw(st.lists(st.integers(0, size - 1), min_size=n_rows, max_size=n_rows)),
                dtype=np.int64,
            )
            for name, size in zip(RAKING_ATTRIBUTES, sizes)
        },
    )
    aggregates = []
    for _ in range(draw(st.integers(1, 3))):
        order = draw(st.permutations(RAKING_ATTRIBUTES))
        attributes = tuple(order[: draw(st.integers(1, 3))])
        groups = list(
            itertools.product(*[[*schema[name].domain.values, "??"] for name in attributes])
        )
        chosen = draw(st.lists(st.sampled_from(groups), min_size=1, max_size=12, unique=True))
        counts = draw(
            st.lists(
                st.sampled_from([0.0, 1.0, 3.0, 12.5]) | st.floats(0.0, 100.0),
                min_size=len(chosen),
                max_size=len(chosen),
            )
        )
        aggregates.append(AggregateQuery(attributes, dict(zip(chosen, counts))))
    return sample, AggregateSet(aggregates)


@settings(max_examples=120, deadline=None)
@given(
    world=raking_worlds(),
    max_iterations=st.integers(1, 12),
    tolerance=st.sampled_from([0.0, 1e-6, 1e-3]),
)
def test_raking_one_aggregate_per_step_equals_the_cell_by_cell_reference(
    world, max_iterations, tolerance
):
    """IPF rakes each aggregate in one numpy step; Alg. 1 (``ipf_reference``)
    rescales one group at a time.  The step is only sound because an
    aggregate's occupied groups hold disjoint tuples: that is asserted
    first, then the two are ``==``."""
    sample, aggregates = world
    system = IncidenceSystem(sample, aggregates)
    aggregate_of = np.asarray([row.aggregate_index for row in system.rows])
    for index in range(len(aggregates)):
        rows = np.concatenate(
            [system.members[constraint] for constraint in np.flatnonzero(aggregate_of == index)]
        )
        assert np.unique(rows).size == rows.size
    result = IPFReweighter(max_iterations=max_iterations, tolerance=tolerance).fit(
        sample, aggregates
    )
    weights, converged, n_iterations = ipf_reference(
        sample, aggregates, max_iterations=max_iterations, tolerance=tolerance
    )
    assert result.weights.tolist() == weights.tolist()
    assert (result.converged, result.n_iterations) == (converged, n_iterations)
    assert result.max_violation == system.max_relative_violation(result.weights)


@pytest.mark.xfail(strict=True, reason="ROADMAP 7(b)")
@pytest.mark.parametrize("sample_name", ["SCorners", "Corners"])
def test_ipf_weights_do_not_depend_on_aggregate_order(sample_name):
    """The aggregates disagree about their total over the sample's support,
    so no weighting meets them all and the one IPF visits last wins: at
    ROADMAP time reversing the seven aggregates moves the total weight from
    3,625 to 4,000 on SCorners and from 2,989 to 4,000 on Corners."""
    bundle = load_flights(n_rows=4000, seed=7, sample_fraction=0.1)
    aggregates = build_aggregates(bundle, n_two_dimensional=2, seed=0)
    sample = bundle.sample(sample_name)
    forward = IPFReweighter(max_iterations=30).fit(sample, aggregates)
    backward = IPFReweighter(max_iterations=30).fit(
        sample, AggregateSet(reversed(list(aggregates)))
    )
    assert np.allclose(forward.weights, backward.weights)
