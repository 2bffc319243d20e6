"""Tests for aggregate queries, aggregate sets, and the incidence system."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import (
    AggregateQuery,
    AggregateSet,
    IncidenceSystem,
    aggregates_from_population,
    build_incidence,
)
from repro.exceptions import AggregateError
from repro.schema import Attribute, Domain, Relation, Schema


class TestAggregateQuery:
    def test_paper_example_gamma1(self, paper_population):
        gamma1 = AggregateQuery.from_relation(paper_population, ["date"])
        assert gamma1.groups() == {("01",): 5.0, ("02",): 5.0}
        assert gamma1.dimension == 1
        assert gamma1.total == 10.0

    def test_paper_example_gamma2(self, paper_population):
        gamma2 = AggregateQuery.from_relation(paper_population, ["o_st", "d_st"])
        assert gamma2.n_groups == 7
        assert gamma2.count_for(("NC", "NY")) == 3.0
        assert gamma2.count_for(("FL", "NC")) == 0.0

    def test_from_pairs(self):
        aggregate = AggregateQuery.from_pairs(["x"], [(["a"], 3), (["b"], 7)])
        assert aggregate.count_for(("a",)) == 3.0

    def test_negative_count_rejected(self):
        with pytest.raises(AggregateError):
            AggregateQuery(("x",), {("a",): -1.0})

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(AggregateError):
            AggregateQuery(("x", "x"), {("a", "b"): 1.0})

    def test_wrong_key_width_rejected(self):
        with pytest.raises(AggregateError):
            AggregateQuery(("x", "y"), {("a",): 1.0})

    def test_probabilities_sum_to_one(self, paper_population):
        gamma2 = AggregateQuery.from_relation(paper_population, ["o_st", "d_st"])
        assert pytest.approx(sum(gamma2.probabilities().values())) == 1.0

    def test_marginalize_preserves_total(self, paper_population):
        gamma2 = AggregateQuery.from_relation(paper_population, ["o_st", "d_st"])
        marginal = gamma2.marginalize(["o_st"])
        assert marginal.total == gamma2.total
        assert marginal.count_for(("NC",)) == 4.0

    def test_marginalize_invalid_attribute(self, paper_population):
        gamma1 = AggregateQuery.from_relation(paper_population, ["date"])
        with pytest.raises(AggregateError):
            gamma1.marginalize(["o_st"])

    def test_covers(self, paper_population):
        gamma2 = AggregateQuery.from_relation(paper_population, ["o_st", "d_st"])
        assert gamma2.covers(["o_st"])
        assert not gamma2.covers(["date"])

    def test_perturbed_counts_stay_non_negative(self, paper_population):
        gamma1 = AggregateQuery.from_relation(paper_population, ["date"])
        noisy = gamma1.perturbed(5.0, np.random.default_rng(0))
        assert all(count >= 0 for count in noisy.counts())

    def test_counts_and_value_vectors_aligned(self, paper_population):
        gamma2 = AggregateQuery.from_relation(paper_population, ["o_st", "d_st"])
        vectors = gamma2.value_vectors()
        counts = gamma2.counts()
        assert len(vectors) == len(counts)
        assert gamma2.count_for(vectors[0]) == counts[0]


class TestAggregateSet:
    def test_covered_attributes(self, paper_aggregates):
        assert paper_aggregates.covered_attributes() == {"date", "o_st", "d_st"}

    def test_n_constraints(self, paper_aggregates):
        assert paper_aggregates.n_constraints() == 2 + 7

    def test_population_size(self, paper_aggregates):
        assert paper_aggregates.population_size() == 10.0

    def test_of_dimension(self, paper_aggregates):
        assert len(paper_aggregates.of_dimension(1)) == 1
        assert len(paper_aggregates.of_dimension(2)) == 1

    def test_best_covering_prefers_lower_dimension(self, paper_population):
        aggregates = AggregateSet(
            [
                AggregateQuery.from_relation(paper_population, ["o_st"]),
                AggregateQuery.from_relation(paper_population, ["o_st", "d_st"]),
            ]
        )
        best = aggregates.best_covering(["o_st"])
        assert best.dimension == 1

    def test_exact(self, paper_aggregates):
        assert paper_aggregates.exact(["d_st", "o_st"]) is not None
        assert paper_aggregates.exact(["date", "o_st"]) is None

    def test_restrict(self, paper_aggregates):
        restricted = paper_aggregates.restrict([("o_st", "d_st")])
        assert len(restricted) == 1

    def test_union(self, paper_aggregates):
        combined = paper_aggregates.union(paper_aggregates)
        assert len(combined) == 4

    def test_add_rejects_non_aggregate(self):
        with pytest.raises(AggregateError):
            AggregateSet().add("not an aggregate")

    def test_aggregates_from_population(self, paper_population):
        aggregates = aggregates_from_population(
            paper_population, [("date",), ("o_st",)]
        )
        assert len(aggregates) == 2


class TestIncidenceSystem:
    def test_paper_example_shape(self, paper_sample, paper_aggregates):
        system = IncidenceSystem(paper_sample, paper_aggregates)
        assert system.matrix.shape == (9, 4)
        assert system.counts.tolist() == [5, 5, 2, 1, 1, 3, 1, 1, 1]

    def test_paper_example_first_row(self, paper_sample, paper_aggregates):
        """Row for date=01 marks sample tuples 1, 2, and 4 (Example 4.1)."""
        system = IncidenceSystem(paper_sample, paper_aggregates)
        assert system.matrix[0].tolist() == [1.0, 1.0, 0.0, 1.0]

    def test_empty_constraints_detected(self, paper_sample, paper_aggregates):
        system = IncidenceSystem(paper_sample, paper_aggregates)
        # Sample has no FL->NY, NC->FL, NY->FL, NY->NY flights.
        assert len(system.empty_constraints()) == 4

    def test_residuals_zero_for_exact_weights(self, paper_population, paper_aggregates):
        """Weights of one on the full population satisfy its own aggregates."""
        system = IncidenceSystem(paper_population, paper_aggregates)
        residuals = system.residuals(np.ones(paper_population.n_rows))
        assert np.allclose(residuals, 0.0)

    def test_max_relative_violation_ignores_empty_constraints(
        self, paper_sample, paper_aggregates
    ):
        system = IncidenceSystem(paper_sample, paper_aggregates)
        violation = system.max_relative_violation(np.ones(4) * 2.5)
        assert np.isfinite(violation)

    def test_wrong_weight_shape_rejected(self, paper_sample, paper_aggregates):
        system = IncidenceSystem(paper_sample, paper_aggregates)
        with pytest.raises(AggregateError):
            system.residuals(np.ones(3))

    def test_build_incidence_accepts_single_aggregate(
        self, paper_sample, paper_population
    ):
        aggregate = AggregateQuery.from_relation(paper_population, ["date"])
        system = build_incidence(paper_sample, aggregate)
        assert system.n_constraints == 2

    def test_unknown_attribute_rejected(self, paper_sample):
        bad = AggregateQuery(("unknown",), {("x",): 1.0})
        with pytest.raises(AggregateError):
            IncidenceSystem(paper_sample, AggregateSet([bad]))

    def test_no_aggregates_rejected(self, paper_sample):
        with pytest.raises(AggregateError):
            IncidenceSystem(paper_sample, AggregateSet())


#: Segment lengths around numpy's pairwise-summation boundaries: a plain
#: loop below 8 elements, eight accumulators and a remainder loop up to 128,
#: halves beyond that; plus one long segment.
SEGMENT_LENGTHS = [*range(1, 10), 127, 128, 129, 8191, 8192, 8193, 20_000]


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e6])
def test_negative_zero_prefixed_reduceat_is_the_segment_sum_bit_for_bit(scale):
    """The primitive the raking step stands on (``AggregateCells``).

    ``np.add.reduceat`` sums a segment as its first element plus the
    pairwise sum of the rest, ``w[rows].sum()`` pairwise over all of it;
    with a ``-0.0`` in front of every segment (``-0.0 + x == x``) the two
    agree in every bit.  If a numpy release changes either rule, this test
    fails first.
    """
    rng = np.random.default_rng(len(SEGMENT_LENGTHS))
    n_rows = 2 * max(SEGMENT_LENGTHS)
    weights = rng.random(n_rows) * scale + rng.random(n_rows) ** 9
    padded = np.append(weights, -0.0)
    segments = [rng.choice(n_rows, size, replace=False) for size in SEGMENT_LENGTHS]
    sizes = np.asarray(SEGMENT_LENGTHS)
    offsets = np.cumsum(sizes) - sizes
    gather = np.insert(np.concatenate(segments), offsets, n_rows)
    sums = np.add.reduceat(padded[gather], offsets + np.arange(len(sizes)))
    expected = np.asarray([weights[rows].sum() for rows in segments])
    assert sums.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def test_achieved_is_each_groups_member_sum_bit_for_bit():
    """``G w`` is ``weights[members].sum()`` per group, in every bit, so
    IPF's convergence test at ``tolerance=0.0`` reads the sums Alg. 1
    takes (``tests/oracle.py::ipf_reference``); an empty group reads 0."""
    sizes = [1, 5, 9, 127, 129, 8193]
    schema = Schema([Attribute("A", Domain([f"a{code}" for code in range(len(sizes) + 1)]))])
    rng = np.random.default_rng(7)
    codes = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    sample = Relation(schema, {"A": codes})
    system = IncidenceSystem(
        sample,
        AggregateSet(
            [AggregateQuery(("A",), {(value,): 1.0 for value in schema["A"].domain.values})]
        ),
    )
    weights = rng.random(sample.n_rows) * 1e3 + rng.random(sample.n_rows) ** 9
    expected = np.asarray([weights[rows].sum() for rows in system.members])
    assert [len(rows) for rows in system.members] == [*sizes, 0]
    achieved = system.achieved(weights)
    assert achieved.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


@settings(max_examples=20, deadline=None)
@given(
    counts=st.lists(st.integers(0, 50), min_size=2, max_size=6),
)
def test_marginalization_total_invariant(counts):
    """Property: marginalizing an aggregate never changes its total count."""
    values = [("v%d" % i, "w%d" % (i % 2)) for i in range(len(counts))]
    aggregate = AggregateQuery(("a", "b"), dict(zip(values, map(float, counts))))
    assert aggregate.marginalize(["b"]).total == pytest.approx(aggregate.total)
