"""``ForwardSampler.sample_codes`` == one ``Generator.choice`` per configuration.

The sampler draws one block of uniforms per node and matches each row's
draw against its configuration's CDF.  ``oracle.forward_sample_reference``
is the loop it replaced; the codes must be ``==`` and the generator must end
in the same state, so the next world (or anything else drawing from the
evaluator's generator) sees the same stream.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle import forward_sample_reference
from repro.bayesnet import (
    BayesianNetwork,
    ConditionalProbabilityTable,
    DirectedAcyclicGraph,
    ForwardSampler,
)
from repro.bayesnet.sampling import _count_at_or_below
from repro.schema import Attribute, Schema

NAMES = ("A", "B", "C", "D")

#: Roots only; a chain; a node with two parents beside a root; a diamond.
GRAPHS = (
    (),
    (("A", "B"), ("B", "C"), ("C", "D")),
    (("A", "C"), ("B", "C")),
    (("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")),
)


def build_network(sizes, edges, seed, zero_row=True, unreachable=True) -> BayesianNetwork:
    """Random CPTs over ``NAMES`` with sparse rows.

    With ``zero_row``, one row of every non-root CPT has no mass (the
    uniform fallback); with ``unreachable``, every root gives its last value
    probability zero, so the configurations holding it are never drawn.
    """
    rng = np.random.default_rng(seed)
    schema = Schema(Attribute(name, range(size)) for name, size in zip(NAMES, sizes))
    network = BayesianNetwork(schema, DirectedAcyclicGraph(NAMES, edges))
    for name in NAMES:
        parents = network.parents(name)
        parent_sizes = [schema[parent].size for parent in parents]
        n_configs = int(np.prod(parent_sizes)) if parents else 1
        table = rng.random((n_configs, schema[name].size))
        table[rng.random(table.shape) < 0.3] = 0.0
        table[table.sum(axis=1) == 0, 0] = 1.0
        if parents and zero_row:
            table[rng.integers(n_configs)] = 0.0
        if not parents and unreachable and table.shape[1] > 1:
            table[0, -1] = 0.0
            table[0, 0] += 1.0
        network.set_cpt(
            ConditionalProbabilityTable(
                name, parents, schema[name].size, parent_sizes, table=table
            )
        )
    return network


def assert_sampler_equals_reference(network, seed, n_rows):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = ForwardSampler(network, seed=rng).sample_codes(n_rows)
    want = forward_sample_reference(network, reference_rng, n_rows)
    assert set(got) == set(want)
    for name, codes in want.items():
        assert got[name].dtype == np.int64
        assert np.array_equal(got[name], codes), name
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.lists(
        st.integers(1, 6) | st.sampled_from([40, 257]), min_size=4, max_size=4
    ),
    edges=st.sampled_from(GRAPHS),
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.sampled_from([0, 1, 1000]) | st.integers(0, 60),
    zero_row=st.booleans(),
    unreachable=st.booleans(),
)
def test_sample_codes_equal_one_choice_per_configuration(
    sizes, edges, seed, n_rows, zero_row, unreachable
):
    # Wide children (more than numpy's 128-element summation block) stay in;
    # tables of millions of cells do not.
    assume(np.prod(sizes) <= 400_000)
    network = build_network(sizes, edges, seed, zero_row, unreachable)
    assert_sampler_equals_reference(network, seed, n_rows)


@pytest.mark.parametrize("n_rows", [0, 1, 1000])
@pytest.mark.parametrize("edges", GRAPHS[1:])
def test_fixed_networks_at_the_edge_sizes(edges, n_rows):
    """Roots, one and two parents, a zero-mass row and never-drawn
    configurations, at 0, 1 and 1,000 rows."""
    network = build_network((3, 4, 2, 5), edges, seed=11)
    assert_sampler_equals_reference(network, seed=5, n_rows=n_rows)


def test_zero_mass_row_samples_uniformly():
    """A configuration whose CPT row has no mass draws its child uniformly."""
    schema = Schema([Attribute("A", range(2)), Attribute("B", range(4))])
    network = BayesianNetwork(schema, DirectedAcyclicGraph(("A", "B"), [("A", "B")]))
    network.set_cpt(ConditionalProbabilityTable("A", (), 2, (), table=[[0.0, 1.0]]))
    network.set_cpt(
        ConditionalProbabilityTable(
            "B", ("A",), 4, (2,), table=[[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]
        )
    )
    codes = ForwardSampler(network, seed=3).sample_codes(4000)
    assert (codes["A"] == 1).all()
    counts = np.bincount(codes["B"], minlength=4) / 4000
    np.testing.assert_allclose(counts, 0.25, atol=0.03)
    assert_sampler_equals_reference(network, seed=3, n_rows=4000)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_count_at_or_below_is_searchsorted_right(data):
    """The per-row binary search == ``searchsorted(side="right")`` on the row,
    also for draws equal to a CDF entry and for runs of equal entries (the
    zero-probability children), where ``<`` and ``<=`` part ways."""
    size = data.draw(st.integers(1, 70))
    n_configs = data.draw(st.integers(1, 5))
    mass = data.draw(
        st.lists(
            st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(any),
            min_size=n_configs,
            max_size=n_configs,
        )
    )
    cdf = np.cumsum(np.array(mass, dtype=float), axis=1)
    cdf /= cdf[:, -1:]
    n_rows = data.draw(st.integers(0, 40))
    config = np.array(
        data.draw(st.lists(st.integers(0, n_configs - 1), min_size=n_rows, max_size=n_rows)),
        dtype=np.int64,
    )
    draws = np.array(
        [
            data.draw(st.sampled_from(cdf[c].tolist()) | st.floats(0.0, 1.0, exclude_max=True))
            for c in config
        ]
    )
    want = [np.searchsorted(cdf[c], u, side="right") for c, u in zip(config, draws)]
    assert _count_at_or_below(cdf, config, draws).tolist() == want
