"""The selection-vector kernels == the boolean-indexing kernels they replaced.

``repro.plan.kernels`` resolves a filter mask once per call to the sorted
row ids it keeps and gathers every operand through ``take(rows)``.  The
kernels as they were — ``bins[mask]``, ``weights[mask]``, ``measure[mask]``
— live on in ``tests/oracle.py``; every answer must be ``==`` to theirs,
exact floats: the gather hands ``sum`` and ``bincount`` the same operands
in the same order.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    _part_group_bins_reference,
    partitioned_group_columns_reference,
    partitioned_grouped_weight_totals_reference,
    partitioned_scalar_reduce_reference,
)
from repro.plan import (
    ColumnarExecutor,
    RowPartition,
    numeric_column,
    partitioned_group_columns,
    partitioned_grouped_weight_totals,
    partitioned_scalar_reduce,
)
from repro.plan.kernels import _part_group_bins
from repro.schema import Attribute, Domain, Relation, Schema
from repro.serving.governance import MemoryGovernor
from worlds import build_correlated_population

SCHEMA = Schema(
    [
        Attribute("A", Domain([0, 1, 2])),
        Attribute("B", Domain([10, 20, 30, 45])),
        Attribute("C", Domain([0.5, 1.5])),
    ]
)
KEY_SETS = [("A",), ("B", "C"), ("C", "A", "B")]


def _relation(rows) -> Relation:
    a, b, c, weights = zip(*rows)
    return Relation(SCHEMA, {"A": a, "B": b, "C": c}, np.asarray(weights, dtype=float))


def _specs(relation: Relation):
    b, c = numeric_column(relation, "B"), numeric_column(relation, "C")
    return [("count", None), ("sum", b), ("avg", b), ("avg", c), ("sum", b)]


def assert_kernels_match(relation, masks, partition) -> None:
    specs = _specs(relation)
    for mask in masks:
        assert partitioned_scalar_reduce(
            relation, mask, specs, partition
        ) == partitioned_scalar_reduce_reference(relation, mask, specs, partition)
        for keys in KEY_SETS:
            totals, per_spec = partitioned_group_columns(
                relation, keys, mask, specs, partition
            )
            want_totals, want_per_spec = partitioned_group_columns_reference(
                relation, keys, mask, specs, partition
            )
            assert totals.shape == want_totals.shape
            assert totals.tolist() == want_totals.tolist()
            assert [v.tolist() for v in per_spec] == [v.tolist() for v in want_per_spec]
    for keys in KEY_SETS:
        assert partitioned_grouped_weight_totals(
            relation, keys, masks, partition
        ) == partitioned_grouped_weight_totals_reference(relation, keys, masks, partition)


_ROW = st.tuples(
    st.integers(0, 2),
    st.integers(0, 3),
    st.integers(0, 1),
    st.one_of(st.just(0.0), st.floats(0.0, 1e6, allow_nan=False)),
)


@st.composite
def _worlds(draw):
    """A weighted relation, a few masks over it, and a partition of its rows
    (``None``, one part, or several — empty parts included)."""
    rows = draw(st.lists(_ROW, min_size=1, max_size=40))
    n = len(rows)
    masks = draw(
        st.lists(
            st.one_of(
                st.none(),
                st.lists(st.booleans(), min_size=n, max_size=n).map(
                    lambda bits: np.asarray(bits, dtype=bool)
                ),
            ),
            min_size=1,
            max_size=3,
        )
    )
    cuts = draw(st.none() | st.lists(st.integers(0, n), max_size=4).map(sorted))
    partition = None
    if cuts is not None:
        partition = RowPartition.of_sizes(np.diff([0, *cuts, n]).tolist())
    return _relation(rows), masks, partition


@settings(max_examples=100, deadline=None)
@given(_worlds())
def test_selection_kernels_equal_boolean_indexing(world):
    assert_kernels_match(*world)


class TestNamedCases:
    """The corners the property may or may not draw, pinned."""

    # Three parts of four rows; group A=2 carries zero weight throughout.
    ROWS = [
        (0, 0, 0, 1.5), (1, 1, 1, 0.25), (2, 2, 0, 0.0), (0, 3, 1, 2.0),
        (1, 0, 0, 0.75), (2, 1, 1, 0.0), (0, 2, 0, 3.5), (1, 3, 1, 1.25),
        (2, 0, 0, 0.0), (0, 1, 1, 0.5), (1, 2, 0, 4.0), (2, 3, 1, 0.0),
    ]  # fmt: skip
    MASKS = {
        "none": None,
        "all-false": np.zeros(12, dtype=bool),
        "all-true": np.ones(12, dtype=bool),
        "empties-the-middle-part": np.array([1, 0, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1], dtype=bool),
        "zero-weight-group-only": np.array([0, 0, 1] * 4, dtype=bool),
    }
    PARTITIONS = {
        "unpartitioned": None,
        "one-part": RowPartition.of_sizes([12]),
        "three-parts": RowPartition.of_sizes([4, 4, 4]),
        "with-empty-parts": RowPartition.of_sizes([0, 4, 0, 8, 0]),
    }

    @pytest.mark.parametrize("partition", PARTITIONS.values(), ids=PARTITIONS.keys())
    @pytest.mark.parametrize("mask", MASKS.values(), ids=MASKS.keys())
    def test_matches_the_reference(self, mask, partition):
        assert_kernels_match(_relation(self.ROWS), [mask, None], partition)

    @pytest.mark.parametrize("partition", PARTITIONS.values(), ids=PARTITIONS.keys())
    @pytest.mark.parametrize("mask", MASKS.values(), ids=MASKS.keys())
    def test_part_bins_come_from_the_part_offsets(self, mask, partition):
        """The bins == the reference's ``part id * n_groups + group``
        gathered at the selected rows, from a partition without part ids;
        the memoized group codes stay as they were."""
        relation = _relation(self.ROWS)
        rows = None if mask is None else mask.nonzero()[0]
        offsets_only = None if partition is None else replace(partition, ids=None)
        for keys in KEY_SETS:
            group_index = relation.group_codes(keys)[0].copy()
            bins, shape = _part_group_bins(relation, keys, offsets_only, rows)
            want, want_shape = _part_group_bins_reference(relation, keys, partition)
            assert shape == want_shape
            assert bins.dtype == want.dtype
            assert bins.tolist() == (want if rows is None else want[rows]).tolist()
            assert np.array_equal(relation.group_codes(keys)[0], group_index)

    def test_avg_over_a_zero_weight_group_is_zero_not_nan(self):
        relation = _relation(self.ROWS)
        partition = self.PARTITIONS["three-parts"]
        avg_b = [("avg", numeric_column(relation, "B"))]
        mask = self.MASKS["zero-weight-group-only"]
        assert partitioned_scalar_reduce(relation, mask, avg_b, partition) == [[0.0] * 3]
        totals, (values,) = partitioned_group_columns(
            relation, ("A",), mask, avg_b, partition
        )
        assert totals.tolist() == [[0.0] * 3] * 3
        assert values.tolist() == [[0.0] * 3] * 3

    def test_a_part_the_mask_empties_answers_as_an_empty_part(self):
        relation = _relation(self.ROWS)
        mask = self.MASKS["empties-the-middle-part"]
        count = [("count", None)]
        (per_part,) = partitioned_scalar_reduce(
            relation, mask, count, self.PARTITIONS["three-parts"]
        )
        assert per_part == [3.5, 0.0, 4.5]
        (sides,) = partitioned_grouped_weight_totals(
            relation, ("A",), [mask], self.PARTITIONS["three-parts"]
        )
        assert sides[1] == {}
        assert sides[0] == {(0,): 3.5, (2,): 0.0}  # present zero-weight groups stay


def test_the_selection_vector_is_never_cached():
    """A filtered batch leaves the mask cache holding its predicate masks and
    nothing else: the second pass adds no byte."""
    relation = build_correlated_population()
    executor = ColumnarExecutor(relation)
    queries = [
        "SELECT COUNT(*) FROM t WHERE A = 0 AND C = 1",
        "SELECT AVG(B) FROM t WHERE A <= 1",
        "SELECT B, SUM(C) FROM t WHERE A = 0 AND C = 1 GROUP BY B",
        "SELECT A, COUNT(*) FROM t WHERE C = 1 GROUP BY A",
    ]
    first = executor.execute_batch(queries)
    cache = executor.mask_cache
    cache.lru.governor = MemoryGovernor(10**9)
    held = cache.lru.byte_size
    assert len(cache) == 3  # A = 0, C = 1, A <= 1
    assert held == 3 * (relation.n_rows + 96)  # one bool per row per mask
    assert executor.execute_batch(queries) == first
    assert cache.lru.byte_size == held
    assert len(cache) == 3
