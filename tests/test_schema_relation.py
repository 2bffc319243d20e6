"""Tests for the encoded, weighted Relation substrate."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SchemaError, UnknownAttributeError
from repro.schema import Attribute, Domain, Relation, Schema

from oracle import group_codes_reference


@pytest.fixture
def small_schema() -> Schema:
    return Schema(
        [Attribute("color", ["red", "green", "blue"]), Attribute("size", [1, 2])]
    )


@pytest.fixture
def small_relation(small_schema) -> Relation:
    rows = [("red", 1), ("green", 2), ("red", 2), ("blue", 1), ("red", 1)]
    return Relation.from_rows(small_schema, rows)


class TestConstruction:
    def test_from_rows_roundtrip(self, small_relation):
        assert small_relation.n_rows == 5
        assert small_relation.row(0) == ("red", 1)
        assert list(small_relation.iter_rows())[3] == ("blue", 1)

    def test_from_dicts(self, small_schema):
        relation = Relation.from_dicts(
            small_schema, [{"color": "blue", "size": 2}, {"color": "red", "size": 1}]
        )
        assert relation.row(0) == ("blue", 2)

    def test_from_value_columns_infers_domains(self):
        relation = Relation.from_value_columns({"a": ["x", "y", "x"], "b": [3, 1, 2]})
        assert relation.n_rows == 3
        assert set(relation.schema["a"].domain.values) == {"x", "y"}

    def test_missing_column_rejected(self, small_schema):
        with pytest.raises(SchemaError):
            Relation(small_schema, {"color": np.zeros(2, dtype=np.int64)})

    def test_mismatched_lengths_rejected(self, small_schema):
        with pytest.raises(SchemaError):
            Relation(
                small_schema,
                {"color": np.zeros(2, dtype=np.int64), "size": np.zeros(3, dtype=np.int64)},
            )

    def test_out_of_range_codes_rejected(self, small_schema):
        with pytest.raises(SchemaError):
            Relation(
                small_schema,
                {"color": np.array([5]), "size": np.array([0])},
            )

    def test_wrong_row_width_rejected(self, small_schema):
        with pytest.raises(SchemaError):
            Relation.from_rows(small_schema, [("red",)])

    def test_empty_relation(self, small_schema):
        relation = Relation.empty(small_schema)
        assert relation.n_rows == 0
        assert relation.value_counts(["color"]) == {}


class TestWeights:
    def test_default_weights_are_ones(self, small_relation):
        assert not small_relation.has_weights
        assert small_relation.weights.tolist() == [1.0] * 5
        assert small_relation.total_weight() == 5.0

    def test_with_weights(self, small_relation):
        weighted = small_relation.with_weights([2, 2, 2, 2, 2])
        assert weighted.has_weights
        assert weighted.total_weight() == 10.0
        # Original relation is unchanged (immutability).
        assert not small_relation.has_weights

    def test_negative_weights_rejected(self, small_relation):
        with pytest.raises(SchemaError):
            small_relation.with_weights([-1, 1, 1, 1, 1])

    def test_wrong_weight_length_rejected(self, small_relation):
        with pytest.raises(SchemaError):
            small_relation.with_weights([1, 2])

    def test_without_weights(self, small_relation):
        weighted = small_relation.with_weights([3] * 5)
        assert not weighted.without_weights().has_weights


class TestFilteringAndProjection:
    def test_mask_equal(self, small_relation):
        mask = small_relation.mask_equal({"color": "red"})
        assert mask.tolist() == [True, False, True, False, True]

    def test_mask_equal_unknown_value_gives_empty(self, small_relation):
        mask = small_relation.mask_equal({"color": "purple"})
        assert not mask.any()

    def test_filter_equal(self, small_relation):
        filtered = small_relation.filter_equal({"color": "red", "size": 1})
        assert filtered.n_rows == 2

    def test_project(self, small_relation):
        projected = small_relation.project(["size"])
        assert projected.attribute_names == ("size",)
        assert projected.n_rows == 5

    def test_take_preserves_weights(self, small_relation):
        weighted = small_relation.with_weights([1, 2, 3, 4, 5])
        taken = weighted.take([1, 3])
        assert taken.weights.tolist() == [2.0, 4.0]

    def test_unknown_attribute_raises(self, small_relation):
        with pytest.raises(UnknownAttributeError):
            small_relation.column("missing")

    def test_concat(self, small_relation):
        combined = small_relation.concat(small_relation)
        assert combined.n_rows == 10

    def test_concat_schema_mismatch_rejected(self, small_relation):
        other = Relation.from_value_columns({"x": [1, 2]})
        with pytest.raises(SchemaError):
            small_relation.concat(other)


class TestAggregation:
    def test_value_counts_unweighted(self, small_relation):
        counts = small_relation.value_counts(["color"])
        assert counts == {("red",): 3.0, ("green",): 1.0, ("blue",): 1.0}

    def test_value_counts_weighted(self, small_relation):
        weighted = small_relation.with_weights([10, 1, 1, 1, 1])
        counts = weighted.value_counts(["color"], weighted=True)
        assert counts[("red",)] == 12.0

    def test_count_and_contains(self, small_relation):
        assert small_relation.count({"color": "red"}) == 3
        assert small_relation.contains({"color": "blue", "size": 1})
        assert not small_relation.contains({"color": "blue", "size": 2})

    def test_marginal_distribution_sums_to_one(self, small_relation):
        marginal = small_relation.marginal_distribution(["color"])
        assert pytest.approx(sum(marginal.values())) == 1.0

    def test_distinct(self, small_relation):
        assert small_relation.distinct(["size"]) == {(1,), (2,)}

    def test_group_codes_alignment(self, small_relation):
        group_index, unique_rows = small_relation.group_codes(["color", "size"])
        assert len(group_index) == small_relation.n_rows
        assert unique_rows.shape[1] == 2

    def test_group_tuples_decode_each_group_once(self, small_relation):
        keys = ("color", "size")
        _, unique_rows = small_relation.group_codes(keys)
        rows = np.arange(unique_rows.shape[0])
        decoded = small_relation.group_tuples(keys, rows)
        assert set(decoded) == small_relation.distinct(keys)
        assert decoded == [
            (
                small_relation.schema["color"].domain.decode(color),
                small_relation.schema["size"].domain.decode(size),
            )
            for color, size in unique_rows
        ]
        # Any subset, in any order, with repeats; memoized tuples are the
        # very objects handed out before.
        again = small_relation.group_tuples(keys, np.array([2, 0, 2]))
        assert again == [decoded[2], decoded[0], decoded[2]]
        assert again[0] is decoded[2]
        assert small_relation.group_tuples(keys, np.array([], dtype=np.int64)) == []
        # Reweighting builds a new relation that shares the memo.
        reweighted = small_relation.with_weights(np.ones(small_relation.n_rows))
        assert reweighted.group_tuples(keys, rows) == decoded
        assert reweighted.group_tuples(keys, rows)[0] is decoded[0]
        assert reweighted.group_codes(keys) is small_relation.group_codes(keys)


def _assert_group_codes_match_reference(relation: Relation, names) -> None:
    expected_index, expected_rows = group_codes_reference(relation, names)
    group_index, unique_rows = relation.group_codes(names)
    assert group_index.dtype == np.int64 and unique_rows.dtype == np.int64
    assert group_index.shape == expected_index.shape
    assert unique_rows.shape == expected_rows.shape
    assert (group_index == expected_index).all()
    assert (unique_rows == expected_rows).all()


def _sizes_of_bound(data, bound: int) -> list[int]:
    """1 to 4 domain sizes whose product is ``bound``, in a drawn order."""
    sizes, rest = [], bound
    for _ in range(data.draw(st.integers(0, 3))):
        divisors = [d for d in range(2, 13) if rest % d == 0]
        if not divisors:
            break
        sizes.append(data.draw(st.sampled_from(divisors)))
        rest //= sizes[-1]
    return data.draw(st.permutations([*sizes, rest]))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_packed_group_codes_equal_the_row_wise_reference(data):
    """Property: packed-key group codes ``==`` one row-wise ``np.unique``.

    Key spaces are drawn below the dense threshold (``4 * n_rows + 1024``),
    exactly at it and above it, split over 1 to 4 attributes in any order,
    plus small random domains grouped by any attribute prefix; ``n_rows``
    may be 0.  Below and at the threshold no sort runs; above it, one
    ``np.unique`` over the packed keys does."""
    n_rows = data.draw(st.integers(0, 60))
    threshold = 4 * n_rows + 1024
    mode = data.draw(st.sampled_from(["below", "at", "above", "small domains"]))
    if mode == "small domains":
        sizes = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    else:
        bound = {
            "below": threshold - data.draw(st.integers(1, threshold - 1)),
            "at": threshold,
            "above": threshold + data.draw(st.integers(1, 2000)),
        }[mode]
        sizes = _sizes_of_bound(data, bound)
    schema = Schema([Attribute(f"a{i}", range(size)) for i, size in enumerate(sizes)])
    # Rows repeat from a small pool, so groups hold several rows.
    pool = data.draw(
        st.lists(st.tuples(*(st.integers(0, size - 1) for size in sizes)), min_size=1, max_size=8)
    )
    rows = data.draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
    columns = np.array(rows, dtype=np.int64).reshape(n_rows, len(sizes)).T
    relation = Relation(schema, dict(zip(schema.names, columns)))
    names = data.draw(st.permutations(schema.names))
    if mode == "small domains":
        names = names[: data.draw(st.integers(1, len(names)))]
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        relation.group_codes(names)
    if mode != "small domains":
        assert unique.call_count == (mode == "above")
    _assert_group_codes_match_reference(relation, names)


def test_packed_group_codes_of_the_empty_relation(small_schema):
    _assert_group_codes_match_reference(Relation.empty(small_schema), ["size", "color"])


def test_packed_group_codes_re_rank_wide_key_sets():
    """12 attributes of 100 values: the key product, ``100**12``, is past
    ``2**62``, so the packed keys are re-ranked on the way and must still
    sort as rows.  Rows repeat, so groups hold several rows."""
    rng = np.random.default_rng(5)
    schema = Schema([Attribute(f"a{i}", range(100)) for i in range(12)])
    distinct = rng.integers(0, 100, size=(4000, 12))
    rows = distinct[rng.integers(0, 4000, size=5000)]
    relation = Relation(schema, dict(zip(schema.names, rows.T)))
    _assert_group_codes_match_reference(relation, schema.names)
    assert relation.group_codes(schema.names)[1].shape[0] < relation.n_rows


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.sampled_from(["red", "green", "blue"]), st.sampled_from([1, 2])),
        min_size=1,
        max_size=40,
    )
)
def test_value_counts_total_equals_rows(rows):
    """Property: unweighted counts always sum to the number of rows."""
    schema = Schema(
        [Attribute("color", ["red", "green", "blue"]), Attribute("size", [1, 2])]
    )
    relation = Relation.from_rows(schema, rows)
    counts = relation.value_counts(["color", "size"])
    assert sum(counts.values()) == len(rows)


@settings(max_examples=25, deadline=None)
@given(
    weights=st.lists(st.floats(0.0, 100.0), min_size=5, max_size=5),
)
def test_total_weight_matches_sum(weights):
    """Property: total_weight equals the sum of the attached weights."""
    schema = Schema(
        [Attribute("color", ["red", "green", "blue"]), Attribute("size", [1, 2])]
    )
    rows = [("red", 1), ("green", 2), ("red", 2), ("blue", 1), ("red", 1)]
    relation = Relation.from_rows(schema, rows).with_weights(weights)
    assert relation.total_weight() == pytest.approx(sum(weights))
