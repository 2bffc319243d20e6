"""Tests for weighted query execution over one relation (``ColumnarExecutor``)."""

from __future__ import annotations

import pytest

from repro.exceptions import QueryError
from repro.plan import ColumnarExecutor
from repro.query import (
    AggregateFunction,
    AggregateSpec,
    Comparison,
    GroupByQuery,
    JoinGroupByQuery,
    PointQuery,
    Predicate,
    ScalarAggregateQuery,
)
from repro.schema import Attribute, Domain, Relation, Schema


@pytest.fixture
def schema() -> Schema:
    return Schema(
        [
            Attribute("origin", ["CA", "NY", "WA"]),
            Attribute("dest", ["CA", "NY", "WA"]),
            Attribute("minutes", [30, 60, 120]),
        ]
    )


@pytest.fixture
def flights(schema) -> Relation:
    rows = [
        ("CA", "NY", 120),
        ("CA", "WA", 60),
        ("CA", "CA", 30),
        ("NY", "CA", 120),
        ("NY", "NY", 30),
        ("WA", "CA", 60),
    ]
    return Relation.from_rows(schema, rows, weights=[2, 2, 1, 1, 3, 1])


class TestPointQueries:
    def test_point_sums_weights(self, flights):
        executor = ColumnarExecutor(flights)
        assert executor.execute(PointQuery({"origin": "CA"})) == 5.0
        assert executor.execute(PointQuery({"origin": "CA", "dest": "NY"})) == 2.0

    def test_point_missing_tuple_is_zero(self, flights):
        assert ColumnarExecutor(flights).execute(PointQuery({"origin": "WA", "dest": "NY"})) == 0.0

    def test_point_requires_assignment(self, flights):
        with pytest.raises(QueryError):
            ColumnarExecutor(flights).execute(PointQuery({}))

    def test_point_over_another_attribute(self, flights):
        assert ColumnarExecutor(flights).execute(PointQuery({"dest": "CA"})) == 3.0

    def test_execute_dispatch_point(self, flights):
        executor = ColumnarExecutor(flights)
        assert executor.execute(PointQuery({"origin": "NY"})) == 4.0


class TestScalarQueries:
    def test_count_with_range_filter(self, flights):
        query = ScalarAggregateQuery(
            predicates=(Predicate("minutes", Comparison.LE, 60),)
        )
        assert ColumnarExecutor(flights).execute(query) == 7.0

    def test_weighted_average(self, flights):
        query = ScalarAggregateQuery(
            aggregate=AggregateSpec(AggregateFunction.AVG, "minutes"),
            predicates=(Predicate("origin", Comparison.EQ, "CA"),),
        )
        expected = (2 * 120 + 2 * 60 + 1 * 30) / 5
        assert ColumnarExecutor(flights).execute(query) == pytest.approx(expected)

    def test_sum_aggregate(self, flights):
        query = ScalarAggregateQuery(
            aggregate=AggregateSpec(AggregateFunction.SUM, "minutes")
        )
        expected = 2 * 120 + 2 * 60 + 30 + 120 + 3 * 30 + 60
        assert ColumnarExecutor(flights).execute(query) == expected

    def test_empty_filter_result(self, flights):
        query = ScalarAggregateQuery(
            aggregate=AggregateSpec(AggregateFunction.AVG, "minutes"),
            predicates=(Predicate("origin", Comparison.EQ, "TX"),),
        )
        assert ColumnarExecutor(flights).execute(query) == 0.0


class TestGroupByQueries:
    def test_weighted_counts_per_group(self, flights):
        query = GroupByQuery(group_by=("origin",))
        result = ColumnarExecutor(flights).execute(query)
        assert result.value(("CA",)) == 5.0
        assert result.value(("NY",)) == 4.0
        assert result.value(("WA",)) == 1.0

    def test_average_per_group_with_filter(self, flights):
        query = GroupByQuery(
            group_by=("origin",),
            aggregate=AggregateSpec(AggregateFunction.AVG, "minutes"),
            predicates=(Predicate("dest", Comparison.EQ, "CA"),),
        )
        result = ColumnarExecutor(flights).execute(query)
        assert result.value(("CA",)) == 30.0
        assert result.value(("NY",)) == 120.0
        assert ("WA",) in result

    def test_groups_with_zero_weight_dropped(self, schema):
        relation = Relation.from_rows(
            schema, [("CA", "NY", 30), ("NY", "CA", 60)], weights=[0.0, 1.0]
        )
        result = ColumnarExecutor(relation).execute(GroupByQuery(group_by=("origin",)))
        assert ("CA",) not in result
        assert result.value(("NY",)) == 1.0

    def test_empty_relation(self, schema):
        result = ColumnarExecutor(Relation.empty(schema)).execute(
            GroupByQuery(group_by=("origin",))
        )
        assert len(result) == 0

    def test_result_helpers(self, flights):
        result = ColumnarExecutor(flights).execute(GroupByQuery(group_by=("dest",)))
        assert result.groups() == {("CA",), ("NY",), ("WA",)}
        assert result.value(("XX",), default=-1.0) == -1.0
        assert len(result.as_dict()) == 3

    def test_non_numeric_average_rejected(self, flights):
        query = GroupByQuery(
            group_by=("minutes",),
            aggregate=AggregateSpec(AggregateFunction.AVG, "origin"),
        )
        with pytest.raises(QueryError):
            ColumnarExecutor(flights).execute(query)


class TestJoinQueries:
    def test_self_join_counts_weighted_pairs(self, flights):
        query = JoinGroupByQuery(
            left_join="dest",
            right_join="origin",
            left_group="origin",
            right_group="dest",
            left_predicates=(Predicate("dest", Comparison.IN, ("CA",)),),
        )
        result = ColumnarExecutor(flights).execute(query)
        # Left tuples with dest=CA: CA->CA (w=1), NY->CA (w=1), WA->CA (w=1).
        # They join with right tuples having origin=CA (weights 2, 2, 1).
        assert result.value(("CA", "NY")) == 1 * 2
        assert result.value(("NY", "WA")) == 1 * 2
        assert result.value(("WA", "CA")) == 1 * 1

    def test_join_with_no_matches(self, flights):
        query = JoinGroupByQuery(
            left_join="dest",
            right_join="origin",
            left_group="origin",
            right_group="dest",
            left_predicates=(Predicate("dest", Comparison.EQ, "TX"),),
        )
        result = ColumnarExecutor(flights).execute(query)
        assert len(result) == 0


class TestSQLText:
    """The executor compiles SQL text over its own relation; the ``FROM``
    name is not looked up."""

    def test_execute_sql(self, flights):
        value = ColumnarExecutor(flights).execute(
            "SELECT COUNT(*) FROM flights WHERE origin = 'CA' AND dest = 'NY'"
        )
        assert value == 2.0

    def test_execute_sql_group_by(self, flights):
        result = ColumnarExecutor(flights).execute(
            "SELECT origin, COUNT(*) FROM flights GROUP BY origin"
        )
        assert result.value(("CA",)) == 5.0
        assert result.value(("NY",)) == 4.0

    def test_execute_sql_weighted_average(self, flights):
        value = ColumnarExecutor(flights).execute(
            "SELECT AVG(minutes) FROM flights WHERE origin = 'CA'"
        )
        # (2 * 120 + 2 * 60 + 1 * 30) / (2 + 2 + 1)
        assert value == pytest.approx(78.0)

    def test_unknown_attribute_rejected(self, flights):
        with pytest.raises(QueryError, match="bogus"):
            ColumnarExecutor(flights).execute("SELECT COUNT(*) FROM flights WHERE bogus = 1")
