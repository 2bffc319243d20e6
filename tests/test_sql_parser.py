"""Tests for the SQL parser."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import SQLSyntaxError
from repro.query import (
    AggregateFunction,
    Comparison,
    GroupByQuery,
    PointQuery,
    ScalarAggregateQuery,
)
from repro.sql import parse_sql

import golden_sql


class TestPointQueries:
    def test_simple_point_query(self):
        parsed = parse_sql(
            "SELECT COUNT(*) FROM flights WHERE origin_state = 'CA' AND dest_state = 'NY'"
        )
        assert parsed.table == "flights"
        assert isinstance(parsed.query, PointQuery)
        assert parsed.query.as_dict() == {"origin_state": "CA", "dest_state": "NY"}

    def test_numeric_literals(self):
        parsed = parse_sql("SELECT COUNT(*) FROM t WHERE a = 3 AND b = 2.5")
        assert parsed.query.as_dict() == {"a": 3, "b": 2.5}

    def test_case_insensitive_keywords(self):
        parsed = parse_sql("select count(*) from t where a = 'x'")
        assert isinstance(parsed.query, PointQuery)

    def test_trailing_semicolon(self):
        parsed = parse_sql("SELECT COUNT(*) FROM t WHERE a = 'x';")
        assert parsed.query.as_dict() == {"a": "x"}


class TestRepeatedAttribute:
    """A point query fixes each attribute once, so a WHERE that names one
    twice keeps every conjunct as a scalar filter (it used to keep only the
    last literal)."""

    @pytest.mark.parametrize("first, second", [("'CA'", "'ME'"), ("'ME'", "'CA'")])
    def test_contradiction_keeps_both_conjuncts(self, first, second):
        parsed = parse_sql(
            f"SELECT COUNT(*) FROM flights WHERE origin_state = {first} "
            f"AND origin_state = {second}"
        )
        assert isinstance(parsed.query, ScalarAggregateQuery)
        assert parsed.query.aggregate.function is AggregateFunction.COUNT
        assert [(p.attribute, p.comparison, p.value) for p in parsed.query.predicates] == [
            ("origin_state", Comparison.EQ, first.strip("'")),
            ("origin_state", Comparison.EQ, second.strip("'")),
        ]

    def test_repeated_literal_and_distinct_attributes(self):
        repeated = parse_sql("SELECT COUNT(*) FROM t WHERE a = 1 AND b = 2 AND a = 1")
        assert isinstance(repeated.query, ScalarAggregateQuery)
        assert len(repeated.query.predicates) == 3
        distinct = parse_sql("SELECT COUNT(*) FROM t WHERE a = 1 AND b = 2")
        assert distinct.query == PointQuery({"a": 1, "b": 2})


class TestScalarQueries:
    def test_motivating_example_query(self):
        """The paper's Sec. 2 query parses to a filtered scalar aggregate."""
        parsed = parse_sql(
            "SELECT SUM(weight) AS num_flights FROM flights "
            "WHERE flight_time <= 30 AND origin_state = 'CA'"
        )
        assert isinstance(parsed.query, ScalarAggregateQuery)
        # SUM(weight) is treated as the weighted COUNT(*).
        assert parsed.query.aggregate.function is AggregateFunction.COUNT
        comparisons = {p.attribute: p.comparison for p in parsed.query.predicates}
        assert comparisons == {"flight_time": Comparison.LE, "origin_state": Comparison.EQ}

    def test_avg_without_group_by(self):
        parsed = parse_sql("SELECT AVG(elapsed_time) FROM flights WHERE origin = 'CA'")
        assert isinstance(parsed.query, ScalarAggregateQuery)
        assert parsed.query.aggregate.function is AggregateFunction.AVG
        assert parsed.query.aggregate.attribute == "elapsed_time"


class TestGroupByQueries:
    def test_explicit_group_by(self):
        parsed = parse_sql(
            "SELECT origin_state, COUNT(*) FROM flights GROUP BY origin_state"
        )
        assert isinstance(parsed.query, GroupByQuery)
        assert parsed.query.group_by == ("origin_state",)

    def test_implicit_group_by_from_select_list(self):
        parsed = parse_sql("SELECT origin_state, AVG(elapsed_time) FROM flights")
        assert isinstance(parsed.query, GroupByQuery)
        assert parsed.query.group_by == ("origin_state",)
        assert parsed.query.aggregate.function is AggregateFunction.AVG

    def test_group_by_with_filters(self):
        parsed = parse_sql(
            "SELECT dest_state, COUNT(*) FROM flights WHERE elapsed_time < 120 "
            "GROUP BY dest_state"
        )
        assert parsed.query.predicates[0].comparison is Comparison.LT

    def test_in_predicate(self):
        parsed = parse_sql(
            "SELECT dest_state, COUNT(*) FROM flights "
            "WHERE dest_state IN ('CO', 'WY') GROUP BY dest_state"
        )
        predicate = parsed.query.predicates[0]
        assert predicate.comparison is Comparison.IN
        assert predicate.value == ("CO", "WY")

    def test_alias_stripping(self):
        parsed = parse_sql(
            "SELECT t.origin_state, COUNT(*) FROM flights GROUP BY t.origin_state"
        )
        assert parsed.query.group_by == ("origin_state",)

    def test_multiple_group_by_columns(self):
        parsed = parse_sql(
            "SELECT a, b, COUNT(*) FROM t GROUP BY a, b"
        )
        assert parsed.query.group_by == ("a", "b")


class TestErrors:
    def test_garbage_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("DELETE FROM t")

    def test_two_aggregates_parse_to_analytic_query(self):
        from repro.query import AnalyticQuery

        parsed = parse_sql("SELECT COUNT(*), SUM(x) FROM t")
        assert isinstance(parsed.query, AnalyticQuery)
        assert [spec.expression for spec in parsed.query.aggregates] == [
            "count(*)",
            "sum(x)",
        ]

    def test_bad_condition_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse_sql("SELECT COUNT(*) FROM t WHERE ???")

class TestAnalyticParsing:
    def test_full_pipeline_statement(self):
        from repro.query import AnalyticQuery, WindowFunction

        parsed = parse_sql(
            "SELECT state, COUNT(*) AS n, AVG(delay) AS mean, "
            "RANK() OVER (PARTITION BY state ORDER BY n DESC) AS r "
            "FROM flights WHERE carrier = 'AA' GROUP BY state "
            "HAVING n > 2 ORDER BY r, state LIMIT 5"
        )
        query = parsed.query
        assert isinstance(query, AnalyticQuery)
        assert query.group_by == ("state",)
        assert [spec.label for spec in query.aggregates] == ["n", "mean"]
        assert query.having[0].target == "n" and query.having[0].value == 2
        assert query.windows[0].function is WindowFunction.RANK
        assert query.windows[0].partition_by == ("state",)
        assert [key.target for key in query.order_by] == ["r", "state"]
        assert query.limit == 5

    def test_sum_weight_window_is_weighted_count_window(self):
        from repro.query import AnalyticQuery

        parsed = parse_sql(
            "SELECT a, COUNT(*) AS n, SUM(n) OVER (ORDER BY a) AS running "
            "FROM t GROUP BY a"
        )
        assert isinstance(parsed.query, AnalyticQuery)
        window = parsed.query.windows[0]
        assert window.target == "n" and window.order_by[0].target == "a"


class TestMalformedStatements:
    """Malformed SQL raises SQLSyntaxError with an actionable message."""

    @pytest.mark.parametrize(
        "sql, fragment",
        [
            ("SELECT COUNT(*) FROM t WHERE a = 'CA", "unterminated string"),
            ("SELECT COUNT(*) FROM t WHERE a IN ()", "at least one value"),
            (
                "SELECT a, COUNT(*) FROM t GROUP BY a GROUP BY b",
                "duplicate or misplaced GROUP clause",
            ),
            ("SELECT COUNT(*) FROM", "expected a table name"),
            (
                "SELECT a, COUNT(*) AS n, RANK() OVER (ORDER BY n) FROM t GROUP BY a",
                "need an AS alias",
            ),
            (
                "SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING n > 'x'",
                "numeric literal",
            ),
            (
                "SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING n > true",
                "numeric literal",
            ),
            ("SELECT AVG(*) FROM t", "AVG(*)"),
            (
                "SELECT a, AVG(x) OVER (ORDER BY a) AS w FROM t GROUP BY a",
                "only SUM(...) OVER and RANK() OVER",
            ),
            (
                "SELECT a, COUNT(*) AS n, RANK() OVER (PARTITION BY a) AS r "
                "FROM t GROUP BY a",
                "requires ORDER BY",
            ),
            ("SELECT COUNT(*) FROM t WHERE a = $", "unexpected character '$'"),
            ("SELECT COUNT(*) FROM t LIMIT x", "LIMIT expects an integer"),
            ("SELECT COUNT(*) FROM t LIMIT -3", "LIMIT expects an integer"),
            ("SELECT FROM t", "expected 'FROM'"),
            ("", "expected 'SELECT'"),
            ("SELECT RANK() FROM t", "OVER"),
        ],
    )
    def test_rejected_with_message(self, sql, fragment):
        with pytest.raises(SQLSyntaxError) as excinfo:
            parse_sql(sql)
        assert fragment in str(excinfo.value)

    def test_semicolon_inside_string_is_data(self):
        parsed = parse_sql("SELECT COUNT(*) FROM t WHERE a = ';'")
        assert parsed.query.as_dict() == {"a": ";"}

    def test_unknown_order_target_fails_at_compile_with_columns(self):
        """Name resolution is the compiler's job; its error lists columns."""
        from repro.exceptions import QueryError
        from repro.schema import Attribute, Domain, Relation, Schema
        from repro.sql import WeightedQueryEngine

        relation = Relation(
            Schema([Attribute("a", Domain(["x", "y"]))]), {"a": [0, 1]}
        )
        parsed = parse_sql("SELECT a, COUNT(*) AS n FROM t GROUP BY a ORDER BY zz")
        with pytest.raises(QueryError) as excinfo:
            WeightedQueryEngine(relation).execute(parsed.query)
        message = str(excinfo.value)
        assert "zz" in message and "available columns" in message


class TestGoldenStatements:
    """``tests/data/sql_golden.json`` pins the parser byte for byte: every
    AST ``repr`` and every error text, position included, as recorded from
    the parser before its tokenizer was rewritten."""

    RECORDS = json.loads(golden_sql.GOLDEN_PATH.read_text())

    def test_file_covers_the_statement_set(self):
        assert [r["sql"] for r in self.RECORDS] == golden_sql.golden_statements()
        assert len(self.RECORDS) >= 80

    def test_reproduced_byte_for_byte(self):
        mismatches = [
            (record, got)
            for record in self.RECORDS
            if (got := golden_sql.outcome(record["sql"])) != record
        ]
        assert not mismatches


class TestParserFuzz:
    """Token-level fuzzing: the parser either parses or raises SQLSyntaxError.

    Whatever mutation the statement suffers — dropped, duplicated, or
    shuffled tokens, injected garbage — the parser must never escape with
    an internal error (IndexError, AttributeError, ...).  Seeds are in the
    assertion message for replay.
    """

    SEED_STATEMENTS = golden_sql.FUZZ_SEEDS  # their exact parse is pinned there too
    GARBAGE = ["(", ")", ",", "SELECT", "OVER", "'", "*", ";", "123", "?", "AS"]

    def test_mutated_statements_never_crash(self):
        import numpy as np

        from repro.exceptions import SQLSyntaxError

        rng = np.random.default_rng(1337)
        for trial in range(300):
            tokens = self.SEED_STATEMENTS[trial % len(self.SEED_STATEMENTS)].split()
            mutation = trial % 4
            position = int(rng.integers(len(tokens)))
            if mutation == 0:
                del tokens[position]
            elif mutation == 1:
                tokens.insert(position, self.GARBAGE[int(rng.integers(len(self.GARBAGE)))])
            elif mutation == 2:
                other = int(rng.integers(len(tokens)))
                tokens[position], tokens[other] = tokens[other], tokens[position]
            else:
                tokens[position] = tokens[position][: max(0, len(tokens[position]) - 1)]
            sql = " ".join(tokens)
            try:
                parse_sql(sql)
            except SQLSyntaxError:
                pass
            except Exception as error:  # pragma: no cover - the failure path
                raise AssertionError(
                    f"trial={trial}: parser escaped with "
                    f"{type(error).__name__}: {error} on {sql!r}"
                ) from error
