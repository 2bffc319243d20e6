"""Tests for the SQL parser."""

from __future__ import annotations

import gc
import json
import random
import re
import sys
import threading
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import SQLSyntaxError
from repro.query import (
    AggregateFunction,
    Comparison,
    GroupByQuery,
    PointQuery,
    ScalarAggregateQuery,
)
from repro.sql import parse_cache_info, parse_sql, parser

import golden_sql


def clear_memo() -> None:
    """Forget every memoized statement shape (the counters are kept)."""
    parser._TEMPLATES.clear()


def parsed(statement: str) -> tuple:
    """Everything ``parse_sql`` makes of ``statement``, comparable with ``==``:
    the AST and its ``repr`` (``3 == 3.0`` and ``1 == True``, their reprs
    differ), or the error text."""
    try:
        result = parse_sql(statement)
    except SQLSyntaxError as error:
        return ("error", str(error))
    return (
        result.table,
        result.query,
        repr(result.query),
        result.select_attributes,
        result.aggregate,
    )


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
        """Replayed twice: with the shape memo cleared before every
        statement, so each runs the grammar, then warm, so each statement
        that parses binds a memoized shape."""
        statements = golden_sql.golden_statements()
        cold = []
        for statement in statements:
            clear_memo()
            cold.append(golden_sql.outcome(statement))
        for statement in statements:
            golden_sql.outcome(statement)
        hits = parse_cache_info()["hits"]
        warm = [golden_sql.outcome(statement) for statement in statements]
        expected = golden_sql.GOLDEN_PATH.read_text()
        assert golden_sql.render(cold) == expected
        assert golden_sql.render(warm) == expected
        assert parse_cache_info()["hits"] - hits == sum("query" in r for r in self.RECORDS)


class TestParserFuzz:
    """Token-level fuzzing: the parser either parses or raises SQLSyntaxError.

    Whatever mutation the statement suffers — dropped, duplicated, or
    shuffled tokens, injected garbage — the parser must never escape with
    an internal error (IndexError, AttributeError, ...).  Seeds are in the
    assertion message for replay.
    """

    SEED_STATEMENTS = golden_sql.FUZZ_SEEDS  # their exact parse is pinned there too
    GARBAGE = ["(", ")", ",", "SELECT", "OVER", "'", "*", ";", "123", "?", "AS"]

    def mutated_statements(self):
        """``(trial, statement)`` for 300 seeded token-level mutations."""
        import numpy as np

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
            yield trial, " ".join(tokens)

    @staticmethod
    def parse_or_fail(trial: int, sql: str) -> tuple:
        try:
            return parsed(sql)
        except Exception as error:  # pragma: no cover - the failure path
            raise AssertionError(
                f"trial={trial}: parser escaped with "
                f"{type(error).__name__}: {error} on {sql!r}"
            ) from error

    def test_mutated_statements_never_crash(self):
        for trial, sql in self.mutated_statements():
            self.parse_or_fail(trial, sql)

    def test_mutated_statements_never_crash_on_a_warm_memo(self):
        """The same mutations, each parsed once before the checked parse:
        a memoized shape answers what the grammar did."""
        for statement in golden_sql.golden_statements():
            parsed(statement)
        for trial, sql in self.mutated_statements():
            first = self.parse_or_fail(trial, sql)
            assert self.parse_or_fail(trial, sql) == first, (trial, sql)


NOT_TEXT = [None, b"SELECT COUNT(*) FROM t", 7]


class TestNonTextStatements:
    """A statement that is not a ``str`` is a syntax error naming its type,
    raised before the shape memo is consulted (it never becomes a key)."""

    @pytest.mark.parametrize("statement", NOT_TEXT)
    def test_parse_sql_names_the_type(self, statement):
        before = parse_cache_info()
        with pytest.raises(SQLSyntaxError, match=type(statement).__name__):
            parse_sql(statement)
        assert parse_cache_info() == before

    @pytest.mark.parametrize("statement", NOT_TEXT)
    def test_themis_sql_raises_a_syntax_error(self, serving_themis, statement):
        with pytest.raises(SQLSyntaxError, match=type(statement).__name__):
            serving_themis.sql(statement)


#: A literal as the rewrites spell it: quoted either way, an int, its float,
#: its negation (with or without a blank), a bare word, TRUE or FALSE.
LITERALS = st.one_of(
    st.builds(
        lambda text, quote: f"{quote}{text}{quote}",
        st.sampled_from(["x", "CA", "a b", "", "x; y", "it is", "été"]),
        st.sampled_from("'\""),
    ),
    st.builds(
        lambda n, spelling: spelling.format(n),
        st.integers(0, 40),
        st.sampled_from(["{}", "{}.0", "-{}", "- {}", "{}.25", "-{}.5"]),
    ),
    st.sampled_from(["CA", "x1", "TRUE", "FALSE", "true", "False"]),
)
#: A string or number literal in statement text (not a digit inside a name).
LITERAL_TEXT = re.compile(r"""'[^']*'|"[^"]*"|(?<![\w.])\d+(?:\.\d+)?""")
IN_LIST = re.compile(r"\bIN\s*\(([^()]*)\)", re.IGNORECASE)


def rewrite_literals(statement: str, draw) -> str:
    """``statement`` with every literal redrawn and every IN list redrawn
    with one to four items."""
    statement = LITERAL_TEXT.sub(lambda _: draw(LITERALS), statement)
    return IN_LIST.sub(
        lambda _: "IN (" + ", ".join(draw(st.lists(LITERALS, min_size=1, max_size=4))) + ")",
        statement,
    )


def sibling(statement: str) -> str:
    """``statement`` with other literal values of the same kinds: the same
    shape when it parses."""

    def other(match: re.Match) -> str:
        text = match.group()
        if text[0] in "'\"":
            return text[:-1] + "z" + text[-1]
        if "." in text:
            return str(float(text) + 7)
        return str(int(text) + 7)

    return LITERAL_TEXT.sub(other, statement)


class TestLiteralRewrites:
    """Statements that differ only in their literals share one memoized
    shape, and a statement bound into another's shape parses ``==`` (and to
    the same ``repr``, or the same error) as on a cleared memo."""

    BASES = golden_sql.golden_statements()

    @given(data=st.data())
    def test_a_rewritten_statement_parses_the_same_warm_and_cold(self, data):
        statement = rewrite_literals(data.draw(st.sampled_from(self.BASES)), data.draw)
        clear_memo()
        cold = parsed(statement)
        clear_memo()
        parsed(sibling(statement))  # memoizes the shape, other values
        hits = parse_cache_info()["hits"]
        warm = parsed(statement)
        assert warm == cold, statement
        if cold[0] != "error":
            assert parse_cache_info()["hits"] == hits + 1, statement

    @pytest.mark.parametrize(
        "valid, invalid, message",
        [
            (
                "SELECT COUNT(*) FROM t LIMIT 2",
                "SELECT COUNT(*) FROM t LIMIT 1.5",
                "LIMIT expects an integer, found '1.5' at position 29",
            ),
            (
                "SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING n > 2",
                "SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING n > 'x'",
                "HAVING compares aggregate values and needs a numeric literal, got 'x'",
            ),
            (
                "SELECT COUNT(*) FROM t WHERE a = - 1",
                "SELECT COUNT(*) FROM t WHERE a = - x",
                "expected a number after '-' at position 33",
            ),
            (
                "SELECT COUNT(*) FROM t WHERE a = - 1",
                "SELECT COUNT(*) FROM t WHERE a = - 'x'",
                "expected a number after '-' at position 33",
            ),
        ],
    )
    def test_an_error_that_depends_on_a_literal_kind_reads_the_same(
        self, valid, invalid, message
    ):
        clear_memo()
        cold = parsed(invalid)
        parsed(valid)
        assert parsed(invalid) == cold == ("error", message)


class TestSharedMemo:
    """The shape memo is process-wide: bounded, safe under threads, and
    holding syntax only."""

    @staticmethod
    def pool() -> list[str]:
        """Statements of more shapes than the memo holds, so threads evict
        each other's shapes while they parse."""
        distinct = [
            f"SELECT COUNT(*) FROM t WHERE c{i} = '{i}' AND d IN ({i}, {i}.5)"
            for i in range(parser.PARSE_CACHE_SIZE)
        ]
        return golden_sql.golden_statements() + distinct

    def test_threads_parse_what_one_thread_parses(self):
        statements = self.pool()
        before = parse_cache_info()
        expected = {statement: parsed(statement) for statement in statements}
        after = parse_cache_info()
        # (a statement with a character no token takes never reaches the memo)
        lookups_each = after["hits"] + after["misses"] - before["hits"] - before["misses"]
        clear_memo()
        results: dict[int, list[tuple]] = {}
        orders: dict[int, list[str]] = {}
        errors: list[BaseException] = []

        def work(worker: int) -> None:
            order = statements * 2
            random.Random(worker).shuffle(order)
            orders[worker] = order
            try:
                results[worker] = [parsed(statement) for statement in order]
            except BaseException as error:  # pragma: no cover - the failure path
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(worker,)) for worker in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert sorted(results) == list(range(8))
        for worker, outcomes in results.items():
            assert outcomes == [expected[statement] for statement in orders[worker]]
        info = parse_cache_info()
        assert info["size"] <= info["capacity"] == parser.PARSE_CACHE_SIZE
        # One count per lookup: a lost update would break this.
        lookups = info["hits"] + info["misses"] - after["hits"] - after["misses"]
        assert lookups == 8 * 2 * lookups_each

    def test_the_memo_holds_at_most_its_capacity(self):
        clear_memo()
        before = parse_cache_info()
        statements = [
            f"SELECT COUNT(*) FROM t WHERE a{i} = 1" for i in range(parser.PARSE_CACHE_SIZE + 40)
        ]
        for statement in statements:
            parse_sql(statement)
        info = parse_cache_info()
        assert info["size"] == info["capacity"] == parser.PARSE_CACHE_SIZE == 512
        assert info["misses"] - before["misses"] == len(statements)
        parse_sql(statements[-1].replace("= 1", "= 2"))  # recent: kept
        parse_sql(statements[0])  # least recently used: evicted
        after = parse_cache_info()
        assert (after["hits"] - info["hits"], after["misses"] - info["misses"]) == (1, 1)

    def test_a_statement_that_fails_is_not_memoized(self):
        """Neither a grammar error nor an AST that fails its constructor's
        checks at bind leaves a shape behind."""
        records = json.loads(golden_sql.GOLDEN_PATH.read_text())
        failing = {r["sql"]: r["error"] for r in records if "error" in r}
        failing.update(
            {
                "SELECT COUNT(*) AS n FROM t HAVING n > 1": "invalid query: HAVING and "
                "window functions require GROUP BY (they operate on group rows)",
                "SELECT a, COUNT(*) AS n, RANK() OVER (PARTITION BY b ORDER BY n) AS r "
                "FROM t GROUP BY a": "invalid query: window PARTITION BY ['b'] must be "
                "a subset of the GROUP BY columns ['a']",
            }
        )
        clear_memo()
        for _ in range(2):
            assert {s: parsed(s) for s in failing} == {
                s: ("error", error) for s, error in failing.items()
            }
            assert parse_cache_info()["size"] == 0

    def test_no_literal_value_is_reachable_from_the_memo(self):
        text, number, real = "sentinel-9f3c2a", 918273645, 0.918273645
        clear_memo()
        for statement in [
            f"SELECT COUNT(*) FROM t WHERE a = '{text}' AND b = {number}",
            f'SELECT SUM(x) FROM t WHERE a IN ("{text}", {real}, -{number}) AND b < {real}',
            f"SELECT a, COUNT(*) AS n FROM t WHERE b >= -{real} GROUP BY a "
            f"HAVING n > {number} ORDER BY n LIMIT {number}",
        ]:
            parse_sql(statement)
        assert parse_cache_info()["size"] == 3
        reached = list(_referents(parser._TEMPLATES))
        assert any(value.__class__.__name__ == "_Template" for value in reached)
        assert not [value for value in reached if isinstance(value, str) and text in value]
        assert not [
            value
            for value in reached
            if isinstance(value, (int, float)) and abs(value) in (number, real)
        ]


def _referents(root):
    """Every object reachable from ``root`` by ``gc.get_referents``, plus the
    keys of dicts (a dict of ``str`` keys does not report them); classes,
    functions and modules are not entered."""
    skip = (type, types.FunctionType, types.BuiltinFunctionType, types.ModuleType)
    seen: set[int] = set()
    stack = [root]
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        yield value
        if isinstance(value, skip):
            continue
        if isinstance(value, dict):
            stack.extend(value.keys())
        stack.extend(gc.get_referents(value))
