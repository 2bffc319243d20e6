"""Round-trip, serving, and result-shape tests for the rich SQL surface.

Covers the non-differential guarantees of the analytic (table-shaped)
query support:

* SQL text ↔ AST round-trips: both compile to the same canonical plan key,
  and the key is stable across compiles and predicate orderings;
* a normalized plan keeps the canonical key through the optimizer's
  rewrite, and ``explain="analyze"`` records a span tree;
* serving batches answer table queries identically to per-query
  ``Themis.query`` — including from the result cache and after ``refit()``;
* :class:`TableResult` / :class:`QueryResult` container behavior, the
  ``NotImplemented`` equality protocol, and alias surfacing;
* hand-computed HAVING / ORDER BY / LIMIT / window answers on a relation
  small enough to check by eye.
"""

from __future__ import annotations

import numpy as np
import pytest

from worlds import build_correlated_population

import repro.plan.analytics
from repro.plan import ColumnarExecutor, normalize_plan, optimize_batch
from repro.query import (
    AggregateFunction,
    AggregateSpec,
    AnalyticQuery,
    Comparison,
    MixedQueryWorkload,
    Predicate,
)
from repro.schema import Attribute, Domain, Relation, Schema
from repro.sql import parse_sql
from repro.sql.engine import QueryResult, TableResult


@pytest.fixture
def tiny_relation() -> Relation:
    """Four groups with dyadic weights, so every answer is exact by eye.

    Weighted counts per group: a=3.0, b=1.5, c=1.5, d=0.5 (total 6.5);
    weighted SUM(x): a=4.0, b=6.0, c=3.0, d=0.5.
    """
    schema = Schema(
        [
            Attribute("g", Domain(["a", "b", "c", "d"])),
            Attribute("x", Domain([1.0, 2.0, 4.0])),
        ]
    )
    return Relation(
        schema,
        {"g": [0, 0, 1, 2, 3], "x": [0, 1, 2, 1, 0]},
        weights=[2.0, 1.0, 1.5, 1.5, 0.5],
    )


class TestRoundTrips:
    def test_workload_analytic_pairs_share_plan_key_and_answers(self):
        population = build_correlated_population()
        workload = MixedQueryWorkload(population, table="R", seed=11)
        entries = workload.analytic_queries(10)
        assert len(entries) == 10
        assert all(entry.shape == "table" for entry in entries)
        executor = ColumnarExecutor(population)
        compiler = executor.compiler
        for entry in entries:
            from_sql = compiler.compile(parse_sql(entry.sql).query)
            from_ast = compiler.compile(entry.query)
            assert from_sql.key == from_ast.key, entry.sql
            assert from_sql.shape == "table"
            assert executor.execute(entry.sql) == executor.execute(entry.query), entry.sql

    def test_plan_key_is_stable_and_predicate_order_insensitive(self, tiny_relation):
        compiler = ColumnarExecutor(tiny_relation).compiler
        predicates = (
            Predicate("g", Comparison.NE, "d"),
            Predicate("x", Comparison.LE, 2.0),
        )
        query = AnalyticQuery(
            group_by=("g",),
            aggregates=(
                AggregateSpec(AggregateFunction.COUNT, alias="n"),
                AggregateSpec(AggregateFunction.SUM, "x", alias="t"),
            ),
            predicates=predicates,
        )
        reordered = AnalyticQuery(
            group_by=query.group_by,
            aggregates=query.aggregates,
            predicates=predicates[::-1],
        )
        key = compiler.compile(query).key
        assert compiler.compile(query).key == key
        assert compiler.compile(reordered).key == key

    def test_mixed_generate_appends_analytic_entries(self):
        population = build_correlated_population()
        workload = MixedQueryWorkload(population, table="R", seed=5)
        entries = workload.generate(2, 2, 2, n_analytic=3)
        assert len(entries) == 9
        assert [entry.shape for entry in entries[-3:]] == ["table"] * 3

    def test_normalized_plan_preserves_canonical_key(self, serving_themis):
        sql = (
            "SELECT A, COUNT(*) AS n, AVG(B) AS mean FROM sample "
            "GROUP BY A HAVING n > 1 ORDER BY mean DESC LIMIT 2"
        )
        explained = serving_themis.query(sql, explain=True)
        assert explained.plan.shape == "table"
        assert normalize_plan(explained.plan).key == explained.plan.key
        assert explained.result == serving_themis.query(sql)

    def test_explain_analyze_records_a_span_tree(self, serving_themis):
        sql = (
            "SELECT A, COUNT(*) AS n, RANK() OVER (ORDER BY n DESC) AS r "
            "FROM sample GROUP BY A ORDER BY r"
        )
        explained = serving_themis.query(sql, explain="analyze")
        assert explained.trace is not None
        rendered = explained.explain_analyze()
        assert "table" in rendered or "unit" in rendered
        assert explained.result == serving_themis.query(sql)


TABLE_SQL = [
    "SELECT A, COUNT(*) AS n, AVG(B) AS mean FROM sample GROUP BY A ORDER BY n DESC",
    "SELECT A, B, COUNT(*) AS n FROM sample GROUP BY A, B HAVING n >= 1 LIMIT 5",
    "SELECT A, COUNT(*) AS n, SUM(n) OVER (ORDER BY A) AS running FROM sample GROUP BY A",
    "SELECT COUNT(*) AS n, AVG(C) AS mean FROM sample WHERE B != 0",
]


class TestServingTables:
    def test_serving_batch_matches_per_query_and_caches(self, fresh_serving_themis):
        themis = fresh_serving_themis
        expected = [themis.query(sql) for sql in TABLE_SQL]
        session = themis.serve()
        batch = session.execute_batch(TABLE_SQL)
        assert batch.results() == expected
        warm = session.execute_batch(TABLE_SQL)
        assert warm.results() == expected
        assert all(
            outcome.from_result_cache or outcome.deduplicated
            for outcome in warm.outcomes
        )

    def test_serving_batch_survives_refit(self, fresh_serving_themis):
        themis = fresh_serving_themis
        population = build_correlated_population()
        session = themis.serve()
        before = session.execute_batch(TABLE_SQL).results()

        from repro.aggregates import AggregateQuery

        themis.add_aggregate(AggregateQuery.from_relation(population, ["A", "C"]))
        themis.refit()
        after = session.execute_batch(TABLE_SQL)
        assert not after.outcomes[0].from_result_cache
        assert after.results() == [themis.query(sql) for sql in TABLE_SQL]
        assert after.results() != before

    def test_window_sorts_shared_within_a_table(self, tiny_relation, monkeypatch):
        executor = ColumnarExecutor(tiny_relation)
        queries = [
            "SELECT g, COUNT(*) AS n, RANK() OVER (ORDER BY n DESC) AS r, "
            "SUM(n) OVER (ORDER BY n DESC) AS running FROM t GROUP BY g",
            "SELECT g, SUM(x) AS t, COUNT(*) AS n, RANK() OVER (ORDER BY n DESC) AS r "
            "FROM t GROUP BY g",
        ]
        reference = [executor.execute(sql) for sql in queries]
        lexsorts = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def lexsort(self, keys):
                lexsorts.append(len(keys))
                return np.lexsort(keys)

        monkeypatch.setattr(repro.plan.analytics, "np", CountingNumpy())
        # The first table's two windows share one ordering: one lexsort.
        assert executor.execute(queries[0]) == reference[0]
        assert len(lexsorts) == 1
        assert executor.execute_batch(queries) == reference
        assert len(lexsorts) == 3
        schedule = optimize_batch([executor.compiler.compile(sql) for sql in queries])
        assert schedule.stats.groupby_fusions >= 1

    def test_filtered_dashboard_tables_dedup_and_share_masks(self, tiny_relation):
        executor = ColumnarExecutor(tiny_relation)
        filtered = [
            "SELECT g, COUNT(*) AS n, SUM(x) AS t FROM t WHERE x > 1 GROUP BY g "
            "ORDER BY n DESC LIMIT 2",
            "SELECT g, COUNT(*) AS n FROM t WHERE x > 1 GROUP BY g HAVING n > 1",
            "SELECT COUNT(*) AS n, AVG(x) AS m FROM t WHERE x > 1",
        ]
        filtered = filtered + filtered[:1]
        batch = ColumnarExecutor(tiny_relation).execute_batch(filtered)
        assert batch == [executor.execute(sql) for sql in filtered]
        schedule = optimize_batch([executor.compiler.compile(sql) for sql in filtered])
        assert schedule.stats.plans_deduped >= 1
        assert schedule.stats.masks_shared >= 1


class TestTableResultBehavior:
    def test_container_protocol(self):
        table = TableResult(
            ("g", "n"), [("a", 3.0), ("b", 1.5)], group_by=("g",)
        )
        assert len(table) == 2
        assert list(table) == [("a", 3.0), ("b", 1.5)]
        assert table.column("n") == [3.0, 1.5]
        assert table.as_dicts() == [{"g": "a", "n": 3.0}, {"g": "b", "n": 1.5}]
        with pytest.raises(KeyError):
            table.column("missing")

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            TableResult(("a", "b"), [(1.0,)])

    def test_equality_is_ordered_and_typed(self):
        rows = [("a", 3.0), ("b", 1.5)]
        table = TableResult(("g", "n"), rows, group_by=("g",))
        same = TableResult(("g", "n"), rows, group_by=("g",))
        reordered = TableResult(("g", "n"), rows[::-1], group_by=("g",))
        assert table == same and hash(table) == hash(same)
        assert table != reordered
        assert table.__eq__(42) is NotImplemented
        assert (table == 42) is False
        assert (table != 42) is True

    def test_aliases_surface_in_columns(self, tiny_relation):
        executor = ColumnarExecutor(tiny_relation)
        table = executor.execute(
            "SELECT g, COUNT(*) AS flights, SUM(x) AS total FROM t GROUP BY g"
        )
        assert table.columns == ("g", "flights", "total")
        assert table.group_by == ("g",)


class TestQueryResultEqualityProtocol:
    def test_not_implemented_defers_to_python_fallback(self):
        result = QueryResult(("g",), {("a",): 1.0})
        assert result.__eq__(5) is NotImplemented
        assert (result == 5) is False
        assert (result != 5) is True
        twin = QueryResult(("g",), {("a",): 1.0})
        assert result == twin and hash(result) == hash(twin)


class TestHandComputedPipeline:
    """Exact answers over the tiny relation, checked by eye.

    Weighted counts: a=3.0, b=1.5, c=1.5, d=0.5; SUM(x): a=4.0, b=6.0,
    c=3.0, d=0.5.
    """

    def test_multi_aggregate_rows(self, tiny_relation):
        table = ColumnarExecutor(tiny_relation).execute(
            "SELECT g, COUNT(*) AS n, SUM(x) AS t FROM t GROUP BY g"
        )
        assert table.rows == (
            ("a", 3.0, 4.0),
            ("b", 1.5, 6.0),
            ("c", 1.5, 3.0),
            ("d", 0.5, 0.5),
        )

    def test_having_filters_group_rows(self, tiny_relation):
        table = ColumnarExecutor(tiny_relation).execute(
            "SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING n > 1"
        )
        assert table.rows == (("a", 3.0), ("b", 1.5), ("c", 1.5))

    def test_order_by_desc_limit(self, tiny_relation):
        table = ColumnarExecutor(tiny_relation).execute(
            "SELECT g, COUNT(*) AS n FROM t GROUP BY g ORDER BY n DESC LIMIT 2"
        )
        assert table.rows == (("a", 3.0), ("b", 1.5))

    def test_rank_peers_share_rank_with_gaps(self, tiny_relation):
        table = ColumnarExecutor(tiny_relation).execute(
            "SELECT g, COUNT(*) AS n, RANK() OVER (ORDER BY n DESC) AS r "
            "FROM t GROUP BY g ORDER BY r, g"
        )
        # b and c tie at 1.5 → both rank 2; d jumps to rank 4 (SQL gaps).
        assert table.rows == (
            ("a", 3.0, 1),
            ("b", 1.5, 2),
            ("c", 1.5, 2),
            ("d", 0.5, 4),
        )

    def test_running_sum_accumulates_in_order(self, tiny_relation):
        table = ColumnarExecutor(tiny_relation).execute(
            "SELECT g, COUNT(*) AS n, SUM(n) OVER (ORDER BY g) AS running "
            "FROM t GROUP BY g"
        )
        assert table.column("running") == [3.0, 4.5, 6.0, 6.5]

    def test_partition_total_sum_without_order(self, tiny_relation):
        table = ColumnarExecutor(tiny_relation).execute(
            "SELECT g, SUM(x) AS t, SUM(t) OVER () AS grand FROM t GROUP BY g"
        )
        assert table.column("grand") == [13.5, 13.5, 13.5, 13.5]

    def test_groupless_multi_aggregate_single_row(self, tiny_relation):
        table = ColumnarExecutor(tiny_relation).execute(
            "SELECT COUNT(*) AS n, SUM(x) AS t FROM t"
        )
        assert table.columns == ("n", "t")
        assert table.rows == ((6.5, 13.5),)

    def test_pipeline_applies_in_fixed_order(self, tiny_relation):
        """HAVING runs before windows: ranks are computed over survivors."""
        table = ColumnarExecutor(tiny_relation).execute(
            "SELECT g, COUNT(*) AS n, RANK() OVER (ORDER BY n DESC) AS r "
            "FROM t GROUP BY g HAVING n > 1 ORDER BY r, g"
        )
        assert table.rows == (("a", 3.0, 1), ("b", 1.5, 2), ("c", 1.5, 2))
