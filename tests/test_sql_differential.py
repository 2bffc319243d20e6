"""Differential testing of the SQL surface against a naive reference engine.

A seeded generator produces random relations (mixed string/numeric domains,
zero and non-dyadic weights) and random queries over every supported SQL
shape — point, scalar, GROUP BY, and the full analytic surface (multi-
aggregate, HAVING, window functions, ORDER BY/LIMIT).  Each query is
answered three ways and every answer must be **exactly** equal (``==``, no
tolerance):

* the row-at-a-time reference engine (``tests/oracle.py``),
* the per-plan columnar path (``executor.execute``, one query at a time),
* the batch path (``executor.execute_batch``),

and, for queries the generator can render to SQL text, the parser path as
well.  The same statements then go through the doors of the open-world
system — ``Themis.sql``, ``ServingSession.execute`` one at a time, and
``ServingSession.execute_batch`` whole and in random-sized batches with
repeats through a result cache too small to hold them — over a fitted model
of a random population, with a ``refit()`` between two rounds, and every
answer must be ``==`` the hybrid rule written out over the reference
engines (``oracle.hybrid_reference``).  ``SQL_DIFFERENTIAL_SWEEP`` scales
the number of generated queries (the CI sweep step runs hundreds; the
default keeps tier-1 fast).  Every assertion message carries the generator
seed for replay.
"""

from __future__ import annotations

import os

import numpy as np

from worlds import build_correlated_population, build_fitted_themis
from oracle import ReferenceEngine, hybrid_reference

from repro.aggregates import AggregateQuery
from repro.core import Themis, ThemisConfig
from repro.plan import ColumnarExecutor
from repro.query import (
    AggregateFunction,
    AggregateSpec,
    AnalyticQuery,
    Comparison,
    GroupByQuery,
    HavingPredicate,
    OrderKey,
    PointQuery,
    Predicate,
    ScalarAggregateQuery,
    WindowFunction,
    WindowSpec,
)
from repro.schema import Attribute, Domain, Relation, Schema

#: Total number of generated queries; the CI sweep step raises this to 240.
SWEEP = int(os.environ.get("SQL_DIFFERENTIAL_SWEEP", "42"))
QUERIES_PER_RELATION = 6
QUERIES_PER_WORLD = 12

def pick(rng: np.random.Generator, options):
    """Choose one element without numpy dtype coercion (enums stay enums)."""
    return options[int(rng.integers(len(options)))]


STRING_ATTRIBUTES = ("state", "carrier")
NUMERIC_ATTRIBUTES = ("delay", "dist")
GROUPABLE = ("state", "carrier", "delay")


# ---------------------------------------------------------------------------
# Random relation / query generation
# ---------------------------------------------------------------------------
def build_random_relation(rng: np.random.Generator) -> Relation:
    """A small random weighted relation with string and numeric domains."""
    n_rows = int(rng.integers(40, 90))
    schema = Schema(
        [
            Attribute("state", Domain(["CA", "CO", "NY", "TX", "WA"][: int(rng.integers(3, 6))])),
            Attribute("carrier", Domain(["AA", "DL", "UA"][: int(rng.integers(2, 4))])),
            Attribute("delay", Domain([0, 15, 30, 60, 120][: int(rng.integers(3, 6))])),
            Attribute("dist", Domain([0.5, 1.1, 2.5, 10.0][: int(rng.integers(2, 5))])),
        ]
    )
    columns = {
        attribute.name: rng.integers(0, attribute.size, size=n_rows)
        for attribute in schema
    }
    # Zero weights exercise the positive-group filter; 1.1 / 0.3 make float
    # accumulation order observable (they are not exactly representable).
    weights = rng.choice(
        [0.0, 0.3, 1.0, 1.1, 2.5], size=n_rows, p=[0.15, 0.2, 0.25, 0.2, 0.2]
    )
    return Relation(schema, columns, weights)


def random_predicates(rng: np.random.Generator, schema: Schema, n: int):
    """Random predicates, including out-of-domain literals and IN lists."""
    predicates = []
    for _ in range(n):
        name = str(rng.choice(schema.names))
        domain = schema[name].domain
        values = list(domain.values)
        unknown = "ZZ" if name in STRING_ATTRIBUTES else max(values) + 7
        if rng.random() < 0.3:
            pool = values + [unknown]
            size = int(rng.integers(1, min(3, len(pool)) + 1))
            chosen = [pool[i] for i in rng.choice(len(pool), size=size, replace=False)]
            predicates.append(Predicate(name, Comparison.IN, tuple(chosen)))
            continue
        comparison = pick(
            rng,
            [
                Comparison.EQ,
                Comparison.NE,
                Comparison.LT,
                Comparison.LE,
                Comparison.GT,
                Comparison.GE,
            ],
        )
        value = values[int(rng.integers(len(values)))]
        if rng.random() < 0.25:
            # Literals off the domain grid: EQ/NE miss, ordered comparisons
            # snap to the largest not-exceeding domain position.
            value = unknown if rng.random() < 0.5 else (
                value + 0.25 if name in NUMERIC_ATTRIBUTES else "AB"
            )
        predicates.append(Predicate(name, comparison, value))
    return tuple(predicates)


def candidate_specs(rng: np.random.Generator, n: int):
    """``n`` distinct aggregate specs, each aliased ``a0..``."""
    pool = [
        (AggregateFunction.COUNT, None),
        (AggregateFunction.SUM, "delay"),
        (AggregateFunction.AVG, "delay"),
        (AggregateFunction.SUM, "dist"),
        (AggregateFunction.AVG, "dist"),
    ]
    picks = rng.choice(len(pool), size=n, replace=False)
    return tuple(
        AggregateSpec(pool[pick][0], pool[pick][1], alias=f"a{index}")
        for index, pick in enumerate(picks)
    )


def random_analytic(rng: np.random.Generator, schema: Schema) -> AnalyticQuery:
    """A random table-shaped query over the full pipeline surface."""
    n_group = int(rng.integers(0, 3))
    group_by = tuple(
        str(name) for name in rng.choice(GROUPABLE, size=n_group, replace=False)
    )
    specs = candidate_specs(rng, int(rng.integers(1, 4)))
    aliases = [spec.alias for spec in specs]
    predicates = random_predicates(rng, schema, int(rng.integers(0, 3)))

    having = ()
    windows = []
    if group_by:
        if rng.random() < 0.5:
            having = tuple(
                HavingPredicate(
                    pick(rng, aliases),
                    pick(rng, [Comparison.GT, Comparison.GE, Comparison.LT, Comparison.LE]),
                    float(pick(rng, [0.5, 1.0, 2.0, 4.0, 8.0])),
                )
                for _ in range(int(rng.integers(1, 3)))
            )
        for index in range(int(rng.integers(0, 3))):
            partition = tuple(
                str(name)
                for name in rng.choice(
                    group_by, size=int(rng.integers(0, len(group_by) + 1)), replace=False
                )
            )
            targets = list(group_by) + aliases
            order = tuple(
                OrderKey(pick(rng, targets), descending=bool(rng.random() < 0.5))
                for _ in range(int(rng.integers(1, 3)))
            )
            if rng.random() < 0.5:
                windows.append(
                    WindowSpec(
                        WindowFunction.RANK,
                        alias=f"w{index}",
                        partition_by=partition,
                        order_by=order,
                    )
                )
            else:
                windows.append(
                    WindowSpec(
                        WindowFunction.SUM,
                        alias=f"w{index}",
                        target=pick(rng, aliases),
                        partition_by=partition,
                        order_by=order if rng.random() < 0.7 else (),
                    )
                )

    sortable = list(group_by) + aliases + [window.alias for window in windows]
    order_by = tuple(
        OrderKey(str(name), descending=bool(rng.random() < 0.5))
        for name in rng.choice(
            sortable,
            size=min(len(sortable), int(rng.integers(0, 3))),
            replace=False,
        )
    )
    limit = int(rng.integers(1, 6)) if rng.random() < 0.4 else None
    return AnalyticQuery(
        group_by=group_by,
        aggregates=specs,
        predicates=predicates,
        having=having,
        windows=tuple(windows),
        order_by=order_by,
        limit=limit,
    )


def random_query(rng: np.random.Generator, schema: Schema):
    """One random query across every supported shape."""
    roll = rng.random()
    if roll < 0.1:
        names = rng.choice(schema.names, size=int(rng.integers(1, 3)), replace=False)
        return PointQuery(
            {
                str(name): schema[str(name)].domain.values[
                    int(rng.integers(schema[str(name)].size))
                ]
                for name in names
            }
        )
    if roll < 0.25:
        spec = candidate_specs(rng, 1)[0]
        return ScalarAggregateQuery(
            aggregate=AggregateSpec(spec.function, spec.attribute),
            predicates=random_predicates(rng, schema, int(rng.integers(0, 3))),
        )
    if roll < 0.45:
        n_group = int(rng.integers(1, 3))
        spec = candidate_specs(rng, 1)[0]
        return GroupByQuery(
            tuple(str(n) for n in rng.choice(GROUPABLE, size=n_group, replace=False)),
            aggregate=AggregateSpec(spec.function, spec.attribute),
            predicates=random_predicates(rng, schema, int(rng.integers(0, 3))),
        )
    return random_analytic(rng, schema)


# ---------------------------------------------------------------------------
# SQL rendering (exercises the parser path on renderable queries)
# ---------------------------------------------------------------------------
def _literal(value) -> str:
    return f"'{value}'" if isinstance(value, str) else repr(value)


def _expression(spec) -> str:
    """``FUNC(attr)`` with only the function upper-cased (idents are case-sensitive)."""
    return f"{spec.function.value.upper()}({spec.attribute or '*'})"


def _render_predicates(predicates) -> str:
    if not predicates:
        return ""
    parts = []
    for predicate in predicates:
        if predicate.comparison is Comparison.IN:
            values = ", ".join(_literal(v) for v in predicate.value)
            parts.append(f"{predicate.attribute} IN ({values})")
        else:
            parts.append(
                f"{predicate.attribute} {predicate.comparison.value} "
                f"{_literal(predicate.value)}"
            )
    return " WHERE " + " AND ".join(parts)


def _render_order(keys) -> str:
    return ", ".join(
        f"{key.target} DESC" if key.descending else key.target for key in keys
    )


def render_sql(query) -> str | None:
    """Render a query back to SQL text, or None when not renderable.

    Analytic queries are only rendered when the parser's richness test
    keeps them table-shaped; otherwise the text would parse to a legacy
    AST with a different result shape.
    """
    if isinstance(query, PointQuery):
        where = _render_predicates(
            [Predicate(name, Comparison.EQ, value) for name, value in query.assignment]
        )
        return f"SELECT COUNT(*) FROM t{where}"
    if isinstance(query, ScalarAggregateQuery):
        where = _render_predicates(query.predicates)
        return f"SELECT {_expression(query.aggregate)} FROM t{where}"
    if isinstance(query, GroupByQuery):
        columns = ", ".join(query.group_by)
        where = _render_predicates(query.predicates)
        group = ", ".join(query.group_by)
        return (
            f"SELECT {columns}, {_expression(query.aggregate)} FROM t"
            f"{where} GROUP BY {group}"
        )
    if not isinstance(query, AnalyticQuery):
        return None
    rich = (
        len(query.aggregates) > 1
        or query.having
        or query.order_by
        or query.limit is not None
        or query.windows
        or (query.group_by and any(spec.alias for spec in query.aggregates))
    )
    if not rich:
        return None
    items = list(query.group_by)
    for spec in query.aggregates:
        alias = f" AS {spec.alias}" if spec.alias else ""
        items.append(f"{_expression(spec)}{alias}")
    for window in query.windows:
        over = []
        if window.partition_by:
            over.append("PARTITION BY " + ", ".join(window.partition_by))
        if window.order_by:
            over.append("ORDER BY " + _render_order(window.order_by))
        head = "RANK()" if window.function is WindowFunction.RANK else f"SUM({window.target})"
        items.append(f"{head} OVER ({' '.join(over)}) AS {window.alias}")
    sql = f"SELECT {', '.join(items)} FROM t"
    sql += _render_predicates(query.predicates)
    if query.group_by:
        sql += " GROUP BY " + ", ".join(query.group_by)
    if query.having:
        sql += " HAVING " + " AND ".join(
            f"{condition.target} {condition.comparison.value} {_literal(condition.value)}"
            for condition in query.having
        )
    if query.order_by:
        sql += " ORDER BY " + _render_order(query.order_by)
    if query.limit is not None:
        sql += f" LIMIT {query.limit}"
    return sql


# ---------------------------------------------------------------------------
# The differential sweep
# ---------------------------------------------------------------------------
def _check_relation(seed: int, n_queries: int) -> None:
    rng = np.random.default_rng(seed)
    relation = build_random_relation(rng)
    queries = [random_query(rng, relation.schema) for _ in range(n_queries)]
    oracle = ReferenceEngine(relation)
    executor = ColumnarExecutor(relation)
    expected = [oracle.execute(query) for query in queries]

    for query, want in zip(queries, expected):
        got = executor.execute(query)
        assert got == want, (
            f"seed={seed}: per-plan mismatch for {query!r}:\n{got!r}\n!=\n{want!r}"
        )
        sql = render_sql(query)
        if sql is not None:
            via_sql = executor.execute(sql)
            assert via_sql == want, (
                f"seed={seed}: SQL-path mismatch for {sql!r}:\n{via_sql!r}\n!=\n{want!r}"
            )

    answers = executor.execute_batch(queries)
    for index, (got, want) in enumerate(zip(answers, expected)):
        assert got == want, (
            f"seed={seed}: batch mismatch at #{index} "
            f"for {queries[index]!r}:\n{got!r}\n!=\n{want!r}"
        )


def test_differential_sweep():
    """Random queries agree exactly across oracle, per-plan, and batch paths."""
    n_relations = max(1, SWEEP // QUERIES_PER_RELATION)
    for case in range(n_relations):
        _check_relation(seed=90_000 + case, n_queries=QUERIES_PER_RELATION)


def build_random_world(rng: np.random.Generator) -> tuple[Themis, Relation]:
    """A facade over a biased sample of a random population with the
    generator's schema, and that population: the sample misses some tuples,
    so statements reach the network as well as the sample."""
    shape = build_random_relation(rng)
    n_rows = 400
    columns = {
        attribute.name: rng.integers(0, attribute.size, size=n_rows)
        for attribute in shape.schema
    }
    population = Relation(shape.schema, columns)
    biased = (columns["state"] == 0) | (rng.random(n_rows) < 0.1)
    themis = Themis(
        ThemisConfig(
            seed=int(rng.integers(1 << 30)),
            ipf_max_iterations=20,
            n_generated_samples=2,
            generated_sample_size=150,
        )
    )
    themis.load_sample(population.take(np.flatnonzero(biased)[:60]), name="t")
    themis.add_aggregate(AggregateQuery.from_relation(population, ["state"]))
    themis.add_aggregate(AggregateQuery.from_relation(population, ["carrier", "delay"]))
    return themis, population


def _check_small_cache_batches(
    seed: int, round_: str, rng: np.random.Generator, session, statements, expected
) -> None:
    """Serve ``statements`` in random-sized batches with random repeats,
    after warming ``session``'s small result cache with a random subset:
    every answer is ``expected``'s, and each batch probes the cache once per
    distinct plan key, with ``from_result_cache`` on exactly the hits."""
    n = len(statements)
    warm = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    session.execute_batch([statements[index] for index in warm])
    stream = rng.permutation(np.concatenate([np.arange(n), rng.integers(0, n, size=n // 2)]))
    cache = session.result_cache.statistics
    start = 0
    while start < len(stream):
        indices = stream[start : start + int(rng.integers(1, 9))]
        start += len(indices)
        before = cache.snapshot()
        batch = session.execute_batch([statements[index] for index in indices])
        probed = cache.since(before)
        distinct = {outcome.plan.key for outcome in batch}
        firsts = [outcome for outcome in batch if not outcome.deduplicated]
        where = f"seed={seed} ({round_}): batch {[int(index) for index in indices]}"
        assert probed.hits + probed.misses == len(distinct) == len(firsts), where
        assert sum(outcome.from_result_cache for outcome in firsts) == probed.hits, where
        for index, outcome in zip(indices, batch):
            assert outcome.result == expected[index], (
                f"{where}: small-cache batch mismatch for {statements[index]!r}:"
                f"\n{outcome.result!r}\n!=\n{expected[index]!r}"
            )


def _check_doors(seed: int, n_queries: int) -> set[str]:
    """Check one world's statements at every door; returns the routes taken."""
    rng = np.random.default_rng(seed)
    themis, population = build_random_world(rng)
    queries = [random_query(rng, population.schema) for _ in range(n_queries)]
    # SQL text where the generator can render it, the AST otherwise.
    statements = [render_sql(query) or query for query in queries]
    session, single, small = themis.serve(), themis.serve(), themis.serve(result_cache_size=4)
    for round_ in ("fitted", "refit"):
        model = themis.model
        expected = hybrid_reference(model, statements)
        facade = [
            themis.sql(statement) if isinstance(statement, str) else themis.query(statement)
            for statement in statements
        ]
        one_by_one = [single.execute(statement) for statement in statements]
        batch = session.execute_batch(statements)
        assert batch.generation == model.generation
        for index, want in enumerate(expected):
            for door, got in (
                ("Themis.sql", facade[index]),
                ("session.execute", one_by_one[index]),
                ("execute_batch", batch.results()[index]),
            ):
                assert got == want, (
                    f"seed={seed} ({round_}): {door} mismatch for {statements[index]!r}:"
                    f"\n{got!r}\n!=\n{want!r}"
                )
        _check_small_cache_batches(seed, round_, rng, small, statements, expected)
        themis.add_aggregate(AggregateQuery.from_relation(population, ["state", "carrier"]))
        themis.refit()
    return {outcome.route for outcome in batch}


def test_differential_doors():
    """Random statements through ``Themis.sql``, a serving session's
    ``execute`` and its ``execute_batch`` (whole, and in small batches with
    repeats over a 4-entry result cache), before and after a refit, agree
    exactly with the hybrid rule over the reference engines."""
    n_worlds = max(1, SWEEP // QUERIES_PER_WORLD)
    routes = set()
    for case in range(n_worlds):
        routes |= _check_doors(seed=95_000 + case, n_queries=QUERIES_PER_WORLD)
    assert routes == {"sample", "bayes-net", "hybrid"}


def test_differential_rich_pipeline_heavy():
    """A dedicated sweep of analytic-only queries (pipeline-heavy shapes)."""
    rng = np.random.default_rng(77_001)
    relation = build_random_relation(rng)
    oracle = ReferenceEngine(relation)
    executor = ColumnarExecutor(relation)
    queries = [random_analytic(rng, relation.schema) for _ in range(max(8, SWEEP // 5))]
    expected = [oracle.execute(query) for query in queries]
    for query, want in zip(queries, expected):
        got = executor.execute(query)
        assert got == want, f"seed=77001: {query!r}:\n{got!r}\n!=\n{want!r}"
    optimized = executor.execute_batch(queries)
    for index, (got, want) in enumerate(zip(optimized, expected)):
        assert got == want, (
            f"seed=77001: optimized batch mismatch at #{index} for "
            f"{queries[index]!r}:\n{got!r}\n!=\n{want!r}"
        )


def test_differential_survives_refit():
    """The oracle agreement holds on a fitted model's weighted sample — and
    still holds after ``refit()`` changes every weight."""
    themis = build_fitted_themis()
    population = build_correlated_population()
    queries = [
        AnalyticQuery(
            group_by=("A",),
            aggregates=(
                AggregateSpec(AggregateFunction.COUNT, alias="n"),
                AggregateSpec(AggregateFunction.AVG, "B", alias="mean_b"),
            ),
            having=(HavingPredicate("n", Comparison.GT, 1.0),),
            windows=(
                WindowSpec(
                    WindowFunction.RANK,
                    alias="r",
                    order_by=(OrderKey("n", descending=True),),
                ),
                WindowSpec(WindowFunction.SUM, alias="running", target="n", order_by=(OrderKey("A"),)),
            ),
            order_by=(OrderKey("r"), OrderKey("A")),
        ),
        AnalyticQuery(
            group_by=("A", "B"),
            aggregates=(
                AggregateSpec(AggregateFunction.COUNT, alias="n"),
                AggregateSpec(AggregateFunction.SUM, "C", alias="total_c"),
            ),
            predicates=(Predicate("C", Comparison.LE, 1),),
            order_by=(OrderKey("n", descending=True),),
            limit=4,
        ),
        GroupByQuery(("A",), predicates=(Predicate("B", Comparison.NE, 0),)),
        ScalarAggregateQuery(
            aggregate=AggregateSpec(AggregateFunction.AVG, "B"),
            predicates=(Predicate("A", Comparison.GE, 1),),
        ),
    ]

    def check(model, label):
        weighted = model.weighted_sample
        oracle = ReferenceEngine(weighted)
        executor = model.sample_evaluator.executor
        expected = [oracle.execute(query) for query in queries]
        for query, want in zip(queries, expected):
            got = executor.execute(query)
            assert got == want, f"{label}: {query!r}:\n{got!r}\n!=\n{want!r}"
        optimized = executor.execute_batch(queries)
        assert optimized == expected, f"{label}: optimized batch diverged"
        return weighted.weights.copy()

    before = check(themis.model, "pre-refit")
    themis.add_aggregate(AggregateQuery.from_relation(population, ["A", "C"]))
    model = themis.refit()
    after = check(model, "post-refit")
    assert not np.array_equal(before, after), "refit should change the weights"
