"""A cold statement pays for each step once — and answers what it always did.

The facade (``Themis.sql``), the serving session and the unrouted hybrid
kernels must agree on every statement; what a routed plan derives on read
(``needs_generated_samples``) must equal what the planner used to compute
eagerly at bind; and nothing a session keeps in its plan cache may hold a
mask or a model, not even after the plan outlived a refit.
"""

from __future__ import annotations

from enum import Enum

import numpy as np
import pytest

from repro.core import ThemisModel
from repro.plan import PlanCompiler
from repro.query import JoinGroupByQuery, MixedQueryWorkload
from repro.sql import parse_sql
from worlds import build_sparse_fitted_themis

JOIN = JoinGroupByQuery(left_join="A", right_join="A", left_group="B", right_group="C")

#: ``(statement, route, needs_generated_samples)`` as the planner's eager
#: bind produced them on the sparse test world before the flag became a
#: derived property — one row per branch of the rule.
EAGER_BINDINGS = {
    "point-in-sample": (
        "SELECT COUNT(*) FROM sample WHERE A = 0 AND B = 0",
        "sample",
        False,
    ),
    "point-not-in-sample": (
        "SELECT COUNT(*) FROM sample WHERE A = 2 AND B = 0 AND C = 1",
        "bayes-net",
        False,
    ),
    "point-out-of-domain": (
        "SELECT COUNT(*) FROM sample WHERE A = 7",
        "bayes-net",
        False,
    ),
    "scalar-on-sample": (
        "SELECT SUM(B) FROM sample WHERE A <= 1",
        "sample",
        False,
    ),
    "scalar-on-network": (
        "SELECT SUM(B) FROM sample WHERE A = 2 AND B = 0 AND C = 1",
        "bayes-net",
        True,
    ),
    "scalar-unfiltered": ("SELECT COUNT(*) FROM sample", "sample", False),
    "group-by-filtered": (
        "SELECT A, COUNT(*) FROM sample WHERE C = 1 GROUP BY A",
        "hybrid",
        True,
    ),
    "group-by-two-keys": (
        "SELECT A, B, AVG(C) FROM sample GROUP BY A, B",
        "hybrid",
        True,
    ),
    "table-grouped": (
        "SELECT A, COUNT(*) AS n, SUM(B) AS s FROM sample GROUP BY A ORDER BY n DESC LIMIT 2",
        "hybrid",
        True,
    ),
    "table-groupless-on-sample": (
        "SELECT COUNT(*) AS n, AVG(B) AS m FROM sample WHERE A = 0",
        "sample",
        False,
    ),
    "table-groupless-on-network": (
        "SELECT COUNT(*) AS n, AVG(B) AS m FROM sample WHERE A = 2 AND B = 0 AND C = 1",
        "bayes-net",
        True,
    ),
    "table-groupless-unfiltered": (
        "SELECT COUNT(*) AS n, AVG(B) AS m FROM sample",
        "sample",
        False,
    ),
    "join": (JOIN, "hybrid", True),
}


@pytest.fixture(scope="module")
def statements(sparse_serving_themis) -> list[str]:
    """400 seeded statements, 100 of each SQL-expressible shape."""
    sample = sparse_serving_themis.model.weighted_sample
    workload = MixedQueryWorkload(sample, table="sample", seed=404)
    return [entry.sql for entry in workload.generate(100, 100, 100, 100)]


def test_facade_session_and_unrouted_hybrid_agree(sparse_serving_themis, statements):
    themis = sparse_serving_themis
    session = themis.serve()
    hybrid = themis.model.hybrid_evaluator
    compiler = PlanCompiler(themis.sample.schema)
    routes = set()
    for statement in statements:
        unrouted = compiler.compile(parse_sql(statement).query)
        assert unrouted.route is None
        answer = themis.sql(statement)
        assert answer == session.execute(statement), statement
        assert answer == hybrid.execute(unrouted), statement
        routes.add(themis.plan(statement).route)
    assert routes == {"sample", "bayes-net", "hybrid"}


def test_text_and_ast_compile_to_the_same_key(sparse_serving_themis, statements):
    themis = sparse_serving_themis
    compiler = PlanCompiler(themis.sample.schema)
    for statement in statements:
        plan = themis.plan(statement)
        from_ast = compiler.compile(parse_sql(statement).query)
        assert plan.key == from_ast.key
        assert plan.sql == statement and from_ast.sql is None
        assert plan.root.child == from_ast.root.child


@pytest.mark.parametrize(
    "statement, route, needs_samples",
    EAGER_BINDINGS.values(),
    ids=EAGER_BINDINGS.keys(),
)
def test_derived_plan_properties_equal_the_eager_bind(
    sparse_serving_themis, statement, route, needs_samples
):
    plan = sparse_serving_themis.plan(statement)
    assert plan.route == route
    assert plan.needs_generated_samples is needs_samples


@pytest.mark.parametrize(
    "statement",
    [
        "SELECT SUM(B) FROM sample WHERE A = 2 AND B = 0 AND C = 1",
        "SELECT COUNT(*) FROM sample WHERE A >= 2 AND B = 0 AND C = 1",
    ],
    ids=["sum", "count"],
)
def test_served_network_scalar_needs_generated_samples(sparse_serving_themis, statement):
    """The plan a session serves is the planner's routed plan:
    a network-routed scalar is answered from the generated samples, and so
    is the groupless table over the same filter."""
    themis = sparse_serving_themis
    outcome = themis.serve().execute_with_outcome(statement)
    plan = outcome.plan
    assert plan == themis.plan(statement)
    assert plan.route == "bayes-net"
    assert plan.needs_generated_samples is True
    assert outcome.result == themis.query(statement)
    table = themis.serve().execute_with_outcome(
        "SELECT COUNT(*) AS n, AVG(B) AS m FROM sample WHERE A = 2 AND B = 0 AND C = 1"
    ).plan
    assert (table.route, table.needs_generated_samples) == ("bayes-net", True)


def _reachable(root):
    """Every object reachable from ``root`` through attributes and containers."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        value = stack.pop()
        if id(value) in seen or isinstance(value, (str, bytes, int, float, Enum, type(None))):
            continue
        seen.add(id(value))
        yield value
        if isinstance(value, dict):
            stack.extend(value.keys())
            stack.extend(value.values())
        elif isinstance(value, (tuple, list, set, frozenset)):
            stack.extend(value)
        elif hasattr(value, "__dict__"):
            stack.extend(vars(value).values())


def test_no_array_is_reachable_from_a_cached_plan(sparse_serving_themis, statements):
    """A mask kept on a cached plan would put ``capacity x n_rows`` bytes
    into every session's plan cache."""
    session = sparse_serving_themis.serve()
    served = statements[::8]
    session.execute_batch(served[: len(served) // 2])
    for statement in served[len(served) // 2 :]:
        session.execute(statement)
    for statement in served:
        plan = session.plan_cache.get(statement)
        assert plan is not None and plan.sql == statement
        objects = list(_reachable(plan))
        assert any(value is plan.predicates for value in objects)  # the walk is deep
        arrays = [value for value in objects if isinstance(value, np.ndarray)]
        assert not arrays, statement


def test_plans_that_survive_a_refit_reach_no_array_and_no_model(statements):
    """A refit keeps the session's routed plans (same sample); what they hold
    must then outlive the model they were routed on without pinning it."""
    themis = build_sparse_fitted_themis()
    session = themis.serve()
    served = statements[::8]
    session.execute_batch(served)
    before = dict(session.plan_cache.entries())
    themis.refit()
    session.execute_batch(served)
    assert dict(session.plan_cache.entries()) == before
    for statement in served:
        plan = session.plan_cache.peek(statement)
        assert plan is before[statement]
        objects = list(_reachable(plan))
        assert any(value is plan.predicates for value in objects)
        assert not [value for value in objects if isinstance(value, (np.ndarray, ThemisModel))]
