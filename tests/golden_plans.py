"""The fixed plan set behind the wire-format golden file.

Shared by the fixture generator (``python tests/golden_plans.py``) and the
compatibility tests in ``tests/test_plan_wire.py``: both build the exact
same plans from the shared test-world schema, so a golden mismatch can only
mean the *encoding* changed — which requires a ``WIRE_FORMAT_VERSION`` bump.

Every IR node type appears in at least one plan: Scan, Filter (equality,
ordered, IN, and out-of-domain predicates), Group, Aggregate (with extras),
Join, Having, Window (RANK and running SUM), Sort, Limit, and Route (both
unrouted and explicitly routed).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.plan import ROUTE_HYBRID, PlanCompiler, plan_to_json
from repro.query.ast import (
    AggregateFunction,
    AggregateSpec,
    AnalyticQuery,
    Comparison,
    GroupByQuery,
    HavingPredicate,
    JoinGroupByQuery,
    OrderKey,
    PointQuery,
    Predicate,
    ScalarAggregateQuery,
    WindowFunction,
    WindowSpec,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "plan_wire_v2.json"


def golden_queries() -> dict[str, object]:
    """Name -> query AST, fixed forever (append new names, never edit)."""
    return {
        "point": PointQuery({"A": 1, "B": 2}),
        "point-out-of-domain": PointQuery({"A": 99, "C": 0}),
        "scalar-count-ordered": ScalarAggregateQuery(
            aggregate=AggregateSpec(AggregateFunction.COUNT),
            predicates=(
                Predicate("A", Comparison.LE, 1),
                Predicate("B", Comparison.GT, 0),
            ),
        ),
        "scalar-avg-in": ScalarAggregateQuery(
            aggregate=AggregateSpec(AggregateFunction.AVG, "B"),
            predicates=(Predicate("A", Comparison.IN, (0, 2)),),
        ),
        "group-by-sum": GroupByQuery(
            group_by=("A", "C"),
            aggregate=AggregateSpec(AggregateFunction.SUM, "B"),
            predicates=(Predicate("B", Comparison.NE, 1),),
        ),
        "join-group-by": JoinGroupByQuery(
            left_join="A",
            right_join="A",
            left_group="B",
            right_group="C",
            left_predicates=(Predicate("B", Comparison.EQ, 1),),
            right_predicates=(Predicate("C", Comparison.IN, (0, 1)),),
        ),
        "analytic-full-pipeline": AnalyticQuery(
            group_by=("A", "B"),
            aggregates=(
                AggregateSpec(AggregateFunction.COUNT, alias="n"),
                AggregateSpec(AggregateFunction.SUM, "C", alias="total"),
            ),
            predicates=(Predicate("C", Comparison.GE, 0),),
            having=(HavingPredicate("n", Comparison.GT, 1.0),),
            windows=(
                WindowSpec(
                    WindowFunction.RANK,
                    "r",
                    partition_by=("A",),
                    order_by=(OrderKey("count(*)", descending=True),),
                ),
                WindowSpec(
                    WindowFunction.SUM,
                    "running",
                    target="n",
                    order_by=(OrderKey("A"), OrderKey("B")),
                ),
            ),
            order_by=(OrderKey("r"), OrderKey("A", descending=True)),
            limit=5,
        ),
    }


def golden_plans(schema) -> dict[str, object]:
    """Name -> compiled plan over the shared test-world schema."""
    compiler = PlanCompiler(schema)
    plans = {
        name: compiler.compile(query) for name, query in golden_queries().items()
    }
    # One explicitly routed plan: the route must survive the wire too.
    plans["point-routed-hybrid"] = plans["point"].with_route(ROUTE_HYBRID)
    return plans


def build_fixture() -> dict[str, object]:
    """The golden-file payload: format version + canonical JSON per plan."""
    from worlds import build_fitted_themis
    from repro.plan import WIRE_FORMAT_VERSION

    themis = build_fitted_themis()
    plans = golden_plans(themis.sample.schema)
    return {
        "wire_format_version": WIRE_FORMAT_VERSION,
        "plans": {name: json.loads(plan_to_json(plan)) for name, plan in plans.items()},
    }


def main() -> None:
    """Regenerate the golden file (run after a deliberate version bump)."""
    fixture = build_fixture()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} (version {fixture['wire_format_version']})")


if __name__ == "__main__":
    main()
