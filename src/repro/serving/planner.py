"""The benchmark's old routing layer: compile, then stamp the route.

A served statement is planned by :meth:`repro.core.ThemisModel.plan`:
the sample evaluator's :class:`repro.plan.PlanCompiler` canonicalizes it
once (predicates bucketized into domain codes, the hashable plan key
derived from the compiled operator tree) and
:func:`repro.plan.resolve_route` stamps its ``Route`` node against the
fitted sample's predicate-mask cache.  The routed
:class:`~repro.plan.LogicalPlan` is the served plan: the facade's plan
cache, ``QueryOutcome.plan``, ``Themis.plan()`` and the worker's key check
all hold that one value.

:class:`QueryPlanner` is those same two calls behind an object.  It
survives only because the benchmark's traced replay (``bench/layers.py``)
imports it to time one of its span layers, the route binding; no module of
the package imports it.
"""

from __future__ import annotations

from ..plan import LogicalPlan, MaskCache, PlanCompiler, PlanKey, resolve_route
from ..plan.ir import ROUTE_BAYES_NET, ROUTE_HYBRID, ROUTE_SAMPLE
from ..query.ast import Query
from ..schema import Schema

__all__ = [
    "PlanKey",
    "QueryPlanner",
    "ROUTE_BAYES_NET",
    "ROUTE_HYBRID",
    "ROUTE_SAMPLE",
]


class QueryPlanner:
    """Compile and route statements against one fitted sample's masks
    (without ``masks`` every plan routes to ``"hybrid"``)."""

    def __init__(
        self,
        schema: Schema,
        masks: MaskCache | None = None,
        compiler: PlanCompiler | None = None,
    ):
        self._compiler = compiler if compiler is not None else PlanCompiler(schema)
        self._masks = masks

    def plan(self, query: Query | str) -> LogicalPlan:
        """Compile and route a query AST or a SQL string."""
        return resolve_route(self._compiler.compile(query), self._masks)
