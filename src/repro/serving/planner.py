"""Query planning: canonical plan keys and evaluator routing.

The serving layer answers many queries against one fitted model, so before
anything is executed each query is *planned*.  The canonicalization —
predicates bucketized into domain codes, the hashable plan key derived from
the compiled operator tree — happens exactly once, in
:class:`repro.plan.PlanCompiler`, and routing stamps the compiled plan's
``Route`` node against the fitted sample (:func:`repro.plan.resolve_route`)
using its shared predicate-mask cache.  ``Themis.fit()`` builds one planner
per fitted model (``ThemisModel.planner``) over that model's compiler and
mask cache; the planner holds neither the model nor the facade, so a
dropped model is freed by reference counting.  The routed
:class:`~repro.plan.LogicalPlan` is the served plan: the facade's plan
cache, ``QueryOutcome.plan``, ``Themis.plan()`` and the worker's key check
all hold that one value.

Two syntactically different but semantically equivalent queries — e.g. the
same WHERE clause with its conjuncts reordered, or an ordered predicate whose
literal falls in the same domain bucket — produce the same plan key, which is
what the result cache is keyed on.  Canonicalization only ever affects the
*key*; execution always runs the submitted query's own compiled plan, so a
plan can never change the answer of the query it carries.
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
    """Route compiled logical plans against one fitted sample.

    Parameters
    ----------
    schema:
        The sample schema; used to validate attributes and bucketize
        literals (inside the shared :class:`~repro.plan.PlanCompiler`).
    masks:
        The fitted weighted sample's predicate-mask cache routing decisions
        read.  Without one every plan routes to ``"hybrid"``.
    compiler:
        An existing compiler to share.  Binding the planner to the model's
        engine compiler means a query compiles exactly once system-wide:
        the engine executes the very :class:`~repro.plan.LogicalPlan` the
        planner derived the key and route from (and AST queries share the
        compiler's memo).
    """

    def __init__(
        self,
        schema: Schema,
        masks: MaskCache | None = None,
        compiler: PlanCompiler | None = None,
    ):
        self._compiler = compiler if compiler is not None else PlanCompiler(schema)
        self._masks = masks

    @property
    def compiler(self) -> PlanCompiler:
        """The plan compiler (one canonicalization for every layer)."""
        return self._compiler

    def plan(self, query: Query | str) -> LogicalPlan:
        """Compile and route a query AST or a SQL string."""
        if isinstance(query, str):
            return self.plan_sql(query)
        return resolve_route(self._compiler.compile(query), self._masks)

    def plan_sql(self, statement: str) -> LogicalPlan:
        """Parse, compile and route one SQL statement."""
        return resolve_route(self._compiler.compile_sql(statement), self._masks)
