"""Query planning: canonical plan keys and evaluator routing.

The serving layer answers many queries against one fitted model, so before
anything is executed each query is *planned*.  Since the logical-plan IR
landed this module is a thin binding layer: the actual canonicalization —
predicates bucketized into domain codes, the hashable plan key derived from
the compiled operator tree — happens exactly once, in
:class:`repro.plan.PlanCompiler`, and routing stamps the compiled plan's
``Route`` node against the fitted model (:func:`repro.plan.resolve_route`)
using the model's shared predicate-mask cache.

Two syntactically different but semantically equivalent queries — e.g. the
same WHERE clause with its conjuncts reordered, or an ordered predicate whose
literal falls in the same domain bucket — produce the same plan key, which is
what the result cache is keyed on.  Canonicalization only ever affects the
*key*; execution always runs the submitted query's own compiled plan (or the
AST it was compiled from), so a plan can never change the answer of the
query it wraps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from ..plan import (
    LogicalPlan,
    PlanCompiler,
    PlanKey,
    resolve_route,
)
from ..plan.ir import (
    ROUTE_BAYES_NET,
    ROUTE_HYBRID,
    ROUTE_SAMPLE,
    SHAPE_GROUP_BY,
    SHAPE_JOIN_GROUP_BY,
    SHAPE_POINT,
    SHAPE_SCALAR,
    SHAPE_TABLE,
)
from ..query.ast import Query
from ..schema import Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.model import ThemisModel

__all__ = [
    "PlanKey",
    "QueryPlan",
    "QueryPlanner",
    "ROUTE_BAYES_NET",
    "ROUTE_HYBRID",
    "ROUTE_SAMPLE",
]


@dataclass(frozen=True)
class QueryPlan:
    """One planned query: the compiled logical plan bound to a route.

    Attributes
    ----------
    query:
        The query exactly as submitted.
    key:
        The canonical hashable plan key (identical for equivalent queries),
        derived from the compiled operator tree.
    route:
        Which evaluator serves the plan (``"sample"``, ``"bayes-net"``, or
        ``"hybrid"``).
    logical:
        The compiled (and routed) :class:`~repro.plan.LogicalPlan`; always
        set — :meth:`QueryPlanner._bind` is the only constructor.
    sql:
        The SQL text the plan was parsed from, when it came in as text.

    What only the batch executor reads (:attr:`group_signature`,
    :attr:`needs_generated_samples`) is derived from ``logical`` on first
    read, so a single statement never pays for it.
    """

    query: Query
    key: PlanKey
    route: str
    logical: LogicalPlan
    sql: str | None = None

    @property
    def shape(self) -> str:
        """The plan's query shape tag (``"point"``, ``"scalar"``, ...)."""
        return self.logical.shape

    @cached_property
    def group_signature(self) -> tuple:
        """The batching signature: plans sharing it group over the same
        columns (and hence the same Bayesian-network factors), so the
        executor runs them back-to-back and amortizes generated-sample
        inference."""
        logical = self.logical
        if logical.shape in (SHAPE_POINT, SHAPE_SCALAR):
            return (logical.shape, logical.attributes)
        return (logical.shape, logical.group_keys)

    @cached_property
    def needs_generated_samples(self) -> bool:
        """Whether serving the plan touches the BN's forward-sampled relations."""
        logical = self.logical
        if logical.shape in (SHAPE_GROUP_BY, SHAPE_JOIN_GROUP_BY):
            return True  # the hybrid merges in BN groups from generated samples
        if logical.shape == SHAPE_TABLE and logical.group_keys:
            return True  # grouped tables merge in BN groups like any group-by
        # Group-less shapes touch the generated samples only when BN-routed;
        # a BN-routed point plan is answered by exact inference.
        return logical.shape != SHAPE_POINT and self.route == ROUTE_BAYES_NET


class QueryPlanner:
    """Bind compiled logical plans to one fitted model.

    Parameters
    ----------
    schema:
        The sample schema; used to validate attributes and bucketize
        literals (inside the shared :class:`~repro.plan.PlanCompiler`).
    model:
        The fitted model routing decisions are made against.  Without a
        model every plan routes to ``"hybrid"``.
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
        model: "ThemisModel | None" = None,
        compiler: PlanCompiler | None = None,
    ):
        self._compiler = compiler if compiler is not None else PlanCompiler(schema)
        self._model = model

    @property
    def compiler(self) -> PlanCompiler:
        """The plan compiler (one canonicalization for every layer)."""
        return self._compiler

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, query: Query | str) -> QueryPlan:
        """Plan a query AST or a SQL string."""
        if isinstance(query, str):
            return self.plan_sql(query)
        return self._bind(self._compiler.compile(query))

    def plan_sql(self, statement: str) -> QueryPlan:
        """Parse a SQL statement and plan the resulting AST."""
        return self._bind(self._compiler.compile_sql(statement))

    def _bind(self, logical: LogicalPlan) -> QueryPlan:
        routed = resolve_route(logical, self._model)
        return QueryPlan(
            query=routed.query,
            key=routed.key,
            route=routed.route,
            logical=routed,
            sql=routed.sql,
        )

    # ------------------------------------------------------------------
    # Canonical keys
    # ------------------------------------------------------------------
    def canonical_key(self, query: Query) -> PlanKey:
        """The canonical hashable key of a query.

        Equivalent queries (reordered conjuncts, literals bucketizing to the
        same domain code) map to the same key; queries differing in any
        constant's bucket do not.  Derived directly from the compiled plan —
        there is no second canonicalization to drift from the first.
        """
        return self._compiler.canonical_key(query)
