"""The logical-plan intermediate representation shared by every query path.

Themis grew three independent execution paths — ``Themis.execute()``, the
weighted SQL engine, and the serving planner — each re-dispatching on query
AST types and re-deriving canonical forms.  This module is the single
representation they all consume now: a small operator tree

``Scan -> Filter -> [Group ->] Aggregate`` (plus ``Join`` for the self-join
shape), wrapped in a ``Route`` node that records which evaluator serves the
plan (reweighted sample, Bayesian network, or the hybrid of both).

A plan is compiled **once** (see :mod:`repro.plan.compiler`): predicates are
canonicalized into hashable :class:`CanonicalPredicate` triples with literals
bucketized into domain codes, and the plan's :attr:`LogicalPlan.key` — the
serving result-cache key — is derived directly from the operator tree, so the
router and the executors can never disagree about what a query means.
Execution is vectorized columnar kernels over the compiled predicates (see
:mod:`repro.plan.kernels`); the original AST rides along untouched for
callers that still want it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Union

import numpy as np

from ..exceptions import QueryError
from ..query.ast import (
    AnalyticQuery,
    Comparison,
    GroupByQuery,
    JoinGroupByQuery,
    PointQuery,
    Query,
    ScalarAggregateQuery,
)
from ..schema import Relation

#: Sentinel used in plan keys and canonical predicates for literals outside
#: the modelled active domain (kept identical to the serving planner's
#: historical sentinel so result-cache keys are stable across versions).
OUT_OF_DOMAIN = "<oov>"

#: Evaluator routes a plan can take (re-exported by ``repro.serving``).
ROUTE_SAMPLE = "sample"
ROUTE_BAYES_NET = "bayes-net"
ROUTE_HYBRID = "hybrid"

#: Query shapes a plan can carry (``LogicalPlan.shape``).
SHAPE_POINT = "point"
SHAPE_SCALAR = "scalar"
SHAPE_GROUP_BY = "group-by"
SHAPE_JOIN_GROUP_BY = "join-group-by"
SHAPE_TABLE = "table"


@dataclass(frozen=True)
class CanonicalPredicate:
    """One WHERE conjunct with its literal bucketized into domain codes.

    ``bucket`` is the predicate's value in canonical form: the domain code
    (or :data:`OUT_OF_DOMAIN`) for ``=``/``!=``, a sorted tuple of codes for
    ``IN``, and the ordered-domain threshold position (or
    :data:`OUT_OF_DOMAIN`) for ``<``/``<=``/``>``/``>=`` — exactly the value
    :meth:`repro.query.ast.Predicate.mask` evaluates against, so two literals
    falling in the same bucket compile to the same predicate, the same mask,
    and the same plan key.  ``literal`` keeps the value as the user wrote it,
    for display only — it takes no part in keys, masks, or caching.

    Like every plan node this is a frozen value, so what is derived from it
    is computed once, on the node, and read by every layer: ``key`` is the
    hashable ``(attribute, operator, bucket)`` triple used in plan keys and
    the mask cache.
    """

    attribute: str
    comparison: Comparison
    bucket: Any
    literal: Any = None
    key: tuple[str, str, Any] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "key", (self.attribute, self.comparison.value, self.bucket)
        )

    @property
    def display_value(self) -> Any:
        """The value to show a human: the submitted literal when recorded."""
        return self.bucket if self.literal is None else self.literal

    def mask(self, relation: Relation) -> np.ndarray:
        """Boolean tuple mask over ``relation`` — the predicate's kernel.

        Bit-identical to :meth:`repro.query.ast.Predicate.mask` on the
        original predicate: the bucketized form pre-computes exactly the
        codes/thresholds that method derives before comparing columns.
        ``IN`` is one gather through :meth:`code_mask` — membership decided
        once per domain code, not once per tuple.  The served path builds
        ``IN`` masks as ORs of cached equality masks
        (:meth:`repro.plan.kernels.MaskCache.predicate_mask`); this gather
        stays their reference.
        """
        column = relation.column(self.attribute)
        if self.comparison is Comparison.IN:
            return self.code_mask(relation.schema[self.attribute].size)[column]
        return self._compare(column)

    def code_mask(self, domain_size: int) -> np.ndarray:
        """Boolean mask over a *domain's codes* (not tuples) the predicate admits.

        :meth:`mask` is this mask gathered through the column (``IN``) or the
        same :meth:`_compare` over the column, so the two views of one
        predicate can never disagree about which values it admits.
        """
        if self.comparison is Comparison.IN:
            # The bucket already holds codes: membership is a table filled by
            # index, the same booleans as testing every code of the domain
            # against the list (which ``Predicate.mask`` keeps as reference).
            admitted = np.zeros(domain_size, dtype=bool)
            admitted[[code for code in self.bucket if code < domain_size]] = True
            return admitted
        return self._compare(np.arange(domain_size, dtype=np.int64))

    def _compare(self, values: np.ndarray) -> np.ndarray:
        """Evaluate a bucketized ``=``/``!=``/ordered comparison against an
        array of codes.

        Out-of-domain buckets follow ``Predicate.mask``'s conventions:
        nothing matches for ``=``/``<``/``<=``, everything matches for
        ``!=``/``>``/``>=``.
        """
        comparison = self.comparison
        bucket = self.bucket
        if bucket == OUT_OF_DOMAIN:
            if comparison in (Comparison.NE, Comparison.GT, Comparison.GE):
                return np.ones(values.shape[0], dtype=bool)
            if comparison in (Comparison.EQ, Comparison.LT, Comparison.LE):
                return np.zeros(values.shape[0], dtype=bool)
            raise QueryError(f"unsupported comparison {comparison}")
        if comparison is Comparison.EQ:
            return values == bucket
        if comparison is Comparison.NE:
            return values != bucket
        if comparison is Comparison.LT:
            return values < bucket
        if comparison is Comparison.LE:
            return values <= bucket
        if comparison is Comparison.GT:
            return values > bucket
        if comparison is Comparison.GE:
            return values >= bucket
        raise QueryError(f"unsupported comparison {comparison}")


# ----------------------------------------------------------------------
# Operator nodes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scan:
    """Leaf: read one relation (the weighted sample or a generated sample)."""

    source: str = "sample"


@dataclass(frozen=True)
class Filter:
    """Conjunction of canonical predicates over the child's tuples."""

    child: Scan
    predicates: tuple[CanonicalPredicate, ...] = ()

    @property
    def predicate_keys(self) -> tuple[tuple[str, str, Any], ...]:
        """Order-insensitive canonical form (sorted triples) for plan keys."""
        return tuple(sorted((p.key for p in self.predicates), key=repr))


@dataclass(frozen=True)
class Group:
    """Group the child's tuples by encoded key columns."""

    child: Filter
    keys: tuple[str, ...]


@dataclass(frozen=True)
class Join:
    """Self-join of two grouped sides on an equi-join pair (Table 5's Q6)."""

    left: Group
    right: Group
    on: tuple[str, str]


@dataclass(frozen=True)
class Aggregate:
    """Weighted aggregate (COUNT/SUM/AVG) over the child's tuples or groups.

    Table-shaped plans evaluate several aggregates in one pass: ``function``
    and ``attribute`` describe the first spec, ``extras`` the remaining
    ``(function, attribute)`` pairs in select-list order.  Legacy shapes
    always have empty ``extras``.
    """

    child: Union[Filter, Group, Join]
    function: str
    attribute: str | None = None
    extras: tuple[tuple[str, str | None], ...] = ()

    @property
    def specs(self) -> tuple[tuple[str, str | None], ...]:
        """All ``(function, attribute)`` pairs in output-column order."""
        return ((self.function, self.attribute),) + self.extras


@dataclass(frozen=True)
class HavingCondition:
    """One compiled HAVING conjunct: aggregate output column vs. a number."""

    column: int
    comparison: Comparison
    value: float
    label: str

    @property
    def key(self) -> tuple[int, str, float]:
        """Hashable form used in plan keys."""
        return (self.column, self.comparison.value, self.value)


@dataclass(frozen=True)
class Having:
    """Post-aggregate predicate over group rows (conjunction of conditions)."""

    child: "PipelineChild"
    conditions: tuple[HavingCondition, ...]


@dataclass(frozen=True)
class WindowOp:
    """One compiled window expression over the surviving group rows.

    ``partition`` holds group-column indexes, ``order`` holds
    ``(output-column index, descending)`` keys, ``source`` the aggregate
    column a running SUM reads (``None`` for RANK), ``label`` the output
    column alias.
    """

    function: str
    source: int | None
    partition: tuple[int, ...]
    order: tuple[tuple[int, bool], ...]
    label: str

    @property
    def key(self) -> tuple:
        """Hashable form used in plan keys."""
        return (self.function, self.source, self.partition, self.order, self.label)

    @property
    def sort_key(self) -> tuple:
        """The partition-family descriptor: two windows with the same
        ``sort_key`` (over the same group rows) share one argsort."""
        return (self.partition, self.order)


@dataclass(frozen=True)
class Window:
    """Compute one or more window columns over the child's group rows."""

    child: "PipelineChild"
    ops: tuple[WindowOp, ...]


@dataclass(frozen=True)
class Sort:
    """Stable ORDER BY over output rows: ``(column index, descending)`` keys."""

    child: "PipelineChild"
    keys: tuple[tuple[int, bool], ...]


@dataclass(frozen=True)
class Limit:
    """Keep the first ``count`` output rows."""

    child: "PipelineChild"
    count: int


PipelineChild = Union[Aggregate, Having, Window, Sort, Limit]

#: Post-aggregate pipeline node types, in their fixed execution order.
PIPELINE_NODE_TYPES = (Having, Window, Sort, Limit)


@dataclass(frozen=True)
class Route:
    """Root node: which evaluator serves the plan.

    ``choice`` is ``None`` straight out of the compiler (routing needs a
    fitted model) and one of :data:`ROUTE_SAMPLE` / :data:`ROUTE_BAYES_NET` /
    :data:`ROUTE_HYBRID` after :func:`repro.plan.compiler.resolve_route`.
    Table-shaped plans interpose pipeline nodes (:class:`Having`,
    :class:`Window`, :class:`Sort`, :class:`Limit`) between the route and
    the aggregate.
    """

    child: PipelineChild
    choice: str | None = None


PlanNode = Union[Scan, Filter, Group, Join, Aggregate, Having, Window, Sort, Limit, Route]


def pipeline_nodes(root: Route) -> tuple[PlanNode, ...]:
    """The post-aggregate nodes under ``root`` in *execution* order
    (innermost-out: Having, then Window, then Sort, then Limit)."""
    nodes = []
    node = root.child
    while isinstance(node, PIPELINE_NODE_TYPES):
        nodes.append(node)
        node = node.child
    return tuple(reversed(nodes))


def rebuild_root(root: Route, aggregate: Aggregate) -> Route:
    """A copy of ``root`` whose innermost aggregate is replaced.

    Preserves every pipeline node between the route and the aggregate —
    rewrites that swap the sub-plan under the aggregate (predicate
    normalization, batch fusion) must not drop HAVING/window/sort stages.
    """
    stack = []
    node = root.child
    while isinstance(node, PIPELINE_NODE_TYPES):
        stack.append(node)
        node = node.child
    rebuilt: PipelineChild = aggregate
    for wrapper in reversed(stack):
        rebuilt = replace(wrapper, child=rebuilt)
    return replace(root, child=rebuilt)

#: A hashable canonical form of one query; the serving result-cache key.
PlanKey = tuple


@dataclass(frozen=True)
class LogicalPlan:
    """One compiled query: the operator tree, its canonical key, and the AST.

    Attributes
    ----------
    query:
        The query exactly as submitted; legacy consumers still receive it.
    root:
        The :class:`Route`-rooted operator tree.
    shape:
        One of ``"point"``, ``"scalar"``, ``"group-by"``,
        ``"join-group-by"`` — the dispatch tag every layer shares.
    key:
        The canonical hashable plan key, derived from the tree (identical
        for semantically equivalent queries).
    sql:
        The SQL text the plan was compiled from, when it came in as text.
    labels:
        Output column labels of a table-shaped plan (group columns, then
        aggregates, then window aliases); ``None`` for legacy shapes.
    """

    query: Query
    root: Route
    shape: str
    key: PlanKey
    sql: str | None = None
    labels: tuple[str, ...] | None = None

    # ------------------------------------------------------------------
    # Tree accessors (every consumer reads the tree through these)
    # ------------------------------------------------------------------
    @property
    def aggregate(self) -> Aggregate:
        """The plan's aggregate node (skipping any post-aggregate pipeline)."""
        node = self.root.child
        while isinstance(node, PIPELINE_NODE_TYPES):
            node = node.child
        return node

    @property
    def pipeline(self) -> tuple[PlanNode, ...]:
        """Post-aggregate pipeline nodes in execution order (may be empty)."""
        return pipeline_nodes(self.root)

    @property
    def filter(self) -> Filter:
        """The (possibly empty) filter of a non-join plan."""
        node = self.aggregate.child
        if isinstance(node, Group):
            node = node.child
        if not isinstance(node, Filter):
            raise QueryError(f"{self.shape} plans have per-side filters")
        return node

    @property
    def predicates(self) -> tuple[CanonicalPredicate, ...]:
        """The compiled filter predicates of a non-join plan."""
        return self.filter.predicates

    @property
    def group_keys(self) -> tuple[str, ...]:
        """Grouping attributes (empty for point/scalar plans)."""
        node = self.aggregate.child
        if isinstance(node, Group):
            return node.keys
        if isinstance(node, Join):
            return (node.left.keys[1], node.right.keys[1])
        return ()

    @property
    def join(self) -> Join:
        """The join node of a join-group-by plan."""
        node = self.aggregate.child
        if not isinstance(node, Join):
            raise QueryError(f"{self.shape} plans have no join node")
        return node

    @property
    def route(self) -> str | None:
        """The resolved evaluator route (``None`` before routing)."""
        return self.root.choice

    @property
    def is_routed(self) -> bool:
        """Whether :func:`resolve_route` has stamped an evaluator choice."""
        return self.root.choice is not None

    def with_route(self, choice: str) -> "LogicalPlan":
        """A copy of this plan with the route resolved."""
        return LogicalPlan(
            query=self.query,
            root=Route(self.root.child, choice),
            shape=self.shape,
            key=self.key,
            sql=self.sql,
            labels=self.labels,
        )

    # ------------------------------------------------------------------
    # Derived properties shared by the serving layer
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> tuple[str, ...]:
        """Every attribute the plan touches, first appearance order."""
        seen: dict[str, None] = {}
        if self.shape == SHAPE_JOIN_GROUP_BY:
            join = self.join
            for side in (join.left, join.right):
                for name in side.keys:
                    seen.setdefault(name, None)
                for predicate in side.child.predicates:
                    seen.setdefault(predicate.attribute, None)
        else:
            for name in self.group_keys:
                seen.setdefault(name, None)
            for _, attribute in self.aggregate.specs:
                if attribute:
                    seen.setdefault(attribute, None)
            for predicate in self.predicates:
                seen.setdefault(predicate.attribute, None)
        return tuple(seen)

    @property
    def needs_generated_samples(self) -> bool:
        """Whether serving the plan touches the BN's forward-sampled relations."""
        if self.group_keys:
            return True  # the hybrid merges in BN groups from generated samples
        # Group-less shapes touch the generated samples only when BN-routed;
        # a BN-routed point plan is answered by exact inference.
        return self.shape != SHAPE_POINT and self.route == ROUTE_BAYES_NET

    def explain(self) -> str:
        """A compact, printable rendering of the operator tree."""
        lines = [f"{self.shape} plan (route={self.root.choice or 'unresolved'})"]
        indent = "  "

        def describe_filter(node: Filter, depth: int) -> None:
            if node.predicates:
                preds = " AND ".join(
                    f"{p.attribute} {p.comparison.value} {p.display_value!r}"
                    for p in node.predicates
                )
                lines.append(f"{indent * depth}Filter[{preds}]")
            lines.append(f"{indent * (depth + bool(node.predicates))}Scan[{node.child.source}]")

        depth = 1
        for node in reversed(self.pipeline):
            if isinstance(node, Limit):
                lines.append(f"{indent * depth}Limit[{node.count}]")
            elif isinstance(node, Sort):
                keys = ", ".join(
                    f"#{column}{' desc' if descending else ''}"
                    for column, descending in node.keys
                )
                lines.append(f"{indent * depth}Sort[{keys}]")
            elif isinstance(node, Window):
                ops = ", ".join(op.label for op in node.ops)
                lines.append(f"{indent * depth}Window[{ops}]")
            elif isinstance(node, Having):
                conds = " AND ".join(
                    f"{c.label} {c.comparison.value} {c.value!r}"
                    for c in node.conditions
                )
                lines.append(f"{indent * depth}Having[{conds}]")
            depth += 1
        aggregate = self.aggregate
        rendered = ", ".join(
            f"{function}({attribute or '*'})" for function, attribute in aggregate.specs
        )
        lines.append(f"{indent * depth}Aggregate[{rendered}]")
        child = aggregate.child
        if isinstance(child, Join):
            lines.append(f"{indent * (depth + 1)}Join[{child.on[0]} = {child.on[1]}]")
            for label, side in (("left", child.left), ("right", child.right)):
                lines.append(
                    f"{indent * (depth + 2)}{label}: Group[{', '.join(side.keys)}]"
                )
                describe_filter(side.child, depth + 3)
        elif isinstance(child, Group):
            lines.append(f"{indent * (depth + 1)}Group[{', '.join(child.keys)}]")
            describe_filter(child.child, depth + 2)
        else:
            describe_filter(child, depth + 1)
        return "\n".join(lines)


def query_shape(query: Query) -> str:
    """The dispatch tag of an AST query — the one isinstance chain left.

    Every layer that used to re-implement ``isinstance(query, PointQuery)``
    chains now asks this function (or reads ``LogicalPlan.shape``).

    Raises :class:`~repro.exceptions.QueryError` naming the offending object
    (type *and* repr) for unsupported inputs.
    """
    if isinstance(query, PointQuery):
        return SHAPE_POINT
    if isinstance(query, ScalarAggregateQuery):
        return SHAPE_SCALAR
    if isinstance(query, GroupByQuery):
        return SHAPE_GROUP_BY
    if isinstance(query, JoinGroupByQuery):
        return SHAPE_JOIN_GROUP_BY
    if isinstance(query, AnalyticQuery):
        return SHAPE_TABLE
    raise QueryError(
        f"unsupported query type {type(query).__name__}: {query!r}"
    )
