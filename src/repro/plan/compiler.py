"""Compile query ASTs (or SQL text) into :class:`~repro.plan.ir.LogicalPlan`.

This is the **one** canonicalization in the system: predicates are
bucketized into domain codes here, the plan key is derived from the compiled
operator tree here, and both the weighted engine and the serving planner
consume the result.  Before this module existed the SQL engine, the
evaluators, and the serving planner each re-derived canonical forms; now a
query is compiled once and every layer shares the plan.

Routing (the ``Route`` node's evaluator choice) is a separate step —
:func:`resolve_route` — because it reads the fitted sample (through its
predicate-mask cache) while compiling reads only the schema.  Each fitted
model owns its compiler; a routed plan holds neither, so the facade's
routed-plan cache keeps it across refits of the same sample.
"""

from __future__ import annotations

from ..exceptions import QueryError
from ..lru import LRUCache
from ..query.ast import (
    AggregateSpec,
    AnalyticQuery,
    Comparison,
    GroupByQuery,
    JoinGroupByQuery,
    PointQuery,
    Predicate,
    Query,
    ScalarAggregateQuery,
)
from ..schema import Schema
from ..sql.parser import parse_sql
from .ir import (
    OUT_OF_DOMAIN,
    ROUTE_BAYES_NET,
    ROUTE_HYBRID,
    ROUTE_SAMPLE,
    SHAPE_GROUP_BY,
    SHAPE_POINT,
    SHAPE_SCALAR,
    SHAPE_TABLE,
    Aggregate,
    CanonicalPredicate,
    Filter,
    Group,
    Having,
    HavingCondition,
    Join,
    Limit,
    LogicalPlan,
    PipelineChild,
    PlanKey,
    Route,
    Scan,
    Sort,
    Window,
    WindowOp,
    query_shape,
)
from .kernels import MaskCache


class PlanCompiler:
    """Compile queries against one schema into logical plans.

    Parameters
    ----------
    schema:
        The sample schema; used to validate attribute names and bucketize
        literals into domain codes.
    cache_size:
        Plans compiled from an AST are memoized per hashable query object
        (ASTs are frozen dataclasses), so re-executing the same query object
        — a table's parts recompiled by the BN evaluator — compiles once.
        SQL text does not go through this memo: its parse is memoized per
        statement shape by :func:`~repro.sql.parse_sql` (statements that
        differ only in their literals share it), and a repeated statement
        is served by the facade's routed-plan cache
        (:class:`~repro.core.themis.SamplePlans`), which the facade, every
        serving session and the worker pool's parent (for its routing
        keys) read.
    """

    def __init__(self, schema: Schema, cache_size: int = 256):
        self._schema = schema
        self._cache = LRUCache(cache_size)

    @property
    def schema(self) -> Schema:
        """The schema plans are compiled against."""
        return self._schema

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def compile(self, query: Query | str) -> LogicalPlan:
        """Compile an AST query or a SQL string into a logical plan."""
        if isinstance(query, str):
            return self.compile_sql(query)
        try:
            plan = self._cache.get(query)
        except TypeError:  # unhashable literal (e.g. a list inside IN)
            return self._compile_ast(query)
        if plan is None:
            plan = self._compile_ast(query)
            self._cache.put(query, plan)
        return plan

    def compile_sql(self, statement: str) -> LogicalPlan:
        """Parse one SQL statement and compile the resulting AST."""
        return self._compile_ast(parse_sql(statement).query, sql=statement)

    def canonical_predicate(self, predicate: Predicate) -> CanonicalPredicate:
        """Bucketize one AST predicate into its canonical compiled form."""
        return self._canonical(predicate)

    # ------------------------------------------------------------------
    # Shape-specific compilation
    # ------------------------------------------------------------------
    def _compile_ast(self, query: Query, sql: str | None = None) -> LogicalPlan:
        """The one place a :class:`LogicalPlan` is constructed: each shape
        compiles to ``(node under the Route, plan key)``."""
        shape = query_shape(query)
        labels = None
        if shape == SHAPE_POINT:
            node, key = self._compile_point(query)
        elif shape == SHAPE_SCALAR:
            node, key = self._compile_scalar(query)
        elif shape == SHAPE_GROUP_BY:
            node, key = self._compile_group_by(query)
        elif shape == SHAPE_TABLE:
            labels = query.labels
            node, key = self._compile_table(query, labels)
        else:
            node, key = self._compile_join(query)
        return LogicalPlan(
            query=query, root=Route(node), shape=shape, key=key, sql=sql, labels=labels
        )

    def _compile_point(self, query: PointQuery) -> tuple[Aggregate, PlanKey]:
        if not query.assignment:
            raise QueryError("a point query needs at least one attribute-value pair")
        # The assignment is sorted by (distinct) attribute name, so the
        # key's pairs already are.
        predicates = tuple(
            self._equality(name, Comparison.EQ, value)
            for name, value in query.assignment
        )
        key = ("point", tuple((p.attribute, p.bucket) for p in predicates))
        return Aggregate(Filter(Scan(), predicates), "count", None), key

    def _compile_scalar(self, query: ScalarAggregateQuery) -> tuple[Aggregate, PlanKey]:
        # NB: a COUNT-of-equalities scalar keeps its own key even though the
        # shape is semantically close to a point query: on the BN route a
        # point query is answered by exact inference while a scalar is
        # answered from the generated samples, so their answers (and hence
        # their cache entries) can legitimately differ.  The SQL parser
        # already emits PointQuery for that shape, so SQL text still
        # canonicalizes fully.
        filter_node = self._compile_filter(query.predicates)
        aggregate = self._compile_aggregate(query.aggregate, filter_node)
        key = (
            "scalar",
            (aggregate.function, aggregate.attribute),
            filter_node.predicate_keys,
        )
        return aggregate, key

    def _compile_group_by(self, query: GroupByQuery) -> tuple[Aggregate, PlanKey]:
        self._require_attributes(query.group_by)
        filter_node = self._compile_filter(query.predicates)
        group = Group(filter_node, tuple(query.group_by))
        aggregate = self._compile_aggregate(query.aggregate, group)
        key = (
            "group-by",
            group.keys,
            (aggregate.function, aggregate.attribute),
            filter_node.predicate_keys,
        )
        return aggregate, key

    def _compile_join(self, query: JoinGroupByQuery) -> tuple[Aggregate, PlanKey]:
        self._require_attributes(
            (query.left_join, query.right_join, query.left_group, query.right_group)
        )
        left = Group(
            self._compile_filter(query.left_predicates),
            (query.left_join, query.left_group),
        )
        right = Group(
            self._compile_filter(query.right_predicates),
            (query.right_join, query.right_group),
        )
        join = Join(left, right, on=(query.left_join, query.right_join))
        aggregate = self._compile_aggregate(query.aggregate, join)
        key = (
            "join-group-by",
            join.on,
            (query.left_group, query.right_group),
            (aggregate.function, aggregate.attribute),
            left.child.predicate_keys,
            right.child.predicate_keys,
        )
        return aggregate, key

    def _compile_table(
        self, query: AnalyticQuery, labels: tuple[str, ...]
    ) -> tuple[PipelineChild, PlanKey]:
        """Compile an analytic (table-shaped) query.

        Output columns are fixed at compile time — group columns, then
        aggregates in select-list order, then window aliases — and every
        HAVING/window/ORDER BY reference is resolved to a column index
        here, so execution never re-resolves names.
        """
        self._require_attributes(tuple(query.group_by))
        specs = query.aggregates
        for spec in specs:
            if spec.attribute is not None:
                self._require_attributes((spec.attribute,))
        filter_node = self._compile_filter(query.predicates)
        child = (
            Group(filter_node, tuple(query.group_by))
            if query.group_by
            else filter_node
        )
        first = specs[0]
        aggregate = Aggregate(
            child,
            first.function.value,
            first.attribute,
            extras=tuple((s.function.value, s.attribute) for s in specs[1:]),
        )

        duplicates = {label for label in labels if labels.count(label) > 1}
        if duplicates:
            raise QueryError(
                f"duplicate output column label(s) {sorted(duplicates)}; use "
                f"AS aliases to disambiguate"
            )
        n_group = len(query.group_by)

        def aggregate_column(target: str) -> int | None:
            for index, spec in enumerate(specs):
                if target == spec.label or target == spec.expression:
                    return n_group + index
            return None

        def resolve(target: str, *, windows: bool, context: str) -> int:
            if target in query.group_by:
                return query.group_by.index(target)
            column = aggregate_column(target)
            if column is not None:
                return column
            if windows:
                for index, window in enumerate(query.windows):
                    if target == window.alias:
                        return n_group + len(specs) + index
            available = labels if windows else labels[: n_group + len(specs)]
            raise QueryError(
                f"{context} references unknown column {target!r}; available "
                f"columns are {list(available)}"
            )

        node: PipelineChild = aggregate
        having_conditions: tuple[HavingCondition, ...] = ()
        if query.having:
            conditions = []
            for condition in query.having:
                column = aggregate_column(condition.target)
                if column is None:
                    raise QueryError(
                        f"HAVING references {condition.target!r}, which is not "
                        f"an aggregate output column; aggregate columns are "
                        f"{list(labels[n_group:n_group + len(specs)])}"
                    )
                conditions.append(
                    HavingCondition(
                        column,
                        condition.comparison,
                        float(condition.value),
                        label=labels[column],
                    )
                )
            having_conditions = tuple(conditions)
            node = Having(node, having_conditions)
        window_ops: tuple[WindowOp, ...] = ()
        if query.windows:
            ops = []
            for window in query.windows:
                partition = tuple(
                    query.group_by.index(name) for name in window.partition_by
                )
                order = tuple(
                    (
                        resolve(key.target, windows=False, context="window ORDER BY"),
                        key.descending,
                    )
                    for key in window.order_by
                )
                source = None
                if window.target is not None:
                    source = aggregate_column(window.target)
                    if source is None:
                        raise QueryError(
                            f"window SUM references {window.target!r}, which is "
                            f"not an aggregate output column; aggregate columns "
                            f"are {list(labels[n_group:n_group + len(specs)])}"
                        )
                ops.append(
                    WindowOp(
                        window.function.value, source, partition, order, window.alias
                    )
                )
            window_ops = tuple(ops)
            node = Window(node, window_ops)
        sort_keys: tuple[tuple[int, bool], ...] = ()
        if query.order_by:
            sort_keys = tuple(
                (resolve(key.target, windows=True, context="ORDER BY"), key.descending)
                for key in query.order_by
            )
            node = Sort(node, sort_keys)
        if query.limit is not None:
            node = Limit(node, int(query.limit))

        key = (
            "table",
            tuple(query.group_by),
            tuple((s.function.value, s.attribute, s.label) for s in specs),
            filter_node.predicate_keys,
            tuple(c.key for c in having_conditions),
            tuple(op.key for op in window_ops),
            sort_keys,
            query.limit,
        )
        return node, key

    # ------------------------------------------------------------------
    # Pieces
    # ------------------------------------------------------------------
    def _compile_filter(self, predicates: tuple[Predicate, ...]) -> Filter:
        return Filter(Scan(), tuple(self._canonical(p) for p in predicates))

    def _compile_aggregate(self, spec: AggregateSpec, child) -> Aggregate:
        if spec.attribute is not None:
            self._require_attributes((spec.attribute,))
        return Aggregate(child, spec.function.value, spec.attribute)

    def _equality(self, name: str, comparison: Comparison, value) -> CanonicalPredicate:
        """Bucketize an ``=``/``!=`` literal: its domain code, or out of domain."""
        self._require_attributes((name,))
        code = self._schema[name].domain.code_of(value)
        bucket = OUT_OF_DOMAIN if code is None else code
        return CanonicalPredicate(name, comparison, bucket, literal=value)

    def _canonical(self, predicate: Predicate) -> CanonicalPredicate:
        """Bucketize one predicate's literal into its canonical domain form."""
        name = predicate.attribute
        comparison = predicate.comparison
        if comparison in (Comparison.EQ, Comparison.NE):
            return self._equality(name, comparison, predicate.value)
        self._require_attributes((name,))
        domain = self._schema[name].domain
        if comparison is Comparison.IN:
            values = (
                predicate.value
                if isinstance(predicate.value, (list, tuple, set))
                else [predicate.value]
            )
            codes = sorted(
                {
                    code
                    for code in (domain.code_of(value) for value in values)
                    if code is not None
                }
            )
            return CanonicalPredicate(
                name, comparison, tuple(codes), literal=tuple(values)
            )
        # Ordered comparisons: the threshold is the position of the largest
        # domain value not exceeding the literal (the exact semantics of
        # Predicate.mask, shared via its helper).
        threshold = predicate._ordered_threshold(domain)
        bucket = OUT_OF_DOMAIN if threshold is None else threshold
        return CanonicalPredicate(name, comparison, bucket, literal=predicate.value)

    def _require_attributes(self, names: tuple[str, ...]) -> None:
        for name in names:
            if name not in self._schema:
                raise QueryError(
                    f"query references unknown attribute {name!r}; sample "
                    f"attributes are {list(self._schema.names)}"
                )


def resolve_route(plan: LogicalPlan, masks: MaskCache | None) -> LogicalPlan:
    """Stamp the plan's ``Route`` node against one fitted sample.

    ``masks`` is the fitted weighted sample's predicate-mask cache: routing
    reads only which predicates the sample satisfies, so it holds no
    reference to the model itself.

    The rules mirror :class:`~repro.core.evaluators.HybridEvaluator` exactly,
    so a routed plan provably returns the hybrid's answer on the cheaper
    evaluator: point plans route to the reweighted sample when the tuple
    exists in it and to BN inference otherwise; filtered scalars likewise
    (using the compiled predicates' cached masks), and so do group-less
    tables (multi-aggregate scalar selects) — the sample answers unless the
    filter is empty on it, in which case the BN's generated samples do;
    GROUP BY shapes always need the hybrid's sample-union-BN merge.  Without
    a mask cache every plan routes to ``"hybrid"``.
    """
    if plan.is_routed:
        return plan
    if masks is None:
        return plan.with_route(ROUTE_HYBRID)
    shape = plan.shape
    if shape in (SHAPE_POINT, SHAPE_SCALAR) or (
        shape == SHAPE_TABLE and not plan.group_keys
    ):
        mask = masks.conjunction_mask(plan.predicates)
        if mask is None or bool(mask.any()):
            return plan.with_route(ROUTE_SAMPLE)
        return plan.with_route(ROUTE_BAYES_NET)
    return plan.with_route(ROUTE_HYBRID)
