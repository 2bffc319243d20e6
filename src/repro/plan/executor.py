"""Execute compiled logical plans over one relation with columnar kernels.

:class:`ColumnarExecutor` is the sample-side backend of the whole system:
``WeightedQueryEngine`` delegates to it, which means the evaluators, the
Themis facade, and the serving batch executor all run their sample-path
queries through these kernels — cached predicate masks, memoized group
codes, one selection-vector gather per reduction — instead of materializing
filtered relations per query.  Its mask and join-side caches hold values of
its one immutable relation, so they need no invalidation: they live and die
with the fitted model that owns the executor.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from ..exceptions import QueryError
from ..lru import LRUCache
from ..obs.trace import NULL_TRACER
from ..query.ast import Comparison, Predicate, Query
from ..schema import Relation
from .compiler import PlanCompiler
from .analytics import execute_table_pipeline
from .ir import (
    SHAPE_GROUP_BY,
    SHAPE_JOIN_GROUP_BY,
    SHAPE_POINT,
    SHAPE_SCALAR,
    SHAPE_TABLE,
    CanonicalPredicate,
    LogicalPlan,
)
from .kernels import (
    MaskCache,
    fused_group_columns,
    fused_grouped_weight_totals,
    fused_scalar_reduce,
    group_reduce,
    group_values,
    grouped_weight_totals,
    merge_join_sides,
    numeric_column,
    scalar_reduce,
)
from .optimize import (
    UNIT_GROUP_BY,
    UNIT_SCALAR,
    OptimizerStats,
    PhysicalSchedule,
    optimize_batch,
)

#: How many join sides' totals one executor keeps across batches.
JOIN_SIDE_CACHE_CAPACITY = 256


def _side_bytes(totals: dict) -> int:
    # Flat estimate: key tuples are short and each entry is a (group tuple,
    # float) pair -- cheaper than a deep measure, monotone in the footprint.
    return 128 + 96 * len(totals)


class ColumnarExecutor:
    """Run compiled plans against one relation.

    Parameters
    ----------
    relation:
        The (weighted) relation plans execute over.
    compiler:
        The plan compiler to use for raw ASTs/SQL; one is built over the
        relation's schema when omitted.  Sharing a compiler across executors
        shares its compiled-plan memo.

    The executor owns its predicate-mask cache (one per relation, shared by
    every plan it runs) and its cross-batch join-side cache, keyed by side
    signature.  Both hold values of this relation only, and a relation never
    changes: ``Themis.refit()`` builds a fresh executor over the newly
    weighted sample, so neither cache is ever invalidated in place.
    """

    def __init__(self, relation: Relation, compiler: PlanCompiler | None = None):
        self._relation = relation
        self._compiler = compiler if compiler is not None else PlanCompiler(relation.schema)
        self._masks = MaskCache(relation)
        self._join_sides = LRUCache(JOIN_SIDE_CACHE_CAPACITY, size=_side_bytes)
        self._numeric: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def relation(self) -> Relation:
        """The relation plans run against."""
        return self._relation

    @property
    def compiler(self) -> PlanCompiler:
        """The compiler turning ASTs/SQL into logical plans."""
        return self._compiler

    @property
    def mask_cache(self) -> MaskCache:
        """The predicate-mask cache, keyed by canonical predicate."""
        return self._masks

    @property
    def join_side_cache(self) -> LRUCache:
        """The cross-batch join-side totals, keyed by side signature."""
        return self._join_sides

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, query: LogicalPlan | Query | str, tracer=NULL_TRACER):
        """Execute a compiled plan (compiling ASTs/SQL on the fly).

        An enabled ``tracer`` wraps the execution in an ``execute-plan``
        span carrying the plan shape and the mask-cache hit/miss delta.
        """
        plan = query if isinstance(query, LogicalPlan) else self._compiler.compile(query)
        if not tracer.enabled:
            return self._execute_plan(plan)
        with tracer.span("execute-plan", shape=plan.shape) as span:
            hits, misses = self._masks.hits, self._masks.misses
            result = self._execute_plan(plan)
            span.count(
                mask_hits=self._masks.hits - hits,
                mask_misses=self._masks.misses - misses,
            )
        return result

    def _execute_plan(self, plan: LogicalPlan):
        if plan.shape == SHAPE_POINT:
            return self.point_plan(plan)
        if plan.shape == SHAPE_SCALAR:
            return self.scalar_plan(plan)
        if plan.shape == SHAPE_GROUP_BY:
            return self.group_by_plan(plan)
        if plan.shape == SHAPE_JOIN_GROUP_BY:
            return self.join_plan(plan)
        if plan.shape == SHAPE_TABLE:
            return self.table_plan(plan)
        raise QueryError(f"unsupported plan shape {plan.shape!r}")

    def execute_batch(
        self,
        queries: "Sequence[LogicalPlan | Query | str]",
        stats: OptimizerStats | None = None,
        tracer=NULL_TRACER,
        cancel=None,
    ) -> list:
        """Execute a batch of plans through the batch-aware optimizer.

        The batch is rewritten by :func:`repro.plan.optimize.optimize_batch`
        — execution-equivalent plans run once and fan out, equivalent
        filters collapse to one cached mask, aggregates sharing a
        ``(Scan, Filter, Group)`` prefix fuse into a single scatter-add
        pass, and join plans share a deduplicated side table whose
        ``(join key, group)`` weight totals compute through fused stacked
        scatter-adds (carried across batches by the join-side cache).  Answers are returned in submission order and are
        bit-identical to ``[self.execute(query) for query in queries]``, the
        single-plan loop the tests assert against.  ``stats`` (when given)
        accumulates the schedule's rewrite counters in place.  An enabled
        ``tracer`` records the compile/optimize/unit span tree: one span per
        execution unit with mask and kernel children, plus one structural
        ``slot`` child per scheduled plan (deduplicated inputs appear as
        ``fan-out`` grandchildren).  ``cancel`` is an optional
        :class:`~repro.serving.governance.CancelToken` polled between
        execution units; an expired deadline raises mid-batch without
        corrupting sibling state.
        """
        with tracer.span("compile", queries=len(queries)):
            plans = [
                query if isinstance(query, LogicalPlan) else self._compiler.compile(query)
                for query in queries
            ]
        schedule = optimize_batch(plans, stats, tracer=tracer)
        slot_results: list = [None] * len(schedule.slots)
        for unit in schedule.units:
            # Chunk-boundary cancellation poll: a schedule unit (one fused
            # scatter-add family / one shared-mask scalar pass) is the unit
            # of work an expired deadline abandons.  Polling *between* units
            # means a cancelled batch never leaves a unit half-executed, so
            # sibling results and caches stay coherent.
            if cancel is not None:
                cancel.poll()
            with tracer.span(f"unit:{unit.kind}", slots=len(unit.slots)) as span:
                self._run_unit(unit, schedule, slot_results, stats, tracer)
                if tracer.enabled:
                    _annotate_unit_slots(span, unit, schedule)
        return schedule.fan_out(slot_results)

    def _run_unit(
        self,
        unit,
        schedule: PhysicalSchedule,
        slot_results: list,
        stats: OptimizerStats | None,
        tracer=NULL_TRACER,
    ) -> None:
        """Execute one schedule unit, filling its slots' results in place."""
        if unit.kind == UNIT_SCALAR:
            mask = self._shared_mask(unit.predicates, tracer)
            slot_spans: list[tuple[int, LogicalPlan, int]] = []
            specs: list[tuple[str, np.ndarray | None]] = []
            for slot in unit.slots:
                plan = schedule.slots[slot]
                plan_specs = self.plan_specs(plan)
                slot_spans.append((slot, plan, len(plan_specs)))
                specs.extend(plan_specs)
            with tracer.span("kernel", kind="fused-scalar-reduce", reductions=len(specs)):
                values = fused_scalar_reduce(self._relation, mask, specs)
            offset = 0
            for slot, plan, width in slot_spans:
                slot_values = values[offset : offset + width]
                offset += width
                if plan.shape == SHAPE_TABLE:
                    slot_results[slot] = self._scalar_table(plan, slot_values)
                else:
                    slot_results[slot] = slot_values[0]
        elif unit.kind == UNIT_GROUP_BY:
            from ..sql.engine import QueryResult

            mask = self._shared_mask(unit.predicates, tracer)
            slot_spans = []
            specs = []
            for slot in unit.slots:
                plan = schedule.slots[slot]
                plan_specs = self.plan_specs(plan)
                slot_spans.append((slot, plan, len(plan_specs)))
                specs.extend(plan_specs)
            with tracer.span("kernel", kind="fused-group-reduce", reductions=len(specs)):
                positive, codes, decoded, per_spec = fused_group_columns(
                    self._relation, unit.group_keys, mask, specs
                )
            # One window-permutation memo per fused family: table plans in
            # this unit sharing a partition family pay one argsort.
            sort_memo: dict = {}
            offset = 0
            for slot, plan, width in slot_spans:
                slot_columns = per_spec[offset : offset + width]
                offset += width
                if plan.shape == SHAPE_TABLE:
                    agg_columns = [values[positive] for values in slot_columns]
                    slot_results[slot] = execute_table_pipeline(
                        plan,
                        codes,
                        decoded,
                        agg_columns,
                        sort_memo=sort_memo,
                        stats=stats,
                    )
                else:
                    slot_results[slot] = QueryResult(
                        unit.group_keys,
                        group_values(decoded, positive, slot_columns[0]),
                    )
        else:  # the join family: fused shared side totals, then merges
            from ..sql.engine import QueryResult

            with tracer.span("kernel", kind="join-sides", sides=len(schedule.join_sides)):
                side_totals = self._join_side_totals(schedule, stats)
            for slot, (left, right) in zip(unit.slots, unit.sides):
                plan = schedule.slots[slot]
                slot_results[slot] = QueryResult(
                    plan.group_keys,
                    merge_join_sides(side_totals[left], side_totals[right]),
                )

    def _shared_mask(self, predicates, tracer=NULL_TRACER):
        """A unit's shared conjunction mask, traced with cache-delta counters."""
        if not tracer.enabled:
            return self._masks.conjunction_mask(predicates)
        with tracer.span("mask", conjuncts=len(predicates)) as span:
            hits, misses = self._masks.hits, self._masks.misses
            mask = self._masks.conjunction_mask(predicates)
            span.count(
                mask_hits=self._masks.hits - hits,
                mask_misses=self._masks.misses - misses,
            )
        return mask

    def _join_side_totals(
        self, schedule: PhysicalSchedule, stats: OptimizerStats | None
    ) -> list[dict]:
        """Resolve every scheduled join side's ``(join key, group)`` totals.

        Sides land in three tiers: the cross-batch :attr:`join_side_cache`
        (hit: zero work this batch), then one fused stacked scatter-add pass
        per distinct key-column set for the misses (each side contributes
        its conjunction mask as a stacked reduction column), whose results
        are cached for the next batch.  Totals are bit-identical to
        :func:`grouped_weight_totals` per side — the fused kernel is the
        same code path — so optimized join answers exactly match per-plan
        execution no matter which tier served a side.
        """
        totals: list[dict | None] = [None] * len(schedule.join_sides)
        pending: dict[tuple[str, ...], list[int]] = {}
        for index, side in enumerate(schedule.join_sides):
            cached = self._join_sides.get(side.signature)
            if cached is not None:
                totals[index] = cached
                if stats is not None:
                    stats.join_side_cache_hits += 1
            else:
                pending.setdefault(side.keys, []).append(index)
        for keys, indexes in pending.items():
            masks = [
                self._masks.conjunction_mask(schedule.join_sides[index].predicates)
                for index in indexes
            ]
            for index, side_totals in zip(
                indexes, fused_grouped_weight_totals(self._relation, keys, masks)
            ):
                totals[index] = side_totals
                self._join_sides.put(schedule.join_sides[index].signature, side_totals)
        assert all(entry is not None for entry in totals)
        return totals  # type: ignore[return-value]

    def plan_specs(self, plan: LogicalPlan) -> list[tuple[str, np.ndarray | None]]:
        """All of a plan's ``(function, measure column)`` fused-kernel specs.

        Legacy single-aggregate plans yield one spec; table plans yield one
        per SELECT-list aggregate, in declaration order.
        """
        return [
            ("count", None)
            if function == "count"
            else (function, self._numeric_column(attribute))
            for function, attribute in plan.aggregate.specs
        ]

    def table_plan(self, plan: LogicalPlan):
        """Analytic (table-shaped) plan: fused aggregates, then the pipeline.

        Grouped tables run every SELECT-list aggregate through one stacked
        scatter-add pass (:func:`fused_group_columns` — the same float ops
        as per-aggregate :func:`fused_group_reduce` calls); group-less
        tables run one :func:`fused_scalar_reduce`.  HAVING / windows /
        ORDER BY / LIMIT then run over the group rows.
        """
        mask = self._masks.conjunction_mask(plan.predicates)
        specs = self.plan_specs(plan)
        if plan.group_keys:
            positive, codes, decoded, per_spec = fused_group_columns(
                self._relation, plan.group_keys, mask, specs
            )
            agg_columns = [values[positive] for values in per_spec]
            return execute_table_pipeline(plan, codes, decoded, agg_columns)
        values = fused_scalar_reduce(self._relation, mask, specs)
        return self._scalar_table(plan, values)

    def _scalar_table(self, plan: LogicalPlan, values):
        """Wrap group-less scalar reductions as a one-row table result."""
        codes = np.zeros((1, 0), dtype=np.int64)
        agg_columns = [np.asarray([value], dtype=np.float64) for value in values]
        return execute_table_pipeline(plan, codes, [()], agg_columns)

    def point_plan(self, plan: LogicalPlan) -> float:
        """Weighted COUNT(*) of an exact-match conjunction."""
        predicates = plan.predicates
        if not predicates:
            raise QueryError("a point query needs at least one attribute-value pair")
        return self._reduce(predicates, "count", None)

    def point(self, assignment: Mapping[str, Any]) -> float:
        """Point kernel over a raw assignment (no AST required)."""
        if not assignment:
            raise QueryError("a point query needs at least one attribute-value pair")
        predicates = tuple(
            self._compiler.canonical_predicate(Predicate(name, Comparison.EQ, value))
            for name, value in assignment.items()
        )
        return self._reduce(predicates, "count", None)

    def scalar_plan(self, plan: LogicalPlan) -> float:
        """Masked weighted scalar aggregate."""
        aggregate = plan.aggregate
        return self._reduce(plan.predicates, aggregate.function, aggregate.attribute)

    def group_by_plan(self, plan: LogicalPlan):
        """Masked weighted GROUP BY aggregate via the scatter-add kernel."""
        from ..sql.engine import QueryResult

        aggregate = plan.aggregate
        keys = plan.group_keys
        mask = self._masks.conjunction_mask(plan.predicates)
        measure = (
            self._numeric_column(aggregate.attribute)
            if aggregate.function != "count"
            else None
        )
        values = group_reduce(self._relation, keys, mask, aggregate.function, measure)
        return QueryResult(keys, values)

    def join_plan(self, plan: LogicalPlan, other: "ColumnarExecutor | None" = None):
        """Weighted self-join GROUP BY COUNT (Table 5's Q6 shape).

        Both sides aggregate to (join key, group) weight totals first — via
        the masked scatter-add kernel, zero-weight groups kept — so the join
        is a merge of two small tables instead of a row-by-row loop.  The
        joined weight of a pair of groups is ``sum_{i,j} w_i * w_j`` over
        matching tuple pairs, the natural plug-in estimator for a weighted
        sample.
        """
        from ..sql.engine import QueryResult

        join = plan.join
        right_executor = other if other is not None else self
        group_by = plan.group_keys

        right_predicates = join.right.child.predicates
        if right_executor is not self:
            # The plan's predicates were bucketized against *this* relation's
            # schema; a different right-side relation may code the same
            # values differently, so recanonicalize the original AST
            # predicates against its schema.
            right_predicates = tuple(
                right_executor._compiler.canonical_predicate(predicate)
                for predicate in plan.query.right_predicates
            )

        left_mask = self._masks.conjunction_mask(join.left.child.predicates)
        right_mask = right_executor._masks.conjunction_mask(right_predicates)
        left_counts = grouped_weight_totals(self._relation, join.left.keys, left_mask)
        right_counts = grouped_weight_totals(
            right_executor._relation, join.right.keys, right_mask
        )
        return QueryResult(group_by, merge_join_sides(left_counts, right_counts))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _reduce(
        self,
        predicates: tuple[CanonicalPredicate, ...],
        function: str,
        attribute: str | None,
    ) -> float:
        mask = self._masks.conjunction_mask(predicates)
        measure = self._numeric_column(attribute) if function != "count" else None
        return scalar_reduce(self._relation, mask, function, measure)

    def _numeric_column(self, attribute: str | None) -> np.ndarray:
        assert attribute is not None
        cached = self._numeric.get(attribute)
        if cached is None:
            cached = numeric_column(self._relation, attribute)
            self._numeric[attribute] = cached
        return cached


def _annotate_unit_slots(span, unit, schedule: PhysicalSchedule) -> None:
    """Attach one structural ``slot`` child per scheduled plan in the unit.

    Every input position the slot serves beyond its first appearance is a
    ``fan-out`` grandchild, so the trace accounts for all submitted plans:
    slot children + fan-out children == batch size, summed over units.
    """
    inputs_by_slot: dict[int, list[int]] = {}
    for index, slot in enumerate(schedule.assignments):
        inputs_by_slot.setdefault(slot, []).append(index)
    for slot in unit.slots:
        inputs = inputs_by_slot.get(slot, [])
        child = span.child(
            "slot",
            slot=slot,
            shape=schedule.slots[slot].shape,
            input=inputs[0] if inputs else None,
        )
        for extra in inputs[1:]:
            child.child("fan-out", input=extra)
