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

from collections.abc import Sequence

import numpy as np

from ..lru import LRUCache
from ..obs.trace import NULL_TRACER
from ..query.ast import Query
from ..schema import Relation
from .compiler import PlanCompiler
from .analytics import execute_table_pipeline
from .ir import SHAPE_TABLE, LogicalPlan
from .kernels import (
    MaskCache,
    fused_group_columns,
    fused_grouped_weight_totals,
    fused_scalar_reduce,
    group_values,
    merge_join_sides,
    numeric_column,
)
from .optimize import (
    UNIT_GROUP_BY,
    UNIT_SCALAR,
    JoinSideSpec,
    OptimizerStats,
    run_units,
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
        """Execute one plan (compiling ASTs/SQL on the fly): a batch of one,
        ``execute_batch([query])[0]``."""
        return self.execute_batch((query,), tracer=tracer)[0]

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
        scatter-adds (carried across batches by the join-side cache).  A
        lone plan has nothing to share: it runs as a unit of its own, with
        no schedule (:func:`repro.plan.optimize.run_units`).  Answers are
        returned in submission order, and every rewrite preserves the
        reductions' operands and order, so an answer does not depend on
        the batch it ran in.  ``stats`` (when given) accumulates the
        schedule's rewrite counters in place.  An enabled ``tracer``
        records the optimize/unit span tree: one span per execution
        unit with a ``mask`` child, plus one structural ``slot``
        child per scheduled plan (deduplicated inputs appear as ``fan-out``
        grandchildren).  ``cancel`` is an optional
        :class:`~repro.serving.governance.CancelToken` polled before every
        execution unit; an expired deadline raises mid-batch without
        corrupting sibling state.
        """
        plans = [
            query if isinstance(query, LogicalPlan) else self._compiler.compile(query)
            for query in queries
        ]
        return run_units(plans, self._run_unit, stats, tracer, cancel)

    def _run_unit(self, kind: str, plans: list[LogicalPlan], sides, pairs, stats, tracer):
        """Answer the plans of one execution unit (see :func:`run_units`)."""
        if kind == UNIT_SCALAR:
            return self._run_scalar(plans, tracer)
        if kind == UNIT_GROUP_BY:
            return self._run_group_by(plans, stats, tracer)
        return self._run_join(plans, sides, pairs, stats)

    def _run_scalar(self, plans: list[LogicalPlan], tracer) -> list:
        """A scalar unit: every reduction of its plans over one shared mask;
        group-less tables wrap theirs as one-row tables."""
        mask = self._shared_mask(plans[0].predicates, tracer)
        specs, ends = self.unit_specs(plans)
        values = fused_scalar_reduce(self._relation, mask, specs)
        answers = []
        start = 0
        for plan, end in zip(plans, ends):
            if plan.shape == SHAPE_TABLE:
                answers.append(self._scalar_table(plan, values[start:end]))
            else:
                answers.append(values[start])
            start = end
        return answers

    def _run_group_by(self, plans: list[LogicalPlan], stats, tracer) -> list:
        """A group-by unit: its plans' aggregates stacked into one
        scatter-add pass over the shared ``(Scan, Filter, Group)`` prefix;
        grouped tables then run their HAVING / window / ORDER BY / LIMIT
        pipeline over the group rows."""
        from ..sql.engine import QueryResult

        group_keys = plans[0].group_keys
        mask = self._shared_mask(plans[0].predicates, tracer)
        specs, ends = self.unit_specs(plans)
        positive, codes, decoded, per_spec = fused_group_columns(
            self._relation, group_keys, mask, specs
        )
        # One window-permutation memo per unit: tables in it sharing a
        # partition family pay one argsort.
        sort_memo: dict = {}
        answers = []
        start = 0
        for plan, end in zip(plans, ends):
            columns = per_spec[start:end]
            start = end
            if plan.shape == SHAPE_TABLE:
                answers.append(
                    execute_table_pipeline(
                        plan,
                        codes,
                        decoded,
                        [values[positive] for values in columns],
                        sort_memo=sort_memo,
                        stats=stats,
                    )
                )
            else:
                answers.append(
                    QueryResult(group_keys, group_values(decoded, positive, columns[0]))
                )
        return answers

    def _run_join(self, plans: list[LogicalPlan], sides, pairs, stats) -> list:
        """The join unit: the side table's ``(join key, group)`` weight
        totals, then one merge of two small tables per plan.

        The joined weight of a pair of groups is ``sum_{i,j} w_i * w_j``
        over matching tuple pairs, the natural plug-in estimator for a
        weighted sample.
        """
        from ..sql.engine import QueryResult

        totals = self._join_side_totals(sides, stats)
        return [
            QueryResult(plan.group_keys, merge_join_sides(totals[left], totals[right]))
            for plan, (left, right) in zip(plans, pairs)
        ]

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
        self, sides: Sequence[JoinSideSpec], stats: OptimizerStats | None
    ) -> list[dict]:
        """Resolve every join side's ``(join key, group)`` weight totals.

        Sides land in two tiers: the cross-batch :attr:`join_side_cache`
        (hit: zero work), then one fused stacked scatter-add pass per
        distinct key-column set for the misses (each side contributes its
        conjunction mask as a stacked reduction column), whose results are
        cached for the next batch.
        """
        totals: list[dict | None] = [None] * len(sides)
        pending: dict[tuple[str, ...], list[int]] = {}
        for index, side in enumerate(sides):
            cached = self._join_sides.get(side.signature)
            if cached is not None:
                totals[index] = cached
                if stats is not None:
                    stats.join_side_cache_hits += 1
            else:
                pending.setdefault(side.keys, []).append(index)
        for keys, indexes in pending.items():
            masks = [self._masks.conjunction_mask(sides[index].predicates) for index in indexes]
            for index, side_totals in zip(
                indexes, fused_grouped_weight_totals(self._relation, keys, masks)
            ):
                totals[index] = side_totals
                self._join_sides.put(sides[index].signature, side_totals)
        return totals  # type: ignore[return-value]

    def unit_specs(self, plans: list[LogicalPlan]) -> tuple[list, list[int]]:
        """The fused-kernel specs of a unit's plans, plan after plan, and the
        index where each plan's run of specs ends."""
        specs: list[tuple[str, np.ndarray | None]] = []
        ends = []
        for plan in plans:
            # One ``(function, measure column)`` per SELECT-list aggregate.
            for function, attribute in plan.aggregate.specs:
                if function == "count":
                    specs.append(("count", None))
                else:
                    specs.append((function, self._numeric_column(attribute)))
            ends.append(len(specs))
        return specs, ends

    def _scalar_table(self, plan: LogicalPlan, values):
        """Wrap group-less scalar reductions as a one-row table result."""
        codes = np.zeros((1, 0), dtype=np.int64)
        agg_columns = [np.asarray([value], dtype=np.float64) for value in values]
        return execute_table_pipeline(plan, codes, [()], agg_columns)

    def _numeric_column(self, attribute: str | None) -> np.ndarray:
        assert attribute is not None
        cached = self._numeric.get(attribute)
        if cached is None:
            cached = numeric_column(self._relation, attribute)
            self._numeric[attribute] = cached
        return cached

