"""Execute compiled logical plans over one relation with columnar kernels.

:class:`ColumnarExecutor` is the execution backend of the whole system:
every evaluator holds one (the reweighted-sample evaluator over the weighted
sample, the network and the hybrid over their stacks), so the Themis facade
and the serving batch executor run every plan but the network's points
(which exact inference answers) through these kernels — cached predicate
masks, memoized group codes, one selection-vector gather per reduction —
instead of materializing filtered relations per query.  Its mask and
join-side caches hold values of its one immutable relation, so they need no
invalidation: they live and die with the fitted model that owns the
executor.

**The K worlds.**  The Bayesian network answers its sampled aggregates from
``K`` forward-sampled relations (Sec. 4.2.4), stacked in sample order into
one relation behind one executor whose
:class:`~repro.plan.kernels.RowPartition` makes them parts ``1..K``.  A
plan pays one conjunction mask over the stacked rows, and a GROUP BY one
scatter-add per distinct measure over ``(part, group)`` bins, reshaped
``(K + 1, G)``.  Part 0 has precedence: the network's stack leaves it
empty, the hybrid's puts the weighted sample there
(:meth:`ColumnarExecutor.with_first_part`).  One rule combines the parts:
a group takes part 0's value where part 0 has it (positive weight; for a
join, presence in part 0's merged world), and otherwise survives iff all
``K`` worlds have it, valued by its mean over them; scalars take the mean
over parts ``1..K``.  In the vocabulary of consensus answers over
probabilistic databases (Li & Deshpande, see PAPERS.md) the kept groups
are the intersection of the worlds' group sets (the set-valued consensus
at threshold 1 instead of 1/2), the mean minimizes expected squared
distance to the worlds' values, and the sample is one more world that
overrides them.  Tables run their HAVING / window / ORDER BY / LIMIT
pipeline over the combined group rows.

The answers are bit-identical to a loop over per-part executors, by operand
order rather than by luck: the partitioned kernels
(:mod:`repro.plan.kernels`) give every part exactly the additions its own
pass would run, and :func:`_sample_mean_array` reduces each group's ``K``
values along the last axis of a C-contiguous array, which is the pairwise
summation ``np.mean`` runs over a list of ``K`` floats (reducing ``(K, G)``
over axis 0 accumulates row by row and differs once ``K >= 8``).  The loop
itself lives on as the tests' reference (``tests/oracle.py``).  Without a
partition (the weighted sample) the relation is its one part: each
kernel's part ``0`` is the answer, and no mean is taken.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..exceptions import QueryError
from ..lru import LRUCache
from ..obs.trace import NULL_TRACER
from ..query.ast import Query
from ..schema import Relation
from ..sql.engine import QueryResult
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
    RowPartition,
    StackedMasks,
    merge_join_sides,
    numeric_column,
    partitioned_group_columns,
    partitioned_grouped_weight_totals,
    partitioned_scalar_reduce,
)

#: How many join sides' totals one executor keeps across batches.
JOIN_SIDE_CACHE_CAPACITY = 256

#: The execution-unit kinds a plan runs as (:func:`unit_kind`).
UNIT_SCALAR = "scalar"
UNIT_GROUP_BY = "group-by"
UNIT_JOIN = "join"


def unit_kind(plan: LogicalPlan) -> str:
    """The kind of execution unit a plan runs in.

    Joins run in the join unit; group-bys and grouped tables in a group-by
    unit (one scatter-add pass over the ``(Scan, Filter, Group)`` prefix);
    points, scalars and group-less tables in a masked scalar-reduction unit.
    Raises :class:`QueryError` for a plan of any other shape.
    """
    shape = plan.shape
    if shape == SHAPE_JOIN_GROUP_BY:
        return UNIT_JOIN
    if shape == SHAPE_GROUP_BY or (shape == SHAPE_TABLE and plan.group_keys):
        return UNIT_GROUP_BY
    if shape in (SHAPE_POINT, SHAPE_SCALAR, SHAPE_TABLE):
        return UNIT_SCALAR
    raise QueryError(f"unsupported plan shape {plan.shape!r}")


@dataclass(frozen=True)
class JoinSideSpec:
    """One side of a join plan.

    A *side* is the ``Group(Filter(Scan), (join key, group key))`` subtree a
    join plan aggregates into ``(join key, group)`` weight totals.  Two
    sides with equal key columns and filters are one side: a self-join over
    one filter computes it once.  ``signature`` is the hashable execution
    identity and the cross-batch
    :attr:`~repro.plan.ColumnarExecutor.join_side_cache` key.
    """

    keys: tuple[str, ...]
    predicates: tuple[CanonicalPredicate, ...]

    @property
    def signature(self) -> tuple:
        """The side's hashable execution identity (keys + filter)."""
        return (self.keys, tuple(p.key for p in self.predicates))


def join_side_table(
    plans: Sequence[LogicalPlan],
) -> tuple[list[JoinSideSpec], tuple[tuple[int, int], ...]]:
    """The distinct sides of some join plans, and each plan's ``(left,
    right)`` indexes into them.

    Two references share a side when the side's key columns and filter
    coincide, so a self-join over one filter computes one side.
    """
    sides: list[JoinSideSpec] = []
    index_of: dict[tuple, int] = {}
    pairs = []
    for plan in plans:
        join = plan.join
        pair = []
        for node in (join.left, join.right):
            spec = JoinSideSpec(node.keys, node.child.predicates)
            index = index_of.setdefault(spec.signature, len(sides))
            if index == len(sides):
                sides.append(spec)
            pair.append(index)
        pairs.append((pair[0], pair[1]))
    return sides, tuple(pairs)


def _side_bytes(parts: list[dict]) -> int:
    # Flat estimate: key tuples are short and each entry is a (group tuple,
    # float) pair -- cheaper than a deep measure, monotone in the footprint.
    return 128 + 96 * sum(map(len, parts))


def _sample_mean_array(values) -> np.ndarray:
    """Row means of ``(n, K)`` values, each row one answer's ``K`` parts.

    Reduces along the last axis of a C-contiguous array: numpy then runs the
    same pairwise summation over the same ``K`` operands as ``np.mean`` over
    a list of the ``K`` values, which keeps the partitioned pass
    bit-identical to averaging per-part answers.
    """
    rows = np.ascontiguousarray(values, dtype=float)
    return rows.mean(axis=1) if rows.size else np.zeros(0)


def _sample_means(values) -> list[float]:
    """:func:`_sample_mean_array` as a list of floats."""
    return _sample_mean_array(values).tolist()


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
    partition:
        The row ranges of the stacked parts whose answers combine by the
        module docstring's rule (part 0, then the ``K`` worlds); built by
        the Bayesian-network evaluator from its generated samples' sizes.
        ``None``, the weighted sample, is one part.

    The executor owns its predicate-mask cache (one per relation, shared by
    every plan it runs) and its cross-batch join-side cache, keyed by side
    signature.  Both hold values of this relation only, and a relation never
    changes: ``Themis.refit()`` builds a fresh executor over the newly
    weighted sample, so neither cache is ever invalidated in place.
    """

    def __init__(
        self,
        relation: Relation,
        compiler: PlanCompiler | None = None,
        partition: RowPartition | None = None,
    ):
        self._relation = relation
        self._partition = partition
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
        tracer=NULL_TRACER,
        cancel=None,
    ) -> list:
        """Execute a batch of plans, each as a unit of its own, in submission
        order.

        Every plan pays its own conjunction mask (out of the mask cache) and
        its own reduction pass; join plans resolve their sides through the
        cross-batch :attr:`join_side_cache`, so a side one plan computed
        answers the next plan's reference to it, in this batch or a later
        one.  An answer therefore does not depend on the batch it ran in.
        An enabled ``tracer`` records each plan's ``mask`` span under the
        caller's span.  ``cancel`` is an optional
        :class:`~repro.serving.governance.CancelToken` polled before every
        plan; an expired deadline raises between plans without corrupting
        sibling state.
        """
        plans = [
            query if isinstance(query, LogicalPlan) else self._compiler.compile(query)
            for query in queries
        ]
        answers = []
        for plan in plans:
            if cancel is not None:
                cancel.poll()
            answers.append(self._run_plan(plan, tracer))
        return answers

    def _run_plan(self, plan: LogicalPlan, tracer):
        """Answer one plan by its :func:`unit_kind`."""
        kind = unit_kind(plan)
        if kind == UNIT_SCALAR:
            return self._run_scalar(plan, tracer)
        if kind == UNIT_GROUP_BY:
            return self._run_group_by(plan, tracer)
        return self._run_join(plan)

    def _run_scalar(self, plan: LogicalPlan, tracer):
        """Every reduction of a point, scalar or group-less table over its
        mask, averaged over the parts; a table wraps its values as a one-row
        table."""
        mask = self._mask(plan.predicates, tracer)
        per_spec = partitioned_scalar_reduce(
            self._relation, mask, self.unit_specs(plan), self._partition
        )
        if self._partition is None:
            values = [parts[0] for parts in per_spec]
        else:
            values = _sample_means([parts[1:] for parts in per_spec])
        if plan.shape == SHAPE_TABLE:
            return self._scalar_table(plan, values)
        return values[0]

    def _run_group_by(self, plan: LogicalPlan, tracer):
        """A GROUP BY or grouped table: its aggregates stacked into one
        scatter-add pass over its ``(Scan, Filter, Group)`` prefix, the parts
        combined by the module docstring's rule; a grouped table then runs
        its HAVING / window / ORDER BY / LIMIT pipeline over the group rows."""
        group_keys = plan.group_keys
        mask = self._mask(plan.predicates, tracer)
        weight_totals, per_spec = partitioned_group_columns(
            self._relation, group_keys, mask, self.unit_specs(plan), self._partition
        )
        if self._partition is None:
            kept = np.nonzero(weight_totals[0] > 0)[0]
            per_spec = [values[0][kept] for values in per_spec]
        else:
            own = weight_totals[0] > 0
            kept = np.flatnonzero(own | (weight_totals[1:] > 0).all(axis=0))
            own = own[kept]
            per_spec = [
                np.where(own, values[0, kept], _sample_mean_array(values[1:, kept].T))
                for values in per_spec
            ]
        decoded = self._relation.group_tuples(group_keys, kept)
        if plan.shape != SHAPE_TABLE:
            return QueryResult(group_keys, dict(zip(decoded, per_spec[0].tolist())))
        codes = self._relation.group_codes(group_keys)[1][kept]
        return execute_table_pipeline(plan, codes, decoded, per_spec)

    def _run_join(self, plan: LogicalPlan):
        """A join: its sides' ``(join key, group)`` weight totals, then one
        merge of two small tables per part.  Two equal sides (a self-join
        over one filter) are one side, computed once.

        The joined weight of a pair of groups is ``sum_{i,j} w_i * w_j``
        over matching tuple pairs, the natural plug-in estimator for a
        weighted sample.  Over several parts, part 0's merged world comes
        first, and a group it lacks survives iff every other part's merged
        world has it, valued by the mean over them.
        """
        sides, ((left, right),) = join_side_table((plan,))
        totals = self._join_side_totals(sides)
        worlds = [merge_join_sides(*pair) for pair in zip(totals[left], totals[right])]
        if self._partition is None:
            return QueryResult(plan.group_keys, worlds[0])
        own, first, *rest = worlds
        groups = [
            group
            for group in first
            if group not in own and all(group in world for world in rest)
        ]
        values = [[world[group] for world in worlds[1:]] for group in groups]
        return QueryResult(plan.group_keys, {**own, **dict(zip(groups, _sample_means(values)))})

    def with_first_part(self, first: "ColumnarExecutor") -> "ColumnarExecutor":
        """This stack with ``first``'s relation as its (empty) part 0, one
        concatenation per column.  It evaluates no predicate of its own —
        its masks are ``first``'s cached ones followed by this executor's —
        and compiles with ``first``'s compiler."""
        sizes = np.diff(self._partition.offsets)
        assert sizes[0] == 0, "part 0 of the stack must be empty"
        stack = ColumnarExecutor(
            first.relation.concat(self._relation),
            compiler=first.compiler,
            partition=RowPartition.of_sizes([first.relation.n_rows, *sizes[1:]]),
        )
        stack._masks = StackedMasks((first.mask_cache, self._masks))
        return stack

    def _mask(self, predicates, tracer=NULL_TRACER):
        """A plan's conjunction mask, traced with cache-delta counters."""
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

    def _join_side_totals(self, sides: Sequence[JoinSideSpec]) -> list[list[dict]]:
        """Resolve a join plan's sides' ``(join key, group)`` weight totals,
        one dict per part.

        Sides land in two tiers: the cross-batch :attr:`join_side_cache`
        (hit: zero work), then one stacked scatter-add pass per distinct
        key-column set for the misses (each side contributes its conjunction
        mask as a stacked reduction column, so two sides over the same key
        columns share one pass), whose results are cached for the next plan.
        """
        totals: list[list[dict] | None] = [None] * len(sides)
        pending: dict[tuple[str, ...], list[int]] = {}
        for index, side in enumerate(sides):
            cached = self._join_sides.get(side.signature)
            if cached is not None:
                totals[index] = cached
            else:
                pending.setdefault(side.keys, []).append(index)
        for keys, indexes in pending.items():
            masks = [self._masks.conjunction_mask(sides[index].predicates) for index in indexes]
            for index, side_totals in zip(
                indexes,
                partitioned_grouped_weight_totals(self._relation, keys, masks, self._partition),
            ):
                totals[index] = side_totals
                self._join_sides.put(sides[index].signature, side_totals)
        return totals  # type: ignore[return-value]

    def unit_specs(self, plan: LogicalPlan) -> list[tuple[str, np.ndarray | None]]:
        """The kernel specs of a plan: one ``(function, measure column)`` per
        SELECT-list aggregate."""
        return [
            ("count", None) if function == "count" else (function, self._numeric_column(attribute))
            for function, attribute in plan.aggregate.specs
        ]

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

