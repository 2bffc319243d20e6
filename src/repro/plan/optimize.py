"""Batch-aware plan optimizer: rewrite a batch of compiled plans into a schedule.

A batch can carry fifty variants of the same query — exact
duplicates, the same WHERE clause padded with a redundant conjunct, a family
of aggregates over one shared ``Scan -> Filter -> Group`` prefix.  Executing
tree-by-tree pays the mask lookups, the group-code gathers, and the
scatter-add passes once **per plan**.  This module takes the whole batch and
emits a :class:`PhysicalSchedule` that pays each piece of shared work once:

1. **Canonical-key dedup** — execution-equivalent plans collapse to one
   *slot*; the slot executes once and its answer fans out to every input
   position (``plans_deduped``).
2. **Predicate normalization + pushdown** — each filter's conjunction is
   normalized (tautologies dropped, duplicate conjuncts removed, redundant
   ordered bounds tightened, conjuncts implied by an equality elided) so
   equivalent filters written differently collapse to one canonical
   predicate tuple and hence one schedule unit (``predicates_pushed_down``).
3. **Shared-filter grouping** — distinct normalized conjunctions are pushed
   down into a shared mask stage: the members of one execution unit share
   one boolean mask, ANDed once from the cached predicate masks; units of
   different kinds over the same conjunction each AND their own
   (``masks_shared`` counts the references beyond the first either way).
4. **Multi-query group-by fusion** — aggregates sharing a
   ``(Scan, Filter, Group)`` prefix run in a single pass over packed-key
   group codes (ascending code order) and ``np.bincount`` scatter-adds with
   stacked reduction columns, decoding the group tuples once for the whole
   family (``groupby_fusions``).
5. **Join-side fusion** — the batch's join plans share a deduplicated side
   table: plans referencing the same side (same key columns and normalized
   ``Scan``/``Filter``) compute its ``(join key, group)`` weight totals
   once, and distinct sides grouping over the same key columns stack into
   one fused scatter-add pass (``join_sides_fused``).

Every rewrite is mask-preserving by construction (a dropped conjunct is
implied by a kept one, so the AND of the masks is the same boolean array),
which is why optimized execution is **bit-identical** to per-plan execution:
the same reductions run on the same operands in the same order.  The
rewrites never touch a plan's canonical :attr:`~repro.plan.ir.LogicalPlan.key`
— result-cache identity is stable across optimization.

**Off the served path.**  No served batch builds a schedule: the columnar
executor runs every plan as a unit of its own
(:meth:`repro.plan.ColumnarExecutor.execute_batch`), because on served
traffic fusion found about one unit per plan and the schedule cost 17% of a
batch.  :func:`optimize_batch`, :func:`normalize_plan` and
:class:`PhysicalSchedule` are kept, bench-only, because the benchmark's
``plan.optimize.*`` probe imports them; they go when that probe does
(ROADMAP.md, the benchmark agenda).  This module is a leaf: it takes the
per-plan vocabulary (:func:`~repro.plan.executor.unit_kind`, the ``UNIT_*``
kinds, :class:`~repro.plan.executor.JoinSideSpec` and
:func:`~repro.plan.executor.join_side_table`) from the executor, and no
served module imports it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import Any

from ..obs.trace import NULL_TRACER
from ..query.ast import Comparison
from .ir import (
    OUT_OF_DOMAIN,
    SHAPE_GROUP_BY,
    SHAPE_JOIN_GROUP_BY,
    SHAPE_TABLE,
    CanonicalPredicate,
    Filter,
    Group,
    Having,
    Join,
    Limit,
    LogicalPlan,
    Sort,
    Window,
    pipeline_nodes,
    rebuild_root,
)
from .executor import (
    UNIT_GROUP_BY,
    UNIT_JOIN,
    UNIT_SCALAR,
    JoinSideSpec,
    join_side_table,
    unit_kind,
)

#: Ordered comparisons admitting an upper (lower) bound on the domain codes.
_UPPER = (Comparison.LE, Comparison.LT)
_LOWER = (Comparison.GE, Comparison.GT)


@dataclass
class OptimizerStats:
    """Counters proving which rewrites fired on a schedule (or several).

    :func:`optimize_batch` moves them; nothing served does, since no served
    batch builds a schedule.

    Attributes
    ----------
    batches:
        Optimized schedules built.
    plans_in:
        Plans submitted to the optimizer.
    plans_deduped:
        Inputs answered by an earlier execution-equivalent plan's slot
        (exact duplicates, and distinct-key plans whose normalized
        execution collapses — e.g. a filter padded with an implied conjunct).
    predicates_pushed_down:
        WHERE conjuncts eliminated by normalization before reaching the
        shared mask stage (tautologies, duplicates, slack ordered bounds,
        conjuncts implied by an equality).
    groupby_fusions:
        Scatter-add passes avoided by fusing aggregates that share a
        ``(Scan, Filter, Group)`` prefix (family members beyond the first).
    masks_shared:
        Filter references beyond the first per distinct normalized
        conjunction.  The members of one schedule unit share one mask; units
        of different kinds over the same conjunction each AND the cached
        predicate masks again (an AND, not a predicate evaluation).
    join_sides_fused:
        Join-side scatter-add passes avoided by join-side fusion: side
        references served by an identical side already in the side table
        (same ``Scan``/``Filter``/keys), plus distinct sides beyond the
        first folded into a stacked fused pass over the same key columns
        (:func:`~repro.plan.executor.join_side_table`).
    """

    batches: int = 0
    plans_in: int = 0
    plans_deduped: int = 0
    predicates_pushed_down: int = 0
    groupby_fusions: int = 0
    masks_shared: int = 0
    join_sides_fused: int = 0

    def merge(self, other: "OptimizerStats") -> None:
        """Fold another stats object's counters into this one."""
        self.batches += other.batches
        self.plans_in += other.plans_in
        self.plans_deduped += other.plans_deduped
        self.predicates_pushed_down += other.predicates_pushed_down
        self.groupby_fusions += other.groupby_fusions
        self.masks_shared += other.masks_shared
        self.join_sides_fused += other.join_sides_fused

    def as_dict(self) -> dict[str, int]:
        """A plain-dict snapshot of every counter."""
        return {
            "batches": self.batches,
            "plans_in": self.plans_in,
            "plans_deduped": self.plans_deduped,
            "predicates_pushed_down": self.predicates_pushed_down,
            "groupby_fusions": self.groupby_fusions,
            "masks_shared": self.masks_shared,
            "join_sides_fused": self.join_sides_fused,
        }


# ----------------------------------------------------------------------
# Predicate normalization (rewrite 2)
# ----------------------------------------------------------------------
def _sort_key(predicate: CanonicalPredicate):
    """The deterministic conjunct order (same convention as plan keys)."""
    return repr(predicate.key)


def _is_always_true(predicate: CanonicalPredicate) -> bool:
    """``!=``/``>``/``>=`` against an out-of-domain literal match every tuple."""
    return predicate.bucket == OUT_OF_DOMAIN and predicate.comparison in (
        Comparison.NE,
        Comparison.GT,
        Comparison.GE,
    )


def _is_always_false(predicate: CanonicalPredicate) -> bool:
    """``=``/``<``/``<=`` against an out-of-domain literal (or an IN over no
    in-domain values) match no tuple at all."""
    if predicate.comparison is Comparison.IN:
        return not predicate.bucket
    return predicate.bucket == OUT_OF_DOMAIN and predicate.comparison in (
        Comparison.EQ,
        Comparison.LT,
        Comparison.LE,
    )


def _ordered_bound(predicate: CanonicalPredicate) -> int:
    """The inclusive domain-code bound an ordered conjunct imposes.

    Domain codes are integers, so ``< b`` is the upper bound ``b - 1`` and
    ``> b`` is the lower bound ``b + 1`` — which lets mixed ``<``/``<=``
    (or ``>``/``>=``) conjuncts on one attribute compare directly.
    """
    bucket = int(predicate.bucket)
    if predicate.comparison is Comparison.LT:
        return bucket - 1
    if predicate.comparison is Comparison.GT:
        return bucket + 1
    return bucket


def _code_satisfies(code: int, predicate: CanonicalPredicate) -> bool:
    """Whether an equality's domain code satisfies an ordered conjunct."""
    if predicate.comparison in _UPPER:
        return code <= _ordered_bound(predicate)
    return code >= _ordered_bound(predicate)


def normalize_predicates(
    predicates: tuple[CanonicalPredicate, ...],
) -> tuple[CanonicalPredicate, ...]:
    """The mask-preserving normal form of one WHERE conjunction.

    Rewrites (each drops only conjuncts *implied* by the kept ones, so the
    AND of the remaining masks is bit-identical to the original):

    * tautological conjuncts are removed;
    * an unsatisfiable conjunct absorbs the whole conjunction (the AND is
      all-false either way, and one all-false mask is that predicate's own);
    * duplicate conjuncts (same canonical key) are removed;
    * among the ordered upper (lower) bounds on one attribute only the
      tightest survives;
    * ordered conjuncts satisfied by an in-domain equality on the same
      attribute are removed (the equality already implies them).

    The result is sorted into the plan keys' canonical conjunct order, so
    two equivalent filters written differently normalize to the *same*
    tuple — one schedule unit, one mask computation.
    """
    kept: dict[tuple, CanonicalPredicate] = {}
    for predicate in predicates:
        if _is_always_true(predicate):
            continue
        if _is_always_false(predicate):
            # The conjunction can match nothing; this one conjunct's
            # (all-false) mask equals the whole conjunction's mask.
            return (predicate,)
        kept.setdefault(predicate.key, predicate)

    by_attribute: dict[str, list[CanonicalPredicate]] = {}
    for predicate in kept.values():
        by_attribute.setdefault(predicate.attribute, []).append(predicate)

    survivors: list[CanonicalPredicate] = []
    for conjuncts in by_attribute.values():
        equalities = [
            p
            for p in conjuncts
            if p.comparison is Comparison.EQ and p.bucket != OUT_OF_DOMAIN
        ]
        ordered = [p for p in conjuncts if p.comparison in _UPPER + _LOWER]
        rest = [p for p in conjuncts if p not in equalities and p not in ordered]
        if equalities:
            # Drop ordered bounds every equality already implies; an ordered
            # bound an equality *violates* is kept (the conjunction is
            # unsatisfiable, and the plain AND of masks preserves that).
            ordered = [
                p
                for p in ordered
                if not all(_code_satisfies(int(e.bucket), p) for e in equalities)
            ]
        else:
            uppers = sorted(
                (p for p in ordered if p.comparison in _UPPER and p.bucket != OUT_OF_DOMAIN),
                key=lambda p: (_ordered_bound(p), _sort_key(p)),
            )
            lowers = sorted(
                (p for p in ordered if p.comparison in _LOWER and p.bucket != OUT_OF_DOMAIN),
                key=lambda p: (-_ordered_bound(p), _sort_key(p)),
            )
            ordered = ([uppers[0]] if uppers else []) + ([lowers[0]] if lowers else [])
        survivors.extend(equalities + ordered + rest)
    return tuple(sorted(survivors, key=_sort_key))


def _normalize_filter(node: Filter, stats: OptimizerStats | None) -> Filter:
    normalized = normalize_predicates(node.predicates)
    if stats is not None:
        stats.predicates_pushed_down += len(node.predicates) - len(normalized)
    if normalized == node.predicates:
        return node
    return replace(node, predicates=normalized)


def normalize_plan(
    plan: LogicalPlan, stats: OptimizerStats | None = None
) -> LogicalPlan:
    """A copy of ``plan`` with every Filter's conjunction normalized.

    Bench-only, like :func:`optimize_batch`: nothing served executes a
    normalized plan.  The canonical :attr:`~repro.plan.ir.LogicalPlan.key`
    is untouched — normalization changes how the plan *executes*, never its
    result-cache identity — and the original query AST rides along
    unchanged.
    """
    aggregate = plan.aggregate
    child = aggregate.child
    if isinstance(child, Join):
        left = _normalize_filter(child.left.child, stats)
        right = _normalize_filter(child.right.child, stats)
        new_child: Any = child
        if left is not child.left.child or right is not child.right.child:
            new_child = replace(
                child,
                left=replace(child.left, child=left),
                right=replace(child.right, child=right),
            )
    elif isinstance(child, Group):
        new_filter = _normalize_filter(child.child, stats)
        new_child = child if new_filter is child.child else replace(child, child=new_filter)
    else:
        new_child = _normalize_filter(child, stats)
    if new_child is child:
        return plan
    # rebuild_root preserves any post-aggregate pipeline nodes (HAVING,
    # windows, sort, limit) between the route and the aggregate.
    root = rebuild_root(plan.root, replace(aggregate, child=new_child))
    return replace(plan, root=root)


# ----------------------------------------------------------------------
# The physical schedule (rewrites 1, 3, 4)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScheduleUnit:
    """One execution unit: a fused family of slots sharing a plan prefix.

    ``kind`` is :data:`UNIT_SCALAR` (point/scalar reductions over one shared
    mask), :data:`UNIT_GROUP_BY` (one scatter-add pass with stacked
    reduction columns), or :data:`UNIT_JOIN` (the batch's join plans, whose
    fused side totals are shared through :attr:`PhysicalSchedule.join_sides`).
    ``slots`` indexes into :attr:`PhysicalSchedule.slots`; for the fused
    non-join kinds every member shares ``predicates`` (the normalized
    filter) and, for group-by units, ``group_keys``.  For join units
    ``sides[i]`` gives slot ``i``'s ``(left, right)`` indexes into the
    schedule's join-side table.
    """

    kind: str
    slots: tuple[int, ...]
    predicates: tuple[CanonicalPredicate, ...] = ()
    group_keys: tuple[str, ...] = ()
    sides: tuple[tuple[int, int], ...] = ()


@dataclass
class PhysicalSchedule:
    """The optimized execution order of one batch of compiled plans.

    ``slots`` holds one normalized representative plan per distinct
    execution; ``assignments[i]`` maps input plan ``i`` to its slot, so an
    executor runs every unit once and fans each slot's answer back out to
    the input positions.  ``units`` covers every slot exactly once.
    Bench-only, like :func:`optimize_batch`.
    """

    plans: list[LogicalPlan]
    slots: list[LogicalPlan] = field(default_factory=list)
    assignments: list[int] = field(default_factory=list)
    units: list[ScheduleUnit] = field(default_factory=list)
    join_sides: list[JoinSideSpec] = field(default_factory=list)
    stats: OptimizerStats = field(default_factory=OptimizerStats)

    def fan_out(self, slot_results: Sequence[Any]) -> list[Any]:
        """Distribute per-slot answers back to input order."""
        return [slot_results[index] for index in self.assignments]


def _execution_signature(plan: LogicalPlan) -> tuple:
    """What a plan *computes* on the sample engine, post-normalization.

    Coarser than the canonical plan key in exactly one way: a point plan and
    a COUNT scalar over the same normalized filter run the identical masked
    reduction here, so they share a slot.  (Their canonical keys stay
    distinct — on the Bayesian-network route they are answered differently —
    but this signature is only ever used to schedule *columnar* execution,
    where the kernels coincide.)
    """
    aggregate = plan.aggregate
    if plan.shape == SHAPE_JOIN_GROUP_BY:
        join = plan.join
        return (
            UNIT_JOIN,
            join.on,
            (join.left.keys, join.right.keys),
            (aggregate.function, aggregate.attribute),
            tuple(p.key for p in join.left.child.predicates),
            tuple(p.key for p in join.right.child.predicates),
        )
    predicate_keys = tuple(p.key for p in plan.predicates)
    if plan.shape == SHAPE_TABLE:
        # A table's execution identity is its full output: group keys,
        # every aggregate spec, the column labels (aliases rename output
        # columns, so differently-labelled tables are different results),
        # and the whole post-aggregate pipeline.
        return (
            "table",
            plan.group_keys,
            plan.aggregate.specs,
            plan.labels,
            _pipeline_signature(plan),
            predicate_keys,
        )
    if plan.shape == SHAPE_GROUP_BY:
        return (
            UNIT_GROUP_BY,
            plan.group_keys,
            (aggregate.function, aggregate.attribute),
            predicate_keys,
        )
    # Point plans and scalar plans both reduce (function, attribute) over
    # the filter mask; points are always ("count", None).
    return (UNIT_SCALAR, (aggregate.function, aggregate.attribute), predicate_keys)


def _pipeline_signature(plan: LogicalPlan) -> tuple:
    """Hashable identity of a table plan's post-aggregate pipeline."""
    signature = []
    for node in pipeline_nodes(plan.root):
        if isinstance(node, Having):
            signature.append(("having", tuple(c.key for c in node.conditions)))
        elif isinstance(node, Window):
            signature.append(("window", tuple(op.key for op in node.ops)))
        elif isinstance(node, Sort):
            signature.append(("sort", node.keys))
        elif isinstance(node, Limit):
            signature.append(("limit", node.count))
    return tuple(signature)


def optimize_batch(
    plans: Sequence[LogicalPlan],
    stats: OptimizerStats | None = None,
    tracer=NULL_TRACER,
) -> PhysicalSchedule:
    """Rewrite a batch of compiled plans into a :class:`PhysicalSchedule`.

    Applies, in order: predicate normalization per plan, execution-signature
    dedup (slot assignment), shared-filter grouping, and group-by fusion.
    ``stats`` (when given) accumulates the schedule's counters in place.
    Bench-only: no served batch builds a schedule, and it stays until the
    benchmark's ``plan.optimize.*`` probe (which reads ``.slots``) goes.
    An enabled ``tracer`` records one ``optimize`` span carrying the
    schedule's rewrite counters.
    """
    if tracer.enabled:
        with tracer.span("optimize", plans=len(plans)) as span:
            schedule = _optimize_batch(plans, stats)
            span.set(slots=len(schedule.slots), units=len(schedule.units))
            span.count(**schedule.stats.as_dict())
        return schedule
    return _optimize_batch(plans, stats)


def _optimize_batch(
    plans: Sequence[LogicalPlan], stats: OptimizerStats | None = None
) -> PhysicalSchedule:
    schedule = PhysicalSchedule(plans=list(plans))
    schedule.stats.batches = 1
    schedule.stats.plans_in = len(schedule.plans)

    slot_by_signature: dict[tuple, int] = {}
    for plan in schedule.plans:
        unit_kind(plan)  # rejects what no unit can run
        normalized = normalize_plan(plan, schedule.stats)
        signature = _execution_signature(normalized)
        slot = slot_by_signature.get(signature)
        if slot is None:
            slot = len(schedule.slots)
            schedule.slots.append(normalized)
            slot_by_signature[signature] = slot
        else:
            schedule.stats.plans_deduped += 1
        schedule.assignments.append(slot)

    # Shared-filter grouping + group-by fusion over the distinct slots,
    # preserving first-appearance order of each family.  Join slots gather
    # into one family whose shared side table is built below.
    join_slots: list[int] = []
    families: dict[tuple, list[int]] = {}
    for index, plan in enumerate(schedule.slots):
        kind = unit_kind(plan)
        if kind == UNIT_JOIN:
            join_slots.append(index)
            continue
        # A family shares its kind, normalized filter and (for group-bys)
        # keys; a scalar plan's group keys are empty.
        predicate_keys = tuple(p.key for p in plan.predicates)
        families.setdefault((kind, plan.group_keys, predicate_keys), []).append(index)

    mask_references: dict[tuple, int] = {}
    for (kind, group_keys, predicate_keys), members in families.items():
        if predicate_keys:
            mask_references[predicate_keys] = (
                mask_references.get(predicate_keys, 0) + len(members)
            )
        first = schedule.slots[members[0]]
        schedule.units.append(
            ScheduleUnit(kind, tuple(members), first.predicates, group_keys)
        )
        if kind == UNIT_GROUP_BY:
            schedule.stats.groupby_fusions += len(members) - 1

    # Join-side fusion: the batch's join slots become one unit referencing a
    # deduplicated side table; distinct sides grouping over the same key
    # columns stack into one fused scatter-add pass at execution time.
    if join_slots:
        sides, pairs = join_side_table([schedule.slots[slot] for slot in join_slots])
        schedule.join_sides = sides
        # Two references per join, one pass per distinct key-column set.
        schedule.stats.join_sides_fused += 2 * len(pairs) - len({spec.keys for spec in sides})
        for spec in sides:
            # Each distinct side evaluates its conjunction mask once;
            # duplicate references never reach the mask stage at all.
            if spec.signature[1]:
                mask_references[spec.signature[1]] = (
                    mask_references.get(spec.signature[1], 0) + 1
                )
        schedule.units.append(ScheduleUnit(UNIT_JOIN, tuple(join_slots), sides=pairs))

    schedule.stats.masks_shared = sum(
        count - 1 for count in mask_references.values() if count > 1
    )
    if stats is not None:
        stats.merge(schedule.stats)
    return schedule
