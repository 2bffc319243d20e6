"""Batch-aware plan optimizer: rewrite a batch of compiled plans into a schedule.

A serving batch routinely carries fifty variants of the same query — exact
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
   one fused scatter-add pass (``join_sides_fused``); the executor
   additionally carries side totals *across* batches in its
   signature-keyed :attr:`~repro.plan.ColumnarExecutor.join_side_cache`
   (``join_side_cache_hits``).

Every rewrite is mask-preserving by construction (a dropped conjunct is
implied by a kept one, so the AND of the masks is the same boolean array),
which is why optimized execution is **bit-identical** to per-plan execution:
the same reductions run on the same operands in the same order.  The
rewrites never touch a plan's canonical :attr:`~repro.plan.ir.LogicalPlan.key`
— result-cache identity is stable across optimization.

:func:`run_units` is the one way a schedule executes: the executor supplies
one method per unit kind (:func:`unit_kind`), and every unit of the schedule
calls it.  A lone plan has nothing to share, so it builds no schedule and
calls the same method as a unit of its own.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import Any

from ..exceptions import QueryError
from ..obs.trace import NULL_TRACER
from ..query.ast import Comparison
from .ir import (
    OUT_OF_DOMAIN,
    SHAPE_GROUP_BY,
    SHAPE_JOIN_GROUP_BY,
    SHAPE_POINT,
    SHAPE_SCALAR,
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

#: Execution-unit kinds a schedule can contain.
UNIT_SCALAR = "scalar"
UNIT_GROUP_BY = "group-by"
UNIT_JOIN = "join"

#: Ordered comparisons admitting an upper (lower) bound on the domain codes.
_UPPER = (Comparison.LE, Comparison.LT)
_LOWER = (Comparison.GE, Comparison.GT)


@dataclass
class OptimizerStats:
    """Counters proving which rewrites fired on a batch (or a session).

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
        references served by an already-scheduled identical side (same
        ``Scan``/``Filter``/keys), plus distinct sides beyond the first
        folded into a stacked fused pass over the same key columns.
    join_side_cache_hits:
        Scheduled join sides answered by the cross-batch
        :attr:`~repro.plan.ColumnarExecutor.join_side_cache` instead of recomputed.
    bn_sample_dispatches_saved:
        Per-``(plan, sample)`` executions avoided by serving a family
        (hybrid GROUP BYs / joins / grouped tables, or BN-routed sampled
        aggregates) through one stacked schedule over the BN's ``K``
        generated samples — ``K * (family size - 1)`` per family.
    window_sorts_shared:
        Window ``np.lexsort`` permutations answered by a fused family's
        shared sort memo instead of recomputed — table plans in one
        ``(Scan, Filter, Group)`` family whose windows share a partition
        family pay one argsort for the whole batch.
    """

    batches: int = 0
    plans_in: int = 0
    plans_deduped: int = 0
    predicates_pushed_down: int = 0
    groupby_fusions: int = 0
    masks_shared: int = 0
    join_sides_fused: int = 0
    join_side_cache_hits: int = 0
    bn_sample_dispatches_saved: int = 0
    window_sorts_shared: int = 0

    def merge(self, other: "OptimizerStats") -> None:
        """Fold another stats object's counters into this one."""
        self.batches += other.batches
        self.plans_in += other.plans_in
        self.plans_deduped += other.plans_deduped
        self.predicates_pushed_down += other.predicates_pushed_down
        self.groupby_fusions += other.groupby_fusions
        self.masks_shared += other.masks_shared
        self.join_sides_fused += other.join_sides_fused
        self.join_side_cache_hits += other.join_side_cache_hits
        self.bn_sample_dispatches_saved += other.bn_sample_dispatches_saved
        self.window_sorts_shared += other.window_sorts_shared

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
            "join_side_cache_hits": self.join_side_cache_hits,
            "bn_sample_dispatches_saved": self.bn_sample_dispatches_saved,
            "window_sorts_shared": self.window_sorts_shared,
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

    The canonical :attr:`~repro.plan.ir.LogicalPlan.key` is untouched —
    normalization changes how the plan *executes*, never its result-cache
    identity — and the original query AST rides along unchanged.
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
class JoinSideSpec:
    """One distinct join side a schedule's join plans reference.

    A *side* is the ``Group(Filter(Scan), (join key, group key))`` subtree a
    join plan aggregates into ``(join key, group)`` weight totals.  Two join
    plans share a side when their sides' key columns and *normalized*
    filters coincide — the optimizer then schedules one side computation
    (one stacked scatter-add column) for both.  ``signature`` is the
    hashable execution identity and the cross-batch
    :attr:`~repro.plan.ColumnarExecutor.join_side_cache` key.
    """

    keys: tuple[str, ...]
    predicates: tuple[CanonicalPredicate, ...]

    @property
    def signature(self) -> tuple:
        """The side's hashable execution identity (keys + normalized filter)."""
        return (self.keys, tuple(p.key for p in self.predicates))


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


def unit_kind(plan: LogicalPlan) -> str:
    """The kind of execution unit a plan runs in.

    Joins run in the join unit; group-bys and grouped tables in a group-by
    unit, so a table's aggregates fuse with the plain group-bys over its
    ``(Scan, Filter, Group)`` prefix; points, scalars and group-less tables
    in a masked scalar-reduction unit.  Raises :class:`QueryError` for a
    plan of any other shape.
    """
    shape = plan.shape
    if shape == SHAPE_JOIN_GROUP_BY:
        return UNIT_JOIN
    if shape == SHAPE_GROUP_BY or (shape == SHAPE_TABLE and plan.group_keys):
        return UNIT_GROUP_BY
    if shape in (SHAPE_POINT, SHAPE_SCALAR, SHAPE_TABLE):
        return UNIT_SCALAR
    raise QueryError(f"unsupported plan shape {plan.shape!r}")


def join_side_table(
    plans: Sequence[LogicalPlan], stats: OptimizerStats | None = None
) -> tuple[list[JoinSideSpec], tuple[tuple[int, int], ...]]:
    """The distinct sides of some join plans, and each plan's ``(left,
    right)`` indexes into them.

    Two references share a side when the side's key columns and filter
    coincide (a self-join over one filter computes one side), and distinct
    sides over the same key columns stack into one fused pass.  ``stats``
    counts the side passes this avoids in ``join_sides_fused``.
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
    if stats is not None:
        stats.join_sides_fused += 2 * len(plans) - len({spec.keys for spec in sides})
    return sides, tuple(pairs)


def run_units(
    plans: Sequence[LogicalPlan],
    run_unit,
    stats: OptimizerStats | None = None,
    tracer=NULL_TRACER,
    cancel=None,
) -> list:
    """Answer plans unit by unit, in submission order.

    ``run_unit(kind, plans, sides, pairs, stats, tracer)`` answers the plans
    of one unit (``sides`` and ``pairs`` are the join unit's side table, see
    :func:`join_side_table`).  A lone plan has nothing to share, so it is
    a unit of its own and pays no :func:`optimize_batch`; a batch runs the
    units of its optimized schedule and fans the answers out.  ``cancel``
    is polled before every unit, so an expired deadline never leaves one
    half done.  An enabled ``tracer`` records one ``unit:<kind>`` span per
    scheduled unit, with one structural ``slot`` child per plan it runs
    (inputs deduplicated onto a slot are ``fan-out`` grandchildren); a lone
    plan's work (its ``mask`` span) nests directly under the caller's span.
    """
    if len(plans) == 1:
        kind = unit_kind(plans[0])
        if cancel is not None:
            cancel.poll()
        sides, pairs = join_side_table(plans, stats) if kind == UNIT_JOIN else ((), ())
        return run_unit(kind, plans, sides, pairs, stats, tracer)
    schedule = optimize_batch(plans, stats, tracer=tracer)
    answers: list = [None] * len(schedule.slots)
    for unit in schedule.units:
        if cancel is not None:
            cancel.poll()
        with tracer.span(f"unit:{unit.kind}", slots=len(unit.slots)) as span:
            unit_answers = run_unit(
                unit.kind,
                [schedule.slots[slot] for slot in unit.slots],
                schedule.join_sides,
                unit.sides,
                stats,
                tracer,
            )
            if tracer.enabled:
                _annotate_unit_slots(span, unit, schedule)
        for slot, answer in zip(unit.slots, unit_answers):
            answers[slot] = answer
    return schedule.fan_out(answers)


def _annotate_unit_slots(span, unit: ScheduleUnit, schedule: PhysicalSchedule) -> None:
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


def optimize_batch(
    plans: Sequence[LogicalPlan],
    stats: OptimizerStats | None = None,
    tracer=NULL_TRACER,
) -> PhysicalSchedule:
    """Rewrite a batch of compiled plans into a :class:`PhysicalSchedule`.

    Applies, in order: predicate normalization per plan, execution-signature
    dedup (slot assignment), shared-filter grouping, and group-by fusion.
    ``stats`` (when given) accumulates the schedule's counters in place —
    the serving layer threads one session-lifetime object through here.
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
        sides, pairs = join_side_table(
            [schedule.slots[slot] for slot in join_slots], schedule.stats
        )
        schedule.join_sides = sides
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
