"""Open-world query evaluators (Sec. 4.2.4 and 4.3).

Three evaluators share one interface:

* :class:`ReweightedSampleEvaluator` answers every query from the weighted
  sample (this is how AQP, LinReg, and IPF results are produced);
* :class:`BayesNetEvaluator` answers point queries by exact inference
  (``n * Pr(X = x)``) and GROUP BY queries from ``K`` forward-sampled
  relations, keeping only groups that appear in all ``K`` answers;
* :class:`HybridEvaluator` is Themis's combination: the reweighted sample
  when the queried tuple/group exists in the sample, the Bayesian network
  otherwise, and the union of both for GROUP BY queries.

Each evaluator has two entry points and nothing else decides how a plan is
served:

* ``execute(query)`` — one query on the single-plan kernels
  (``point`` / ``scalar`` / ``group_by`` / ``join_group_by`` / ``analytic``).
  Given a *routed* :class:`~repro.plan.LogicalPlan`,
  :meth:`HybridEvaluator.execute` hands it to the evaluator its ``Route``
  node names; this is the one single-plan dispatch behind ``Themis.query``
  and ``ServingSession.execute``.
* ``run(plans)`` — the batched entry point: routed plans of any mix of
  shapes in, answers in submission order out, ``==`` to ``execute`` per
  plan.  The sample's ``run`` is the columnar engine's optimized schedule;
  the network's ``run`` sends point plans through one batched inference
  call and everything else through one optimized schedule over the ``K``
  generated samples stacked into one relation (:class:`_GeneratedStack`); the
  hybrid's ``run`` splits by ``plan.route``, delegates to the other two,
  and for hybrid-routed plans runs both and merges.

**Combining answers.**  Two rules turn per-relation answers into one.
On the network side a group survives only if it appears in *all* ``K``
generated answers, and its value is the arithmetic mean of the ``K`` values
— the paper's guard against phantom groups (Sec. 4.2.4).  In the vocabulary
of consensus answers over probabilistic databases (Li & Deshpande, see
PAPERS.md) the ``K`` samples are possible worlds: the kept groups are the
intersection of the worlds' group sets (the set-valued consensus under
symmetric difference, taken at threshold 1 instead of 1/2), and the mean is
the value minimizing expected squared distance to the worlds' values.  On
the hybrid side (:func:`_merge_group_by`) the sample's value wins for every
group the sample has, and groups only the network found are added — the
sample is trusted where it has support, the network fills in the open world.

**The stacked pass.**  The ``K`` worlds are never looped over.  They are one
relation with a per-row sample id, so a family of plans pays one compile,
one optimized schedule and one conjunction mask per unit over the
``K * size`` rows, and a GROUP BY unit one scatter-add per distinct measure
over ``(sample, group)`` bins, reshaped ``(K, G)``: a group survives iff its
weight total is positive in all ``K`` rows, and its value is the mean of its
column.  The answers are bit-identical to the loop over ``K`` engines this
replaced, by operand order rather than by luck — the partitioned kernels
(:mod:`repro.plan.kernels`) give every sample exactly the additions its own
pass would run, and :func:`_sample_means` reduces each survivor's ``K``
values along the last axis of a C-contiguous array, which is the pairwise
summation ``np.mean`` runs over a list of ``K`` floats (reducing ``(K, G)``
over axis 0 accumulates row by row and differs once ``K >= 8``).  The loop
itself lives on as the reference of ``tests/test_generated_stack.py``.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Mapping, Sequence
from dataclasses import replace
from typing import Any

import numpy as np

from ..bayesnet import BayesianNetwork, ExactInference, ForwardSampler
from ..exceptions import QueryError
from ..obs.trace import NULL_TRACER
from ..plan import (
    ROUTE_BAYES_NET,
    ROUTE_HYBRID,
    ROUTE_SAMPLE,
    SHAPE_GROUP_BY,
    SHAPE_POINT,
    SHAPE_SCALAR,
    SHAPE_TABLE,
    ColumnarExecutor,
    LogicalPlan,
    PhysicalSchedule,
    PlanCompiler,
    RowPartition,
    ScheduleUnit,
    merge_join_sides,
    merged_table,
    optimize_batch,
    partitioned_group_columns,
    partitioned_grouped_weight_totals,
    partitioned_scalar_reduce,
    query_shape,
)
from ..plan.optimize import UNIT_JOIN, UNIT_SCALAR
from ..query.ast import (
    AnalyticQuery,
    GroupByQuery,
    JoinGroupByQuery,
    Query,
    ScalarAggregateQuery,
)
from ..schema import Relation
from ..sql.engine import QueryResult, WeightedQueryEngine


class OpenWorldEvaluator:
    """Interface shared by all open-world query evaluators."""

    #: Name used in experiment reports.
    name: str = "evaluator"

    def point(self, assignment: Mapping[str, Any]) -> float:
        """Estimated population count of tuples matching ``assignment``."""
        raise NotImplementedError

    def group_by(self, query: GroupByQuery) -> QueryResult:
        """Estimated GROUP BY answer over the population."""
        raise NotImplementedError

    def scalar(self, query: ScalarAggregateQuery) -> float:
        """Estimated filtered scalar aggregate over the population."""
        raise NotImplementedError

    def join_group_by(self, query: JoinGroupByQuery) -> QueryResult:
        """Estimated self-join GROUP BY answer over the population."""
        raise NotImplementedError

    def analytic(self, query: "AnalyticQuery | LogicalPlan"):
        """Estimated analytic (table-shaped) answer over the population."""
        raise NotImplementedError

    def run(
        self,
        plans: Sequence[LogicalPlan],
        *,
        stats=None,
        tracer=NULL_TRACER,
        cancel=None,
    ) -> list:
        """Answer a batch of compiled plans, in submission order.

        The one batched entry point: plans of any mix of shapes share
        whatever work this evaluator can share, and every answer is ``==``
        to :meth:`execute` on the same plan.  ``stats`` (an
        :class:`~repro.plan.OptimizerStats`) accumulates rewrite counters in
        place, an enabled ``tracer`` records the dispatch as spans, and
        ``cancel`` (a :class:`~repro.serving.governance.CancelToken`) is
        polled between units of shared work, so an expired deadline raises
        mid-run with every cache left coherent.
        """
        raise NotImplementedError

    def execute(self, query: "Query | LogicalPlan"):
        """Answer one query on the single-plan kernels.

        Dispatches on the query shape (one shared shape function, not
        per-evaluator isinstance chains); a compiled plan is served through
        the AST it was compiled from.

        Raises
        ------
        QueryError
            For unsupported query objects; the message names the offending
            query itself (type and repr), not just its type.
        """
        if isinstance(query, LogicalPlan):
            query = query.query
        shape = query_shape(query)
        if shape == SHAPE_POINT:
            return self.point(query.as_dict())
        if shape == SHAPE_GROUP_BY:
            return self.group_by(query)
        if shape == SHAPE_SCALAR:
            return self.scalar(query)
        if shape == SHAPE_TABLE:
            return self.analytic(query)
        return self.join_group_by(query)


class ReweightedSampleEvaluator(OpenWorldEvaluator):
    """Answer every query from a weighted sample (AQP / LinReg / IPF)."""

    def __init__(self, weighted_sample: Relation, name: str = "reweighted-sample"):
        self._engine = WeightedQueryEngine(weighted_sample)
        self.name = name

    @property
    def sample(self) -> Relation:
        """The weighted sample queries run against."""
        return self._engine.relation

    @property
    def engine(self) -> WeightedQueryEngine:
        """The columnar weighted engine (shared with the hybrid evaluator)."""
        return self._engine

    @property
    def mask_cache(self):
        """The engine's predicate-mask cache (used by plan routing)."""
        return self._engine.mask_cache

    def point(self, assignment: Mapping[str, Any]) -> float:
        return self._engine.point(assignment)

    def group_by(self, query: GroupByQuery) -> QueryResult:
        return self._engine.group_by(query)

    def scalar(self, query: ScalarAggregateQuery) -> float:
        return self._engine.scalar(query)

    def join_group_by(self, query: JoinGroupByQuery) -> QueryResult:
        return self._engine.join_group_by(query)

    def analytic(self, query: "AnalyticQuery | LogicalPlan"):
        """Analytic table straight from the columnar engine's fused pass."""
        return self._engine.analytic(query)

    def run(self, plans, *, stats=None, tracer=NULL_TRACER, cancel=None) -> list:
        """One optimized columnar schedule over the weighted sample
        (:meth:`repro.plan.ColumnarExecutor.execute_batch`); ``cancel`` is
        polled per schedule unit."""
        return self._engine.execute_batch(
            plans, stats=stats, tracer=tracer, cancel=cancel
        )


class BayesNetEvaluator(OpenWorldEvaluator):
    """Answer queries from a learned Bayesian network.

    Parameters
    ----------
    network:
        The learned population model.
    population_size:
        ``n``, used to scale probabilities into counts.
    n_generated_samples:
        ``K`` from Sec. 4.2.4 (the paper uses ``K = 10``).
    generated_sample_size:
        Rows per generated sample; defaults to 2,000.
    """

    def __init__(
        self,
        network: BayesianNetwork,
        population_size: float,
        n_generated_samples: int = 10,
        generated_sample_size: int = 2000,
        seed: int | np.random.Generator | None = None,
        name: str = "bayes-net",
    ):
        if population_size <= 0:
            raise QueryError("population_size must be positive")
        self._network = network
        self._inference = ExactInference(network)
        self._population_size = float(population_size)
        self._k = int(n_generated_samples)
        self._sample_size = int(generated_sample_size)
        self._rng = np.random.default_rng(seed)
        self._generated: list[Relation] | None = None
        self._generated_stack: _GeneratedStack | None = None
        self._schema_compiler = None
        self.name = name

    @property
    def network(self) -> BayesianNetwork:
        """The underlying Bayesian network."""
        return self._network

    @property
    def population_size(self) -> float:
        """The population size used to scale probabilities."""
        return self._population_size

    @property
    def inference(self) -> ExactInference:
        """The exact-inference engine (used by the serving inference cache)."""
        return self._inference

    @property
    def n_generated_samples(self) -> int:
        """``K``, the number of forward-sampled relations (Sec. 4.2.4)."""
        return self._k

    @property
    def has_generated_samples(self) -> bool:
        """Whether the ``K`` forward-sampled relations are materialized."""
        return self._generated is not None

    def generated_samples(self) -> list[Relation]:
        """The ``K`` forward-sampled relations, generating them on first use."""
        if self._generated is None:
            sampler = ForwardSampler(self._network, seed=self._rng)
            self._generated = sampler.sample_many(
                self._k, self._sample_size, population_size=self._population_size
            )
        return self._generated

    def _stack(self) -> "_GeneratedStack":
        """The ``K`` generated samples stacked behind one executor.

        Built on first use and kept for the evaluator's lifetime, so
        repeated filtered queries against the generated samples pay each
        predicate mask once (a refit builds a fresh evaluator, hence a fresh
        stack).
        """
        if self._generated_stack is None:
            self._generated_stack = _GeneratedStack(
                self.generated_samples(), self._compiler()
            )
        return self._generated_stack

    def _compiler(self):
        """The (cached) plan compiler over the network's schema, shared by
        table decomposition and the generated-sample stack."""
        if self._schema_compiler is None:
            self._schema_compiler = PlanCompiler(self._network.schema)
        return self._schema_compiler

    # ------------------------------------------------------------------
    # Single-plan kernels
    # ------------------------------------------------------------------
    def point(self, assignment: Mapping[str, Any]) -> float:
        """``n * Pr(X_1 = x_1, ..., X_d = x_d)`` by exact inference."""
        probability = self._inference.probability_or_zero(dict(assignment))
        return self._population_size * probability

    def group_by(self, query: GroupByQuery) -> QueryResult:
        """Average the per-group answers of ``K`` generated samples.

        Only groups appearing in **all** ``K`` answers are returned, which is
        the paper's guard against phantom groups.  A family of one through
        the stacked pass (:meth:`_GeneratedStack.run`), like :meth:`scalar`
        and :meth:`join_group_by`.
        """
        return self._stack().run([query])[0]

    def scalar(self, query: ScalarAggregateQuery) -> float:
        return self._stack().run([query])[0]

    def join_group_by(self, query: JoinGroupByQuery) -> QueryResult:
        return self._stack().run([query])[0]

    def analytic(self, query: "AnalyticQuery | LogicalPlan"):
        """Analytic table by per-aggregate decomposition over the network
        (see :func:`_decomposed_table`)."""
        plan = query if isinstance(query, LogicalPlan) else self._compiler().compile(query)
        return _decomposed_table(self, plan, self._network.schema)

    # ------------------------------------------------------------------
    # The batched entry point
    # ------------------------------------------------------------------
    def run(self, plans, *, stats=None, tracer=NULL_TRACER, cancel=None) -> list:
        """Batched answering over the network, ``==`` to :meth:`execute` per plan.

        Plans fall into two families, each paying its shared work once:
        point plans go through **one** batched exact-inference call (one
        variable-elimination pass per evidence signature, ``cancel`` polled
        between signatures); all other plans — scalars, group-bys, joins,
        tables — go through one optimized schedule over the stacked
        generated samples (:meth:`_run_sampled`).
        """
        families: dict[Callable, list[int]] = {}
        for index, plan in enumerate(plans):
            family = self._points if plan.shape == SHAPE_POINT else self._run_sampled
            families.setdefault(family, []).append(index)
        results: list = [None] * len(plans)
        for family, indices in families.items():
            answers = family(
                [plans[index] for index in indices],
                stats=stats,
                tracer=tracer,
                cancel=cancel,
            )
            for index, answer in zip(indices, answers):
                results[index] = answer
        return results

    def _points(self, plans, cancel=None, **_) -> list[float]:
        probabilities = self._inference.batched.probability_or_zero_batch(
            [plan.query.as_dict() for plan in plans], cancel=cancel
        )
        return [
            float(self._population_size * probability)
            for probability in probabilities
        ]

    def _run_sampled(self, plans, stats=None, tracer=NULL_TRACER, cancel=None) -> list:
        """Answer plans from the ``K`` generated samples in one stacked pass.

        Tables decompose into their per-aggregate parts, so the whole family
        is scalars, group-bys and joins, served by one optimized schedule
        over the stacked samples (:meth:`_GeneratedStack.run`: fused
        group-by prefixes, shared masks and join sides, ``cancel`` polled
        per schedule unit).  Raw ASTs are passed down — the stack compiles
        against the *network's* schema, exactly as the single-plan kernels
        do.  ``stats.bn_sample_dispatches_saved`` counts the
        ``K * (family - 1)`` per-``(plan, sample)`` executions the family
        shares.
        """
        flat, slices = _flatten_tables(plans, self._compiler().compile)
        with tracer.span("bn-samples", samples=self._k, plans=len(flat)):
            answers = self._stack().run([plan.query for plan in flat], cancel=cancel)
        if stats is not None and len(flat) > 1:
            stats.bn_sample_dispatches_saved += self._k * (len(flat) - 1)
        return _assemble_tables(plans, slices, answers, self._network.schema, stats)


class _GeneratedStack:
    """The ``K`` generated samples as one relation behind one executor.

    Rows are stacked in sample order, so sample ``k`` is a contiguous row
    range (:class:`~repro.plan.kernels.RowPartition`) and one
    :class:`~repro.plan.ColumnarExecutor` — one compiler, one mask cache,
    one numeric-column memo — serves all ``K`` worlds.  :meth:`run` is the
    only way the network answers from its samples: single queries are
    families of one.
    """

    def __init__(self, samples: list[Relation], compiler: PlanCompiler):
        self._partition = RowPartition.of_sizes([sample.n_rows for sample in samples])
        self._executor = ColumnarExecutor(
            functools.reduce(Relation.concat, samples), compiler=compiler
        )

    def run(self, queries: Sequence[Query], cancel=None) -> list:
        """Consensus answers of scalar / GROUP BY / join queries over the
        ``K`` samples, in submission order: one compile per query, one
        optimized schedule, ``cancel`` polled per schedule unit."""
        compile = self._executor.compiler.compile
        schedule = optimize_batch([compile(query) for query in queries])
        answers: list = [None] * len(schedule.slots)
        for unit in schedule.units:
            if cancel is not None:
                cancel.poll()
            self._run_unit(unit, schedule, answers)
        return schedule.fan_out(answers)

    def _run_unit(self, unit: ScheduleUnit, schedule: PhysicalSchedule, answers: list) -> None:
        """Execute one schedule unit over all ``K`` samples at once."""
        executor, partition = self._executor, self._partition
        relation = executor.relation
        plans = [schedule.slots[slot] for slot in unit.slots]
        if unit.kind == UNIT_JOIN:
            # Side totals and presence come from the (sample, group) bins;
            # the merge stays per sample, on dicts in ascending group order.
            sides = [
                partitioned_grouped_weight_totals(
                    relation,
                    side.keys,
                    [executor.mask_cache.conjunction_mask(side.predicates)],
                    partition,
                )[0]
                for side in schedule.join_sides
            ]
            for slot, plan, (left, right) in zip(unit.slots, plans, unit.sides):
                worlds = [merge_join_sides(*pair) for pair in zip(sides[left], sides[right])]
                groups = [
                    group
                    for group in worlds[0]
                    if all(group in world for world in worlds[1:])
                ]
                values = [[world[group] for world in worlds] for group in groups]
                answers[slot] = QueryResult(
                    plan.group_keys, dict(zip(groups, _sample_means(values)))
                )
            return
        mask = executor.mask_cache.conjunction_mask(unit.predicates)
        # Tables were flattened into their parts: one aggregate per plan.
        specs = [executor.plan_specs(plan)[0] for plan in plans]
        if unit.kind == UNIT_SCALAR:
            values = partitioned_scalar_reduce(relation, mask, specs, partition)
            for slot, mean in zip(unit.slots, _sample_means(values)):
                answers[slot] = mean
            return
        weight_totals, per_spec = partitioned_group_columns(
            relation, unit.group_keys, mask, specs, partition
        )
        survivors = np.flatnonzero((weight_totals > 0).all(axis=0))
        groups = relation.group_tuples(unit.group_keys, survivors)
        for slot, values in zip(unit.slots, per_spec):
            means = _sample_means(values[:, survivors].T)
            answers[slot] = QueryResult(unit.group_keys, dict(zip(groups, means)))


def _sample_means(values) -> list[float]:
    """Row means of ``(n, K)`` values — each row one answer's ``K`` worlds.

    Reduces along the last axis of a C-contiguous array: numpy then runs the
    same pairwise summation over the same ``K`` operands as ``np.mean`` over
    a list of the ``K`` values, which keeps the stacked pass bit-identical
    to averaging per-sample answers.
    """
    rows = np.ascontiguousarray(values, dtype=float)
    return rows.mean(axis=1).tolist() if rows.size else []


class HybridEvaluator(OpenWorldEvaluator):
    """Themis's hybrid of the reweighted sample and the Bayesian network.

    Point queries use the reweighted sample whenever the queried tuple exists
    in the sample and fall back to BN inference otherwise; GROUP BY answers
    are the reweighted-sample groups unioned with any extra BN groups.

    Parameters
    ----------
    weighted_sample:
        The reweighted sample component.
    bayes_net_evaluator:
        The probabilistic component.
    sample_evaluator:
        Optionally, an existing :class:`ReweightedSampleEvaluator` over
        ``weighted_sample`` to share — sharing the evaluator shares its
        columnar engine and predicate-mask cache with every other consumer
        of the fitted model (one mask per predicate per model, not per
        evaluator).
    """

    def __init__(
        self,
        weighted_sample: Relation,
        bayes_net_evaluator: BayesNetEvaluator,
        name: str = "hybrid",
        sample_evaluator: ReweightedSampleEvaluator | None = None,
    ):
        if sample_evaluator is None:
            sample_evaluator = ReweightedSampleEvaluator(weighted_sample)
        self._sample_evaluator = sample_evaluator
        self._bn_evaluator = bayes_net_evaluator
        self.name = name

    @property
    def sample(self) -> Relation:
        """The weighted sample component."""
        return self._sample_evaluator.sample

    @property
    def network(self) -> BayesianNetwork:
        """The Bayesian network component."""
        return self._bn_evaluator.network

    @property
    def sample_evaluator(self) -> ReweightedSampleEvaluator:
        """The reweighted-sample component (shared engine and mask cache)."""
        return self._sample_evaluator

    # ------------------------------------------------------------------
    # Single-plan kernels
    # ------------------------------------------------------------------
    def point(self, assignment: Mapping[str, Any]) -> float:
        if self._sample_evaluator.sample.contains(assignment):
            return self._sample_evaluator.point(assignment)
        return self._bn_evaluator.point(assignment)

    def group_by(self, query: GroupByQuery) -> QueryResult:
        sample_result = self._sample_evaluator.group_by(query)
        bn_result = self._bn_evaluator.group_by(query)
        return _merge_group_by(query.group_by, sample_result, bn_result)

    def scalar(self, query: ScalarAggregateQuery) -> float:
        # Use the sample when any tuple satisfies the filters, otherwise the
        # BN.  The compiled predicates' masks come from the shared cache, so
        # when the query later executes it only ANDs them again.
        if not query.predicates:
            return self._sample_evaluator.scalar(query)
        engine = self._sample_evaluator.engine
        plan = engine.executor.compiler.compile(query)
        mask = engine.mask_cache.conjunction_mask(plan.predicates)
        if mask is None or mask.any():
            return self._sample_evaluator.scalar(query)
        return self._bn_evaluator.scalar(query)

    def join_group_by(self, query: JoinGroupByQuery) -> QueryResult:
        sample_result = self._sample_evaluator.join_group_by(query)
        bn_result = self._bn_evaluator.join_group_by(query)
        return _merge_group_by(
            (query.left_group, query.right_group), sample_result, bn_result
        )

    def analytic(self, query: "AnalyticQuery | LogicalPlan"):
        """Hybrid analytic table by per-aggregate decomposition: grouped
        tables merge per aggregate like any GROUP BY, group-less tables
        follow the hybrid :meth:`scalar` rule (see :func:`_decomposed_table`)."""
        compiler = self._sample_evaluator.engine.executor.compiler
        plan = query if isinstance(query, LogicalPlan) else compiler.compile(query)
        return _decomposed_table(self, plan, self.sample.schema)

    def execute(self, query: "Query | LogicalPlan", tracer=NULL_TRACER):
        """The single-plan dispatch of the whole system.

        A routed plan runs on the evaluator its ``Route`` node chose — the
        routing rules are derived from this class's own kernels (see
        :func:`repro.plan.resolve_route`), so the answer is identical to
        running the query through the hybrid kernels and the route only
        skips work they would have discarded.  Sample-routed plans execute
        the compiled plan directly (no recompile); raw ASTs and unrouted
        plans take the hybrid kernels.
        """
        route = query.route if isinstance(query, LogicalPlan) else None
        if route == ROUTE_SAMPLE:
            return self._sample_evaluator.engine.execute(query, tracer=tracer)
        if route == ROUTE_BAYES_NET:
            with tracer.span("bn-evaluate", shape=query.shape):
                return self._bn_evaluator.execute(query)
        with tracer.span("hybrid"):
            return super().execute(query)

    # ------------------------------------------------------------------
    # The batched entry point
    # ------------------------------------------------------------------
    def run(self, plans, *, stats=None, tracer=NULL_TRACER, cancel=None) -> list:
        """Batched hybrid answering, ``==`` to :meth:`execute` per plan.

        Plans split by their ``Route`` tag: sample-routed plans are one
        :meth:`ReweightedSampleEvaluator.run`, network-routed plans one
        :meth:`BayesNetEvaluator.run`, and hybrid-routed plans — GROUP BY,
        join and grouped-table shapes, whose answer is the union of both
        sides — run on both and merge (:meth:`_run_merged`).
        """
        runners = {
            ROUTE_SAMPLE: self._sample_evaluator.run,
            ROUTE_BAYES_NET: self._bn_evaluator.run,
            ROUTE_HYBRID: self._run_merged,
        }
        routed: dict[str, list[int]] = {route: [] for route in runners}
        for index, plan in enumerate(plans):
            routed[plan.route].append(index)
        results: list = [None] * len(plans)
        for route, indices in routed.items():
            if not indices:
                continue
            answers = runners[route](
                [plans[index] for index in indices],
                stats=stats,
                tracer=tracer,
                cancel=cancel,
            )
            for index, answer in zip(indices, answers):
                results[index] = answer
        return results

    def _run_merged(self, plans, *, stats=None, tracer=NULL_TRACER, cancel=None) -> list:
        """Both sides over one family, then the sample-union-BN merge.

        Grouped tables decompose into their per-aggregate GROUP BY parts
        *inside* the family, so table aggregates, plain group-bys and joins
        share one optimized schedule on the sample (fused prefixes, shared
        masks and join sides; ``cancel`` polled per unit) and one per
        generated sample on the network side.  Each plan's two answers
        merge by :func:`_merge_group_by`; table parts then zip back into
        group rows and run the HAVING / window / ORDER BY / LIMIT pipeline.
        """
        compiler = self._sample_evaluator.engine.executor.compiler
        flat, slices = _flatten_tables(plans, compiler.compile)
        with tracer.span("sample-side", queries=len(flat)):
            sample_answers = self._sample_evaluator.run(
                flat, stats=stats, tracer=tracer, cancel=cancel
            )
        bn_answers = self._bn_evaluator.run(
            flat, stats=stats, tracer=tracer, cancel=cancel
        )
        merged = [
            _merge_group_by(plan.group_keys, sample_answer, bn_answer)
            for plan, sample_answer, bn_answer in zip(flat, sample_answers, bn_answers)
        ]
        return _assemble_tables(plans, slices, merged, self.sample.schema, stats)


def _analytic_parts(query: AnalyticQuery) -> list[GroupByQuery | ScalarAggregateQuery]:
    """The legacy per-aggregate queries an analytic query decomposes into.

    Aliases are stripped so equal aggregates compile to identical canonical
    plans and dedupe inside the batch optimizer.
    """
    specs = [replace(spec, alias=None) for spec in query.aggregates]
    if query.group_by:
        return [
            GroupByQuery(query.group_by, aggregate=spec, predicates=query.predicates)
            for spec in specs
        ]
    return [
        ScalarAggregateQuery(aggregate=spec, predicates=query.predicates)
        for spec in specs
    ]


def _decomposed_table(evaluator: OpenWorldEvaluator, plan: LogicalPlan, schema):
    """One analytic table through an evaluator's single-plan kernels.

    Each SELECT-list aggregate runs as one legacy group-by (or scalar)
    query through ``evaluator`` unchanged; the per-aggregate answers zip
    back into group rows and the HAVING / window / ORDER BY / LIMIT
    pipeline runs over them.
    """
    parts = _analytic_parts(plan.query)
    if plan.group_keys:
        per_spec = [evaluator.group_by(part).as_dict() for part in parts]
    else:
        per_spec = [{(): evaluator.scalar(part)} for part in parts]
    return merged_table(plan, per_spec, schema)


def _flatten_tables(plans, compile) -> tuple[list[LogicalPlan], list[slice]]:
    """Replace every table plan by its compiled per-aggregate parts.

    Returns the flat family plus, per input plan, the slice of the family
    answering it (width 1 for every non-table plan).
    """
    flat: list[LogicalPlan] = []
    slices: list[slice] = []
    for plan in plans:
        parts = (
            [compile(part) for part in _analytic_parts(plan.query)]
            if plan.shape == SHAPE_TABLE
            else [plan]
        )
        slices.append(slice(len(flat), len(flat) + len(parts)))
        flat.extend(parts)
    return flat, slices


def _assemble_tables(plans, slices, answers, schema, stats=None) -> list:
    """Undo :func:`_flatten_tables` over the family's answers.

    Non-table plans take their one answer; a table's per-aggregate answers
    zip back into group rows (:func:`repro.plan.merged_table`).  Window
    permutations are memoized per ``(group keys, predicates)`` family, so
    tables differing only above the Group share one argsort (counted in
    ``stats.window_sorts_shared``).
    """
    memos: dict[tuple, dict] = {}
    results = []
    for plan, where in zip(plans, slices):
        if plan.shape != SHAPE_TABLE:
            results.append(answers[where.start])
            continue
        if plan.group_keys:
            per_spec = [answer.as_dict() for answer in answers[where]]
        else:
            per_spec = [{(): answer} for answer in answers[where]]
        family = (plan.group_keys, tuple(predicate.key for predicate in plan.predicates))
        results.append(
            merged_table(
                plan,
                per_spec,
                schema,
                sort_memo=memos.setdefault(family, {}),
                stats=stats,
            )
        )
    return results


def _merge_group_by(
    group_by: tuple[str, ...], sample_result: QueryResult, bn_result: QueryResult
) -> QueryResult:
    """The hybrid merge: every sample group with the sample's value, plus
    the groups only the network found with the network's value."""
    merged = sample_result.as_dict()
    for group, value in bn_result:
        if group not in merged:
            merged[group] = value
    return QueryResult(group_by, merged)

