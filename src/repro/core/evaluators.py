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

Each evaluator answers through one method of its own, ``run(plans)``:
routed plans of any mix of shapes in, answers in submission order out.  A
single query is a batch of one: ``execute(query)``, defined once on the
base class, compiles an AST (the hybrid also stamps its ``Route`` node with
:func:`repro.plan.resolve_route`, the one place its routing rule lives) and
returns ``run([plan])[0]``.  The sample's ``run`` is the columnar engine's
optimized schedule; the network's ``run`` sends point plans through one
batched inference call and everything else through one optimized schedule
over the ``K`` generated samples stacked into one relation
(:class:`_GeneratedStack`); the hybrid's ``run`` splits by ``plan.route``,
delegates to the other two, and for hybrid-routed plans runs both and
merges.  A lone plan has nothing to share and pays no optimizer: it runs as
a unit of its own (:func:`repro.plan.optimize.run_units`).

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
itself lives on as the tests' reference (``tests/oracle.py``).
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
    ROUTE_SAMPLE,
    SHAPE_POINT,
    SHAPE_TABLE,
    ColumnarExecutor,
    LogicalPlan,
    PlanCompiler,
    RowPartition,
    merge_join_sides,
    merged_table,
    partitioned_group_columns,
    partitioned_grouped_weight_totals,
    partitioned_scalar_reduce,
    query_shape,
    resolve_route,
)
from ..plan.optimize import UNIT_GROUP_BY, UNIT_SCALAR, run_units
from ..query.ast import (
    AnalyticQuery,
    GroupByQuery,
    PointQuery,
    Query,
    ScalarAggregateQuery,
)
from ..schema import Relation
from ..sql.engine import QueryResult, WeightedQueryEngine


class OpenWorldEvaluator:
    """Interface shared by all open-world query evaluators."""

    #: Name used in experiment reports.
    name: str = "evaluator"

    @property
    def compiler(self) -> PlanCompiler:
        """The compiler ASTs go through before :meth:`run`."""
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

        The one entry point: plans of any mix of shapes share whatever work
        this evaluator can share, and an answer does not depend on the batch
        it ran in.  ``stats`` (an :class:`~repro.plan.OptimizerStats`)
        accumulates rewrite counters in place, an enabled ``tracer`` records
        the dispatch as spans, and ``cancel`` (a
        :class:`~repro.serving.governance.CancelToken`) is polled between
        units of shared work, so an expired deadline raises mid-run with
        every cache left coherent.
        """
        raise NotImplementedError

    def execute(self, query: "Query | LogicalPlan", tracer=NULL_TRACER):
        """Answer one query: a batch of one, ``run([plan])[0]``.

        Raises
        ------
        QueryError
            For unsupported query objects; the message names the offending
            query itself (type and repr), not just its type.
        """
        return self.run([self._plan(query)], tracer=tracer)[0]

    def point(self, assignment: Mapping[str, Any]) -> float:
        """Estimated population count of tuples matching ``assignment``.

        Kept for callers holding an assignment rather than an AST (the
        experiment harness, fig 15, table 7).
        """
        return self.execute(PointQuery(assignment))

    def group_by(self, query: GroupByQuery) -> QueryResult:
        """Estimated GROUP BY answer over the population.

        Kept only because the benchmark's ``probe_inference`` layer probe
        calls it by name; use :meth:`execute`.
        """
        return self.execute(query)

    def _plan(self, query: "Query | LogicalPlan") -> LogicalPlan:
        """The plan :meth:`run` answers for ``query``."""
        if isinstance(query, LogicalPlan):
            return query
        query_shape(query)  # names an unsupported object, SQL text included
        return self.compiler.compile(query)


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

    @property
    def compiler(self) -> PlanCompiler:
        """The engine's compiler (shared with the planner)."""
        return self._engine.executor.compiler

    def run(self, plans, *, stats=None, tracer=NULL_TRACER, cancel=None) -> list:
        """The columnar engine's batch over the weighted sample
        (:meth:`repro.plan.ColumnarExecutor.execute_batch`); ``cancel`` is
        polled per execution unit."""
        return self._engine.executor.execute_batch(
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
            self._generated_stack = _GeneratedStack(self.generated_samples(), self.compiler)
        return self._generated_stack

    @property
    def compiler(self) -> PlanCompiler:
        """The (cached) plan compiler over the network's schema, shared by
        table decomposition and the generated-sample stack."""
        if self._schema_compiler is None:
            self._schema_compiler = PlanCompiler(self._network.schema)
        return self._schema_compiler

    def run(self, plans, *, stats=None, tracer=NULL_TRACER, cancel=None) -> list:
        """Answer plans from the network, each family paying its work once.

        Point plans go through **one** batched exact-inference call
        (``n * Pr(X_1 = x_1, ..., X_d = x_d)``, one variable-elimination
        pass per evidence signature, ``cancel`` polled between signatures);
        all other plans — scalars, group-bys, joins, tables — go through
        one optimized schedule over the stacked generated samples
        (:meth:`_run_sampled`).
        """
        return _by_family(plans, self._family, stats, tracer, cancel)

    def _family(self, plan: LogicalPlan) -> Callable:
        return self._points if plan.shape == SHAPE_POINT else self._run_sampled

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
        against the *network's* schema.  ``stats.bn_sample_dispatches_saved``
        counts the ``K * (family - 1)`` per-``(plan, sample)`` executions the
        family shares.
        """
        flat, slices = _flatten_tables(plans, self.compiler.compile)
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
        optimized schedule (none for a lone query), ``cancel`` polled per
        unit."""
        compile = self._executor.compiler.compile
        return run_units([compile(query) for query in queries], self._run_unit, cancel=cancel)

    def _run_unit(self, kind: str, plans: list[LogicalPlan], sides, pairs, *_) -> list:
        """One unit's plans over all ``K`` samples (untraced, uncounted)."""
        if kind == UNIT_SCALAR:
            return self._run_scalar(plans)
        if kind == UNIT_GROUP_BY:
            return self._run_group_by(plans)
        return self._run_join(plans, sides, pairs)

    def _masked_specs(self, plans: list[LogicalPlan]):
        """The unit's shared mask and its kernel specs, one per plan (tables
        were flattened into their parts)."""
        executor = self._executor
        mask = executor.mask_cache.conjunction_mask(plans[0].predicates)
        return mask, executor.unit_specs(plans)[0]

    def _run_scalar(self, plans: list[LogicalPlan]) -> list:
        mask, specs = self._masked_specs(plans)
        return _sample_means(
            partitioned_scalar_reduce(self._executor.relation, mask, specs, self._partition)
        )

    def _run_group_by(self, plans: list[LogicalPlan]) -> list:
        relation = self._executor.relation
        keys = plans[0].group_keys
        mask, specs = self._masked_specs(plans)
        weight_totals, per_spec = partitioned_group_columns(
            relation, keys, mask, specs, self._partition
        )
        survivors = np.flatnonzero((weight_totals > 0).all(axis=0))
        groups = relation.group_tuples(keys, survivors)
        return [
            QueryResult(keys, dict(zip(groups, _sample_means(values[:, survivors].T))))
            for values in per_spec
        ]

    def _run_join(self, plans: list[LogicalPlan], sides, pairs) -> list:
        # Side totals and presence come from the (sample, group) bins; the
        # merge stays per sample, on dicts in ascending group order.
        executor = self._executor
        totals = [
            partitioned_grouped_weight_totals(
                executor.relation,
                side.keys,
                [executor.mask_cache.conjunction_mask(side.predicates)],
                self._partition,
            )[0]
            for side in sides
        ]
        answers = []
        for plan, (left, right) in zip(plans, pairs):
            worlds = [merge_join_sides(*pair) for pair in zip(totals[left], totals[right])]
            groups = [
                group for group in worlds[0] if all(group in world for world in worlds[1:])
            ]
            values = [[world[group] for world in worlds] for group in groups]
            answers.append(QueryResult(plan.group_keys, dict(zip(groups, _sample_means(values)))))
        return answers


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

    @property
    def compiler(self) -> PlanCompiler:
        """The sample evaluator's compiler (shared with the planner)."""
        return self._sample_evaluator.compiler

    def _plan(self, query: "Query | LogicalPlan") -> LogicalPlan:
        """The plan with its ``Route`` node stamped against the sample."""
        if isinstance(query, LogicalPlan) and query.is_routed:
            return query
        return resolve_route(super()._plan(query), self._sample_evaluator.mask_cache)

    def run(self, plans, *, stats=None, tracer=NULL_TRACER, cancel=None) -> list:
        """Answer routed plans by their ``Route`` tag.

        Sample-routed plans are one :meth:`ReweightedSampleEvaluator.run`,
        network-routed plans one :meth:`BayesNetEvaluator.run`, and
        hybrid-routed plans — GROUP BY, join and grouped-table shapes, whose
        answer is the union of both sides — run on both and merge
        (:meth:`_run_merged`).  The rule choosing the route lives in
        :func:`repro.plan.resolve_route` alone.
        """
        return _by_family(plans, self._family, stats, tracer, cancel)

    def _family(self, plan: LogicalPlan) -> Callable:
        if plan.route == ROUTE_SAMPLE:
            return self._sample_evaluator.run
        if plan.route == ROUTE_BAYES_NET:
            return self._bn_evaluator.run
        return self._run_merged

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
        flat, slices = _flatten_tables(plans, self.compiler.compile)
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


def _by_family(
    plans: Sequence[LogicalPlan], family: Callable, stats, tracer, cancel
) -> list:
    """Answer plans family by family, in submission order.

    ``family(plan)`` names the runner a plan belongs to; each runner answers
    all of its plans in one call.  A lone plan goes straight to its runner.
    """
    if len(plans) == 1:
        return family(plans[0])(plans, stats=stats, tracer=tracer, cancel=cancel)
    members: dict[Callable, list[int]] = {}
    for index, plan in enumerate(plans):
        members.setdefault(family(plan), []).append(index)
    results: list = [None] * len(plans)
    for runner, indices in members.items():
        answers = runner(
            [plans[index] for index in indices], stats=stats, tracer=tracer, cancel=cancel
        )
        for index, answer in zip(indices, answers):
            results[index] = answer
    return results


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

