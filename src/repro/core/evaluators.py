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
batch, one plan after another; the network's ``run`` sends point plans
through one batched inference call and everything else, tables included,
plan by plan through a :class:`~repro.plan.ColumnarExecutor` over its ``K``
generated samples, stacked into one relation; the hybrid's ``run``
delegates by ``plan.route`` and runs hybrid-routed plans over its own
stack, the weighted sample followed by the ``K`` generated samples.  No
batch builds an optimizer schedule or counts what it shared: on served
traffic there is nothing to share beyond the mask and join-side caches
every plan reads, and their statistics say what they answered.

**Combining answers.**  Both of the paper's rules are one combine step of
the partitioned executor (:mod:`repro.plan.executor`): a group takes part
0's value wherever part 0 has it, and otherwise survives only if *all*
``K`` generated answers have it, valued by their mean — the guard against
phantom groups (Sec. 4.2.4).  The network's stack leaves part 0 empty, so
its answers are that consensus; the hybrid's puts the weighted sample
there, so the sample is trusted where it has support and the network fills
in the open world (Sec. 4.3).
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Mapping, Sequence
from typing import Any

import numpy as np

from ..bayesnet import BayesianNetwork, ExactInference, ForwardSampler
from ..exceptions import QueryError
from ..obs.trace import NULL_TRACER
from ..plan import (
    ROUTE_BAYES_NET,
    ROUTE_SAMPLE,
    SHAPE_POINT,
    ColumnarExecutor,
    LogicalPlan,
    PlanCompiler,
    RowPartition,
    query_shape,
    resolve_route,
)
from ..query.ast import GroupByQuery, PointQuery, Query
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
        tracer=NULL_TRACER,
        cancel=None,
    ) -> list:
        """Answer a batch of compiled plans, in submission order.

        The one entry point: plans of any mix of shapes share whatever work
        this evaluator can share, and an answer does not depend on the batch
        it ran in.  An enabled ``tracer`` records the dispatch as spans,
        and ``cancel`` (a :class:`~repro.serving.governance.CancelToken`)
        is polled between plans (and evidence signatures), so an expired
        deadline raises mid-run with every cache left coherent.
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

    def run(self, plans, *, tracer=NULL_TRACER, cancel=None) -> list:
        """The columnar engine's batch over the weighted sample
        (:meth:`repro.plan.ColumnarExecutor.execute_batch`); ``cancel`` is
        polled per plan."""
        return self._engine.executor.execute_batch(plans, tracer=tracer, cancel=cancel)


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
        if n_generated_samples < 1:
            raise QueryError(
                f"n_generated_samples must be at least 1, got {n_generated_samples}"
            )
        self._network = network
        self._inference = ExactInference(network)
        self._population_size = float(population_size)
        self._k = int(n_generated_samples)
        self._sample_size = int(generated_sample_size)
        self._rng = np.random.default_rng(seed)
        # Guards the lazy worlds: two first users must not both draw them.
        self._lock = threading.RLock()
        self._generated: list[Relation] | None = None
        self._generated_executor: ColumnarExecutor | None = None
        self._schema_compiler = PlanCompiler(network.schema)
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
        with self._lock:
            if self._generated is None:
                sampler = ForwardSampler(self._network, seed=self._rng)
                self._generated = sampler.sample_many(
                    self._k, self._sample_size, population_size=self._population_size
                )
            return self._generated

    @property
    def stack(self) -> ColumnarExecutor | None:
        """The generated samples' stacked executor, ``None`` before first use."""
        return self._generated_executor

    def _executor(self) -> ColumnarExecutor:
        """The ``K`` generated samples stacked behind one executor, one
        concatenation per column: sample ``k`` is part ``k`` of its
        :class:`~repro.plan.RowPartition` and part 0 is empty, so its units
        answer by consensus.  Built once, on first use, and kept for the
        evaluator's lifetime: repeated filters pay each mask once."""
        with self._lock:
            if self._generated_executor is None:
                samples = self.generated_samples()
                self._generated_executor = ColumnarExecutor(
                    samples[0].concat(*samples[1:]),
                    compiler=self.compiler,
                    partition=RowPartition.of_sizes([0] + [sample.n_rows for sample in samples]),
                )
            return self._generated_executor

    @property
    def compiler(self) -> PlanCompiler:
        """The plan compiler over the network's schema, shared with the
        generated samples' executor."""
        return self._schema_compiler

    def run(self, plans, *, tracer=NULL_TRACER, cancel=None) -> list:
        """Answer plans from the network, each family paying its work once.

        Point plans go through **one** batched exact-inference call
        (``n * Pr(X_1 = x_1, ..., X_d = x_d)``, one variable-elimination
        pass per evidence signature, ``cancel`` polled between signatures);
        all other plans — scalars, group-bys, joins, tables — run plan by
        plan over the stacked generated samples (:meth:`_run_sampled`).
        """
        return _by_family(plans, self._family, tracer, cancel)

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

    def _run_sampled(self, plans, tracer=NULL_TRACER, cancel=None) -> list:
        """Answer plans from the ``K`` generated samples, each plan one pass
        over the stacked relation (``cancel`` polled per plan, a ``mask``
        span per plan under ``bn-samples`` when traced), tables running
        their pipeline over the consensus group rows.  The routed plans run
        as they are: the network's schema is the sample's, which
        :class:`HybridEvaluator` enforces.
        """
        with tracer.span("bn-samples", samples=self._k, plans=len(plans)):
            return self._executor().execute_batch(plans, tracer=tracer, cancel=cancel)


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
        The probabilistic component, over the sample's schema (another
        schema raises :class:`~repro.exceptions.QueryError`).
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
        network_schema = bayes_net_evaluator.network.schema
        if network_schema != weighted_sample.schema:
            raise QueryError(
                f"the network's schema {list(network_schema)} is not the "
                f"sample's schema {list(weighted_sample.schema)}"
            )
        if sample_evaluator is None:
            sample_evaluator = ReweightedSampleEvaluator(weighted_sample)
        self._sample_evaluator = sample_evaluator
        self._bn_evaluator = bayes_net_evaluator
        self._lock = threading.Lock()
        self._stack: ColumnarExecutor | None = None
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
    def stack(self) -> ColumnarExecutor | None:
        """The sample-then-``K``-worlds executor, ``None`` before first use."""
        return self._stack

    @property
    def compiler(self) -> PlanCompiler:
        """The sample evaluator's compiler (shared with the planner)."""
        return self._sample_evaluator.compiler

    def _plan(self, query: "Query | LogicalPlan") -> LogicalPlan:
        """The plan with its ``Route`` node stamped against the sample."""
        if isinstance(query, LogicalPlan) and query.is_routed:
            return query
        return resolve_route(super()._plan(query), self._sample_evaluator.mask_cache)

    def run(self, plans, *, tracer=NULL_TRACER, cancel=None) -> list:
        """Answer routed plans by their ``Route`` tag.

        Sample-routed plans are one :meth:`ReweightedSampleEvaluator.run`,
        network-routed plans one :meth:`BayesNetEvaluator.run`, and
        hybrid-routed plans — GROUP BY, join and grouped-table shapes, whose
        answer is the union of both sides — run over the stacked sample and
        generated samples (:meth:`_run_merged`).  The rule
        choosing the route lives in :func:`repro.plan.resolve_route` alone.
        """
        return _by_family(plans, self._family, tracer, cancel)

    def _family(self, plan: LogicalPlan) -> Callable:
        if plan.route == ROUTE_SAMPLE:
            return self._sample_evaluator.run
        if plan.route == ROUTE_BAYES_NET:
            return self._bn_evaluator.run
        return self._run_merged

    def _executor(self) -> ColumnarExecutor:
        """The network's stack with the weighted sample as its part 0
        (:meth:`~repro.plan.ColumnarExecutor.with_first_part`), built once."""
        with self._lock:
            if self._stack is None:
                self._stack = self._bn_evaluator._executor().with_first_part(
                    self._sample_evaluator.engine.executor
                )
            return self._stack

    def _run_merged(self, plans, *, tracer=NULL_TRACER, cancel=None) -> list:
        """Plan by plan over the stacked sample and ``K`` generated samples
        (``cancel`` polled per plan, join sides shared through the stack's
        join-side cache), each plan combining the sample's part with the
        worlds' consensus, grouped tables running their pipeline once over
        the combined group rows."""
        k = self._bn_evaluator.n_generated_samples
        with tracer.span("bn-samples", samples=k, plans=len(plans)):
            return self._executor().execute_batch(plans, tracer=tracer, cancel=cancel)


def _by_family(plans: Sequence[LogicalPlan], family: Callable, tracer, cancel) -> list:
    """Answer plans family by family, in submission order.

    ``family(plan)`` names the runner a plan belongs to; each runner answers
    all of its plans in one call, which is what lets the network's point
    plans share one batched inference call.  A lone plan goes straight to
    its runner.
    """
    if len(plans) == 1:
        return family(plans[0])(plans, tracer=tracer, cancel=cancel)
    members: dict[Callable, list[int]] = {}
    for index, plan in enumerate(plans):
        members.setdefault(family(plan), []).append(index)
    results: list = [None] * len(plans)
    for runner, indices in members.items():
        answers = runner([plans[index] for index in indices], tracer=tracer, cancel=cancel)
        for index, answer in zip(indices, answers):
            results[index] = answer
    return results

