"""The Themis open-world database facade.

The workflow matches the paper's architecture (Fig. 1): the data scientist
loads a biased sample, registers population aggregates, calls ``fit()`` to
build the model (reweighted sample + Bayesian network), and then issues
queries — SQL text or AST objects — that are answered as if they ran over the
population.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..aggregates import AggregateQuery, AggregateSet, prune_aggregates
from ..bayesnet import LearningMode, ThemisBayesNetLearner
from ..exceptions import ThemisError
from ..lru import LRUCache
from ..plan import LogicalPlan
from ..query.ast import Query
from ..reweighting import (
    IPFReweighter,
    LinearRegressionReweighter,
    Reweighter,
    UniformReweighter,
)
from ..schema import Relation
from ..sql.engine import QueryResult
from .evaluators import BayesNetEvaluator, HybridEvaluator, ReweightedSampleEvaluator
from .model import ThemisModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..serving import ServingSession

#: Routed plans one loaded sample keeps: the smallest power of two above the
#: distinct statements of every benchmark stream (2,548 facade, 2,896
#: session batches, 585 open-world); at ~1.7 KB a routed plan, ~7 MB full.
PLAN_CACHE_CAPACITY = 4096


class SamplePlans:
    """The loaded sample and the routed plans it keeps, swapped as one.

    A routed plan reads the statement, the schema and which sample rows
    satisfy its predicates — never the weights, the aggregates or the
    network — so it belongs to the sample: a refit or an ``add_aggregate``
    keeps these plans, and ``load_sample`` replaces the pair.  The facade
    and every session over it plan through :meth:`plan`.  The model does
    not own the cache: nothing the model owns may hold what outlives it.
    """

    __slots__ = ("sample", "cache")

    def __init__(self, sample: Relation):
        self.sample = sample
        #: SQL text or hashable AST -> routed :class:`~repro.plan.LogicalPlan`.
        self.cache = LRUCache(PLAN_CACHE_CAPACITY)

    def plan(self, model: ThemisModel, statement: str | Query) -> LogicalPlan:
        """The routed plan of ``statement`` on ``model``, planned once.

        Only a model fitted over this very sample reads or fills the cache,
        so a request that read its model before a ``load_sample`` plans on
        its own and an old sample's plan never reaches the new sample's
        cache.
        """
        if model.sample is not self.sample:
            return model.planner.plan(statement)
        try:
            plan = self.cache.get(statement)
        except TypeError:  # unhashable literal (e.g. a list inside IN)
            return model.planner.plan(statement)
        if plan is None:
            plan = model.planner.plan(statement)
            self.cache.put(statement, plan)
        return plan


@dataclass
class ThemisConfig:
    """Configuration of one Themis instance.

    Attributes
    ----------
    reweighter:
        Sample reweighting technique: ``"ipf"`` (default, the paper's best),
        ``"linreg"``, or ``"uniform"`` (the AQP baseline).
    bn_mode:
        Bayesian-network learning mode (``"BB"`` by default; see
        :class:`~repro.bayesnet.LearningMode`).
    max_parents:
        Parent limit for BN structure learning (1 = trees, as in the paper).
    n_generated_samples, generated_sample_size:
        ``K`` and the per-sample size used for BN GROUP BY answering.
    aggregate_budget:
        When set, the registered aggregates are pruned down to this many
        using ``aggregate_selection`` before fitting (Sec. 5.1).
    population_size:
        Explicit ``n``; inferred from the aggregates when omitted.
    """

    reweighter: str = "ipf"
    bn_mode: str = "BB"
    max_parents: int = 1
    smoothing: float = 0.1
    n_generated_samples: int = 10
    generated_sample_size: int = 2000
    aggregate_budget: int | None = None
    aggregate_selection: str = "t-cherry"
    ipf_max_iterations: int = 100
    population_size: float | None = None
    seed: int | None = None
    extra: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ExplainedResult:
    """A query answer bundled with the compiled plan that produced it.

    Returned by ``Themis.query(..., explain=True)``: ``result`` is exactly
    what ``query()`` would have returned on its own, ``plan`` is the
    compiled :class:`~repro.plan.LogicalPlan` (operator tree plus canonical
    key), and ``route`` names the evaluator that served it.  With
    ``explain="optimized"``, ``optimized`` additionally carries the
    post-rewrite plan the batch optimizer would execute — its Filter
    conjunctions (both sides' filters, for join plans) normalized
    (tautologies dropped, redundant bounds tightened) while sharing the raw
    plan's canonical key, since rewrites never change a plan's result-cache
    identity.
    """

    result: "float | QueryResult"
    plan: LogicalPlan
    route: str
    optimized: LogicalPlan | None = None
    #: The executed span tree (:class:`repro.obs.Span`) when the query ran
    #: under ``explain="analyze"``; ``None`` otherwise.
    trace: Any = None

    def explain(self) -> str:
        """The plan's printable operator-tree rendering."""
        return self.plan.explain()

    def explain_analyze(self) -> str:
        """EXPLAIN ANALYZE: the operator tree plus the executed span tree.

        Only available on results produced by ``query(..., explain="analyze")``.
        """
        if self.trace is None:
            raise ThemisError(
                'no execution trace recorded; use query(..., explain="analyze")'
            )
        return f"{self.plan.explain()}\n\n{self.trace.render()}"


class Themis:
    """The open-world DBMS: ingest a sample and aggregates, then ask queries.

    Examples
    --------
    >>> themis = Themis()                                        # doctest: +SKIP
    >>> themis.load_sample(sample_relation)                      # doctest: +SKIP
    >>> themis.add_aggregate(AggregateQuery.from_relation(P, ["origin_state"]))
    ...                                                          # doctest: +SKIP
    >>> themis.fit()                                             # doctest: +SKIP
    >>> themis.sql("SELECT COUNT(*) FROM flights WHERE origin_state = 'ME'")
    ...                                                          # doctest: +SKIP
    """

    def __init__(self, config: ThemisConfig | None = None, **overrides: Any):
        if config is None:
            config = ThemisConfig()
        for key, value in overrides.items():
            if not hasattr(config, key):
                raise ThemisError(f"unknown configuration option {key!r}")
            setattr(config, key, value)
        self.config = config
        self._sample_plans: SamplePlans | None = None
        self._sample_name = "sample"
        self._aggregates = AggregateSet()
        self._model: ThemisModel | None = None
        self._generation = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def load_sample(self, sample: Relation, name: str = "sample") -> None:
        """Register the biased sample relation ``S`` (with no routed plans)."""
        if sample.n_rows == 0:
            raise ThemisError("cannot load an empty sample")
        self._sample_plans = SamplePlans(sample)
        self._sample_name = name
        self._model = None
        self._generation += 1

    def add_aggregate(self, aggregate: AggregateQuery) -> None:
        """Register one population aggregate query result."""
        self._aggregates.add(aggregate)
        self._model = None
        self._generation += 1

    def add_aggregates(self, aggregates: Iterable[AggregateQuery] | AggregateSet) -> None:
        """Register several population aggregates at once."""
        for aggregate in aggregates:
            self.add_aggregate(aggregate)

    @property
    def sample(self) -> Relation:
        """The loaded sample (before reweighting)."""
        return self.sample_plans.sample

    @property
    def sample_plans(self) -> SamplePlans:
        """The loaded sample with its routed-plan cache."""
        if self._sample_plans is None:
            raise ThemisError("no sample loaded; call load_sample() first")
        return self._sample_plans

    @property
    def plan_cache(self) -> LRUCache:
        """The loaded sample's routed plans, shared by every session."""
        return self.sample_plans.cache

    @property
    def aggregates(self) -> AggregateSet:
        """The registered aggregates (before pruning)."""
        return self._aggregates

    @property
    def is_fitted(self) -> bool:
        """Whether ``fit()`` has produced a model for the current inputs."""
        return self._model is not None

    @property
    def generation(self) -> int:
        """A counter bumped by every ingestion call and every (re)fit.

        A fitted model carries the value it was fitted at as its id
        (:attr:`ThemisModel.generation`).
        """
        return self._generation

    @property
    def model(self) -> ThemisModel:
        """The fitted model snapshot (fitting lazily if needed).

        Read once per request: every answer comes from the one snapshot
        this returned, whatever a concurrent refit swaps in meanwhile.
        """
        model = self._model
        if model is None:
            model = self.fit()
        return model

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self) -> ThemisModel:
        """Build the model: prune aggregates, reweight the sample, learn the BN."""
        sample = self.sample
        if len(self._aggregates) == 0:
            raise ThemisError(
                "no aggregates registered; Themis needs at least one population "
                "aggregate to debias the sample"
            )
        config = self.config
        timings: dict[str, float] = {}

        aggregates = self._aggregates
        if config.aggregate_budget is not None:
            start = time.perf_counter()
            aggregates = self._prune(aggregates, config.aggregate_budget)
            timings["aggregate_pruning"] = time.perf_counter() - start

        population_size = config.population_size or aggregates.population_size()
        if not population_size or population_size <= 0:
            raise ThemisError("could not determine the population size from Γ")

        start = time.perf_counter()
        reweighter = self._build_reweighter(population_size)
        reweighting_result = reweighter.fit(sample, aggregates)
        weighted_sample = reweighting_result.apply(sample)
        timings["reweighting"] = time.perf_counter() - start

        start = time.perf_counter()
        learner = ThemisBayesNetLearner.from_mode(
            LearningMode(config.bn_mode),
            max_parents=config.max_parents,
            smoothing=config.smoothing,
        )
        bayes_net_result = learner.learn(
            sample, aggregates, population_size=population_size
        )
        timings["bayes_net_learning"] = time.perf_counter() - start

        bn_evaluator = BayesNetEvaluator(
            bayes_net_result.network,
            population_size=population_size,
            n_generated_samples=config.n_generated_samples,
            generated_sample_size=config.generated_sample_size,
            seed=config.seed,
        )
        sample_evaluator = ReweightedSampleEvaluator(
            weighted_sample, name=reweighting_result.method
        )
        # The hybrid shares the sample evaluator (hence its columnar engine
        # and predicate-mask cache): one mask per predicate per fitted model,
        # no matter which evaluator a plan routes to.
        hybrid = HybridEvaluator(
            weighted_sample, bn_evaluator, sample_evaluator=sample_evaluator
        )
        # The planner shares the engine's compiler (a query compiles once)
        # and routes through the mask cache, not the model: nothing the
        # model owns points back at it.
        from ..serving.planner import QueryPlanner

        planner = QueryPlanner(
            sample.schema,
            sample_evaluator.mask_cache,
            compiler=sample_evaluator.engine.executor.compiler,
        )

        self._generation += 1
        model = ThemisModel(
            generation=self._generation,
            sample=sample,
            weighted_sample=weighted_sample,
            aggregates=aggregates,
            population_size=float(population_size),
            reweighting_result=reweighting_result,
            bayes_net_result=bayes_net_result,
            hybrid_evaluator=hybrid,
            sample_evaluator=sample_evaluator,
            bayes_net_evaluator=bn_evaluator,
            planner=planner,
            timings=timings,
        )
        self._model = model
        return model

    def refit(self) -> ThemisModel:
        """Fit again from the registered inputs and swap the new model in.

        Requests already running finish on the snapshot they read; every
        serving session rebuilds on the new model (dropping its result
        cache) before its next query.  The sample is the same, so a
        session keeps its routed plans.
        """
        return self.fit()

    def _prune(self, aggregates: AggregateSet, budget: int) -> AggregateSet:
        """Prune only the multi-dimensional aggregates; 1D marginals are kept."""
        one_dimensional = aggregates.of_dimension(1)
        higher = AggregateSet(
            aggregate for aggregate in aggregates if aggregate.dimension > 1
        )
        pruned = prune_aggregates(
            higher,
            budget,
            method=self.config.aggregate_selection,
            seed=self.config.seed,
        )
        return one_dimensional.union(pruned)

    def _build_reweighter(self, population_size: float) -> Reweighter:
        name = self.config.reweighter.lower()
        if name in ("ipf", "raking"):
            return IPFReweighter(max_iterations=self.config.ipf_max_iterations)
        if name in ("linreg", "linear-regression", "regression"):
            return LinearRegressionReweighter(population_size=population_size)
        if name in ("uniform", "aqp"):
            return UniformReweighter(population_size=population_size)
        raise ThemisError(f"unknown reweighter {self.config.reweighter!r}")

    # ------------------------------------------------------------------
    # Planning (the facade's entry points compile-then-run)
    # ------------------------------------------------------------------
    def plan(self, statement: str | Query) -> LogicalPlan:
        """Compile and route one SQL string or AST query without running it.

        Each entry point reads the model first, then plans through the
        loaded sample's cache (:meth:`SamplePlans.plan`): a statement seen
        before on this sample, by the facade or any session, is not planned
        again.
        """
        model = self.model
        return self._sample_plans.plan(model, statement)

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    def execute(self, query: Query) -> float | QueryResult:
        """Open-world evaluation of any supported AST query.

        Compile-then-run: the query is compiled once into a logical plan
        (canonical predicates, operator tree, evaluator route) and answered
        as a batch of one (:meth:`HybridEvaluator.execute`).
        """
        model = self.model
        return model.hybrid_evaluator.execute(self._sample_plans.plan(model, query))

    def sql(self, statement: str) -> float | QueryResult:
        """Parse and answer a SQL statement with open-world semantics."""
        model = self.model
        if isinstance(statement, str):
            plan = self._sample_plans.plan(model, statement)
        else:  # the parser refuses it, naming its type
            plan = model.planner.plan_sql(statement)
        return model.hybrid_evaluator.execute(plan)

    def query(
        self,
        statement: str | Query,
        explain: bool | str = False,
        deadline: float | None = None,
    ) -> float | QueryResult | "ExplainedResult":
        """Answer a SQL string or an AST query (the uniform entry point).

        With ``explain=True`` the answer comes back wrapped in an
        :class:`ExplainedResult` carrying the compiled
        :class:`~repro.plan.LogicalPlan` (operator tree, canonical key, and
        resolved route) next to the result.  ``explain="optimized"``
        additionally includes the batch optimizer's post-rewrite plan
        (normalized predicates; same canonical key as the raw plan).
        ``explain="analyze"`` *executes under a tracer* and attaches the
        span tree as ``.trace`` — compile and execute stages with wall-time,
        kernel/mask/cache counters — rendered by :meth:`ExplainedResult
        .explain_analyze`.

        ``deadline`` (seconds) bounds the call cooperatively: the plan runs
        as a batch of one (``run([plan], cancel=token)``), so the budget is
        checked between compile and execute and then inside execution, at
        every unit of shared work (a schedule unit, an evidence signature),
        and an expired one raises a typed
        :class:`~repro.exceptions.DeadlineExceededError`.
        """
        token = None
        if deadline is not None:
            from ..serving.governance import resolve_cancel_token

            token = resolve_cancel_token(None, deadline)
        model = self.model
        evaluator = model.hybrid_evaluator
        if explain == "analyze":
            from ..obs.trace import Tracer

            tracer = Tracer()
            with tracer.span("query") as root:
                with tracer.span("compile"):
                    plan = self._sample_plans.plan(model, statement)
                root.set(route=plan.route, shape=plan.shape)
                if token is not None:
                    token.poll()
                with tracer.span("execute", route=plan.route):
                    result = evaluator.run([plan], tracer=tracer, cancel=token)[0]
            return ExplainedResult(
                result=result, plan=plan, route=plan.route, trace=root
            )
        plan = self._sample_plans.plan(model, statement)
        if token is not None:
            token.poll()
        result = evaluator.run([plan], cancel=token)[0]
        if not explain:
            return result
        optimized = None
        if explain == "optimized":
            from ..plan import normalize_plan

            optimized = normalize_plan(plan)
        return ExplainedResult(
            result=result, plan=plan, route=plan.route, optimized=optimized
        )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(self, **session_options: Any) -> "ServingSession":
        """Open a new serving session: cached, batched query answering.

        A batch is ``themis.serve().execute_batch(queries)``; keep the
        session to keep its result cache warm across batches.  Keyword
        arguments are forwarded to
        :class:`~repro.serving.session.ServingSession` (cache capacities,
        ``memory_budget_bytes``, and ``trace=True`` to attach a structured
        span tree to every outcome and batch).
        """
        from ..serving import ServingSession

        return ServingSession(self, **session_options)
