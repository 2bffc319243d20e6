"""The traced run: per-layer costs, measured from outside, reconciled end to end.

Every span is recorded here, in the benchmark's own files, around calls into
the public functions of one layer.  Two kinds of measurement feed the per-layer table:

* the **traced replay** sends the workload's own statements through its own
  in-process entry point while every public method of the layers below it
  is wrapped in a span (``interposed``), alternating block by block with the
  same entry point unwrapped, so the layers' self-times can be reconciled
  against the end-to-end time of the same process
  (``trace.unattributed_share``, ``obs.trace_overhead_ratio``);
* **probes** time one public function of one layer on the workload's own
  data (kernels, BN inference, the caches; on the socket workload also the
  wire format, the worker pool and the socket front-end) over a fixed,
  seeded probe set covering every statement shape.
"""

from __future__ import annotations

import functools
import inspect
import json
import pickle
import time
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

import repro.plan.compiler
from repro import Themis
from repro.bayesnet import BatchedInference, ExactInference, ForwardSampler, ThemisBayesNetLearner
from repro.core.evaluators import (
    BayesNetEvaluator,
    HybridEvaluator,
    OpenWorldEvaluator,
    ReweightedSampleEvaluator,
)
from repro.obs import names
from repro.plan import (
    ColumnarExecutor,
    MaskCache,
    PlanCompiler,
    deserialize_plan,
    fused_group_reduce,
    numeric_column,
    optimize_batch,
    serialize_plan,
)
from repro.query.workload import MixedQueryWorkload
from repro.reweighting import IPFReweighter
from repro.serving.cache import InferenceCache, PlanCache, ResultCache
from repro.serving.executor import BatchExecutor
from repro.serving.planner import QueryPlanner
from repro.serving.scale.frontend import encode_result
from repro.serving.session import ServingSession
from repro.sql.engine import WeightedQueryEngine

from . import measure
from .report import contract, with_units
from .runner import Meter, WrongAnswer
from .workloads import (
    BATCH_SIZE,
    TABLE,
    FacadeTarget,
    Model,
    SocketTarget,
    Workload,
    build_model,
    load_data,
)

#: Span names of the traced replay, one per layer.
DISPATCH = "dispatch"  # the entry point and the serving executor: the request's own time
STAGE_PARSE = "sql.parse"
STAGE_COMPILE = "plan.compiler"
STAGE_BIND = "serving.planner"
STAGE_CACHE = "serving.cache"
EXECUTE_ENGINE = "execute.engine"
EXECUTE_HYBRID = "execute.hybrid"
EXECUTE_BAYESNET = "execute.bayesnet"
#: Every public method of these classes is wrapped in a span of that name
#: while a traced block runs.  ``parse_sql`` is a function: it is wrapped
#: where the compiler looks it up.
LAYERS: tuple[tuple[str, tuple[type, ...]], ...] = (
    (DISPATCH, (Themis, ServingSession, BatchExecutor)),
    (STAGE_COMPILE, (PlanCompiler,)),
    (STAGE_BIND, (QueryPlanner,)),
    (STAGE_CACHE, (PlanCache, ResultCache)),
    (EXECUTE_ENGINE, (WeightedQueryEngine, ReweightedSampleEvaluator)),
    (EXECUTE_HYBRID, (OpenWorldEvaluator, HybridEvaluator)),
    (EXECUTE_BAYESNET, (BayesNetEvaluator, InferenceCache)),
)
#: Replay spans kept for the JSONL file (all are aggregated, the first are written).
KEPT_SPANS = 20_000
#: How much of the workload's stream the cache probe serves before it reads
#: the hit ratios (a few times the 256-entry result cache).
CACHE_PROBE_STATEMENTS = 1500
#: Layers only the socket workload's statements travel through.
SCALE_TIER_PREFIXES = ("plan.wire.", "serving.scale.")


# ----------------------------------------------------------------------
# The traced replay
# ----------------------------------------------------------------------
class SpanLog:
    """Spans kept in memory as flat, parent-linked records.

    One record is ``(name, start, end, parent index, calls)``; a span's index
    is smaller than its children's.  Recording costs about a microsecond —
    the layers of a cached answer take a few — which is why this is not a
    tree of objects.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self._open: list[int] = []

    def wrap(self, function: Callable, name: str) -> Callable:
        """``function`` recording one span of that name per call."""
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # children take the following indices
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = (name, start, end, parent, 1)

        return wrapper

    def record(self, name: str, start: float, end: float, calls: int = 1) -> None:
        """A finished top-level span that covered ``calls`` calls."""
        self.spans.append((name, start, end, -1, calls))

    def self_seconds(self, first: int) -> dict[str, float]:
        """Self-time per span name over ``spans[first:]``: a span's duration
        minus what its children cover."""
        own = [end - start for _, start, end, _, _ in self.spans[first:]]
        for _, start, end, parent, _ in self.spans[first:]:
            if parent >= first:
                own[parent - first] -= end - start
        totals: dict[str, float] = {}
        for (name, *_), seconds in zip(self.spans[first:], own):
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def export_jsonl(self, destination: Path) -> None:
        with open(destination, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, calls) in enumerate(self.spans):
                record = {
                    "id": index,
                    "parent": parent if parent >= 0 else None,
                    "name": name,
                    "start": start,
                    "seconds": end - start,
                    "calls": calls,
                }
                handle.write(json.dumps(record) + "\n")


class Interposed:
    """Context manager: while entered, the public functions of every layer
    are wrapped in spans.

    The real entry point then runs its real dispatcher, and the span tree
    follows the calls it actually makes: nothing of ``src/`` is re-implemented
    here, and a change to the dispatcher changes the tree with it.
    """

    def __init__(self, log: SpanLog):
        targets: list[tuple[Any, str, str]] = [(repro.plan.compiler, "parse_sql", STAGE_PARSE)]
        for name, classes in LAYERS:
            for owner in classes:
                targets += [
                    (owner, attribute, name)
                    for attribute, value in vars(owner).items()
                    if inspect.isfunction(value) and not attribute.startswith("_")
                ]
        # (owner, attribute, the function found there, the same wrapped in a span)
        self._patches = [
            (owner, attribute, vars(owner)[attribute], log.wrap(vars(owner)[attribute], name))
            for owner, attribute, name in targets
        ]

    def __enter__(self) -> None:
        for owner, attribute, _, wrapper in self._patches:
            setattr(owner, attribute, wrapper)

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original, _ in self._patches:
            setattr(owner, attribute, original)


def replay(
    rec: "Recorder", workload: Workload, model: Model, stream, seconds: float
) -> tuple[dict[str, float], int]:
    """Interleave plain entry-point blocks with interposed (traced) ones.

    The entry point is the workload's own where it is in-process; the socket
    workload's statements go through ``Themis.sql``, because spans do not
    cross into the workers.  Both kinds of block are rescaled to reference
    host speed, block by block.  Returns the replay's metrics and how many
    of the traced answers were compared with ``Themis.query`` (all of them
    agreed, or this raised).
    """
    log = rec.log
    meter = Meter(rec.speed)
    interposed = Interposed(log)
    in_process = workload.target is not SocketTarget
    target = (workload.target if in_process else FacadeTarget)(model)
    themis = model.themis
    pool = stream.pool

    raw_wall = untraced_wall = traced_wall = 0.0
    untraced_statements = traced_statements = checked = blocks = 0
    own: dict[str, float] = {}
    while raw_wall < seconds or blocks % 4:
        # plain, traced, traced, plain: neither kind always runs second (in
        # strict alternation the second block of a pair came out 3% faster
        # even when both were plain).
        tracing = blocks % 4 in (1, 2)
        blocks += 1
        ops = stream.take_block()
        if not tracing:
            plain = meter.run(lambda: target.run(pool, ops))
            untraced_wall += plain.wall * plain.factor
            untraced_statements += len(plain.result.answers)
            raw_wall += plain.wall
            continue
        first = len(log.spans)
        with interposed:
            traced = meter.run(lambda: target.run(pool, ops))
        answers = traced.result.answers
        traced_wall += traced.wall * traced.factor
        traced_statements += len(answers)
        raw_wall += traced.wall
        for name, value in log.self_seconds(first).items():
            own[name] = own.get(name, 0.0) + value * traced.factor
        if first > KEPT_SPANS:
            del log.spans[first:]  # aggregated; the file gets the first blocks

        # The interposed entry point must answer exactly what Themis.query does.
        flat = [index for op in ops for index in op]
        for index, answer in list(zip(flat, answers))[: max(0, 200 - checked)]:
            checked += 1
            expected = themis.query(pool[index])
            if answer != expected:
                raise WrongAnswer(
                    f"traced entry point differs from Themis.query\n"
                    f"  statement: {pool[index]}\n  expected:  {expected!r}\n"
                    f"  got:       {answer!r}"
                )

    per_statement_us = lambda name: 1e6 * own.get(name, 0.0) / traced_statements
    layers = {
        "sql.parse_us": per_statement_us(STAGE_PARSE),
        "plan.compiler.compile_us": per_statement_us(STAGE_COMPILE),
        "serving.planner.bind_us": per_statement_us(STAGE_BIND),
        "serving.cache.probe_us": per_statement_us(STAGE_CACHE),
        "trace.execute.engine_us": per_statement_us(EXECUTE_ENGINE),
        "trace.execute.hybrid_us": per_statement_us(EXECUTE_HYBRID),
        "trace.execute.bayesnet_us": per_statement_us(EXECUTE_BAYESNET),
    }
    end_to_end_us = 1e6 * untraced_wall / untraced_statements
    metrics = {
        **layers,
        "trace.dispatch_us": per_statement_us(DISPATCH),
        "trace.end_to_end_us": end_to_end_us,
        "trace.unattributed_share": 1.0 - sum(layers.values()) / end_to_end_us,
        "obs.trace_overhead_ratio": (1e6 * traced_wall / traced_statements) / end_to_end_us,
        "plan.kernels.mask_hit_ratio": float(
            themis.model.sample_evaluator.mask_cache.statistics()["hit_rate"]
        ),
    }
    return metrics, checked


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
class Recorder:
    """Times probe calls as spans, rescaled to reference host speed.

    One span per probe covers all its items; a host-speed sample is taken
    before and after it (see ``measure.HostSpeed``).
    """

    def __init__(self, log: SpanLog, speed: measure.HostSpeed):
        self.log = log
        self.speed = speed

    def seconds(
        self,
        name: str,
        function: Callable[[], Any],
        calls: int = 1,
        follows: float = measure.FOLLOWS_FULLY,
    ) -> float:
        """Wall time of ``function()`` at reference host speed."""
        before = self.speed.sample()
        stolen = measure.steal_seconds()
        start = time.perf_counter()
        function()
        end = time.perf_counter()
        granted = measure.granted_share(measure.steal_seconds() - stolen, end - start)
        self.log.record(name, start, end, calls)
        return (end - start) * granted * self.speed.factor(before, self.speed.sample(), follows)

    def mean_us(
        self,
        name: str,
        function: Callable[[Any], Any],
        items: Sequence[Any],
        follows: float = measure.FOLLOWS_FULLY,
    ) -> float:
        """Mean time of ``function(item)`` over ``items``, in microseconds."""
        if not items:
            return 0.0

        def loop() -> None:
            for item in items:
                function(item)

        return 1e6 * self.seconds(name, loop, len(items), follows) / len(items)

    def per_query_us(
        self,
        name: str,
        execute_batch,
        statements: Sequence[str],
        size: int,
        follows: float = measure.FOLLOWS_FULLY,
    ) -> float:
        """Mean microseconds per statement when served in batches of ``size``."""
        batches = [statements[start : start + size] for start in range(0, len(statements), size)]
        per_batch = self.mean_us(name, execute_batch, batches, follows)
        return per_batch * len(batches) / len(statements)


class ProbeSet:
    """A fixed, seeded set of statements of every shape over one relation."""

    def __init__(self, workload: Workload, model: Model, per_shape: int, seed: int):
        bundle = model.bundle
        relation = (
            bundle.population if workload.over_population else bundle.sample(workload.data.sample_name)
        )
        generator = MixedQueryWorkload(relation, table=TABLE, seed=[seed, 0xBE])
        self.entries = generator.generate(per_shape, per_shape, per_shape, per_shape)
        self.statements = [entry.sql for entry in self.entries]
        compiler = PlanCompiler(model.themis.sample.schema, cache_size=len(self.entries) + 1)
        self.logicals = [compiler.compile(entry.query) for entry in self.entries]

    def plans(self, shape: str) -> list:
        return [plan for entry, plan in zip(self.entries, self.logicals) if entry.shape == shape]

    def queries(self, shape: str) -> list:
        return [entry.query for entry in self.entries if entry.shape == shape]


def probe_setup(rec: Recorder, workload: Workload, model: Model) -> dict[str, float]:
    """The public functions ``fit()`` is made of, one at a time."""
    spec = workload.data
    config = model.themis.config
    sample = model.themis.sample
    fitted = model.themis.model
    population_size = fitted.population_size
    reweighter = IPFReweighter(max_iterations=spec.ipf_max_iterations)
    learner = ThemisBayesNetLearner.from_mode(
        config.bn_mode, max_parents=config.max_parents, smoothing=config.smoothing
    )
    sampler = ForwardSampler(fitted.network, seed=0)
    return {
        "data.generate_s": rec.seconds("data.load_flights", lambda: load_data(spec)),
        "reweighting.ipf_fit_s": rec.seconds(
            "reweighting.IPFReweighter.fit",
            lambda: reweighter.fit(sample, fitted.aggregates),
            follows=measure.FOLLOWS_FIT,
        ),
        "bayesnet.learn_s": rec.seconds(
            "bayesnet.ThemisBayesNetLearner.learn",
            lambda: learner.learn(sample, fitted.aggregates, population_size=population_size),
            follows=measure.FOLLOWS_FIT,
        ),
        "bayesnet.sample_generate_s": rec.seconds(
            "bayesnet.ForwardSampler.sample_many",
            lambda: sampler.sample_many(
                spec.n_generated_samples, spec.generated_sample_size, population_size
            ),
        ),
    }


def probe_plan_layer(rec: Recorder, model: Model, probes: ProbeSet) -> dict[str, float]:
    """Optimizer, columnar executor and kernels on the weighted sample."""
    relation = model.themis.model.weighted_sample
    # The relation memoizes group codes per attribute set; build them on a
    # throw-away executor, so that the timed ones start with cold masks but
    # do not pay that one-time cost on workloads whose replay ran no group-by.
    ColumnarExecutor(relation).execute_batch(probes.logicals)
    executor = ColumnarExecutor(relation)
    metrics = {
        f"plan.executor.{label}_us": rec.mean_us(
            f"plan.ColumnarExecutor.execute[{shape}]", executor.execute, probes.plans(shape)
        )
        for label, shape in (
            ("point", "point"), ("scalar", "scalar"), ("groupby", "group-by"), ("table", "table"),
        )  # fmt: skip
    }
    logicals = probes.logicals
    batches = [logicals[start : start + BATCH_SIZE] for start in range(0, len(logicals), BATCH_SIZE)]
    per_plan = len(batches) / len(logicals)
    schedules = []
    metrics["plan.optimize.us_per_plan"] = per_plan * rec.mean_us(
        "plan.optimize_batch", lambda batch: schedules.append(optimize_batch(batch)), batches
    )
    metrics["plan.optimize.slots_per_plan"] = sum(len(s.slots) for s in schedules) / len(logicals)
    metrics["plan.executor.batch_us_per_plan"] = per_plan * rec.mean_us(
        "plan.ColumnarExecutor.execute_batch", ColumnarExecutor(relation).execute_batch, batches
    )

    masks = MaskCache(relation)
    kernel_inputs = [
        (
            plan.group_keys,
            masks.conjunction_mask(plan.predicates),
            [
                ("count", None) if function == "count" else (function, numeric_column(relation, attribute))
                for function, attribute in plan.aggregate.specs
            ],
        )
        for plan in probes.plans("group-by")
    ]
    metrics["plan.kernels.group_reduce_us"] = rec.mean_us(
        "plan.kernels.fused_group_reduce",
        lambda item: fused_group_reduce(relation, *item),
        kernel_inputs,
    )
    metrics["plan.kernels.mask_build_us"] = rec.mean_us(
        "plan.kernels.MaskCache.conjunction_mask[cold]",
        lambda predicates: MaskCache(relation).conjunction_mask(predicates),
        [plan.predicates for plan in logicals if plan.predicates],
    )
    return metrics


def probe_inference(rec: Recorder, model: Model, probes: ProbeSet) -> dict[str, float]:
    """Variable elimination, batched point inference and the evaluators."""
    fitted = model.themis.model
    network = fitted.network
    attributes = list(network.schema.names)
    pairs = [(a, b) for i, a in enumerate(attributes) for b in attributes[i + 1 :]]
    inference = ExactInference(network)
    assignments = [query.as_dict() for query in probes.queries("point")]
    engine = BatchedInference(network)
    engine.probability_batch(assignments)  # pays the elimination passes
    passes = engine.elimination_passes
    warm = rec.seconds(
        "bayesnet.BatchedInference.probability_batch[warm]",
        lambda: engine.probability_batch(assignments),
    )
    fitted.bayes_net_evaluator.generated_samples()
    return {
        "bayesnet.eliminate_cold_us": rec.mean_us(
            "bayesnet.ExactInference.eliminate", inference.eliminate, pairs
        ),
        "bayesnet.probability_batch_us_per_query": 1e6 * warm / len(assignments),
        "bayesnet.elimination_passes": float(passes),
        "core.evaluators.hybrid_groupby_us": rec.mean_us(
            "core.HybridEvaluator.group_by",
            fitted.hybrid_evaluator.group_by,
            probes.queries("group-by"),
        ),
        "core.evaluators.bn_scalar_us": rec.mean_us(
            "core.BayesNetEvaluator.execute[scalar]",
            fitted.bayes_net_evaluator.execute,
            probes.queries("scalar"),
        ),
    }


def probe_wire(rec: Recorder, model: Model, probes: ProbeSet) -> dict[str, float]:
    """The plan wire format, sized as the pool ships it over the pipe."""
    payloads = [serialize_plan(plan) for plan in probes.logicals]
    receiver = PlanCompiler(model.themis.sample.schema)
    return {
        "plan.wire.serialize_us": rec.mean_us("plan.wire.serialize_plan", serialize_plan, probes.logicals),
        "plan.wire.deserialize_us": rec.mean_us(
            "plan.wire.deserialize_plan",
            lambda payload: deserialize_plan(payload, receiver),
            payloads,
        ),
        "plan.wire.bytes_per_plan": sum(len(pickle.dumps(payload)) for payload in payloads)
        / len(payloads),
    }


def probe_caches(
    rec: Recorder, workload: Workload, model: Model, stream, probes: ProbeSet
) -> dict[str, float]:
    """What a serving session's caches do with this workload's stream."""
    session = model.themis.serve()
    served = 0
    while served < CACHE_PROBE_STATEMENTS:
        for op in stream.take_block():
            if workload.width > 1:
                session.execute_batch([stream.pool[index] for index in op])
            else:
                session.execute(stream.pool[op[0]])
            served += len(op)
    stats = session.cache_statistics()
    fresh = model.themis.serve()
    statements = probes.statements
    miss = rec.mean_us("serving.ServingSession.execute[miss]", fresh.execute, statements)
    # The result cache holds the most recent statements: these all hit.
    hit = rec.mean_us("serving.ServingSession.execute[hit]", fresh.execute, statements[-64:])
    return {
        "serving.cache.result_hit_ratio": float(stats["result_cache"]["hit_rate"]),
        "serving.cache.plan_hit_ratio": float(stats["plan_cache"]["hit_rate"]),
        "serving.cache.inference_hit_ratio": float(
            stats.get("inference_cache", {}).get("hit_rate", 0.0)
        ),
        "serving.session.miss_path_us": miss,
        "serving.session.hit_path_us": hit,
    }


def batch_chunks(probes: ProbeSet) -> dict[int, list[str]]:
    """Three disjoint parts of the probe set, one per batch size.  The set
    lists shape after shape: strides give every part all shapes."""
    statements = probes.statements
    return {1: statements[0::3], 8: statements[1::3], 64: statements[2::3]}


def probe_session_batches(rec: Recorder, model: Model, probes: ProbeSet) -> dict[str, float]:
    """In-process batches of 1, 8 and 64 fresh statements, each size on a
    fresh session: what the pool's numbers are read against."""
    return {
        f"serving.session.batch{size}_us_per_query": rec.per_query_us(
            f"serving.ServingSession.execute_batch[{size}]",
            model.themis.serve().execute_batch,
            chunk,
            size,
        )
        for size, chunk in batch_chunks(probes).items()
    }


def probe_scale_tier(rec: Recorder, model: Model, probes: ProbeSet) -> dict[str, float]:
    """Worker pool, micro-batcher, front-end and socket: the scale tier's hops."""
    themis = model.themis
    statements = probes.statements
    metrics: dict[str, float] = {}

    spawned: list[SocketTarget] = []
    metrics["serving.scale.pool.spawn_s"] = rec.seconds(
        "serving.scale.pool.spawn",
        lambda: spawned.append(SocketTarget(model)),
        follows=measure.FOLLOWS_FIT,
    )
    (target,) = spawned
    try:
        pool = target.frontend.pool
        metrics["serving.scale.pool.compile_batch_us_per_query"] = rec.mean_us(
            "serving.scale.pool.compile_batch",
            lambda statement: pool.compile_batch([statement]),
            statements,
        )
        for size, chunk in batch_chunks(probes).items():
            metrics[f"serving.scale.pool.batch{size}_us_per_query"] = rec.per_query_us(
                f"serving.scale.pool.execute_batch[{size}]",
                pool.execute_batch,
                chunk,
                size,
                follows=measure.FOLLOWS_PARTLY,
            )
        # The owning worker has cached this statement's answer by now: what
        # remains is compile, encode, the pipe hop, decode and a cache probe.
        metrics["serving.scale.pool.roundtrip_us"] = rec.mean_us(
            "serving.scale.pool.execute_batch[cached]",
            lambda _: pool.execute_batch(statements[:1]),
            range(len(statements) // 3),
            follows=measure.FOLLOWS_PARTLY,
        )

        in_process = target.query_in_process(statements[0::2])
        over_socket = target.run(
            statements, [(i,) for i in range(1, len(statements), 2)], connections=1
        ).latencies
        metrics["serving.scale.frontend.socket_overhead_us"] = 1e6 * (
            measure.percentile(over_socket, 50) - measure.percentile(in_process, 50)
        )

        # All connections busy, as in the socket workload: how long requests
        # wait for companions, and how many they find.
        target.run(statements, [(i,) for i in range(len(statements))])
        histograms = target.frontend.statistics()["histograms"]
        waited = (
            histograms[names.SCALE_REQUEST_SECONDS]["mean"]
            - histograms[names.SCALE_DISPATCH_SECONDS]["mean"]
        )
        metrics["serving.scale.microbatch.queue_wait_ms"] = 1e3 * waited
        metrics["serving.scale.microbatch.mean_batch_size"] = histograms[names.MICROBATCH_SIZE]["mean"]

        # Last, because it rebuilds every model: the broadcast refit and the
        # first answer over the socket after it.
        metrics["serving.scale.pool.refit_s"] = rec.seconds(
            "serving.scale.pool.refit",
            lambda: target.run_after_refit(statements, (0,)),
            follows=measure.FOLLOWS_FIT,
        )
    finally:
        target.close()

    answers = [themis.query(statement) for statement in statements]
    metrics["serving.scale.frontend.encode_result_us"] = rec.mean_us(
        "serving.scale.frontend.encode_result",
        lambda answer: json.dumps({"id": 0, "ok": True, **encode_result(answer)}),
        answers,
    )
    return metrics


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def run_traced(
    workload: Workload, seed: int, seconds: float, quick: bool, spans_file: Path | None
) -> dict[str, Any]:
    """Every per-layer metric of one workload (``--trace 1``).

    Spans stay in memory; they are written as JSONL to ``spans_file`` at the
    end when one is given.  The scale tier's layers are measured on the
    workload whose statements travel through them and read 0 on the others.
    """
    model = build_model(workload.data)
    stream = workload.stream(model.bundle, seed)
    probes = ProbeSet(workload, model, per_shape=8 if quick else 48, seed=seed)
    log = SpanLog()
    rec = Recorder(log, measure.HostSpeed())
    metrics, checked = replay(rec, workload, model, stream, seconds)
    metrics.update(probe_setup(rec, workload, model))
    metrics.update(probe_plan_layer(rec, model, probes))
    metrics.update(probe_inference(rec, model, probes))
    metrics.update(probe_caches(rec, workload, model, stream, probes))
    metrics.update(probe_session_batches(rec, model, probes))
    if workload.target is SocketTarget:
        metrics.update(probe_wire(rec, model, probes))
        metrics.update(probe_scale_tier(rec, model, probes))
    else:
        metrics.update(
            (spec["name"], 0.0)
            for spec in contract()["per_layer"]
            if spec["name"].startswith(SCALE_TIER_PREFIXES)
        )
    facade = FacadeTarget(model)
    metrics["core.themis.refit_s"] = rec.seconds(
        "core.Themis.refit",
        lambda: facade.run_after_refit(probes.statements, (0,)),
        follows=measure.FOLLOWS_FIT,
    )
    info = {
        "stream_sha256": stream.digest,
        "probe_statements": len(probes.statements),
        "spans": len(log.spans),
    }
    if spans_file is not None:
        log.export_jsonl(spans_file)
        info["spans_file"] = str(spans_file)
    return {
        "correct": True,
        "attempted": checked,
        "failed": 0,
        "metrics": with_units("per_layer", metrics),
        "info": info,
    }
