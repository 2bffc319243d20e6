"""Resource governance — an overload chaos run against the governed tier.

Not a paper artefact: this experiment stress-tests the end-to-end resource
governance layer (:mod:`repro.serving.governance`) under a deliberately
hostile mix, in two phases:

* **cache-pressure** — a distinct-predicate workload (every query a new
  cache entry) replays through an in-process session whose caches are
  governed by a :class:`~repro.serving.governance.MemoryGovernor` holding a
  budget of one quarter of the workload's ungoverned footprint.  The
  governed cache bytes are sampled after every chunk and must stay within
  the budget at **every** sample point while pressure-tiered eviction
  (soft -> hard -> critical) churns underneath; every answer must stay
  exactly ``==`` an ungoverned oracle's — eviction may cost hits, never
  bits.

* **overload-admission** — a mixed-priority coroutine swarm (interactive /
  batch / background) floods an :class:`AsyncServingFrontend` running a
  priority-aware :class:`~repro.serving.governance.AdmissionController`
  while a :class:`~repro.serving.scale.FaultInjector` schedule makes one
  shard slow.  Shed requests must fail with *typed* errors
  (:class:`~repro.exceptions.AdmissionRejectedError` and friends — never a
  raw asyncio timeout), background work must shed before interactive work,
  completed interactive requests must meet their deadline at p99, and every
  completed answer must be exactly ``==`` the in-process oracle.

The whole run is reproducible from ``(workload seed, fault seed)``.
"""

from __future__ import annotations

import asyncio
import time

from ..core import Themis, ThemisConfig
from ..exceptions import ThemisError
from ..obs import names
from ..query.workload import MixedQueryWorkload
from .config import ExperimentScale, SMALL_SCALE
from .harness import available_cores, build_aggregates, flights_bundle
from .reporting import ExperimentResult


def _hostile_workload(sample, n_queries: int, seed: int) -> list:
    """Distinct-predicate queries: every one wants its own cache entries."""
    workload = MixedQueryWorkload(sample, table="flights", seed=seed)
    per_shape = max(2, n_queries // 8)
    entries = workload.generate(
        n_point=3 * per_shape,
        n_scalar=2 * per_shape,
        n_group_by=2 * per_shape,
        n_analytic=per_shape,
    )
    # No repetition on purpose: a cache-filling adversary never re-asks.
    return [entry.query for entry in entries][:n_queries] or [
        entry.query for entry in entries
    ]


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


def run_governance(
    scale: ExperimentScale = SMALL_SCALE,
    sample_name: str = "SCorners",
    n_workers: int = 2,
    chunk_size: int = 16,
    n_queries: int | None = None,
    fault_seed: int = 2027,
    slow_shard_delay: float = 0.15,
    interactive_deadline: float = 10.0,
    n_interactive: int = 12,
    n_batch: int = 12,
    n_background: int = 24,
) -> ExperimentResult:
    """Overload chaos: budgeted caches + priority shedding vs an oracle."""
    from ..serving.governance import (
        PRIORITY_BACKGROUND,
        PRIORITY_BATCH,
        PRIORITY_INTERACTIVE,
        AdmissionController,
    )
    from ..serving.scale import AsyncServingFrontend, FaultInjector

    bundle = flights_bundle(scale)
    sample = bundle.sample(sample_name)
    aggregates = build_aggregates(bundle, n_two_dimensional=2, seed=scale.seed)

    def fit_facade() -> Themis:
        facade = Themis(
            ThemisConfig(
                seed=scale.seed,
                ipf_max_iterations=scale.ipf_max_iterations,
                n_generated_samples=scale.n_generated_samples,
                generated_sample_size=scale.generated_sample_size,
            )
        )
        facade.load_sample(sample, name="flights")
        facade.add_aggregates(aggregates)
        facade.fit()
        return facade

    queries = _hostile_workload(
        sample, n_queries or 2 * scale.n_queries, seed=scale.seed + 99
    )
    chunks = [
        queries[start : start + chunk_size]
        for start in range(0, len(queries), chunk_size)
    ]

    # ------------------------------------------------------------------
    # Ungoverned oracle: an effectively unlimited budget (the governor
    # only measures, never evicts) gives both the bit-identity reference
    # and the footprint the pressure phase squeezes.
    # ------------------------------------------------------------------
    oracle = fit_facade()
    oracle_session = oracle.serve(memory_budget_bytes=1 << 40)
    start = time.perf_counter()
    expected = oracle_session.execute_batch(queries).results()
    oracle_seconds = time.perf_counter() - start
    assert oracle_session.governor is not None
    ungoverned_bytes = oracle_session.governor.total_bytes()

    # ------------------------------------------------------------------
    # Phase 1: cache pressure under a quarter-of-footprint budget.
    # ------------------------------------------------------------------
    budget = max(32 * 1024, ungoverned_bytes // 4)
    governed = fit_facade()
    session = governed.serve(memory_budget_bytes=budget)
    assert session.governor is not None
    answers: list = []
    byte_samples: list[int] = []
    start = time.perf_counter()
    for chunk in chunks:
        answers.extend(session.execute_batch(chunk).results())
        byte_samples.append(session.governor.total_bytes())
    pressure_seconds = time.perf_counter() - start

    over_budget = [nbytes for nbytes in byte_samples if nbytes > budget]
    if over_budget:
        raise AssertionError(
            f"governed cache bytes exceeded the budget at "
            f"{len(over_budget)}/{len(byte_samples)} sample points "
            f"(budget={budget}, worst={max(over_budget)})"
        )
    mismatches = sum(1 for got, want in zip(answers, expected) if got != want)
    if mismatches:
        raise AssertionError(
            f"{mismatches} governed answers diverged from the ungoverned "
            f"oracle (workload seed {scale.seed + 99})"
        )
    governed_metrics = session.metrics
    evictions = int(
        governed_metrics.counter(names.GOVERNANCE_EVICTIONS).value
    )
    flushes = int(governed_metrics.counter(names.GOVERNANCE_FLUSHES).value)
    cache_rejections = int(
        governed_metrics.counter(
            names.GOVERNANCE_CACHE_ADMISSION_REJECTIONS
        ).value
    )
    if evictions + flushes + cache_rejections == 0:
        raise AssertionError(
            "the pressure phase never evicted, flushed, or rejected — the "
            f"budget ({budget} bytes vs {ungoverned_bytes} ungoverned) "
            "exerted no pressure, so the run proves nothing"
        )

    # ------------------------------------------------------------------
    # Phase 2: mixed-priority swarm against a slow shard + admission.
    # ------------------------------------------------------------------
    swarm_queries = queries[: n_interactive + n_batch + n_background]
    swarm_expected = oracle_session.execute_batch(swarm_queries).results()
    plan = (
        [(q, PRIORITY_INTERACTIVE) for q in swarm_queries[:n_interactive]]
        + [
            (q, PRIORITY_BATCH)
            for q in swarm_queries[n_interactive : n_interactive + n_batch]
        ]
        + [
            (q, PRIORITY_BACKGROUND)
            for q in swarm_queries[n_interactive + n_batch :]
        ]
    )
    expected_by_index = {
        index: swarm_expected[index] for index in range(len(swarm_queries))
    }

    injector = FaultInjector(seed=fault_seed)
    for ordinal in range(1, 7):
        injector.delay_reply(
            n_workers - 1, seconds=slow_shard_delay, at=ordinal
        )
    admission = AdmissionController(max_queue=32, rate=60.0, burst=10.0)

    frontend = AsyncServingFrontend(
        fit_facade(),
        n_workers=n_workers,
        dispatch_timeout=30.0,
        max_retries=3,
        fault_injector=injector,
        admission=admission,
        circuit_breaker=True,
    )

    async def swarm() -> list[dict]:
        records: list[dict] = []

        async def one(index: int, query, priority: str) -> None:
            deadline = (
                interactive_deadline
                if priority == PRIORITY_INTERACTIVE
                else None
            )
            begun = time.perf_counter()
            try:
                value = await frontend.query(
                    query, priority=priority, deadline=deadline
                )
                records.append(
                    {
                        "index": index,
                        "priority": priority,
                        "ok": True,
                        "seconds": time.perf_counter() - begun,
                        "value": value,
                    }
                )
            except Exception as error:  # noqa: BLE001 - classified below
                records.append(
                    {
                        "index": index,
                        "priority": priority,
                        "ok": False,
                        "seconds": time.perf_counter() - begun,
                        "error": error,
                    }
                )

        async with frontend:
            await asyncio.gather(
                *(
                    one(index, query, priority)
                    for index, (query, priority) in enumerate(plan)
                )
            )
        return records

    start = time.perf_counter()
    records = asyncio.run(swarm())
    swarm_seconds = time.perf_counter() - start

    completed = [r for r in records if r["ok"]]
    failed = [r for r in records if not r["ok"]]
    untyped = [
        r for r in failed if not isinstance(r["error"], ThemisError)
    ]
    if untyped:
        raise AssertionError(
            "shed/failed requests must carry typed ThemisError subclasses, "
            f"got: {sorted({type(r['error']).__name__ for r in untyped})}"
        )
    swarm_mismatches = sum(
        1 for r in completed if r["value"] != expected_by_index[r["index"]]
    )
    if swarm_mismatches:
        raise AssertionError(
            f"{swarm_mismatches} completed swarm answers diverged from the "
            "in-process oracle"
        )
    interactive_done = [
        r["seconds"] for r in completed if r["priority"] == PRIORITY_INTERACTIVE
    ]
    if not interactive_done:
        raise AssertionError(
            "no interactive request completed — admission starved the "
            "highest priority class"
        )
    interactive_p99 = _percentile(interactive_done, 0.99)
    if interactive_p99 > interactive_deadline:
        raise AssertionError(
            f"interactive p99 latency {interactive_p99:.3f}s missed the "
            f"{interactive_deadline:.3f}s deadline"
        )
    shed_by_priority = {
        priority: sum(
            1
            for r in failed
            if r["priority"] == priority
        )
        for priority in (PRIORITY_INTERACTIVE, PRIORITY_BATCH, PRIORITY_BACKGROUND)
    }
    tier_metrics = frontend.metrics
    admitted = int(
        tier_metrics.counter(names.GOVERNANCE_REQUESTS_ADMITTED).value
    )
    rejected = int(
        tier_metrics.counter(names.GOVERNANCE_REQUESTS_REJECTED).value
    )

    result = ExperimentResult(
        experiment_id="governance",
        title="Resource governance under cache pressure and priority overload",
        paper_claim=(
            "Beyond the paper: memory-budgeted caches with pressure-tiered "
            "eviction and priority-aware admission keep answers bit-identical "
            "to an ungoverned oracle while bounding cache bytes and shedding "
            "lowest-priority work first with typed errors."
        ),
        parameters={
            "dataset": "flights",
            "sample": sample_name,
            "n_queries": len(queries),
            "n_workers": n_workers,
            "chunk_size": chunk_size,
            "budget_bytes": budget,
            "ungoverned_bytes": ungoverned_bytes,
            "fault_seed": fault_seed,
            "interactive_deadline": interactive_deadline,
            "cores": available_cores(),
        },
    )
    result.add_row(
        phase="ungoverned-oracle",
        seconds=oracle_seconds,
        requests=len(queries),
        mismatches=0,
        cache_bytes_max=ungoverned_bytes,
        evictions=0,
        flushes=0,
        cache_rejections=0,
        admitted=0,
        rejected=0,
        shed_background=0,
        interactive_p99_ms=float("nan"),
        within_budget=True,
    )
    result.add_row(
        phase="cache-pressure",
        seconds=pressure_seconds,
        requests=len(queries),
        mismatches=mismatches,
        cache_bytes_max=max(byte_samples),
        evictions=evictions,
        flushes=flushes,
        cache_rejections=cache_rejections,
        admitted=0,
        rejected=0,
        shed_background=0,
        interactive_p99_ms=float("nan"),
        within_budget=True,
    )
    result.add_row(
        phase="overload-admission",
        seconds=swarm_seconds,
        requests=len(plan),
        mismatches=swarm_mismatches,
        cache_bytes_max=0,
        evictions=0,
        flushes=0,
        cache_rejections=0,
        admitted=admitted,
        rejected=rejected,
        shed_background=shed_by_priority[PRIORITY_BACKGROUND],
        interactive_p99_ms=interactive_p99 * 1e3,
        within_budget=True,
    )
    return result
