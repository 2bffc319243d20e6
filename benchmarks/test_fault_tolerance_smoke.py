"""Benchmark: supervised serving under injected worker kills, smoke run.

Not a paper artefact — this is a chaos replay of the scale tier: a seeded
:class:`~repro.serving.scale.FaultInjector` schedule kills **each** of the
pool's workers at least once while a :class:`MixedQueryWorkload` stream
replays through :class:`~repro.serving.scale.SupervisedWorkerPool` in
micro-batch-sized chunks, with a mid-stream ``refit()`` whose broadcast is
itself hit by a crash-during-refit fault.  A fault-free single-process
``execute_batch`` pass over an identically fitted facade is the oracle:
every answer must come back exactly ``==`` despite the crashes, respawns,
retries, and ring failovers in between — the whole run is reproducible
from ``(workload seed, fault seed)``.  ``pytest
benchmarks/test_fault_tolerance_smoke.py -s`` prints the replay's table:
request/mismatch counts, the ``scale.faults.*`` recovery counters, respawn
latency, and the final generation coherence check across the surviving
shards.  The smoke runs it at a reduced query count and asserts the
recovery story end to end:

* **zero lost or corrupted requests**: the replay itself raises on any
  answer diverging from the fault-free single-process oracle, and the
  ``mismatches`` column must be 0;
* **recovery actually happened**: crashes were detected, every one of them
  respawned, the mid-refit broadcast was replayed, and the pool ended on a
  coherent generation;
* **recovery was prompt**: median respawn latency stays inside a generous
  per-respawn deadline budget — gated on core count, because respawning
  means re-fitting a model, and N workers re-fitting on one time-sliced
  CPU tells you about the host, not the supervisor.
"""

import math
import os
import time

import pytest

from repro.core import Themis
from repro.experiments import (
    ExperimentResult,
    ExperimentScale,
    build_aggregates,
    flights_bundle,
    themis_config,
)
from repro.obs import names
from repro.query.workload import MixedQueryWorkload
from repro.serving.scale import FaultInjector, SupervisedWorkerPool

#: Per-respawn wall-clock budget (seconds) asserted on multi-core hosts.
#: A respawn = fork + deterministic re-fit + broadcast-log replay; at SMALL
#: scale that is well under a second warm, so 30s catches only pathologies
#: (a hung replay, a respawn loop) without flaking on slow CI.
RESPAWN_DEADLINE_SECONDS = 30.0

N_WORKERS = 4


def available_cores() -> int:
    """CPU cores this process may schedule on (the replay records it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _chaos_workload(sample, n_queries: int, seed: int) -> list:
    """A seeded mixed-shape AST workload with repetition (cache-friendly)."""
    workload = MixedQueryWorkload(sample, table="flights", seed=seed)
    per_shape = max(2, n_queries // 8)
    entries = workload.generate(
        n_point=3 * per_shape,
        n_scalar=2 * per_shape,
        n_group_by=2 * per_shape,
        n_analytic=per_shape,
    )
    queries = [entry.query for entry in entries]
    return (queries + queries)[: max(n_queries, len(queries))]


def run_fault_tolerance(
    scale: ExperimentScale,
    sample_name: str = "SCorners",
    n_workers: int = 4,
    chunk_size: int = 16,
    fault_seed: int = 1009,
    n_queries: int | None = None,
) -> ExperimentResult:
    """Chaos replay: seeded worker kills under load vs a fault-free oracle."""
    bundle = flights_bundle(scale)
    sample = bundle.sample(sample_name)
    aggregates = build_aggregates(bundle, n_two_dimensional=2, seed=scale.seed)

    def fit_facade() -> Themis:
        facade = Themis(themis_config(scale))
        facade.load_sample(sample, name="flights")
        facade.add_aggregates(aggregates)
        facade.fit()
        return facade

    queries = _chaos_workload(
        sample, n_queries or 2 * scale.n_queries, seed=scale.seed + 77
    )
    chunks = [
        queries[start : start + chunk_size]
        for start in range(0, len(queries), chunk_size)
    ]
    refit_after = len(chunks) // 2

    # Fault-free oracle: one in-process pass over an identically fitted
    # facade (refit is deterministic, so refitting mid-stream would not
    # change a single bit of the answers).
    oracle = fit_facade()
    start = time.perf_counter()
    expected = oracle.serve().execute_batch(queries).results()
    oracle_seconds = time.perf_counter() - start

    # The schedule: every shard dies at least once somewhere in the first
    # half of the stream (seeded kill points), and the mid-stream refit
    # broadcast loses a worker mid-refit on top of that.
    injector = FaultInjector(seed=fault_seed).kill_each_shard_once(
        n_workers, within_batches=max(1, refit_after)
    )
    injector.kill_at_refit(n_workers - 1, at=1, incarnation=1)

    pool = SupervisedWorkerPool(
        fit_facade(),
        n_workers=n_workers,
        timeout=30.0,
        fault_injector=injector,
        max_retries=5,
        backoff_base=0.01,
        retry_seed=fault_seed,
    )
    mismatches = 0
    try:
        start = time.perf_counter()
        answers: list = []
        for index, chunk in enumerate(chunks):
            answers.extend(pool.execute_batch(chunk))
            if index + 1 == refit_after:
                pool.refit()
        chaos_seconds = time.perf_counter() - start
        mismatches = sum(
            1 for got, want in zip(answers, expected) if got != want
        )
        if mismatches:
            raise AssertionError(
                f"{mismatches} answers diverged from the fault-free oracle "
                f"(workload seed {scale.seed + 77}, fault seed {fault_seed})"
            )
        applied = {
            body["broadcasts"] for body in pool.describe() if body is not None
        }
        if len(applied) != 1:
            raise AssertionError(
                f"pool ended with shards on different broadcasts: {sorted(applied)}"
            )
        metrics = pool.metrics
        respawn_latency = metrics.histogram(names.SCALE_RESPAWN_SECONDS).summary()
    finally:
        pool.close()

    result = ExperimentResult(
        experiment_id="fault-tolerance",
        title="Supervised serving under a seeded chaos schedule",
        paper_claim=(
            "Beyond the paper: with every shard killed at least once mid-"
            "stream, supervised respawn + broadcast-log replay + ring "
            "failover keep every answer bit-identical to a fault-free "
            "single-process oracle."
        ),
        parameters={
            "dataset": "flights",
            "sample": sample_name,
            "n_queries": len(queries),
            "n_workers": n_workers,
            "chunk_size": chunk_size,
            "fault_seed": fault_seed,
            "cores": available_cores(),
        },
    )
    result.add_row(
        phase="fault-free-oracle",
        seconds=oracle_seconds,
        requests=len(queries),
        mismatches=0,
        crashes=0,
        respawns=0,
        retries=0,
        failovers=0,
        replayed_broadcasts=0,
        respawn_p50_ms=float("nan"),
        coherent_generation=True,
    )
    result.add_row(
        phase="chaos-replay",
        seconds=chaos_seconds,
        requests=len(queries),
        mismatches=mismatches,
        crashes=int(metrics.counter(names.SCALE_FAULT_CRASHES).value),
        respawns=int(metrics.counter(names.SCALE_FAULT_RESPAWNS).value),
        retries=int(metrics.counter(names.SCALE_FAULT_RETRIES).value),
        failovers=int(metrics.counter(names.SCALE_FAULT_FAILOVERS).value),
        replayed_broadcasts=int(
            metrics.counter(names.SCALE_FAULT_REPLAYED_BROADCASTS).value
        ),
        respawn_p50_ms=respawn_latency["p50"] * 1e3,
        coherent_generation=True,
    )
    return result


def test_fault_tolerance_smoke(run_experiment, scale):
    result = run_experiment(
        run_fault_tolerance,
        scale,
        n_workers=N_WORKERS,
        n_queries=32,
        chunk_size=8,
    )
    rows = {row["phase"]: row for row in result.rows}
    assert set(rows) == {"fault-free-oracle", "chaos-replay"}
    chaos = rows["chaos-replay"]

    # No silent drops, no corruption: every request answered, bit-identical
    # (the replay raises before returning rows if any answer diverged).
    assert chaos["requests"] == result.parameters["n_queries"]
    assert chaos["mismatches"] == 0
    assert chaos["coherent_generation"] is True

    # The schedule really fired and the supervisor really recovered: every
    # shard died at least once (plus the mid-refit kill), every crash got a
    # respawn, and the logged refit was replayed into at least one respawn.
    assert chaos["crashes"] >= N_WORKERS
    assert chaos["respawns"] == chaos["crashes"]
    assert chaos["retries"] >= 1
    assert chaos["replayed_broadcasts"] >= 1
    assert not math.isnan(chaos["respawn_p50_ms"])
    assert chaos["respawn_p50_ms"] > 0.0

    cores = result.parameters["cores"]
    assert cores == available_cores()
    if cores < 2:
        pytest.skip(
            f"host exposes {cores} CPU core(s): {N_WORKERS} respawning "
            "workers time-slice one CPU, so the respawn-latency deadline "
            "assertion is meaningless here (it runs on multi-core CI)"
        )
    assert chaos["respawn_p50_ms"] <= RESPAWN_DEADLINE_SECONDS * 1e3, (
        f"median respawn took {chaos['respawn_p50_ms']:.0f}ms on a "
        f"{cores}-core host: supervised recovery is not prompt"
    )
