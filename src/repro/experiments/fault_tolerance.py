"""Fault tolerance — a chaos replay against the supervised serving tier.

Not a paper artefact: this experiment stress-tests the supervision layer
added on top of the sharded multi-process tier.  A seeded
:class:`~repro.serving.scale.FaultInjector` schedule kills **each** of the
pool's workers at least once while a :class:`MixedQueryWorkload` stream
replays through :class:`~repro.serving.scale.SupervisedWorkerPool` in
micro-batch-sized chunks, with a mid-stream ``refit()`` whose broadcast is
itself hit by a crash-during-refit fault.  A fault-free single-process
``execute_batch`` pass over an identically fitted facade is the oracle:
every answer must come back exactly ``==`` despite the crashes, respawns,
retries, and ring failovers in between — the whole run is reproducible
from ``(workload seed, fault seed)``.

Reported: request/mismatch counts (mismatches must be 0), the
``scale.faults.*`` recovery counters (crashes detected, respawns, request
retries, ring failovers, replayed broadcasts), respawn latency, and the
final generation coherence check across the surviving shards.
"""

from __future__ import annotations

import time

from ..core import Themis, ThemisConfig
from ..obs import names
from ..query.workload import MixedQueryWorkload
from .config import ExperimentScale, SMALL_SCALE
from .harness import available_cores, build_aggregates, flights_bundle
from .reporting import ExperimentResult


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
    scale: ExperimentScale = SMALL_SCALE,
    sample_name: str = "SCorners",
    n_workers: int = 4,
    chunk_size: int = 16,
    fault_seed: int = 1009,
    n_queries: int | None = None,
) -> ExperimentResult:
    """Chaos replay: seeded worker kills under load vs a fault-free oracle."""
    from ..serving.scale import FaultInjector, SupervisedWorkerPool

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


def main() -> None:  # pragma: no cover - convenience entry point
    print(run_fault_tolerance().render())


if __name__ == "__main__":  # pragma: no cover
    main()
