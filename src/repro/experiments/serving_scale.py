"""Serving scale — concurrent clients against the sharded multi-process tier.

Not a paper artefact: this experiment measures the scale tier added on top
of the single-process serving layer.  N client coroutines drive a seeded
mixed workload through :class:`~repro.serving.scale.AsyncServingFrontend`
(micro-batching front-end -> consistent-hash shard router -> M worker
processes, each statement shipped with its canonical key), for several
worker counts; a single-process ``execute_batch`` pass on an identically
fitted facade is both the throughput baseline and the bit-identity oracle.

Reported per worker count: wall-clock, queries/sec, speedup vs 1 worker,
p50/p95/p99 request latency, mean micro-batch size, and the shard-occupancy
split — all read from the tier's :class:`~repro.obs.MetricsRegistry`.

Expected shape: near-linear throughput scaling with workers **on a
multi-core host** (>= 2.5x at 4 workers).  On a single-core host the
workers time-slice one CPU and speedup stays ~1x; the ``cores`` column
records what the run actually had, and the CI benchmark gates its scaling
assertion on it.
"""

from __future__ import annotations

import asyncio
import os
import time

from ..core import Themis, ThemisConfig
from ..obs import names
from ..query.workload import MixedQueryWorkload
from .config import ExperimentScale, SMALL_SCALE
from .harness import build_aggregates, flights_bundle
from .reporting import ExperimentResult


def available_cores() -> int:
    """CPU cores this process may schedule on (the scaling ceiling)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _scale_workload(sample, n_queries: int, seed: int) -> list:
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
    # Interactive traffic repeats itself: double the stream so shard caches
    # and the batch optimizer both have something to reuse.
    return (queries + queries)[: max(n_queries, len(queries))]


async def _drive(frontend, queries, n_clients: int) -> list:
    """N client coroutines submitting the stream concurrently."""
    gate = asyncio.Semaphore(n_clients)

    async def one(query):
        async with gate:
            return await frontend.query(query)

    return await asyncio.gather(*(one(query) for query in queries))


def run_serving_scale(
    scale: ExperimentScale = SMALL_SCALE,
    sample_name: str = "SCorners",
    worker_counts: tuple[int, ...] = (1, 2, 4),
    n_clients: int = 8,
    n_queries: int | None = None,
) -> ExperimentResult:
    """Throughput and latency of the sharded async tier vs worker count."""
    from ..serving.scale import AsyncServingFrontend

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

    themis = fit_facade()
    queries = _scale_workload(
        sample, n_queries or 2 * scale.n_queries, seed=scale.seed + 77
    )

    # Single-process oracle: the bit-identity reference and the 0-worker
    # baseline row (one in-process optimized batch, no IPC, no front-end).
    oracle = fit_facade()
    start = time.perf_counter()
    expected = oracle.execute_batch(queries).results()
    oracle_seconds = time.perf_counter() - start

    cores = available_cores()
    result = ExperimentResult(
        experiment_id="serving-scale",
        title="Sharded async serving: throughput and latency vs worker count",
        paper_claim=(
            "Beyond the paper: micro-batched arrivals sharded across worker "
            "processes by canonical plan key scale throughput with cores while "
            "staying bit-identical to in-process execute_batch."
        ),
        parameters={
            "dataset": "flights",
            "sample": sample_name,
            "n_queries": len(queries),
            "n_clients": n_clients,
            "cores": cores,
        },
    )
    result.add_row(
        workers=0,
        phase="in-process",
        seconds=oracle_seconds,
        queries_per_second=len(queries) / oracle_seconds,
        speedup_vs_1_worker=float("nan"),
        p50_ms=float("nan"),
        p95_ms=float("nan"),
        p99_ms=float("nan"),
        mean_microbatch=float("nan"),
        shard_split="-",
    )

    base_seconds: float | None = None
    for n_workers in worker_counts:

        async def run_tier(n_workers: int = n_workers):
            async with AsyncServingFrontend(
                themis,
                n_workers=n_workers,
                max_batch_size=max(16, len(queries) // 4),
            ) as frontend:
                started = time.perf_counter()
                answers = await _drive(frontend, queries, n_clients)
                elapsed = time.perf_counter() - started
                snapshot = frontend.statistics()
                return answers, elapsed, snapshot

        answers, elapsed, snapshot = asyncio.run(run_tier())
        if answers != expected:
            raise AssertionError(
                f"sharded answers diverged from in-process execute_batch at "
                f"{n_workers} workers (seed {scale.seed + 77})"
            )
        if base_seconds is None:
            base_seconds = elapsed
        latency = snapshot["histograms"][names.SCALE_REQUEST_SECONDS]
        batches = snapshot["histograms"][names.MICROBATCH_SIZE]
        occupancy = {
            name: value
            for name, value in snapshot["counters"].items()
            if name.startswith(names.SCALE_SHARD_PREFIX)
        }
        result.add_row(
            workers=n_workers,
            phase="sharded-async",
            seconds=elapsed,
            queries_per_second=len(queries) / elapsed,
            speedup_vs_1_worker=base_seconds / elapsed,
            p50_ms=latency["p50"] * 1e3,
            p95_ms=latency["p95"] * 1e3,
            p99_ms=latency["p99"] * 1e3,
            mean_microbatch=batches["mean"],
            shard_split="/".join(
                str(int(occupancy[key])) for key in sorted(occupancy)
            ),
        )
    return result


def main() -> None:  # pragma: no cover - convenience entry point
    print(run_serving_scale().render())


if __name__ == "__main__":  # pragma: no cover
    main()
