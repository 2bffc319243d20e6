"""Benchmark: sharded multi-process serving tier, small-N smoke run.

Not a paper artefact — this drives the ``serving_scale`` experiment (asyncio
front-end -> micro-batcher -> consistent-hash shard router -> worker
processes) at a reduced query count and asserts the tier's health:

* every worker count stays **bit-identical** to in-process ``execute_batch``
  (the experiment itself raises on any divergence);
* the batched path actually engaged: micro-batch sizes recorded, requests
  served through the latency histogram, both shards took traffic.

No wall-clock assertion lives here: a 24-query run finishes in ~0.1 s,
inside the noise of any shared host.  The tier's throughput is the
``socket_pool_small`` workload's ``qps`` in the repo benchmark
(``BENCHMARK.json``).
"""

import math

from repro.experiments.serving_scale import available_cores, run_serving_scale


def test_serving_scale_smoke(run_experiment, scale):
    result = run_experiment(
        run_serving_scale,
        scale,
        worker_counts=(1, 2),
        n_clients=4,
        n_queries=24,
    )
    rows = {row["workers"]: row for row in result.rows}
    assert set(rows) == {0, 1, 2}

    # The sharded rows exist at all => bit-identity held (the experiment
    # raises AssertionError on any divergence from the in-process oracle).
    for n_workers in (1, 2):
        row = rows[n_workers]
        assert row["phase"] == "sharded-async"
        # Batched-path counters are live, not zero: micro-batches formed...
        assert not math.isnan(row["mean_microbatch"])
        assert row["mean_microbatch"] >= 1.0
        # ...and request latency percentiles were recorded.
        assert row["p99_ms"] > 0.0
        assert row["queries_per_second"] > 0.0

    # Both shards took traffic in the 2-worker run.
    split = [int(part) for part in rows[2]["shard_split"].split("/")]
    assert len(split) == 2 and all(part > 0 for part in split)
    assert sum(split) >= result.parameters["n_queries"]

    assert result.parameters["cores"] == available_cores()
