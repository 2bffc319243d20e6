"""Benchmark: resource governance under cache pressure + overload, smoke run.

Not a paper artefact — this drives the ``governance`` chaos experiment (a
cache-hostile distinct-query replay under a quarter-of-footprint memory
budget, then a mixed-priority coroutine swarm against a slow shard behind
priority-aware admission control) and asserts the governance story end to
end:

* **eviction never costs bits**: both phases raise inside the experiment on
  any answer diverging from the ungoverned oracle, and the ``mismatches``
  columns must be 0;
* **the budget held at every sample point**: the experiment raises if any
  post-chunk byte sample exceeded the budget, and the reported high water
  stays under it here too;
* **pressure actually happened**: at least one eviction, flush, or cache
  admission rejection fired — otherwise the budget exerted no pressure and
  the run proves nothing;
* **shedding is typed and priority-ordered**: shed requests carried typed
  errors (asserted inside the experiment — never a raw asyncio timeout),
  background work shed first, and completed interactive requests met their
  deadline at p99 — gated on core count, because two worker processes
  time-slicing one CPU measures the host, not the admission controller.
"""

import math

import pytest

from repro.experiments.governance import run_governance
from repro.experiments.harness import available_cores

N_WORKERS = 2


def test_governance_smoke(run_experiment, scale):
    result = run_experiment(
        run_governance,
        scale,
        n_workers=N_WORKERS,
        chunk_size=16,
    )
    rows = {row["phase"]: row for row in result.rows}
    assert set(rows) == {
        "ungoverned-oracle",
        "cache-pressure",
        "overload-admission",
    }
    pressure = rows["cache-pressure"]
    overload = rows["overload-admission"]

    # Eviction never costs bits: both phases answered every request exactly
    # == the ungoverned oracle (the experiment raises before returning rows
    # if any answer diverged or any byte sample exceeded the budget).
    assert pressure["requests"] == result.parameters["n_queries"]
    assert pressure["mismatches"] == 0
    assert overload["mismatches"] == 0

    # The budget squeezed (quarter of the ungoverned footprint) and held.
    budget = result.parameters["budget_bytes"]
    assert budget < result.parameters["ungoverned_bytes"]
    assert pressure["cache_bytes_max"] <= budget
    assert (
        pressure["evictions"] + pressure["flushes"] + pressure["cache_rejections"]
        >= 1
    )

    # Admission really arbitrated: some work admitted, some shed, and the
    # lowest priority class bore the shedding.
    assert overload["admitted"] >= 1
    assert overload["rejected"] >= 1
    assert overload["shed_background"] >= 1
    assert overload["rejected"] >= overload["shed_background"]

    cores = result.parameters["cores"]
    assert cores == available_cores()
    if cores < 2:
        pytest.skip(
            f"host exposes {cores} CPU core(s): {N_WORKERS} worker processes "
            "time-slice one CPU, so the interactive-latency assertion "
            "is meaningless here (it runs on multi-core CI)"
        )
    assert not math.isnan(overload["interactive_p99_ms"])
    assert (
        overload["interactive_p99_ms"]
        <= result.parameters["interactive_deadline"] * 1e3
    ), (
        f"interactive p99 {overload['interactive_p99_ms']:.0f}ms missed the "
        "deadline on a multi-core host: admission did not protect the "
        "highest priority class"
    )
