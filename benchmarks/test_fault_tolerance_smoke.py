"""Benchmark: supervised serving under injected worker kills, smoke run.

Not a paper artefact — this drives the ``fault_tolerance`` chaos experiment
(seeded :class:`FaultInjector` schedule killing every shard at least once,
plus a crash mid-refit, while a mixed workload replays through the
:class:`SupervisedWorkerPool`) at a reduced query count and asserts the
recovery story end to end:

* **zero lost or corrupted requests**: the experiment itself raises on any
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

import pytest

from repro.experiments.fault_tolerance import run_fault_tolerance
from repro.experiments.harness import available_cores

#: Per-respawn wall-clock budget (seconds) asserted on multi-core hosts.
#: A respawn = fork + deterministic re-fit + broadcast-log replay; at SMALL
#: scale that is well under a second warm, so 30s catches only pathologies
#: (a hung replay, a respawn loop) without flaking on slow CI.
RESPAWN_DEADLINE_SECONDS = 30.0

N_WORKERS = 4


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
    # (the experiment raises before returning rows if any answer diverged).
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
