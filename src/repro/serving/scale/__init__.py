"""The scale tier: sharded multi-process serving behind an asyncio front-end.

Layering, front to back::

    clients --> AsyncServingFrontend.query()          (asyncio coroutines)
                   |  batches whatever is pending when a dispatch slot is free
                   v
                MicroBatcher                          (queue + dispatch slots)
                   |  dispatches fused batches as tasks on the same loop
                   v
                SupervisedWorkerPool                  (statement + key over the pipe)
                  .dispatch()
                   |  consistent-hashes plan keys to live shards; retries,
                   |  fails over and respawns behind one pipe conversation
                   v
                worker processes                      (one ServingSession each)

Each statement compiles **once** in the front-end process, for the canonical
key that routes it, and crosses the pipe as submitted beside that key; the
worker plans it through its own session and refuses a key it does not
reproduce — so a shard's plan/result/mask/inference caches stay hot for
exactly the key range the router assigns it.  (:mod:`repro.plan.wire` is the
JSON interchange format for plans, no longer the pipe's payload.)
``refit()`` broadcasts to every worker and asserts that every worker has
applied every logged broadcast, which is what keeps cross-process caches
coherent.
Results are bit-identical to in-process ``ServingSession.execute_batch``
(asserted by ``tests/test_serving_scale.py`` via the differential-oracle
sweep).

There is one pool class and one dispatch path
(:mod:`repro.serving.scale.pool`), and supervision is part of it: dead
workers are detected (pipe EOF, exit codes, missed heartbeats), respawned
from the deterministic :class:`~repro.serving.scale.worker.WorkerSpec` with
the recorded ``refit``/``add_aggregate`` broadcast log replayed, and
affected requests retried with backoff — failing over on the consistent-hash
ring while a shard is down.  Retries and deadlines are decided there and
nowhere else; the micro-batcher only settles each future from its request's
outcome.  :mod:`repro.serving.scale.faults` makes every failure mode a
seeded, scheduled event so chaos tests are exactly reproducible.
"""

from .faults import FAULT_EXIT_CODE, FaultEvent, FaultInjector
from .frontend import AsyncServingFrontend, serve_async
from .microbatch import MicroBatcher
from .pool import RequestOutcome, SupervisedWorkerPool
from .shard import ShardRouter, stable_plan_hash
from .worker import WorkerSpec

__all__ = [
    "AsyncServingFrontend",
    "FAULT_EXIT_CODE",
    "FaultEvent",
    "FaultInjector",
    "MicroBatcher",
    "RequestOutcome",
    "ShardRouter",
    "SupervisedWorkerPool",
    "WorkerSpec",
    "serve_async",
    "stable_plan_hash",
]
