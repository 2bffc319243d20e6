"""Worker-process side of the serving pool.

A worker owns one :class:`~repro.serving.ServingSession` slice: it rebuilds
a :class:`~repro.core.Themis` facade from a picklable :class:`WorkerSpec`
(sample + aggregates + config — fitting is deterministic given the same
inputs and seed, so every worker answers bit-identically to the parent),
opens a session, and answers command messages over a pipe.

A batch arrives as the statements exactly as they were submitted (SQL text
or ASTs) plus the canonical key the sender compiled each one to.  The worker
plans every statement through its **own** session — a repeated statement
hits its facade's plan cache — and verifies every key against what this process
plans the same statement to *before executing anything*: schema drift
between front-end and worker is a loud
:class:`~repro.exceptions.WireFormatError`, never a silently split cache.
Execution then takes the plans just made through the session's normal
``execute_batch``, so shard caches, per-plan execution, and the metrics
registry all behave exactly as in-process serving.

The message protocol is ``(command, seq, payload)`` requests answered by
``(seq, status, body)`` replies; ``seq`` echoes let the parent discard
stale replies after a dispatch timeout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from ...aggregates import AggregateQuery
from ...core import Themis, ThemisConfig
from ...exceptions import WireFormatError
from ...schema import Relation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

#: Commands understood by :func:`worker_main`.
CMD_BATCH = "batch"
CMD_REFIT = "refit"
CMD_ADD_AGGREGATE = "add_aggregate"
CMD_DESCRIBE = "describe"
CMD_PING = "ping"
CMD_SHUTDOWN = "shutdown"

STATUS_OK = "ok"
STATUS_ERROR = "error"


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to rebuild the parent's model.

    Ships the *inputs* (sample relation, aggregate set, config), not the
    fitted model: fitting is deterministic for a fixed seed, so rebuilding
    from inputs gives bit-identical answers under both the ``fork`` and
    ``spawn`` start methods, and the spec pickles in kilobytes where a
    fitted model would ship megabytes of arrays.
    """

    sample: Relation
    sample_name: str
    aggregates: tuple[AggregateQuery, ...]
    config: ThemisConfig

    @classmethod
    def from_themis(cls, themis: Themis) -> "WorkerSpec":
        """Capture one facade's inputs as a picklable worker recipe."""
        return cls(
            sample=themis.sample,
            sample_name=themis._sample_name,
            aggregates=tuple(themis.aggregates),
            config=replace(themis.config, extra=dict(themis.config.extra)),
        )

    def build_themis(self) -> Themis:
        """Rebuild and fit a facade from the captured inputs."""
        themis = Themis(replace(self.config, extra=dict(self.config.extra)))
        themis.load_sample(self.sample, name=self.sample_name)
        themis.add_aggregates(self.aggregates)
        themis.fit()
        return themis


def _verified_plans(session: Any, requests: list[tuple]) -> list:
    """A batch's plans, once this process has reproduced every sender key.

    Runs before anything executes, so no answer is computed or cached under
    a key the two sides disagree on (a statement this process cannot plan at
    all raises its own typed error from here, just as early).  The plans made
    here are the ones executed: a statement is planned once per process
    (a repeated statement through the worker facade's plan cache).
    """
    executor = session._ensure_current()
    plans = []
    for statement, key in requests:
        plan = executor.plan(statement)
        if plan.key != key:
            raise WireFormatError(
                f"canonical plan key mismatch: sender compiled {key!r} but this "
                f"process plans the same statement to {plan.key!r} — the two "
                f"sides disagree about the schema"
            )
        plans.append(plan)
    return plans


def worker_main(
    spec: WorkerSpec,
    conn: "Connection",
    shard_id: int,
    fault_plan: Any = None,
    incarnation: int = 0,
) -> None:
    """Entry point of one worker process: serve commands until shutdown.

    Every request is answered — errors travel back as ``(seq, "error",
    exception)`` instead of killing the worker, so one malformed plan
    doesn't take down a shard.

    ``fault_plan`` is this incarnation's slice of a deterministic
    :class:`~repro.serving.scale.faults.FaultInjector` schedule (``None``
    in production).  Scheduled kills leave through ``os._exit`` so no
    ``finally``/``atexit`` machinery softens the crash — the parent sees
    exactly what a segfault or OOM kill would look like: a dead pipe and a
    non-zero exitcode.
    """
    import os
    import time as _time

    from .faults import (
        FAULT_EXIT_CODE,
        KIND_DELAY_REPLY,
        KIND_DROP_REPLY,
        KIND_KILL_AT_BATCH,
    )

    themis = spec.build_themis()
    session = themis.serve()
    session._ensure_current()  # bind to the fitted model: describe needs a generation
    batch_count = refit_count = ping_count = 0
    # Logged broadcasts applied.  The pool checks agreement on this count,
    # not on the facade generation: a lazy fit (first batch after an
    # add_aggregate) bumps that on the one shard that served the batch.
    broadcasts = 0

    while True:
        try:
            command, seq, payload = conn.recv()
        except (EOFError, OSError):
            break

        try:
            if command == CMD_BATCH:
                batch_count += 1
                fault = fault_plan.on_batch(batch_count) if fault_plan else None
                if fault is not None and fault.kind == KIND_KILL_AT_BATCH:
                    os._exit(FAULT_EXIT_CODE)
                budget = payload["deadline"]
                cancel = None
                if budget is not None:
                    # Arm a worker-side token from the *remaining* budget the
                    # parent measured at send time: execution cancels itself
                    # cooperatively at a chunk boundary instead of the parent
                    # timing out against a still-computing shard.
                    from ..governance import CancelToken, Deadline

                    cancel = CancelToken(deadline=Deadline.after(budget))
                plans = _verified_plans(session, payload["requests"])
                batch = session.execute_batch(plans, cancel=cancel)
                body = {
                    "results": batch.results(),
                    "generation": session.generation,
                    "shard_id": shard_id,
                    "cache_hits": batch.cache_hits,
                }
                if fault is not None and fault.kind == KIND_DELAY_REPLY:
                    _time.sleep(fault.delay_seconds)
                if fault is not None and fault.kind == KIND_DROP_REPLY:
                    continue  # computed, never sent: the parent's deadline fires
                conn.send((seq, STATUS_OK, body))
            elif command == CMD_REFIT:
                refit_count += 1
                themis.refit()
                if fault_plan and fault_plan.on_refit(refit_count):
                    # Die mid-refit: the model was rebuilt but the reply (and
                    # the generation acknowledgement) never leaves.
                    os._exit(FAULT_EXIT_CODE)
                session._ensure_current()
                broadcasts += 1
                body = {"generation": session.generation, "broadcasts": broadcasts}
                conn.send((seq, STATUS_OK, body))
            elif command == CMD_ADD_AGGREGATE:
                themis.add_aggregate(payload)
                broadcasts += 1
                body = {"generation": themis.generation, "broadcasts": broadcasts}
                conn.send((seq, STATUS_OK, body))
            elif command == CMD_DESCRIBE:
                conn.send(
                    (
                        seq,
                        STATUS_OK,
                        {
                            "shard_id": shard_id,
                            "generation": session.generation,
                            "broadcasts": broadcasts,
                            "incarnation": incarnation,
                            "queries_served": session.statistics.queries_served,
                            "cache": session.cache_statistics(),
                        },
                    )
                )
            elif command == CMD_PING:
                ping_count += 1
                if fault_plan and fault_plan.on_ping(ping_count):
                    continue  # alive but unresponsive: a heartbeat miss
                conn.send(
                    (
                        seq,
                        STATUS_OK,
                        {
                            "shard_id": shard_id,
                            "generation": session.generation,
                            "incarnation": incarnation,
                        },
                    )
                )
            elif command == CMD_SHUTDOWN:
                conn.send((seq, STATUS_OK, {"shard_id": shard_id}))
                break
            else:
                conn.send(
                    (seq, STATUS_ERROR, ValueError(f"unknown command {command!r}"))
                )
        except Exception as error:  # noqa: BLE001 - forwarded to the parent
            try:
                conn.send((seq, STATUS_ERROR, error))
            except (OSError, TypeError):
                # Unpicklable error or closed pipe: nothing more we can do.
                break
    conn.close()
