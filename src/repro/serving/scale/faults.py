"""Deterministic fault injection for the supervised serving tier.

Real worker crashes are nondeterministic; tests over them would be flaky
and unrepeatable.  This module makes every failure mode a *scheduled*
event instead: a :class:`FaultInjector` holds a list of :class:`FaultEvent`
entries — kill this shard at its Nth batch dispatch, delay or drop that
reply, die during the Mth refit — and each worker process receives its
slice of the schedule (a picklable :class:`ShardFaultPlan`) threaded
through the worker protocol.  The worker consults the plan at each
command, so "worker 2 dies mid-batch on its third dispatch" happens at
exactly the same point in every run.

Events are keyed by **incarnation** (0 for the process the pool started,
1 for its first respawn, ...), which is what makes schedules precise under
supervision: a kill scheduled for incarnation 0 does not re-fire after the
respawn, and a double-kill of the same shard is two events at incarnations
0 and 1.

Seeding: :meth:`FaultInjector.kill_each_shard_once` derives per-shard kill
points from a ``random.Random(seed)`` stream, so a chaos run is fully
described by ``(workload seed, fault seed)`` — the property the chaos
replay's exact-``==`` oracle check rests on (``pytest
benchmarks/test_fault_tolerance_smoke.py -s``).

>>> injector = FaultInjector(seed=7).kill_each_shard_once(2, within_batches=3)
>>> sorted((e.shard_id, e.kind) for e in injector.events)
[(0, 'kill_at_batch'), (1, 'kill_at_batch')]
>>> again = FaultInjector(seed=7).kill_each_shard_once(2, within_batches=3)
>>> again.events == injector.events
True
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Exit code of a worker killed by an injected fault — distinguishable from
#: clean shutdown (0) and real crashes in test assertions.
FAULT_EXIT_CODE = 57

KIND_KILL_AT_BATCH = "kill_at_batch"
KIND_DELAY_REPLY = "delay_reply"
KIND_DROP_REPLY = "drop_reply"
KIND_KILL_AT_REFIT = "kill_at_refit"
KIND_DROP_PING = "drop_ping"

_BATCH_KINDS = (KIND_KILL_AT_BATCH, KIND_DELAY_REPLY, KIND_DROP_REPLY)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``at`` is the 1-based ordinal of the triggering command *within the
    named incarnation* of the shard's worker process: ``kill_at_batch``
    counts ``CMD_BATCH`` dispatches, ``kill_at_refit`` counts ``CMD_REFIT``
    commands, ``drop_ping`` counts heartbeat pings.
    """

    kind: str
    shard_id: int
    at: int = 1
    incarnation: int = 0
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.at < 1:
            raise ValueError(f"fault ordinal must be >= 1, got {self.at}")
        if self.incarnation < 0:
            raise ValueError(f"incarnation must be >= 0, got {self.incarnation}")


class ShardFaultPlan:
    """One worker's slice of the schedule: picklable, consulted per command.

    The worker counts batches / refits / pings since its own start and asks
    the plan what (if anything) is scheduled at each count.  Counting is
    per-process, so a respawned worker starts over at 1 with the events of
    its own incarnation only.
    """

    def __init__(self, shard_id: int, incarnation: int, events: tuple[FaultEvent, ...]):
        self.shard_id = shard_id
        self.incarnation = incarnation
        self._events = tuple(
            event
            for event in events
            if event.shard_id == shard_id and event.incarnation == incarnation
        )

    def _lookup(self, kinds: tuple[str, ...], ordinal: int) -> FaultEvent | None:
        for event in self._events:
            if event.kind in kinds and event.at == ordinal:
                return event
        return None

    def on_batch(self, ordinal: int) -> FaultEvent | None:
        """The fault (if any) scheduled at this incarnation's Nth batch."""
        return self._lookup(_BATCH_KINDS, ordinal)

    def on_refit(self, ordinal: int) -> FaultEvent | None:
        """The fault (if any) scheduled at this incarnation's Nth refit."""
        return self._lookup((KIND_KILL_AT_REFIT,), ordinal)

    def on_ping(self, ordinal: int) -> FaultEvent | None:
        """The fault (if any) scheduled at this incarnation's Nth ping."""
        return self._lookup((KIND_DROP_PING,), ordinal)


class FaultInjector:
    """A seeded, deterministic fault schedule builder (parent side).

    Chainable: each ``kill_at_batch`` / ``delay_reply`` / ... call appends
    one :class:`FaultEvent` and returns ``self``.  The supervised pool asks
    :meth:`plan_for` for each worker's slice at spawn/respawn time.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)
        self.events: tuple[FaultEvent, ...] = ()

    def _add(self, event: FaultEvent) -> "FaultInjector":
        self.events = self.events + (event,)
        return self

    def kill_at_batch(
        self, shard_id: int, at: int = 1, incarnation: int = 0
    ) -> "FaultInjector":
        """Kill the shard's worker (``os._exit``) at its Nth batch dispatch."""
        return self._add(
            FaultEvent(KIND_KILL_AT_BATCH, shard_id, at=at, incarnation=incarnation)
        )

    def delay_reply(
        self,
        shard_id: int,
        seconds: float,
        at: int = 1,
        incarnation: int = 0,
    ) -> "FaultInjector":
        """Sleep ``seconds`` before replying to the Nth batch dispatch."""
        return self._add(
            FaultEvent(
                KIND_DELAY_REPLY,
                shard_id,
                at=at,
                incarnation=incarnation,
                delay_seconds=seconds,
            )
        )

    def drop_reply(
        self, shard_id: int, at: int = 1, incarnation: int = 0
    ) -> "FaultInjector":
        """Compute but never send the reply to the Nth batch dispatch."""
        return self._add(
            FaultEvent(KIND_DROP_REPLY, shard_id, at=at, incarnation=incarnation)
        )

    def kill_at_refit(
        self, shard_id: int, at: int = 1, incarnation: int = 0
    ) -> "FaultInjector":
        """Kill the worker mid-refit: after refitting, before replying."""
        return self._add(
            FaultEvent(KIND_KILL_AT_REFIT, shard_id, at=at, incarnation=incarnation)
        )

    def drop_ping(
        self, shard_id: int, at: int = 1, incarnation: int = 0
    ) -> "FaultInjector":
        """Swallow the Nth heartbeat ping (alive but unresponsive)."""
        return self._add(
            FaultEvent(KIND_DROP_PING, shard_id, at=at, incarnation=incarnation)
        )

    def kill_each_shard_once(
        self, n_shards: int, within_batches: int = 4, incarnation: int = 0
    ) -> "FaultInjector":
        """Schedule one seeded kill per shard at a dispatch in ``[1, within]``.

        The kill points are drawn from this injector's seeded stream, so the
        same seed gives the same schedule in every run — the chaos
        experiment's whole fault plan is reproducible from one integer.
        """
        for shard_id in range(n_shards):
            self.kill_at_batch(
                shard_id,
                at=self._rng.randint(1, max(1, within_batches)),
                incarnation=incarnation,
            )
        return self

    def plan_for(self, shard_id: int, incarnation: int = 0) -> ShardFaultPlan | None:
        """The picklable slice for one worker process; ``None`` when empty."""
        plan = ShardFaultPlan(shard_id, incarnation, self.events)
        return plan if plan._events else None
