"""The worker pool: N supervised processes, each owning a slice of plan keys.

:class:`SupervisedWorkerPool` is the scale tier's only pool.  It compiles
every incoming query **once** in the parent process — for its canonical
key, hashed once — and routes the statement, exactly as submitted, to the
shard that consistently owns that key, so each worker's plan/result/mask/
inference caches see a stable key range and stay hot across batches.  What
crosses the pipe per request is the statement and the key; the worker plans
the statement itself and refuses a key it does not reproduce.  Workers
rebuild the same deterministic model from a :class:`WorkerSpec` (same inputs
+ seed => bit-identical answers), which is what makes pool results exactly
``==`` in-process ``execute_batch`` — and keeps them so while workers die
and come back:

* **Crash detection.**  Every pipe conversation classifies its failure:
  EOF / broken pipe, a reply deadline that expires with the process's
  ``exitcode`` already set, or a missed heartbeat ping all become a typed
  :class:`~repro.exceptions.WorkerCrashedError` instead of a hang; a live
  but silent worker is a retryable
  :class:`~repro.exceptions.DispatchTimeoutError` naming the shard, and its
  eventual stale reply is discarded by sequence number.

* **Deterministic respawn.**  A crashed shard is rebuilt from the stored
  spec and the recorded ``refit()``/``add_aggregate()`` broadcast log is
  replayed into it, landing it on the **same model** as the survivors
  (asserted on the count of logged broadcasts it reports having applied
  against the length of the log, the same all-workers-agree invariant
  ``refit()`` enforces).

* **Retry + failover.**  Requests hit by a retryable failure are
  re-dispatched with exponential backoff and seeded jitter, bounded by a
  retry budget and the batch's deadline.  While a shard is down its keys
  walk clockwise to the next *live* shard on the ring (cold caches, same
  bits) and return home after the respawn — routing is a pure function of
  ``(key, live set)``.  This is the only retry layer in the tier.

* **Degradation is typed.**  Only when *every* shard has exhausted its
  respawn budget does the pool give up: every request then fails with
  :class:`~repro.exceptions.DegradedModeError`.

Failure granularity is per *request*: one statement that does not compile,
one worker-side query error or one crashed shard fails (or retries) only its
own requests while the rest of the batch's answers stand.

Concurrency: the pool owns no thread and no event loop.  Its coroutines —
the batch dispatch, broadcasts, heartbeats, respawns — run on whatever loop
awaits them, and a pipe is only ever spoken to by
:meth:`SupervisedWorkerPool._converse`, whose docstring is the table of
which operations commute per shard and how the rest are ordered; that
table, not thread or loop bookkeeping, is the concurrency control, so
concurrent use belongs on one loop; use on one loop after another is fine
(the pool takes fresh locks on a loop it has not run on).
``AsyncServingFrontend.start()`` makes its loop the pool's *serving loop*
(:meth:`SupervisedWorkerPool.start`), where a socket request reaches the
pipe without leaving its thread.  The
few blocking methods (``execute_batch``, ``refit``, ``describe``, ...) run
one coroutine to the end: on the serving loop from any other thread, or,
with none running, on a fresh loop of their own.

Lifecycle: ``close()`` escalates ``join`` -> ``terminate`` -> ``kill`` so a
wedged worker can never outlive the pool, and every open pool is registered
with an ``atexit`` guard — a crashed test run or an exception path that
skips ``close()`` still reaps its worker processes instead of leaking
orphans.
"""

from __future__ import annotations

import asyncio
import atexit
import multiprocessing as mp
import random
import threading
import time
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Coroutine, Sequence

from ...exceptions import (
    CircuitOpenError,
    DegradedModeError,
    DispatchTimeoutError,
    RetryExhaustedError,
    ThemisError,
    WorkerCrashedError,
)
from ...obs import names
from ...obs.metrics import MetricsRegistry
from ...plan import PlanCompiler, PlanKey
from ...query.ast import Query
from ..governance import CircuitBreaker, CircuitBreakerConfig
from .faults import FaultInjector
from .shard import ShardRouter, stable_key_hash
from .worker import (
    CMD_ADD_AGGREGATE,
    CMD_BATCH,
    CMD_DESCRIBE,
    CMD_PING,
    CMD_REFIT,
    CMD_SHUTDOWN,
    WorkerSpec,
    worker_main,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...aggregates import AggregateQuery
    from ...core import Themis

#: What a pipe conversation yields in place of a reply: both are retryable.
_TRANSPORT_FAILURES = (WorkerCrashedError, DispatchTimeoutError)

#: How worker processes start: ``fork`` (cheap, shares the loaded
#: interpreter) where the platform has it, else the platform's first method.
START_METHOD = (
    "fork" if "fork" in mp.get_all_start_methods() else mp.get_all_start_methods()[0]
)

#: Retry backoff: attempt *k* sleeps ``min(BACKOFF_CAP, backoff_base *
#: 2**(k-1))`` seconds, scaled by ``1 + BACKOFF_JITTER * u``.
BACKOFF_CAP = 1.0
BACKOFF_JITTER = 0.25

#: Reply deadline (seconds) for replaying the broadcast log into a respawn.
RESPAWN_TIMEOUT = 60.0


def batch_payload(
    requests: list[tuple[Query | str, PlanKey]], deadline_ts: float | None
) -> dict[str, Any]:
    """Build one CMD_BATCH payload: requests plus the remaining deadline budget.

    A request is the statement exactly as submitted (SQL text or AST) paired
    with the canonical key this process compiled it to; the worker executes
    nothing until it has reproduced every key.

    ``deadline_ts`` is the absolute ``time.monotonic`` timestamp a request
    was given at ``MicroBatcher.submit()``; this is the one place it becomes
    a relative budget, measured at send time, so retries and queued
    sub-batches ship only what is actually left.  The worker arms a fresh
    token from it on its own clock and cancels cooperatively if the batch
    overruns.
    """
    remaining = (
        None if deadline_ts is None else max(0.0, deadline_ts - time.monotonic())
    )
    return {"requests": requests, "deadline": remaining}


#: Every open pool, reaped at interpreter exit if ``close()`` was skipped
#: (a crashed test run must not leak orphan worker processes).
_LIVE_POOLS: "weakref.WeakSet[SupervisedWorkerPool]" = weakref.WeakSet()


@atexit.register
def _close_leaked_pools() -> None:  # pragma: no cover - exit-path safety net
    for pool in list(_LIVE_POOLS):
        try:
            pool.close(join_timeout=1.0)
        except Exception:
            pass


class _Worker:
    """Parent-side handle for one worker process: pipe, turn lock, sequence."""

    def __init__(
        self,
        context,
        spec: WorkerSpec,
        shard_id: int,
        fault_plan: Any = None,
        incarnation: int = 0,
    ):
        self.shard_id = shard_id
        self.incarnation = incarnation
        self.conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=worker_main,
            args=(spec, child_conn, shard_id, fault_plan, incarnation),
            name=f"themis-shard-{shard_id}-gen{incarnation}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        # Whose turn it is on this pipe: held from before a conversation's
        # command is sent until this shard's reply has landed.
        self.lock = asyncio.Lock()
        self._seq = 0

    def send(self, command: str, payload: Any) -> int:
        """Send one request; its sequence number.  A dead pipe is a typed crash."""
        self._seq += 1
        try:
            self.conn.send((command, self._seq, payload))
        except (BrokenPipeError, ConnectionError, OSError) as error:
            # Chained without the frames inside ``Connection.send``: they hold
            # the pickle buffer and a view onto it, which the cycle collector
            # frees in the wrong order (an unraisable BufferError) when this
            # error — kept as a reply, and as ``last_error`` — finally goes.
            raise WorkerCrashedError(
                "worker pipe broke on send",
                shard_id=self.shard_id,
                reason="pipe-broken",
            ) from error.with_traceback(None)
        return self._seq

    def receive(self) -> tuple[int, str, Any]:
        """Take one ``(seq, status, body)`` reply off a readable pipe.

        The body of an error reply is the worker-side exception itself; a
        dead pipe (EOF) is a typed :class:`WorkerCrashedError`.
        """
        try:
            return self.conn.recv()
        except (EOFError, ConnectionError, OSError) as error:
            raise WorkerCrashedError(
                "worker pipe reached EOF mid-conversation",
                shard_id=self.shard_id,
                reason="pipe-eof",
            ) from error

    def deadline_error(self) -> ThemisError:
        """What a reply deadline that expired means for this worker.

        With the process already dead it is a :class:`WorkerCrashedError`;
        with the process still alive a :class:`DispatchTimeoutError` (slow
        or dropped reply — retryable, not a crash).
        """
        if self.process.exitcode is not None:
            return WorkerCrashedError(
                "worker process died before replying",
                shard_id=self.shard_id,
                reason="exitcode",
            )
        return DispatchTimeoutError(
            "worker missed the dispatch timeout",
            shard_id=self.shard_id,
        )

    def reap(self, join_timeout: float) -> None:
        """Join the process, escalating ``terminate`` -> ``kill`` if it hangs.

        Never raises: this runs on normal close, on crash recovery, and from
        the ``atexit`` guard during interpreter shutdown — where the
        multiprocessing machinery may already be partially torn down and any
        of ``join``/``terminate``/``kill`` can fail.  A reap that cannot
        finish must not mask the error (or the other workers' reaps) behind
        it.
        """
        try:
            self.process.join(join_timeout)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(join_timeout)
            if self.process.is_alive():  # pragma: no cover - SIGTERM-proof
                self.process.kill()
                self.process.join(join_timeout)
        except Exception:  # pragma: no cover - interpreter-shutdown races
            pass
        try:
            self.conn.close()
        except Exception:  # pragma: no cover - already closed / torn down
            pass


@dataclass
class RequestOutcome:
    """One request's fate: an answer or a typed error.

    ``ok`` outcomes carry the bit-identical ``value``; failures carry the
    typed ``error`` (:class:`RetryExhaustedError`,
    :class:`DegradedModeError`, or the fatal compile/query error itself).
    The micro-batcher settles each future from its own outcome.
    """

    ok: bool
    value: Any = None
    error: BaseException | None = None


class SupervisedWorkerPool:
    """N worker processes answering plan batches sharded by canonical key.

    Parameters
    ----------
    themis:
        The parent facade.  Its sample/aggregates/config are captured into a
        :class:`WorkerSpec`; each worker rebuilds and fits its own copy
        (deterministic, so answers are bit-identical to the parent).
    n_workers:
        Shard count.  One ``ServingSession`` per worker.
    timeout:
        Default per-conversation reply timeout in seconds; ``None`` waits
        forever.  Start-up is not bound by it: every worker fits its model
        before its first reply, which gets :data:`RESPAWN_TIMEOUT`.
    metrics:
        Registry for pool counters/gauges/histograms; a private one is
        created when omitted.
    fault_injector:
        Optional deterministic :class:`FaultInjector` schedule threaded
        into every worker incarnation (tests and chaos experiments only).
    max_retries:
        Retryable-failure re-dispatches allowed per ``execute_batch`` call
        before the affected requests fail with :class:`RetryExhaustedError`.
    backoff_base, retry_seed:
        Exponential backoff between retries: attempt *k* sleeps
        ``min(BACKOFF_CAP, base * 2**(k-1))`` scaled by
        ``1 + BACKOFF_JITTER * u`` with ``u`` drawn from a
        ``random.Random(retry_seed)`` stream — jittered but reproducible.
    max_respawns:
        Respawn budget per shard; a shard that exhausts it is permanently
        dead (with every shard dead, requests fail with
        :class:`~repro.exceptions.DegradedModeError`).  A respawn has
        :data:`RESPAWN_TIMEOUT` seconds per reply to replay the broadcast log.
    heartbeat_interval / heartbeat_timeout / heartbeat_misses_to_kill:
        Liveness probing: every ``interval`` seconds each idle shard is
        pinged; ``misses_to_kill`` consecutive unanswered pings (each
        waiting ``timeout`` seconds) get the worker terminated and
        respawned.  The prober is a task on the serving loop, started by
        :meth:`start`; ``interval=None`` (default) disables it — crashes
        are still detected at dispatch time, and
        :meth:`check_heartbeats` runs one pass on demand.
    circuit_breaker:
        Per-shard circuit breaking (default off).  ``True`` enables breakers
        with :class:`~repro.serving.governance.CircuitBreakerConfig`
        defaults; a config instance tunes them.  A shard whose recent
        dispatches keep failing is *opened*: its keys fail over on the ring
        immediately instead of burning a dispatch timeout per batch, and
        after the cooldown one half-open probe decides whether it rejoins.
        When every live shard's breaker is open, requests fail fast with the
        retryable :class:`~repro.exceptions.CircuitOpenError` carrying the
        soonest ``retry_after_hint``.
    """

    def __init__(
        self,
        themis: "Themis",
        n_workers: int = 2,
        timeout: float | None = None,
        metrics: MetricsRegistry | None = None,
        fault_injector: FaultInjector | None = None,
        max_retries: int = 3,
        backoff_base: float = 0.05,
        retry_seed: int = 0,
        max_respawns: int = 3,
        heartbeat_interval: float | None = None,
        heartbeat_timeout: float = 1.0,
        heartbeat_misses_to_kill: int = 3,
        circuit_breaker: CircuitBreakerConfig | bool | None = None,
    ):
        if n_workers < 1:
            raise ValueError(f"need at least one worker, got {n_workers}")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        self._themis = themis
        self.n_workers = n_workers
        self._timeout = timeout
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._fault_injector = fault_injector
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.max_respawns = max_respawns
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.heartbeat_misses_to_kill = heartbeat_misses_to_kill
        self._rng = random.Random(retry_seed)
        self._heartbeat_misses: dict[int, int] = {}
        self._broadcast_log: list[tuple[str, Any]] = []
        self._breakers: dict[int, CircuitBreaker] | None = None
        if circuit_breaker:
            config = (
                circuit_breaker
                if isinstance(circuit_breaker, CircuitBreakerConfig)
                else CircuitBreakerConfig()
            )
            self._breakers = {
                shard_id: CircuitBreaker.from_config(config)
                for shard_id in range(n_workers)
            }
        self.router = ShardRouter(n_workers)
        # The parent compiles for the routing key only; workers plan the
        # statement themselves and verify that key on the far side of the pipe.
        self._compiler = PlanCompiler(themis.sample.schema)
        # The spec and context are kept so crashed shards respawn from the
        # same deterministic recipe the pool started from.
        self._spec = WorkerSpec.from_themis(themis)
        self._context = mp.get_context(START_METHOD)
        self._workers = [
            self._spawn_worker(shard_id, 0) for shard_id in range(n_workers)
        ]
        self._live: set[int] = set(range(n_workers))
        self._dead: set[int] = set()
        # Respawns, and the replay log they read, change under this lock.
        self._supervision = asyncio.Lock()
        # The loop the locks were last used on (:meth:`_bind_locks`).
        self._locks_loop: asyncio.AbstractEventLoop | None = None
        #: The loop a front-end serves from (:meth:`start`); ``None`` until then.
        self._loop: asyncio.AbstractEventLoop | None = None
        self._heartbeat_task: asyncio.Task | None = None
        self._closed = False
        self._close_lock = threading.Lock()
        _LIVE_POOLS.add(self)
        self.metrics.gauge(names.SCALE_SHARDS).set(n_workers)
        self._dispatch_seconds = self.metrics.histogram(names.SCALE_DISPATCH_SECONDS)
        # Baseline coherence: every initial worker rebuilt the same model,
        # so their facade generations agree.  Only here: from now on a lazy
        # fit moves that counter on one shard alone, and agreement is held
        # on the logged broadcasts a worker reports having applied.  Asked
        # over the bare pipes, blocking: no loop may exist yet, and nothing
        # else can reach the workers.  A worker fits its model before it
        # answers, so it gets a fresh worker's budget, not the reply timeout.
        try:
            generations = set()
            for worker in self._workers:
                worker.send(CMD_DESCRIBE, None)
                if not worker.conn.poll(RESPAWN_TIMEOUT):
                    raise worker.deadline_error()
                _, _, body = worker.receive()
                if isinstance(body, BaseException):
                    raise body
                generations.add(body["generation"])
            if len(generations) != 1:  # pragma: no cover - deterministic build
                raise ThemisError(
                    f"initial worker generations diverged: {sorted(generations)}"
                )
        except BaseException:
            self.close(join_timeout=1.0)
            raise

    def _spawn_worker(self, shard_id: int, incarnation: int) -> _Worker:
        injector = self._fault_injector
        plan = None if injector is None else injector.plan_for(shard_id, incarnation)
        return _Worker(self._context, self._spec, shard_id, plan, incarnation)

    # ------------------------------------------------------------------
    # The serving loop, and blocking calls from synchronous code
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Make the running loop the serving loop, and start heartbeats there.

        ``AsyncServingFrontend.start()`` calls this before it serves.  From
        here the blocking methods, called from any other thread, run their
        coroutine on this loop, and the heartbeat prober (if configured) is
        a task on it.
        """
        self._loop = asyncio.get_running_loop()
        if self.heartbeat_interval is not None and self._heartbeat_task is None:
            self._heartbeat_task = self._loop.create_task(self._heartbeat_loop())

    def _runner(self) -> Callable[[Coroutine[Any, Any, Any]], Any]:
        """How a blocking method runs its coroutine to the end — or refuses.

        A thread whose own event loop is running is refused with
        ``RuntimeError``: blocking there would stall that loop, or wait for
        itself if it is the serving loop.  Await the coroutine there, or
        make the blocking call through ``asyncio.to_thread``.  The refusal
        comes before the caller builds its coroutine, so a refused call has
        changed nothing.  From any other thread the coroutine runs on the
        serving loop if one is running, else on a fresh loop of its own.
        """
        if self._closed:
            raise ThemisError("worker pool is closed")
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            pass  # no loop runs on this thread: it may block
        else:
            raise RuntimeError(
                "blocking pool call on a running event loop; await the pool's "
                "coroutines there, or call it from another thread "
                "(asyncio.to_thread)"
            )
        loop = self._loop
        if loop is None or not loop.is_running():
            return asyncio.run
        return lambda coro: asyncio.run_coroutine_threadsafe(coro, loop).result()

    def _bind_locks(self, loop: asyncio.AbstractEventLoop) -> None:
        """Give the pool fresh locks when it meets a loop it has not run on.

        An ``asyncio.Lock`` that was ever contended stays bound to the loop
        it was contended on, and one pool meets several: one per
        ``asyncio.run`` of a blocking call, then the serving loop.  Whatever
        ran on the last loop has finished (concurrent use belongs on one
        loop), so no conversation holds the old locks.  Called before a lock
        is taken: by :meth:`_converse` (whose crashes are handled after it,
        on its loop), the broadcast log and :meth:`aclose`.
        """
        if loop is not self._locks_loop:
            self._locks_loop = loop
            self._supervision = asyncio.Lock()
            for worker in self._workers:
                worker.lock = asyncio.Lock()

    # ------------------------------------------------------------------
    # The one pipe conversation
    # ------------------------------------------------------------------
    async def _converse(
        self,
        workers: Sequence[_Worker],
        command: str,
        payload_for: Callable[[_Worker], Any],
        timeout: float | None,
        on_reply: Callable[[_Worker, Any], None] | None = None,
    ) -> list[Any]:
        """Converse with these shards concurrently; one classified reply each.

        The only place a pipe is spoken to — batches, broadcasts, heartbeat
        pings and respawn replay all come through here, on the running loop.
        ``workers`` must be in ascending shard order.  The conversation is
        two-phase: every worker's lock is taken, in that order (so two
        conversations cannot deadlock), before anything is sent; everything
        is sent before anything is awaited (so the shards work
        concurrently); and a shard's lock is released the moment *its* reply
        has landed, when ``on_reply(worker, reply)`` runs — a batch's
        answers leave shard by shard, not when the slowest shard is done.
        ``payload_for(worker)`` runs at send time, under the lock: a batch
        payload measures its remaining deadline budget there, at the pipe.

        What commutes, per shard (a worker is one thread behind one pipe, so
        everything on a shard is ordered; the table says which orders can be
        told apart, and so which the locks must pin):

        =====================  ================================================
        batch x batch          commute: an answer is a function of (model
                               snapshot, statement), caches only memoise it.  Ordered per
                               shard by lock arrival, free across shards.
        batch x describe/ping  commute (read-only).  The heartbeat skips a
                               shard whose lock is held — a conversation in
                               progress is proof enough of life.
        batch x refit /        do **not** commute: the broadcast swaps in a
        add_aggregate          new model, and its caches with it.  Serialised
                               *whole*: neither sends before it holds every one
                               of its locks, and neither lets go of a shard
                               before that shard has done its part, so on every
                               shard they share the same one goes first — a
                               batch sees a concurrent ``refit()`` on none of
                               its shards or on all of them, never a mix.
        broadcast x broadcast  do not commute (generation and replay-log
                               order).  Serialised whole, in call order: the
                               log entry is appended in the same loop turn the
                               conversation queues for its first lock, and the
                               locks are FIFO.
        respawn replay         speaks to a replacement nobody else can reach
                               until it is published, so it contends with
                               nothing; a logged broadcast waits for respawns
                               in flight, and a respawn that starts later has
                               the entry in its replay — either way the shard
                               has applied what the survivors have.
        shutdown               is written straight to each pipe, where the
                               worker reads it after the command it is on;
                               ``close()`` then waits for each lock before it
                               reaps, so no conversation loses its pipe.
        =====================  ================================================

        Releasing per shard keeps none-or-all because it is still two-phase
        locking: no lock is released before the last one is acquired, so for
        any two conversations the one that held all its locks first is first
        on every shard they share.  The unit is one conversation, not one
        ``execute_batch`` call: requests retried after a crash or timeout
        form a new conversation and may land behind a refit their first
        attempt preceded.

        Each slot of the result is the worker's reply body (a dict), or the
        exception that stands in for it: :class:`WorkerCrashedError` (dead
        pipe or process), :class:`DispatchTimeoutError` (alive but silent
        past ``timeout`` — its eventual reply is discarded, by sequence
        number, by the next conversation on that pipe), or the worker-side
        error the shard sent back.  Cancelling the conversation leaves no
        reader registered and no lock held.  Crashed shards are respawned
        before returning, after every lock is released.
        """
        loop = asyncio.get_running_loop()
        self._bind_locks(loop)
        replies: dict[_Worker, Any] = {}
        awaited: dict[_Worker, int] = {}
        held: list[_Worker] = []
        all_landed = loop.create_future()

        def land(worker: _Worker, reply: Any) -> None:
            if awaited.pop(worker, None) is not None:
                loop.remove_reader(worker.conn.fileno())
            replies[worker] = reply
            held.remove(worker)
            worker.lock.release()
            if len(replies) == len(workers) and not all_landed.done():
                all_landed.set_result(None)
            if on_reply is not None:
                on_reply(worker, reply)

        def readable(worker: _Worker) -> None:
            try:
                seq, _status, body = worker.receive()
            except WorkerCrashedError as error:
                land(worker, error)
                return
            if seq < awaited[worker]:
                return  # left over from a timed-out conversation
            if seq > awaited[worker]:
                body = ThemisError(
                    f"shard {worker.shard_id} replied to request {seq} before "
                    f"{awaited[worker]}: protocol violation"
                )
            land(worker, body)

        try:
            for worker in workers:
                await worker.lock.acquire()
                held.append(worker)
            for worker in workers:
                try:
                    awaited[worker] = worker.send(command, payload_for(worker))
                except WorkerCrashedError as error:
                    land(worker, error)
                else:
                    loop.add_reader(worker.conn.fileno(), readable, worker)
            if awaited:
                try:
                    await asyncio.wait_for(all_landed, timeout)
                except asyncio.TimeoutError:
                    for worker in list(awaited):
                        land(worker, worker.deadline_error())
        finally:
            for worker in awaited:
                loop.remove_reader(worker.conn.fileno())
            for worker in held:
                worker.lock.release()
        for worker in workers:
            if isinstance(replies[worker], WorkerCrashedError):
                await self._handle_crash(worker)
        return [replies[worker] for worker in workers]

    # ------------------------------------------------------------------
    # Liveness bookkeeping
    # ------------------------------------------------------------------
    def live_shards(self) -> set[int]:
        """Shards currently accepting dispatches."""
        return set(self._live)

    def dead_shards(self) -> set[int]:
        """Shards that exhausted their respawn budget (permanently down)."""
        return set(self._dead)

    async def _handle_crash(self, worker: _Worker) -> None:
        """Record one worker death and respawn its shard (idempotent).

        A no-op for a worker that is not (or no longer) the published
        incarnation of its shard: it is a replacement still being replayed
        into — whose respawn, holding the lock, deals with it — or someone
        else who saw the same crash handled it while this caller waited.
        """
        shard_id = worker.shard_id
        if self._workers[shard_id] is not worker:
            return
        async with self._supervision:
            if (
                self._closed
                or self._workers[shard_id] is not worker
                or shard_id in self._dead
            ):
                return
            self.metrics.counter(names.SCALE_FAULT_CRASHES).inc()
            self._live.discard(shard_id)
            self._heartbeat_misses.pop(shard_id, None)
            try:
                await self._respawn(worker)
            except asyncio.CancelledError:
                # Left neither live nor dead, the shard would never be tried
                # again: back among the live, its dead pipe restarts this.
                self._live.add(shard_id)
                raise

    async def _respawn(self, crashed: _Worker) -> None:
        """Reap one crashed worker and respawn its shard from the replay log.

        Each try burns one respawn credit; a shard that runs out joins the
        permanently dead set.  A replacement that is not published — it
        died in replay, missed a logged broadcast, or the caller was
        cancelled — is killed here: nobody else knows it.
        """
        shard_id = crashed.shard_id
        await asyncio.get_running_loop().run_in_executor(None, crashed.reap, 0.5)
        replay = [*self._broadcast_log, (CMD_DESCRIBE, None)]
        # A shard's incarnation number is the respawn credit it has burnt.
        incarnation = crashed.incarnation
        while not self._closed and incarnation < self.max_respawns:
            incarnation += 1
            started = time.perf_counter()
            worker = self._spawn_worker(shard_id, incarnation)
            try:
                for command, payload in replay:
                    (body,) = await self._converse(
                        [worker], command, lambda _: payload, RESPAWN_TIMEOUT
                    )
                    if isinstance(body, BaseException):
                        break
                    if command != CMD_DESCRIBE:
                        self.metrics.counter(
                            names.SCALE_FAULT_REPLAYED_BROADCASTS
                        ).inc()
                if isinstance(body, WorkerCrashedError):
                    # Died again during replay (e.g. a crash-during-refit
                    # schedule): burn another respawn credit.
                    continue
                if isinstance(body, BaseException):
                    raise body
                if body["broadcasts"] != len(self._broadcast_log):
                    raise ThemisError(
                        f"respawned shard {shard_id} applied "
                        f"{body['broadcasts']} logged broadcasts, expected "
                        f"{len(self._broadcast_log)}: broadcast-log replay "
                        f"lost coherence"
                    )
                self._workers[shard_id] = worker
            finally:
                if self._workers[shard_id] is not worker:
                    worker.process.kill()
                    worker.reap(0.5)
            self._live.add(shard_id)
            self.metrics.counter(names.SCALE_FAULT_RESPAWNS).inc()
            self.metrics.histogram(names.SCALE_RESPAWN_SECONDS).record(
                time.perf_counter() - started
            )
            return
        self._dead.add(shard_id)

    # ------------------------------------------------------------------
    # Serving with retry / failover
    # ------------------------------------------------------------------
    def execute_batch(
        self,
        queries: Sequence[Query | str],
        timeout: float | None = None,
        deadline_ts: float | None = None,
    ) -> list[Any]:
        """:meth:`dispatch`, blocking: answers in order, or the first failure raised."""
        outcomes: list[RequestOutcome] = [None] * len(queries)  # type: ignore[list-item]
        settle = outcomes.__setitem__
        self._runner()(self.dispatch(queries, settle, timeout, deadline_ts))
        for outcome in outcomes:
            if not outcome.ok:
                raise outcome.error
        return [outcome.value for outcome in outcomes]

    async def dispatch(
        self,
        queries: Sequence[Query | str],
        settle: Callable[[int, RequestOutcome], None],
        timeout: float | None = None,
        deadline_ts: float | None = None,
    ) -> None:
        """Serve a batch, settling each request as soon as its shard answers.

        ``settle(index, outcome)`` is called exactly once per query, with
        one :class:`RequestOutcome`, the moment that request's fate is known
        — when its shard's reply is classified, not when the slowest shard
        of the batch is done; a retried request settles on the round that
        answers it.

        Compiles each query once for its canonical key and hashes that key
        once (a statement that fails to compile fails only its own
        outcome), then loops: route the still-pending requests over the
        *live* shards (failover for keys whose home shard is down), send
        each shard its statements and their keys, converse with all of them
        concurrently, classify each shard's reply as it lands, back off, and
        go again — until everything is answered, the retry/deadline budget
        runs out (:class:`RetryExhaustedError`), or no shard is left
        (:class:`DegradedModeError`).  Answers are exactly ``==`` what
        in-process ``ServingSession.execute_batch`` returns for the same
        queries.

        ``timeout`` bounds each round's wait for a shard's reply (default:
        the constructor's).  ``deadline_ts`` is an absolute
        ``time.monotonic`` timestamp bounding the whole call: retries never
        start once it would be overrun, and what is left of it ships inside
        every batch payload so an overrunning worker cancels itself
        cooperatively at a chunk boundary — a typed
        :class:`~repro.exceptions.DeadlineExceededError` instead of a
        parent-side timeout racing a still-computing shard.
        """
        if self._closed:
            raise ThemisError("worker pool is closed")
        if timeout is None:
            timeout = self._timeout
        started = time.perf_counter()

        def fail(indices: list[int], error: BaseException) -> None:
            outcome = RequestOutcome(ok=False, error=error)
            for index in indices:
                settle(index, outcome)

        routing: dict[int, tuple[PlanKey, int]] = {}
        for index, query in enumerate(queries):
            try:
                key = self._compiler.compile(query).key
                routing[index] = (key, stable_key_hash(key))
            except ThemisError as error:
                fail([index], error)
        pending = list(routing)
        retry: list[int] = []
        by_shard: dict[int, list[int]] = {}
        attempt = 0
        last_error: BaseException | None = None

        def payload_for(worker: _Worker) -> dict[str, Any]:
            return batch_payload(
                [(queries[i], routing[i][0]) for i in by_shard[worker.shard_id]],
                deadline_ts,
            )

        def classify(worker: _Worker, reply: Any) -> None:
            nonlocal last_error
            indices = by_shard[worker.shard_id]
            # Crashes and missed reply deadlines are breaker failures and
            # retry; any reply — even a worker-side query error, which
            # retrying would only reproduce — proves the shard responsive.
            retryable = isinstance(reply, _TRANSPORT_FAILURES)
            self._record_breaker(worker.shard_id, ok=not retryable)
            if retryable:
                retry.extend(indices)
                last_error = reply
            elif isinstance(reply, BaseException):
                fail(indices, reply)
            else:
                for index, value in zip(indices, reply["results"]):
                    settle(index, RequestOutcome(ok=True, value=value))
                self._fold_worker_stats(reply)

        while pending:
            if self._closed:
                fail(pending, ThemisError("worker pool is closed"))
                break
            live = self.live_shards()
            if not live:
                error = DegradedModeError(
                    f"all {self.n_workers} shards are permanently down "
                    f"(respawn budget {self.max_respawns} exhausted on every shard)"
                )
                fail(pending, error)
                break
            allowed = self._allowed_shards(live)
            if not allowed:
                # Every live shard's breaker is open: fail fast with the
                # retryable CircuitOpenError instead of burning a dispatch
                # timeout against shards known to be sick.
                hint = min(
                    self._breakers[shard_id].retry_after() for shard_id in live
                )
                fail(
                    pending,
                    CircuitOpenError(
                        "all live shards have open circuit breakers",
                        retry_after_hint=hint,
                    ),
                )
                break

            round_timeout = timeout
            if deadline_ts is not None:
                remaining = deadline_ts - time.monotonic()
                if remaining <= 0:
                    fail(pending, self._exhausted(attempt, last_error, "deadline"))
                    break
                round_timeout = (
                    remaining if timeout is None else min(timeout, remaining)
                )

            by_shard.clear()
            for index in pending:
                key_hash = routing[index][1]
                shard_id = self.router.shard_for_hash(key_hash, live=allowed)
                if shard_id != self.router.shard_for_hash(key_hash):
                    self.metrics.counter(names.SCALE_FAULT_FAILOVERS).inc()
                by_shard.setdefault(shard_id, []).append(index)
            for shard_id, indices in by_shard.items():
                self.metrics.counter(names.shard_counter(shard_id)).inc(len(indices))
            workers = [self._workers[shard_id] for shard_id in sorted(by_shard)]
            await self._converse(
                workers, CMD_BATCH, payload_for, round_timeout, classify
            )
            pending, retry = retry, []
            if not pending:
                break
            attempt += 1
            backoff = min(BACKOFF_CAP, self.backoff_base * (2 ** (attempt - 1)))
            backoff *= 1.0 + BACKOFF_JITTER * self._rng.random()
            if attempt > self.max_retries:
                fail(pending, self._exhausted(attempt, last_error, "retry"))
                break
            if deadline_ts is not None and (
                time.monotonic() + backoff >= deadline_ts
            ):
                fail(pending, self._exhausted(attempt, last_error, "deadline"))
                break
            self.metrics.counter(names.SCALE_FAULT_RETRIES).inc(len(pending))
            if backoff > 0:
                await asyncio.sleep(backoff)

        self.metrics.counter(names.SCALE_POOL_BATCHES).inc(1)
        self._dispatch_seconds.record(time.perf_counter() - started)

    def _fold_worker_stats(self, body: dict[str, Any]) -> None:
        for field_name, value in body.get("optimizer", {}).items():
            if value:
                self.metrics.counter(names.optimizer_counter(field_name)).inc(value)

    def compile_batch(self, queries: Sequence[Query | str]) -> list[Any]:
        """Compile every query (SQL text or AST) once, in submission order."""
        return [self._compiler.compile(query) for query in queries]

    def _allowed_shards(self, live: set[int]) -> set[int]:
        """Live shards whose circuit breakers admit traffic right now.

        Without breakers this is ``live`` itself.  An *open* breaker whose
        cooldown has elapsed admits its shard for exactly one half-open
        probe round (counted); shards refused here fail over on the ring
        like dead ones, but keep their process and caches.
        """
        if self._breakers is None:
            return live
        allowed: set[int] = set()
        for shard_id in sorted(live):
            breaker = self._breakers[shard_id]
            was_open = breaker.state == CircuitBreaker.STATE_OPEN
            if breaker.allow():
                if was_open:
                    self.metrics.counter(names.GOVERNANCE_BREAKER_PROBES).inc()
                allowed.add(shard_id)
            else:
                self.metrics.counter(names.GOVERNANCE_BREAKER_REJECTIONS).inc()
        return allowed

    def _record_breaker(self, shard_id: int, ok: bool) -> None:
        """Feed one dispatch outcome to the shard's breaker (if enabled)."""
        if self._breakers is None:
            return
        breaker = self._breakers[shard_id]
        if ok:
            breaker.record_success()
            return
        opened_before = breaker.times_opened
        breaker.record_failure()
        if breaker.times_opened > opened_before:
            self.metrics.counter(names.GOVERNANCE_BREAKER_OPENED).inc()

    @staticmethod
    def _exhausted(
        attempts: int, last_error: BaseException | None, budget: str
    ) -> BaseException:
        if attempts <= 1 and last_error is not None:
            # Nothing was ever retried (max_retries=0 or an instantly spent
            # deadline): surface the single attempt's own typed error.
            return last_error
        return RetryExhaustedError(
            f"request abandoned: {budget} budget exhausted",
            attempts=attempts,
            last_error=last_error,
        )

    # ------------------------------------------------------------------
    # Coherent invalidation
    # ------------------------------------------------------------------
    def add_aggregate(self, aggregate: "AggregateQuery") -> None:
        """Register one aggregate on the parent and every worker."""
        run = self._runner()  # refuses before the parent changes, not after
        self._themis.add_aggregate(aggregate)
        run(self._broadcast_logged(CMD_ADD_AGGREGATE, aggregate))

    def refit(self) -> int:
        """Refit the parent and every worker, and assert they agree.

        The parent's own refit runs on the calling thread, not on a loop.
        Every worker discards its model and rebuilds from its (updated)
        registered inputs.  A worker that dies mid-broadcast is respawned
        with the refit already in its replay log, so it lands on the same
        model; the all-workers-agree assertion then runs over live and
        respawned workers alike — a shard that missed a broadcast would
        serve stale cache entries forever, and is raised loudly rather than
        tolerated.

        Agreement is on the number of logged broadcasts each worker reports
        having applied (``describe()``'s ``"broadcasts"``), which is also
        what is returned.  A worker's facade generation is only its model's
        id: the shard that served the first batch after an
        ``add_aggregate()`` fitted lazily and is one generation ahead.
        """
        run = self._runner()  # refuses before the parent changes, not after
        self._themis.refit()
        return run(self._refit_workers())

    async def _refit_workers(self) -> int:
        bodies = await self._broadcast_logged(CMD_REFIT, None)
        expected = len(self._broadcast_log)
        applied = {body["broadcasts"] for body in bodies if body is not None}
        if not applied:
            raise DegradedModeError(
                "refit broadcast found no live shard to acknowledge it"
            )
        if applied != {expected}:
            raise ThemisError(
                f"workers diverged after refit broadcast: logged broadcasts "
                f"applied {sorted(applied)} != expected {expected}"
            )
        return expected

    def describe(self) -> list[dict[str, Any] | None]:
        """Per-shard state snapshots; ``None`` for permanently dead shards."""
        return self._runner()(self._broadcast(CMD_DESCRIBE, None, False))

    async def _broadcast_logged(self, command: str, payload: Any) -> list[Any]:
        """Log one generation-bumping command for respawn replay, then send it.

        The lock waits out a respawn in flight: its replay was cut before
        this entry.  One that starts later has it.
        """
        self._bind_locks(asyncio.get_running_loop())
        async with self._supervision:
            self._broadcast_log.append((command, payload))
        return await self._broadcast(command, payload, logged=True)

    async def _broadcast(self, command: str, payload: Any, logged: bool) -> list[Any]:
        """One command to every live shard; reply bodies in shard order.

        A shard that crashes — or, the command being cheap, misses the reply
        timeout and so is wedged — is respawned and asked again.  ``logged``
        commands are already in the replay log when this runs, so the
        respawn applied them: the replacement is sent a describe instead of
        the command a second time.
        """
        bodies: list[Any] = [None] * self.n_workers
        workers = [self._workers[shard_id] for shard_id in sorted(self._live)]
        replies = await self._converse(
            workers, command, lambda _: payload, self._timeout
        )
        for worker, reply in zip(workers, replies):
            shard_id = worker.shard_id
            if isinstance(reply, _TRANSPORT_FAILURES):
                if isinstance(reply, DispatchTimeoutError):
                    await self._handle_crash(worker)
                if shard_id not in self._live:
                    continue  # permanently dead: bodies[shard_id] stays None
                (reply,) = await self._converse(
                    [self._workers[shard_id]],
                    CMD_DESCRIBE if logged else command,
                    lambda _: None if logged else payload,
                    RESPAWN_TIMEOUT,
                )
            if isinstance(reply, BaseException):
                raise reply
            bodies[shard_id] = reply
        self.metrics.counter(names.SCALE_BROADCASTS).inc(1)
        return bodies

    # ------------------------------------------------------------------
    # Heartbeat
    # ------------------------------------------------------------------
    async def check_heartbeats(self) -> None:
        """One liveness pass: ping every idle live shard, respawn the dead.

        Shards in a conversation are skipped (an active dispatch proves the
        pipe is alive).  A dead worker's ping meets its dead pipe, which
        respawns the shard.  ``heartbeat_misses_to_kill`` consecutive silent
        pings escalate to terminate + respawn.  The heartbeat task runs
        this pass on its interval; tests await it directly for
        deterministic coverage.
        """
        for shard_id in sorted(self._live):
            worker = self._workers[shard_id]
            if worker.lock.locked():
                continue
            (reply,) = await self._converse(
                [worker], CMD_PING, lambda _: None, self.heartbeat_timeout
            )
            if isinstance(reply, DispatchTimeoutError):
                misses = self._heartbeat_misses.get(shard_id, 0) + 1
                self._heartbeat_misses[shard_id] = misses
                self.metrics.counter(names.SCALE_FAULT_HEARTBEAT_MISSES).inc()
                if misses >= self.heartbeat_misses_to_kill:
                    await self._handle_crash(worker)
            elif not isinstance(reply, BaseException):
                self._heartbeat_misses[shard_id] = 0

    async def _heartbeat_loop(self) -> None:  # pragma: no cover - timing-dependent
        while not self._closed:
            await asyncio.sleep(self.heartbeat_interval)
            try:
                await self.check_heartbeats()
            except Exception:
                # The prober must outlive any single bad pass; dispatch-time
                # detection still covers whatever it missed.
                pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, join_timeout: float = 5.0) -> None:
        """Shut every worker down (idempotent, safe under concurrent calls).

        With the serving loop running, :meth:`aclose` runs there (from any
        other thread).  Without one, the workers are dismissed and reaped
        right here, on any thread — no loop is needed, so this is also what
        a failed constructor and the ``atexit`` guard use.  Code that still
        has pool coroutines running on its own loop awaits :meth:`aclose`
        instead.  The lock makes a second caller wait for the first rather
        than return early.
        """
        with self._close_lock:
            if self._closed:
                return
            if self._loop is not None and self._loop.is_running():
                self._runner()(self.aclose(join_timeout))
            else:
                self._dismiss_workers()
                self._reap_workers(join_timeout)

    async def aclose(self, join_timeout: float = 5.0) -> None:
        """:meth:`close` for callers on a loop (idempotent).

        Polite (a shutdown command, which a worker reads after the
        conversation it is in; the heartbeat task ends, conversations still
        out are waited for) before firm: workers that miss
        ``join(join_timeout)`` are ``terminate()``d, and workers that
        survive *that* are ``kill()``ed — a wedged or signal-masked worker
        cannot leak past ``close()``.  The joins wait on a helper thread,
        not on the loop.
        """
        if self._closed:
            return
        self._dismiss_workers()
        task, self._heartbeat_task = self._heartbeat_task, None
        if task is not None:
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
        self._bind_locks(asyncio.get_running_loop())
        for worker in self._workers:
            async with worker.lock:
                pass  # its pipe is quiet: nothing is registered on it
        await asyncio.get_running_loop().run_in_executor(
            None, self._reap_workers, join_timeout
        )

    def _dismiss_workers(self) -> None:
        """Close the pool to new work and send every worker the shutdown command."""
        self._closed = True
        _LIVE_POOLS.discard(self)
        for worker in self._workers:
            try:
                worker.send(CMD_SHUTDOWN, None)
            except Exception:  # pragma: no cover - dead pipe / shutdown race
                pass

    def _reap_workers(self, join_timeout: float) -> None:
        """Reap every worker; one that cannot be reaped does not stop the rest."""
        for worker in self._workers:
            worker.reap(join_timeout)

    def __enter__(self) -> "SupervisedWorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
