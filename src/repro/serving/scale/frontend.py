"""The asyncio front-end: concurrent clients over the worker pool.

:class:`AsyncServingFrontend` bundles the tier — worker pool, micro-batcher,
shared metrics registry — behind one awaitable ``query()`` call, and
:func:`serve_async` puts a minimal newline-delimited-JSON TCP server in
front of it for out-of-process clients::

    {"id": 1, "sql": "SELECT COUNT(*) FROM R WHERE A = 0"}
    -> {"id": 1, "ok": true, "kind": "scalar", "value": 421.5}

Results are bit-identical to in-process ``execute_batch`` (same plans, same
workers, same kernels — the wire only moves them); the JSON surface is a
lossy *rendering* for external clients, not the identity-bearing format.

Everything between a client's socket and a worker's pipe runs on one event
loop: ``start()`` makes the running loop the pool's serving loop, the
micro-batcher's dispatches are tasks on it, and the pool awaits its pipes
there.  ``refit()`` and the pool's other blocking methods are for *other*
threads, whose calls run on that loop while it keeps answering sockets.
"""

from __future__ import annotations

import asyncio
import json
from typing import TYPE_CHECKING, Any

from ...exceptions import (
    AdmissionRejectedError,
    CircuitOpenError,
    QueryCancelledError,
    ServingOverloadError,
    ThemisError,
)
from ...obs.metrics import MetricsRegistry
from ...query.ast import Query
from ...sql.engine import QueryResult, TableResult
from ..governance import (
    PRIORITY_INTERACTIVE,
    AdmissionController,
    CircuitBreakerConfig,
)
from .microbatch import MicroBatcher
from .pool import SupervisedWorkerPool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...core import Themis
    from .faults import FaultInjector


class AsyncServingFrontend:
    """The whole scale tier behind one object: pool + micro-batcher.

    Parameters
    ----------
    themis:
        The fitted facade to serve (workers rebuild it deterministically).
    n_workers:
        Worker-process (shard) count.
    max_batch_size, max_queue, max_inflight:
        Micro-batcher knobs (see :class:`MicroBatcher`).
    dispatch_timeout:
        Seconds the pool waits for one shard's reply before the affected
        requests retry (the pool's ``timeout``); ``None`` waits forever.
    max_retries, heartbeat_interval, fault_injector:
        Pool knobs (see :class:`SupervisedWorkerPool`): crashed workers are
        respawned with replayed state, affected requests retry with backoff
        up to ``max_retries`` times, and dead shards fail over on the hash
        ring.
    request_deadline:
        The default per-request deadline budget in seconds
        (``query(deadline=...)`` overrides it per request): it bounds the
        pool's retries *and* propagates into worker dispatches as a
        cooperative cancellation deadline.
    admission:
        Optional :class:`~repro.serving.governance.AdmissionController`
        enabling priority-aware load shedding at submission time (see
        :class:`MicroBatcher`).
    circuit_breaker:
        Per-shard circuit breaking on the pool (``True`` or a
        :class:`~repro.serving.governance.CircuitBreakerConfig`).
    """

    def __init__(
        self,
        themis: "Themis",
        n_workers: int = 2,
        max_batch_size: int = 64,
        max_queue: int = 1024,
        max_inflight: int = 4,
        dispatch_timeout: float | None = None,
        max_retries: int = 3,
        request_deadline: float | None = None,
        heartbeat_interval: float | None = None,
        fault_injector: "FaultInjector | None" = None,
        admission: AdmissionController | None = None,
        circuit_breaker: "CircuitBreakerConfig | bool | None" = None,
    ):
        self.metrics = MetricsRegistry()
        self.pool = SupervisedWorkerPool(
            themis,
            n_workers=n_workers,
            timeout=dispatch_timeout,
            metrics=self.metrics,
            fault_injector=fault_injector,
            max_retries=max_retries,
            heartbeat_interval=heartbeat_interval,
            circuit_breaker=circuit_breaker,
        )
        try:
            # Every wait inside a pool dispatch is bounded by the pool itself
            # (reply timeout, retry budget, respawn timeout): the batcher
            # needs no second clock over it.
            self.batcher = MicroBatcher(
                self.pool,
                max_batch_size=max_batch_size,
                max_queue=max_queue,
                max_inflight=max_inflight,
                request_deadline=request_deadline,
                admission=admission,
                metrics=self.metrics,
            )
        except BaseException:
            self.pool.close()  # no serving loop yet: reaps the workers here
            raise
        #: The socket handlers alive on this front-end (``serve_async``),
        #: each with the writer of its connection.
        self._handlers: dict[asyncio.Task, asyncio.StreamWriter] = {}

    async def start(self) -> "AsyncServingFrontend":
        """Serve the pool from the running loop and open the micro-batcher."""
        await self.pool.start()
        await self.batcher.start()
        return self

    async def stop(self) -> None:
        """Drain the batcher, end the socket handlers, shut the pool down.

        Every request accepted before ``stop()`` is answered first.  Then
        each handler's connection is closed (written replies are flushed):
        a handler idle in ``readline`` reads EOF and leaves its loop, as one
        whose client is gone already has — they end, none is cancelled
        (before 3.12 the stream server logs a cancelled handler as an
        error), and no task of the tier is left pending.  Idempotent, and
        safe on a front-end that never started.
        """
        await self.batcher.stop()
        for writer in self._handlers.values():
            writer.close()
        await asyncio.gather(*self._handlers, return_exceptions=True)
        await self.pool.aclose()

    async def __aenter__(self) -> "AsyncServingFrontend":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    async def query(
        self,
        query: Query | str,
        priority: str = PRIORITY_INTERACTIVE,
        deadline: float | None = None,
    ) -> Any:
        """Serve one query through the micro-batched sharded path.

        ``priority`` is this request's admission class; ``deadline`` is its
        wall-clock budget in seconds (default: the front-end's
        ``request_deadline``), propagated to the worker as a cooperative
        cancellation deadline.
        """
        return await self.batcher.submit(
            query, priority=priority, deadline=deadline
        )

    def refit(self) -> int:
        """Coherently refit every shard (see :meth:`SupervisedWorkerPool.refit`).

        Blocking: call it from a thread whose own loop is not running
        (``await asyncio.to_thread(frontend.refit)`` from a coroutine).
        """
        return self.pool.refit()

    def statistics(self) -> dict[str, Any]:
        """One snapshot of the tier's registry (queue, shards, latency)."""
        return self.metrics.snapshot()


def encode_result(result: Any) -> dict[str, Any]:
    """Render one answer as a JSON-safe dict for the socket protocol."""
    if isinstance(result, QueryResult):
        return {
            "kind": "groups",
            "group_by": list(result.group_by),
            "groups": sorted(
                [list(group), value] for group, value in result
            ),
        }
    if isinstance(result, TableResult):
        return {
            "kind": "table",
            "columns": list(result.columns),
            "group_by": list(result.group_by),
            "rows": [list(row) for row in result.rows],
        }
    if isinstance(result, (int, float)):
        return {"kind": "scalar", "value": float(result)}
    raise ThemisError(f"cannot encode result of type {type(result).__name__}")


async def _handle_client(
    frontend: AsyncServingFrontend,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    async def reply(response: dict[str, Any]) -> None:
        writer.write(json.dumps(response).encode() + b"\n")
        await writer.drain()

    handler = asyncio.current_task()
    frontend._handlers[handler] = writer
    try:
        while True:
            try:
                line = await reader.readline()
            except ValueError as error:
                # A line past the StreamReader limit: the rest of it is still
                # in flight, so the stream cannot be resynchronised — answer,
                # then close cleanly.
                await reply({"ok": False, "error": str(error)})
                break
            if not line:
                break
            try:
                # ValueError covers JSONDecodeError and the UnicodeDecodeError
                # json.loads raises on bytes that are not UTF-8/16/32.
                request = json.loads(line)
                statement = request["sql"]
            except (ValueError, KeyError, TypeError) as error:
                await reply({"ok": False, "error": str(error)})
                continue
            request_id = request.get("id")
            priority = request.get("priority", PRIORITY_INTERACTIVE)
            deadline = request.get("deadline")
            try:
                result = await frontend.query(
                    statement, priority=priority, deadline=deadline
                )
                response = {"id": request_id, "ok": True, **encode_result(result)}
            except AdmissionRejectedError as error:
                response = {
                    "id": request_id,
                    "ok": False,
                    "error": str(error),
                    "rejected": True,
                    "priority": error.priority,
                    "retry_after": error.retry_after_hint,
                    "queue_depth": error.queue_depth,
                }
            except CircuitOpenError as error:
                response = {
                    "id": request_id,
                    "ok": False,
                    "error": str(error),
                    "overload": True,
                    "retry_after": error.retry_after_hint,
                    "shard_id": error.shard_id,
                }
            except ServingOverloadError as error:
                response = {
                    "id": request_id,
                    "ok": False,
                    "error": str(error),
                    "overload": True,
                    "queue_depth": error.queue_depth,
                    "shard_id": error.shard_id,
                }
            except QueryCancelledError as error:
                # DeadlineExceededError included: reason says which.
                response = {
                    "id": request_id,
                    "ok": False,
                    "error": str(error),
                    "cancelled": True,
                    "reason": error.reason,
                }
            except Exception as error:  # noqa: BLE001 - reported to the client
                response = {"id": request_id, "ok": False, "error": str(error)}
            await reply(response)
    except (ConnectionError, OSError):
        # The client vanished mid-conversation: the answer it abandoned is
        # dropped, and nobody else's connection notices.
        pass
    finally:
        del frontend._handlers[handler]
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - client vanished
            pass


async def serve_async(
    frontend: AsyncServingFrontend,
    host: str = "127.0.0.1",
    port: int = 0,
) -> asyncio.AbstractServer:
    """Open a newline-delimited-JSON TCP server over one started front-end.

    Each line is a request ``{"id": ..., "sql": "...", "priority":
    "interactive", "deadline": 0.5}`` (priority and deadline optional)
    answered by one response line.  Overload sheds come back as ``{"ok":
    false, "overload": true, ...}`` with the queue depth and lagging shard;
    admission rejections as ``{"ok": false, "rejected": true, "retry_after":
    ...}``; cancellations/deadline expiries as ``{"ok": false, "cancelled":
    true, "reason": ...}``.  Returns the ``asyncio`` server (use
    ``server.sockets[0].getsockname()`` for the bound port,
    ``server.close()`` to stop accepting).
    """
    return await asyncio.start_server(
        lambda r, w: _handle_client(frontend, r, w), host=host, port=port
    )
