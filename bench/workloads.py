"""The four workloads: their data, their statement streams, their entry points.

A workload is a fixed dataset (seed-independent, so accuracy is comparable
across runs), a statement stream drawn from ``--seed``, and a *target*: the
public entry point the statements travel through.  ``src/`` only ever sees
the generated statements — no workload name, seed or flag crosses over.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro import Themis, ThemisConfig
from repro.data import load_flights
from repro.data.registry import DatasetBundle
from repro.experiments.harness import build_aggregates
from repro.query.workload import MixedQueryWorkload
from repro.serving.scale import AsyncServingFrontend, serve_async
from repro.serving.scale.frontend import encode_result

from . import measure

TABLE = "flights"
#: The dataset never depends on ``--seed``: the generator and fit seeds are
#: fixed so that ``debias_error_pct`` is one number per commit.
DATA_SEED = 7
FIT_SEED = 0
BATCH_SIZE = 32

# An op is a tuple of indices into the workload's statement pool: one index
# for the single-statement entry points, BATCH_SIZE of them for execute_batch.
Op = tuple[int, ...]


@dataclass(frozen=True)
class DataSpec:
    """Dataset and model sizes of one workload."""

    flights_rows: int
    sample_fraction: float
    sample_name: str
    n_generated_samples: int = 5
    generated_sample_size: int = 1_000
    ipf_max_iterations: int = 30


@dataclass
class Model:
    """One fitted facade plus the inputs it was fitted from."""

    bundle: DatasetBundle
    aggregates: Any
    themis: Themis
    spec: DataSpec


def load_data(spec: DataSpec) -> DatasetBundle:
    return load_flights(
        n_rows=spec.flights_rows, seed=DATA_SEED, sample_fraction=spec.sample_fraction
    )


def new_facade(spec: DataSpec, bundle: DatasetBundle, aggregates: Any) -> Themis:
    """An unfitted facade loaded with the workload's sample and aggregates."""
    themis = Themis(
        ThemisConfig(
            seed=FIT_SEED,
            ipf_max_iterations=spec.ipf_max_iterations,
            n_generated_samples=spec.n_generated_samples,
            generated_sample_size=spec.generated_sample_size,
        )
    )
    themis.load_sample(bundle.sample(spec.sample_name), name=TABLE)
    themis.add_aggregates(aggregates)
    return themis


def build_model(spec: DataSpec) -> Model:
    """Data generation, aggregate selection and ``fit()``: the common set-up."""
    bundle = load_data(spec)
    aggregates = build_aggregates(bundle, n_two_dimensional=2, seed=FIT_SEED)
    themis = new_facade(spec, bundle, aggregates)
    themis.fit()
    return Model(bundle=bundle, aggregates=aggregates, themis=themis, spec=spec)


# ----------------------------------------------------------------------
# Statement streams
# ----------------------------------------------------------------------
@dataclass
class Stream:
    """A statement pool and the seeded, endless sequence of blocks over it."""

    pool: list[str]
    blocks: Iterator[list[Op]]
    digest: str

    def take_block(self) -> list[Op]:
        return next(self.blocks)


def _make_stream(pool: list[str], blocks: Iterator[list[Op]]) -> Stream:
    """Bundle a pool with its block sequence; the digest covers the first block."""
    head = next(blocks)
    sha = hashlib.sha256()
    for statement in pool:
        sha.update(statement.encode())
        sha.update(b"\n")
    sha.update(json.dumps(head).encode())
    return Stream(pool=pool, blocks=itertools.chain([head], blocks), digest=sha.hexdigest())


def _endless_shuffle(rng: np.random.Generator, items: Sequence[int]) -> Iterator[int]:
    """Endless seeded permutations of ``items``, one after the other."""
    while True:
        for position in rng.permutation(len(items)):
            yield items[int(position)]


def _stratified_blocks(
    rng: np.random.Generator, strata: Sequence[Sequence[int]], counts: Sequence[int], width: int
) -> Iterator[list[Op]]:
    """Endless blocks that all hold the same number of statements per shape.

    Every block draws ``counts[i]`` statements from stratum ``i`` (each
    stratum replayed in seeded shuffles), so blocks differ in their
    statements but not in their mix: block times are comparable, and the
    median over blocks is a steady estimate.
    """
    cursors = [_endless_shuffle(rng, stratum) for stratum in strata]
    while True:
        block = [next(cursor) for cursor, count in zip(cursors, counts) for _ in range(count)]
        rng.shuffle(block)
        yield [tuple(block[start : start + width]) for start in range(0, len(block), width)]


def _zipf_blocks(rng: np.random.Generator, n: int, exponent: float, size: int) -> Iterator[list[Op]]:
    """Endless blocks of Zipf(``exponent``) draws over a seeded ranking of ``range(n)``."""
    ranking = rng.permutation(n)
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    weights /= weights.sum()
    while True:
        yield [(int(ranking[rank]),) for rank in rng.choice(n, size=size, p=weights)]


# ----------------------------------------------------------------------
# Targets: the entry point a workload's statements travel through
# ----------------------------------------------------------------------
@dataclass
class BlockResult:
    """What one timed block produced: per-op latencies, per-statement answers."""

    latencies: list[float]
    answers: list[Any]


class Target:
    """One public entry point under test, driven closed-loop by one caller."""

    #: How a request's time follows the host's speed (``measure.FOLLOWS_*``).
    follows_host = measure.FOLLOWS_FULLY

    def __init__(self, model: Model):
        self.themis = model.themis

    def run(self, pool: Sequence[str], ops: Sequence[Op]) -> BlockResult:
        raise NotImplementedError

    def refit(self) -> None:
        self.themis.refit()

    def run_after_refit(self, pool: Sequence[str], op: Op) -> BlockResult:
        """A model change, then one op: the first answer after a refit pays
        for every cache the refit invalidated."""
        self.refit()
        return self.run(pool, [op])

    def expected(self, oracle_answer: Any) -> Any:
        """The answer this entry point must give where the oracle gave that."""
        return oracle_answer

    def value(self, answer: Any) -> float:
        """The number inside a scalar answer (for the accuracy check)."""
        return float(answer)

    def close(self) -> None:
        return None


class StatementTarget(Target):
    """An entry point that takes one statement per call."""

    def entry(self) -> Callable[[str], Any]:
        """The bound entry point, looked up per block so that the traced run
        can interpose on it."""
        raise NotImplementedError

    def run(self, pool, ops):
        call = self.entry()
        clock = time.perf_counter
        latencies, answers = [], []
        for (index,) in ops:
            statement = pool[index]
            start = clock()
            answer = call(statement)
            latencies.append(clock() - start)
            answers.append(answer)
        return BlockResult(latencies, answers)


class FacadeTarget(StatementTarget):
    """``Themis.sql(text)``, one statement at a time."""

    def entry(self):
        return self.themis.sql


class SessionBatchTarget(Target):
    """``ServingSession.execute_batch`` over batches of statements."""

    def __init__(self, model: Model):
        super().__init__(model)
        self.session = self.themis.serve()

    def run(self, pool, ops):
        execute_batch = self.session.execute_batch
        clock = time.perf_counter
        latencies, answers = [], []
        for op in ops:
            batch = [pool[index] for index in op]
            start = clock()
            results = execute_batch(batch).results()
            latencies.append(clock() - start)
            answers.extend(results)
        return BlockResult(latencies, answers)


class SessionTarget(StatementTarget):
    """``ServingSession.execute``, one statement at a time (cached serving)."""

    def __init__(self, model: Model):
        super().__init__(model)
        self.session = self.themis.serve()

    def entry(self):
        return self.session.execute


class SocketTarget(Target):
    """NDJSON over TCP through ``serve_async`` -> front-end -> worker pool.

    The server and the client connections share one event loop on a helper
    thread of the bench process; the workers are the pool's own processes.
    The front-end is built before that thread exists, so the workers fork
    from a single-threaded parent.  Most of a request is the micro-batcher's
    2 ms timer and waits on pipes and sockets.
    """

    follows_host = measure.FOLLOWS_PARTLY

    def __init__(self, model: Model, n_workers: int = 2, n_connections: int = 2):
        super().__init__(model)
        self.frontend = AsyncServingFrontend(self.themis, n_workers=n_workers)
        try:
            # Workers fit in the background; a broadcast returns once all have.
            self.frontend.pool.describe()
            self._loop = asyncio.new_event_loop()
            self._thread = threading.Thread(
                target=self._loop.run_forever, name="bench-socket-loop", daemon=True
            )
            self._thread.start()
            self._connections: list[tuple[Any, Any]] = []
            self._server = None
            self._call(self._start(n_connections))
        except BaseException:
            self.frontend.pool.close()
            raise

    def _call(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result()

    async def _start(self, n_connections: int) -> None:
        await self.frontend.start()
        self._server = await serve_async(self.frontend)
        port = self._server.sockets[0].getsockname()[1]
        for _ in range(n_connections):
            self._connections.append(await asyncio.open_connection("127.0.0.1", port))

    async def _drive(self, statements: Sequence[str], connections: int | None) -> BlockResult:
        latencies = [0.0] * len(statements)
        answers: list[Any] = [None] * len(statements)
        cursor = iter(enumerate(statements))
        clock = time.perf_counter

        async def client(reader, writer) -> None:
            # Closed loop: a connection sends its next request only after the
            # previous reply arrived.
            for index, statement in cursor:
                line = json.dumps({"id": index, "sql": statement}).encode() + b"\n"
                start = clock()
                writer.write(line)
                await writer.drain()
                reply = await reader.readline()
                latencies[index] = clock() - start
                answers[index] = json.loads(reply) if reply else {}
                answers[index].pop("id", None)  # the echo of the request id

        await asyncio.gather(*(client(r, w) for r, w in self._connections[:connections]))
        return BlockResult(latencies, answers)

    def run(self, pool, ops, connections: int | None = None):
        """Drive ``ops`` over all client connections (or the first few)."""
        return self._call(self._drive([pool[index] for (index,) in ops], connections))

    async def _query_in_process(self, statements: Sequence[str]) -> list[float]:
        latencies = []
        for statement in statements:
            start = time.perf_counter()
            await self.frontend.query(statement)
            latencies.append(time.perf_counter() - start)
        return latencies

    def query_in_process(self, statements: Sequence[str]) -> list[float]:
        """Latencies of ``frontend.query`` with one caller and no socket."""
        return self._call(self._query_in_process(statements))

    def refit(self) -> None:
        self.frontend.refit()

    def expected(self, oracle_answer):
        rendered = json.loads(json.dumps(encode_result(oracle_answer)))
        return {"ok": True, **rendered}

    def value(self, answer):
        return float(answer["value"])

    async def _stop(self) -> None:
        for _, writer in self._connections:
            writer.close()
            await writer.wait_closed()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.frontend.stop()

    def close(self) -> None:
        try:
            self._call(self._stop())
        finally:
            self.frontend.pool.close()
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join()
            self._loop.close()


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One named workload: data, statement mix, entry point, block size.

    Why each was chosen is recorded in ``BENCHMARK.json`` and the README.
    """

    name: str
    data: DataSpec
    target: type[Target]
    mix: tuple[int, int, int, int]  # point / scalar / group-by / analytic
    block_statements: int
    width: int = 1  # statements per op
    segment_statements: int | None = None  # host-speed samples inside a block
    over_population: bool = False
    zipf_exponent: float | None = None
    refit_per_block: bool = False
    setups: int = 3
    warmup_statements: int = 500
    debias_queries: int = 400

    def stream(self, bundle: DatasetBundle, seed: int) -> Stream:
        """The seeded statement pool and block sequence (same seed, same stream)."""
        relation = (
            bundle.population if self.over_population else bundle.sample(self.data.sample_name)
        )
        entries = MixedQueryWorkload(relation, table=TABLE, seed=seed).generate(*self.mix)
        rng = np.random.default_rng([seed, len(entries)])
        if self.zipf_exponent is not None:
            blocks = _zipf_blocks(rng, len(entries), self.zipf_exponent, self.block_statements)
        else:
            # generate() lists the shapes one after the other, mix[i] of each.
            bounds = np.cumsum((0, *self.mix))
            strata = [range(low, high) for low, high in zip(bounds, bounds[1:])]
            counts = [self.block_statements * n // sum(self.mix) for n in self.mix]
            blocks = _stratified_blocks(rng, strata, counts, self.width)
        return _make_stream([entry.sql for entry in entries], blocks)


SMALL = DataSpec(flights_rows=20_000, sample_fraction=0.1, sample_name="SCorners")
LARGE = DataSpec(flights_rows=100_000, sample_fraction=0.3, sample_name="SCorners")
UNSUPPORTED = DataSpec(flights_rows=20_000, sample_fraction=0.1, sample_name="Corners")
TINY = DataSpec(
    flights_rows=4_000,
    sample_fraction=0.1,
    sample_name="SCorners",
    n_generated_samples=3,
    generated_sample_size=400,
    ipf_max_iterations=15,
)

#: Point and scalar statements only: their plans execute in tens of
#: microseconds, so parsing, compiling and binding them is most of the work.
LOOKUPS = (3000, 1000, 0, 0)

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="facade_sql_small",
            data=SMALL,
            target=FacadeTarget,
            mix=LOOKUPS,
            # About 15 ms per block: a host-speed sample (4 ms) after each
            # stays a small share of the run.
            block_statements=100,
        ),
        Workload(
            name="session_batch_large",
            data=LARGE,
            target=SessionBatchTarget,
            mix=(400, 1200, 1200, 400),
            block_statements=BATCH_SIZE,
            width=BATCH_SIZE,
            # fit() takes seconds at this size: fewer repeats keep the run short.
            setups=2,
        ),
        Workload(
            name="socket_pool_small",
            data=SMALL,
            target=SocketTarget,
            mix=LOOKUPS,
            # Longer blocks than the facade's: three processes share two
            # cores, so short blocks differ by who was scheduled when.
            block_statements=120,
        ),
        Workload(
            name="openworld_refit",
            data=UNSUPPORTED,
            target=SessionTarget,
            mix=(300, 150, 150, 0),
            block_statements=1500,
            segment_statements=100,
            over_population=True,
            zipf_exponent=1.1,
            refit_per_block=True,
        ),
    )
}


def quick(workload: Workload) -> Workload:
    """The smoke-test variant: tiny data, tiny pools, short warm-up."""
    return replace(
        workload,
        data=replace(TINY, sample_name=workload.data.sample_name),
        mix=tuple(16 if n else 0 for n in workload.mix),
        block_statements=60 if workload.refit_per_block else max(8, workload.width),
        segment_statements=20 if workload.refit_per_block else None,
        setups=2,
        warmup_statements=40,
        debias_queries=40,
    )
