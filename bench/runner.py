"""One workload, one process: set up, warm up, time, check, report.

The untraced run (``--trace 0``) produces the end-to-end metrics.  Every
answer of every timed block is compared with the oracle right after the
block, outside the timed region; accuracy against the true population is
measured after timing.  The first wrong answer aborts the run loudly.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from repro.metrics import percent_difference
from repro.query.workload import PointQueryWorkload

from . import measure
from .report import with_units
from .workloads import (
    TABLE,
    Model,
    Stream,
    Target,
    Workload,
    build_model,
)

#: Accuracy queries never depend on ``--seed`` (see ``workloads.DATA_SEED``).
DEBIAS_SEED = 20200614


class WrongAnswer(Exception):
    """An operation raised, was refused, or disagreed with the oracle."""


def attempt(call):
    """``call()``; the boundary that turns any failure into a verdict."""
    try:
        return call()
    except Exception as error:
        raise WrongAnswer(f"operation raised {error!r}") from error


@dataclass
class Segment:
    """One timed stretch of work: what it returned, its raw wall and CPU
    seconds, and the factor that scales them to reference host speed."""

    result: Any
    wall: float
    cpu: float
    factor: float


@dataclass
class Totals:
    """The timed phase in one unit of time: raw, or at reference host speed."""

    latencies: list[float] = field(default_factory=list)
    block_qps: list[float] = field(default_factory=list)
    refits: list[float] = field(default_factory=list)
    wall: float = 0.0
    cpu: float = 0.0
    block_wall: float = 0.0

    def add(self, segment: Segment, latencies: list[float], factor: float) -> None:
        self.latencies.extend(latency * factor for latency in latencies)
        self.block_wall += segment.wall * factor
        self.cpu += segment.cpu * factor

    def end_block(self, statements: int) -> None:
        self.block_qps.append(statements / self.block_wall)
        self.wall += self.block_wall
        self.block_wall = 0.0

    def metrics(self, statements: int) -> dict[str, float]:
        milliseconds = [1e3 * value for value in self.latencies]
        return {
            "qps": statements / self.wall,
            "latency_p50_ms": measure.percentile(milliseconds, 50),
            "latency_p95_ms": measure.percentile(milliseconds, 95),
            "cpu_ms_per_query": 1e3 * self.cpu / statements,
        }


@dataclass
class Timed:
    """Accumulated measurements of the timed phase, raw and at reference speed."""

    raw: Totals = field(default_factory=Totals)
    reference: Totals = field(default_factory=Totals)
    statements: int = 0

    def add(self, segment: Segment, refit: bool = False) -> None:
        for totals, factor in ((self.raw, 1.0), (self.reference, segment.factor)):
            totals.add(segment, segment.result.latencies, factor)
            if refit:
                totals.refits.append(segment.wall * factor)

    def end_block(self, statements: int) -> None:
        self.raw.end_block(statements)
        self.reference.end_block(statements)
        self.statements += statements


def sql_literal(value: Any) -> str:
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return f"'{value}'"
    return str(value)


def point_sql(assignment: dict[str, Any]) -> str:
    where = " AND ".join(
        f"{name} = {sql_literal(value)}" for name, value in sorted(assignment.items())
    )
    return f"SELECT COUNT(*) FROM {TABLE} WHERE {where}"


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def timed_setup(workload: Workload, meter: "Meter") -> Segment:
    """Data generation + fit + entry-point start; the result is (model, target)."""

    def build() -> tuple[Model, Target]:
        model = build_model(workload.data)
        return model, workload.target(model)

    meter.resample()
    return meter.run(build, measure.FOLLOWS_FIT)


def set_up(workload: Workload, meter: "Meter") -> tuple[list[Segment], Model, Model, Target]:
    """Set up ``workload.setups`` times; keep the first model as the oracle.

    The oracle is a separately fitted, identically seeded facade that never
    shares a cache with the system under test; the last set-up is the one
    the workload then runs against.
    """
    setups = []
    for _ in range(workload.setups - 1):
        setups.append(timed_setup(workload, meter))
        setups[-1].result[1].close()
    setups.append(timed_setup(workload, meter))
    oracle, _ = setups[0].result
    model, target = setups[-1].result
    return setups, oracle, model, target


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
class Oracle:
    """Per-query ``Themis.query`` answers of the separately fitted facade."""

    def __init__(self, oracle: Model, target: Target, stream: Stream):
        self._query = oracle.themis.query
        self._target = target
        self._pool = stream.pool
        self._expected: dict[int, Any] = {}

    def expected(self, index: int) -> Any:
        if index not in self._expected:
            self._expected[index] = self._target.expected(self._query(self._pool[index]))
        return self._expected[index]

    def check(self, ops, answers) -> None:
        """Raise on the first answer that differs from the oracle's."""
        position = 0
        for op in ops:
            for index in op:
                answer = answers[position]
                expected = self.expected(index)
                if answer != expected:
                    raise WrongAnswer(
                        f"answer differs from the oracle\n  statement: {self._pool[index]}\n"
                        f"  expected:  {expected!r}\n  got:       {answer!r}"
                    )
                position += 1


def debias_error_pct(workload: Workload, model: Model, target: Target) -> float:
    """Median percent difference of open-world point answers vs the truth.

    Random-hitter point queries over the *population* (attribute sets of
    size 2-3) go through the workload's own entry point; the same-commit
    oracle cannot see accuracy traded for speed, this can.
    """
    generator = PointQueryWorkload(model.bundle.population, seed=DEBIAS_SEED)
    attribute_sets = generator.random_attribute_sets((2, 3), 8)
    items = generator.generate_over_attribute_sets(
        attribute_sets, "random", workload.debias_queries // len(attribute_sets)
    )
    pool = [point_sql(item.query.as_dict()) for item in items]
    width = workload.width
    ops = [
        tuple(range(start, min(start + width, len(pool))))
        for start in range(0, len(pool), width)
    ]
    answers = attempt(lambda: target.run(pool, ops)).answers
    errors = attempt(
        lambda: [
            percent_difference(item.true_value, target.value(answer))
            for item, answer in zip(items, answers)
        ]
    )
    return measure.median(errors)


# ----------------------------------------------------------------------
# The timed phase
# ----------------------------------------------------------------------
class Meter:
    """Times segments of work between two host-speed samples.

    A sample is taken between any two segments; a segment's factor is that of
    the two samples around it (``measure.HostSpeed.factor``) times the share
    of its time the hypervisor granted the guest (``measure.granted_share``).
    """

    def __init__(self, speed: measure.HostSpeed):
        self._speed = speed
        self.samples = [speed.sample()]
        self.stolen = 0.0  # CPU-seconds stolen inside the segments timed so far

    def resample(self) -> None:
        """Take a fresh "before" sample (after untimed work of some length)."""
        self.samples.append(self._speed.sample())

    def host_speed(self, start: int, stop: int | None = None) -> float:
        """Mean host speed over ``samples[start:stop]`` as a share of the
        reference speed (below 1 when the host was slow)."""
        return self._speed.REFERENCE / statistics.fmean(self.samples[start:stop])

    def run(self, call, follows: float = measure.FOLLOWS_FULLY) -> Segment:
        stolen = measure.steal_seconds()
        cpu_before = measure.cpu_seconds()
        start = time.perf_counter()
        result = attempt(call)
        wall = time.perf_counter() - start
        cpu = measure.cpu_seconds() - cpu_before
        stolen = measure.steal_seconds() - stolen
        self.stolen += stolen
        granted = measure.granted_share(stolen, wall)
        before = self.samples[-1]
        self.samples.append(self._speed.sample())
        return Segment(
            result, wall, cpu, granted * self._speed.factor(before, self.samples[-1], follows)
        )


def _segments(ops: list, width: int, statements: int | None) -> list[list]:
    if statements is None:
        return [ops]
    step = max(1, statements // width)
    return [ops[start : start + step] for start in range(0, len(ops), step)]


def run_block(
    workload: Workload, target: Target, stream: Stream, meter: Meter, timed: Timed, oracle: Oracle
) -> None:
    """One block: (refit,) statements in segments, then the oracle check."""
    ops = stream.take_block()
    pool = stream.pool
    answers: list[Any] = []
    rest = ops
    if workload.refit_per_block:
        first = meter.run(lambda: target.run_after_refit(pool, ops[0]), measure.FOLLOWS_FIT)
        timed.add(first, refit=True)
        answers.extend(first.result.answers)
        rest = ops[1:]
    for part in _segments(rest, workload.width, workload.segment_statements):
        segment = meter.run(lambda: target.run(pool, part), target.follows_host)
        timed.add(segment)
        answers.extend(segment.result.answers)
    oracle.check(ops, answers)
    timed.end_block(len(answers))


def run_end_to_end(workload: Workload, seed: int, seconds: float) -> dict[str, Any]:
    """The untraced run: every end-to-end metric of one workload."""
    meter = Meter(measure.HostSpeed())
    setups, oracle_model, model, target = set_up(workload, meter)
    try:
        stream = workload.stream(model.bundle, seed)
        oracle = Oracle(oracle_model, target, stream)

        warmed = 0
        while warmed < workload.warmup_statements:
            ops = stream.take_block()
            answers = attempt(lambda: target.run(stream.pool, ops)).answers
            oracle.check(ops, answers)
            warmed += len(answers)

        timed = Timed()
        meter.resample()
        first_sample = len(meter.samples) - 1
        stolen = meter.stolen
        while timed.raw.wall < seconds:
            run_block(workload, target, stream, meter, timed, oracle)
        stolen = meter.stolen - stolen
        rss = measure.peak_rss_mb()

        error = debias_error_pct(workload, model, target)
    finally:
        target.close()

    metrics = {
        "setup_s": measure.median([setup.wall * setup.factor for setup in setups]),
        **timed.reference.metrics(timed.statements),
        "peak_rss_mb": rss,
        "debias_error_pct": error,
    }
    info = {
        "stream_sha256": stream.digest,
        "timed_seconds": timed.raw.wall,
        # What the clocks read, before scaling to reference host speed.
        "raw": {
            "setup_s": measure.median([setup.wall for setup in setups]),
            **timed.raw.metrics(timed.statements),
        },
        # Host speed as a share of the reference speed (< 1: the host was slow).
        "host_speed": meter.host_speed(first_sample),
        "host_speed_setup": meter.host_speed(0, first_sample),
        # Stolen CPU-seconds (all vCPUs) per second of timed wall.
        "stolen_share": stolen / timed.raw.wall,
        "qps_block_median": measure.median(timed.reference.block_qps),
        "blocks": len(timed.reference.block_qps),
        "latency_samples": len(timed.reference.latencies),
        "statements_per_op": workload.width,
        "setups": [setup.wall * setup.factor for setup in setups],
        "block_refits": timed.reference.refits,
    }
    if info["latency_samples"] >= 1000:
        info["tail.latency_p99_ms"] = 1e3 * measure.percentile(timed.reference.latencies, 99)
    return {
        "correct": True,
        "attempted": timed.statements,
        "failed": 0,
        "metrics": with_units("end_to_end", metrics),
        "info": info,
    }
