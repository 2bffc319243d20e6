"""Clocks, CPU and memory readers, and the statistics the harness reports."""

from __future__ import annotations

import math
import multiprocessing
import os
import resource
import statistics
import time
from collections.abc import Sequence

import numpy as np

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


#: How a kind of timed work follows the calibration loop when the host slows
#: down: the exponent of ``HostSpeed.factor``.  ``python3 -m bench steadiness
#: bench/results/steadiness.json`` shows what each leaves over (the *slope*
#: column: 0 is right).
#:
#: Computation in the bench process follows the loop one to one; this is not
#: fitted (raw slopes of log time on log host speed over the ten-seed sets:
#: 0.7-1.1).
FOLLOWS_FULLY = 1.0
#: ``fit()`` / ``refit()`` / set-up (IPF sweeps, BN structure search:
#: arithmetic over small, cache-resident tables, which the neighbours disturb
#: less).  83 refits and 83 set-ups, each between two samples with the host at
#: 0.45-1.15x, gave slopes of 0.53 (attenuated by the noise of a 4 ms sample),
#: whole set-ups in the ten-seed sets 0.4-0.9; with 1.0, ``qps`` on
#: ``openworld_refit`` spread by 12% instead of 4-9%.
FOLLOWS_FIT = 0.65
#: Requests that cross processes: about a third of a request is computation,
#: the rest the micro-batcher's 2 ms timer and pipe waits.  Over four ten-seed
#: sets of ``socket_pool_small`` (host at 0.5-0.77x) exponents of 0.3-0.4 left
#: the narrowest spreads on every metric (qps 2-7%, cpu 2-9%; with 0: up to
#: 8% and 16%; with 0.6, the value fitted before the statements became
#: lookups: up to 10% and 9%).
FOLLOWS_PARTLY = 0.35


class HostSpeed:
    """How fast this host runs right now, from a fixed calibration loop.

    On a shared (virtualised) host the same code runs up to 2x slower for
    minutes at a time — neighbours contending for caches and memory, not
    preemption: CPU time stretches with wall time.  Ten raw runs of one
    workload then spread by 15-30%, wider than the largest bound
    ``BENCHMARK.json`` may state, and a slow phase outlasts a run, so
    measuring longer does not help.  Short calibration samples are therefore
    interleaved with the timed segments, and times are reported as they
    would have been at the reference speed (``factor``).  The raw clock
    readings of every run are printed beside the reported ones (``#info``:
    ``raw``, ``host_speed``); ``bench/results/steadiness.json`` holds ten
    seeds of both, and ``python3 -m bench steadiness`` prints their spreads
    and how each follows the host.

    The loop is benchmark code only, so a change to ``src/`` cannot move it.
    Its four kinds of work were chosen to slow down as much as the in-process
    query paths do: allocation of small objects, numpy kernels over 2k and
    30k elements, and a pointer-chasing walk over more objects than the cache
    holds (pure arithmetic barely notices the neighbours and was left out).
    One sample is the geometric mean over the kinds of the median of a few
    repetitions: stalls of a few milliseconds do not reach a median.
    """

    #: Seconds one sample takes on the host, in its fast state, that the
    #: committed baseline was measured on; timings are reported at this speed.
    REFERENCE = 85e-6
    REPETITIONS = 5

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._codes = np.arange(2000) % 50
        self._weights = np.ones(2000)
        self._columns = [rng.integers(0, 53, 30_000) for _ in range(3)]
        self._measure = rng.random(30_000)
        self._objects = [(i, str(i)) for i in range(150_000)]
        self._walk = rng.integers(0, len(self._objects), 1200).tolist()

    def _allocation(self) -> None:
        table = {}
        for i in range(700):
            table[(i, str(i & 255))] = [i]

    def _small_kernels(self) -> None:
        codes, weights = self._codes, self._weights
        for _ in range(12):
            np.bincount(codes, weights=weights, minlength=50)
            weights[(codes == 3) & (codes < 10)].sum()

    def _large_kernels(self) -> None:
        first, second, keys = self._columns
        for value in (3, 4):
            mask = (first == value) & (second < 10)
            np.bincount(keys[mask], weights=self._measure[mask], minlength=53)

    def _memory_walk(self) -> None:
        objects = self._objects
        total = 0
        for index in self._walk:
            total += len(objects[index][1])

    def sample(self) -> float:
        """Seconds per calibration unit right now (lower is faster)."""
        clock = time.perf_counter
        logs = 0.0
        loops = (self._allocation, self._small_kernels, self._large_kernels, self._memory_walk)
        for loop in loops:
            times = []
            for _ in range(self.REPETITIONS):
                start = clock()
                loop()
                times.append(clock() - start)
            logs += math.log(statistics.median(times))
        return math.exp(logs / len(loops))

    def factor(self, before: float, after: float, follows: float) -> float:
        """Multiply a time measured between two samples by this to get the
        time at reference speed (below 1 when the host was slow);
        ``follows`` is one of the ``FOLLOWS_*`` exponents."""
        return (self.REFERENCE / (0.5 * (before + after))) ** follows


def steal_seconds() -> float:
    """CPU-seconds the hypervisor gave to someone else while a vCPU of this
    guest wanted to run, summed over the vCPUs (0 where ``/proc`` lacks it)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return int(handle.readline().split()[8]) / _CLOCK_TICKS
    except (OSError, IndexError, ValueError):
        return 0.0


def granted_share(stolen: float, wall: float) -> float:
    """What to multiply a time by to take out the hypervisor's stolen time:
    ``wall / (wall + stolen)``, the stolen CPU-seconds summed over the vCPUs.

    Stolen time comes in bursts, is invisible to the calibration loop (its
    medians skip the stalls), and stretches wall time, latencies and — on
    this kernel — the CPU time charged to a process alike.  The form is
    fitted: the 19 runs of ``socket_pool_small`` that met a burst (stolen
    seconds per second of wall from 0.04 to 0.71, raw qps down to 0.6 of the
    undisturbed runs') fall on it within 7.5%.  ``1 - stolen / wall`` fits as
    well below 0.2 (a vCPU only accrues steal while it wants to run, so the
    busy one takes nearly all of it) but overshoots by 20-40% above 0.5, and
    the per-vCPU average undershoots below 0.2.
    """
    return wall / (wall + stolen) if wall > 0.0 else 1.0


def _live_child_pids() -> list[int]:
    return [child.pid for child in multiprocessing.active_children() if child.pid]


def _proc_cpu_seconds(pid: int) -> float:
    """user+system CPU of one live process from ``/proc`` (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            # The command name may contain spaces; fields resume after ")".
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def cpu_seconds() -> float:
    """user+system CPU consumed so far by this process and all its children.

    ``os.times()`` only counts children that were already waited for, and the
    pool's workers live as long as the workload, so live children are read
    from ``/proc``; a worker that exits moves from one term to the other.
    """
    times = os.times()
    total = time.process_time() + times.children_user + times.children_system
    return total + sum(_proc_cpu_seconds(pid) for pid in _live_child_pids())


def _proc_peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children, in MB."""
    kilobytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kilobytes += sum(_proc_peak_rss_kb(pid) for pid in _live_child_pids())
    return kilobytes / 1024.0


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation."""
    return float(np.percentile(samples, q))


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


def spread(samples: Sequence[float]) -> float | None:
    """Interquartile range over the median; ``None`` below four samples."""
    if len(samples) < 4:
        return None
    first, _, third = statistics.quantiles(samples, n=4)
    middle = statistics.median(samples)
    return abs(third - first) / abs(middle) if middle else None
