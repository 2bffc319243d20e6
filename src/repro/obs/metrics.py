"""A process-local metrics registry: counters, gauges, latency histograms.

One :class:`MetricsRegistry` per serving session is the single accumulation
point for every counter the system emits — the executor counters,
the BN engine counters, and the serving-layer route/cache counters all land
here, and :class:`repro.serving.ServingStatistics` reads them back as views.
Keeping one writer per counter family is what eliminates the old drift risk
between ``ServingStatistics`` and ``BatchResult``: both now quote the same
registry cell.

Histograms are log-bucketed (:data:`repro.obs.names.LATENCY_BUCKETS`) and
report p50/p95/p99 as the upper bound of the bucket containing the quantile —
a classic fixed-memory estimator whose error is bounded by the bucket ratio.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any

from .names import LATENCY_BUCKETS


class Counter:
    """A monotonically increasing named value (ints stay ints)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (negative increments are rejected)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value!r})"


class Gauge:
    """A named value that can move in either direction (cache sizes etc.)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: int | float = 0

    def set(self, value: int | float) -> None:
        """Replace the current value."""
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value!r})"


class Histogram:
    """A fixed-memory log-bucketed distribution of observed values.

    ``buckets`` holds the upper bound of each bucket; values above the last
    bound land in an overflow bucket.  Quantiles are estimated as the upper
    bound of the bucket containing the requested rank.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total", "max_value")

    def __init__(self, name: str, buckets: tuple[float, ...] = LATENCY_BUCKETS):
        self.name = name
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0

    def record(self, value: float) -> None:
        """Fold one observation into the distribution."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value

    def percentile(self, quantile: float) -> float:
        """Upper bound of the bucket holding the ``quantile`` rank (0..1)."""
        if self.count == 0:
            return 0.0
        rank = quantile * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index < len(self.buckets):
                    return self.buckets[index]
                return self.max_value
        return self.max_value

    @property
    def mean(self) -> float:
        """Arithmetic mean of every recorded value."""
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        """Count, sum, mean, max, and the p50/p95/p99 estimates."""
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "max": self.max_value,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


class MetricsRegistry:
    """Named counters, gauges, and histograms, created on first touch."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument accessors (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created if missing)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created if missing)."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, buckets: tuple[float, ...] = LATENCY_BUCKETS
    ) -> Histogram:
        """The histogram registered under ``name`` (created if missing)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, buckets)
        return histogram

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def value(self, name: str, default: int | float = 0) -> int | float:
        """Current value of a counter or gauge, without creating it."""
        counter = self._counters.get(name)
        if counter is not None:
            return counter.value
        gauge = self._gauges.get(name)
        if gauge is not None:
            return gauge.value
        return default

    def counters_with_prefix(self, prefix: str) -> dict[str, int | float]:
        """``{suffix: value}`` for every counter named ``prefix + suffix``."""
        return {
            name[len(prefix) :]: counter.value
            for name, counter in self._counters.items()
            if name.startswith(prefix)
        }

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict copy: counters, gauges, and histogram summaries."""
        return {
            "counters": {name: c.value for name, c in self._counters.items()},
            "gauges": {name: g.value for name, g in self._gauges.items()},
            "histograms": {
                name: h.summary() for name, h in self._histograms.items()
            },
        }

    def as_dict(self) -> dict[str, Any]:
        """Alias of :meth:`snapshot` for symmetry with the other surfaces."""
        return self.snapshot()

    def reset(self) -> None:
        """Zero every instrument (names stay registered)."""
        for counter in self._counters.values():
            counter.value = 0
        for gauge in self._gauges.values():
            gauge.value = 0
        for histogram in self._histograms.values():
            histogram.counts = [0] * (len(histogram.buckets) + 1)
            histogram.count = 0
            histogram.total = 0.0
            histogram.max_value = 0.0

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )
