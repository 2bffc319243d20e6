"""Experiment scaling configuration.

Every experiment accepts an :class:`ExperimentScale` so the same code can run
as a fast laptop-scale regression (the default used by the benchmarks and
tests) or at a larger scale closer to the paper's setup.  The paper's
populations have millions of rows; the shapes of its results are preserved at
the reduced default sizes because all techniques see the same sample and the
same ground-truth aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs controlling dataset sizes and workload sizes for experiments."""

    flights_rows: int = 20_000
    imdb_rows: int = 16_000
    imdb_names: int = 800
    child_rows: int = 10_000
    sample_fraction: float = 0.1
    n_queries: int = 30
    n_generated_samples: int = 5
    generated_sample_size: int = 1_000
    ipf_max_iterations: int = 30
    max_parents: int = 1
    seed: int = 0

    def with_overrides(self, **overrides) -> "ExperimentScale":
        """A copy of this scale with some fields replaced."""
        return replace(self, **overrides)


#: Fast configuration used by the test-suite and the benchmark harness.
SMALL_SCALE = ExperimentScale()

#: A configuration closer to the paper's sizes (1-7 s per experiment; the 20
#: paper experiments take under a minute together on a 2-core host).
PAPER_SCALE = ExperimentScale(
    flights_rows=400_000,
    imdb_rows=200_000,
    imdb_names=20_000,
    child_rows=20_000,
    n_queries=100,
    n_generated_samples=10,
    generated_sample_size=5_000,
    ipf_max_iterations=100,
)

#: Tiny configuration for unit tests of the experiment plumbing itself.
TINY_SCALE = ExperimentScale(
    flights_rows=4_000,
    imdb_rows=3_000,
    imdb_names=200,
    child_rows=2_000,
    n_queries=8,
    n_generated_samples=3,
    generated_sample_size=400,
    ipf_max_iterations=15,
)
