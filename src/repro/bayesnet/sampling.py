"""Forward (logic) sampling from a Bayesian network.

GROUP BY queries are answered by generating ``K`` representative samples from
the learned network, uniformly scaling each up to the population size, and
averaging the per-group answers across the ``K`` samples (Sec. 4.2.4).

Each node costs one draw of ``n_rows`` uniforms, whatever its number of
parent configurations.  The draws go to the rows in stable
parent-configuration order, and each row's code is the number of entries of
its configuration's CDF at or below its draw.  That is what a loop of one
``Generator.choice(child_size, size=count, p=row)`` per configuration in
ascending order computes (``cumsum``, divide by the last entry, ``random``,
``searchsorted(side="right")``), reading the same uniforms from the stream,
so the codes and the generator's state afterwards are the loop's, bit for
bit; ``tests/test_forward_sampling.py`` checks them against that loop.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import BayesNetError
from ..schema import Relation
from .network import BayesianNetwork


class ForwardSampler:
    """Draw i.i.d. tuples from a Bayesian network by ancestral sampling."""

    def __init__(self, network: BayesianNetwork, seed: int | np.random.Generator | None = None):
        self._network = network
        self._rng = np.random.default_rng(seed)

    def sample_codes(self, n_rows: int) -> dict[str, np.ndarray]:
        """Sample ``n_rows`` tuples, returned as coded columns."""
        if n_rows < 0:
            raise BayesNetError("n_rows must be non-negative")
        network = self._network
        columns: dict[str, np.ndarray] = {}
        for node in network.topological_order():
            cpt = network.cpt(node)
            config = np.zeros(n_rows, dtype=np.int64)
            for parent, size in zip(cpt.parents, cpt.parent_sizes):
                config = config * size + columns[parent]
            draws = np.empty(n_rows)
            draws[np.argsort(config, kind="stable")] = self._rng.random(n_rows)
            columns[node] = _count_at_or_below(self._cdf(cpt.table), config, draws)
        return columns

    def sample_relation(self, n_rows: int, population_size: float | None = None) -> Relation:
        """Sample a relation; when ``population_size`` is given, attach uniform
        weights ``population_size / n_rows`` so the sample represents ``P``."""
        columns = self.sample_codes(n_rows)
        schema = self._network.schema
        ordered = {name: columns[name] for name in schema.names}
        relation = Relation(schema, ordered)
        if population_size is not None and n_rows > 0:
            weights = np.full(n_rows, float(population_size) / n_rows)
            relation = relation.with_weights(weights)
        return relation

    def sample_many(
        self, n_samples: int, n_rows: int, population_size: float | None = None
    ) -> list[Relation]:
        """Generate ``K = n_samples`` independent relations (Sec. 4.2.4)."""
        if n_samples < 1:
            raise BayesNetError("n_samples must be at least 1")
        return [self.sample_relation(n_rows, population_size) for _ in range(n_samples)]

    @staticmethod
    def _cdf(table: np.ndarray) -> np.ndarray:
        """Per-configuration CDFs of a CPT table, as ``Generator.choice`` builds
        them: tiny negatives from approximate solvers clipped, each row
        renormalized (uniform when it has no mass), cumulated and divided by
        its last entry."""
        distribution = np.clip(np.asarray(table, dtype=float), 0.0, None)
        totals = distribution.sum(axis=1, keepdims=True)
        empty = totals <= 0
        distribution = np.where(
            empty, 1.0 / table.shape[1], distribution / np.where(empty, 1.0, totals)
        )
        cdf = np.cumsum(distribution, axis=1)
        cdf /= cdf[:, -1:]
        return cdf


def _count_at_or_below(cdf: np.ndarray, config: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """``count(cdf[config[i]] <= draws[i])`` for every row ``i``.

    A binary search over each row's (non-decreasing) CDF, all rows per numpy
    step: ``log2(child_size) + 1`` steps, none wider than the rows, where
    comparing against whole CDF rows would take ``n_rows * child_size``
    cells.  It equals ``searchsorted(side="right")`` on the row.
    """
    size = cdf.shape[1]
    flat = cdf.reshape(-1)
    base = config * size - 1
    count = np.zeros(config.shape[0], dtype=np.int64)
    step = 1 << (size.bit_length() - 1)
    while step:
        probe = count + step
        below = (probe <= size) & (flat.take(base + np.minimum(probe, size)) <= draws)
        count += step * below
        step >>= 1
    return count
