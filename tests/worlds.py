"""Deterministic test worlds shared by fixtures and importing test modules.

These live outside ``conftest.py`` so test modules can import them by a
unique module name: a bare ``from conftest import ...`` is ambiguous when
pytest collects ``tests/`` and ``benchmarks/`` in one run (both conftest
files compete for the ``conftest`` module slot).
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.aggregates import AggregateQuery, AggregateSet
from repro.core import Themis, ThemisConfig
from repro.schema import Attribute, Domain, Relation, Schema


def build_correlated_population() -> Relation:
    """The deterministic 3-attribute correlated population (builder form)."""
    rng = np.random.default_rng(123)
    n = 4000
    a = rng.choice(3, size=n, p=[0.6, 0.3, 0.1])
    b_table = np.array([[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]])
    b = np.array([rng.choice(3, p=b_table[value]) for value in a])
    c_table = np.array([[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])
    c = np.array([rng.choice(2, p=c_table[value]) for value in b])
    schema = Schema(
        [
            Attribute("A", Domain([0, 1, 2])),
            Attribute("B", Domain([0, 1, 2])),
            Attribute("C", Domain([0, 1])),
        ]
    )
    return Relation(schema, {"A": a, "B": b, "C": c})


def build_biased_correlated_sample(population: Relation) -> Relation:
    """The deterministic biased sample of the correlated population."""
    rng = np.random.default_rng(7)
    a = population.column("A")
    eligible = np.where((a == 0) | (rng.random(population.n_rows) < 0.1))[0]
    chosen = rng.choice(eligible, size=600, replace=False)
    return population.take(np.sort(chosen))


def build_correlated_aggregates(population: Relation) -> AggregateSet:
    """The 1D and 2D aggregate set of the correlated population."""
    return AggregateSet(
        [
            AggregateQuery.from_relation(population, ["A"]),
            AggregateQuery.from_relation(population, ["A", "B"]),
            AggregateQuery.from_relation(population, ["B", "C"]),
        ]
    )


def build_fitted_themis() -> Themis:
    """A small fitted Themis over the correlated population's biased sample."""
    population = build_correlated_population()
    themis = Themis(
        ThemisConfig(
            seed=1,
            ipf_max_iterations=40,
            n_generated_samples=3,
            generated_sample_size=400,
        )
    )
    themis.load_sample(build_biased_correlated_sample(population))
    themis.add_aggregates(build_correlated_aggregates(population))
    themis.fit()
    return themis


def dispatch_outcomes(pool, queries) -> list:
    """One ``RequestOutcome`` per query: a worker pool's dispatch, run to the end."""
    outcomes = [None] * len(queries)
    asyncio.run(pool.dispatch(queries, outcomes.__setitem__))
    return outcomes


def build_sparse_fitted_themis() -> Themis:
    """A facade fitted on a very sparse sample, so many tuples route to the BN."""
    population = build_correlated_population()
    themis = Themis(
        ThemisConfig(
            seed=3,
            ipf_max_iterations=20,
            n_generated_samples=2,
            generated_sample_size=200,
        )
    )
    themis.load_sample(build_biased_correlated_sample(population).take(np.arange(30)))
    themis.add_aggregates(build_correlated_aggregates(population))
    themis.fit()
    return themis
