"""Shared experiment machinery.

The harness builds datasets (cached per scale), assembles aggregate sets in
the paper's configurations (1D orders, pruned 2D/3D sets), fits the compared
methods (AQP / LinReg / IPF / the five BN modes / Hybrid), and runs point
query workloads measuring percent difference against the ground-truth
population.
"""

from __future__ import annotations

import os
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..aggregates import AggregateSet, aggregates_from_population
from ..bayesnet import LearningMode, ThemisBayesNetLearner
from ..core import (
    BayesNetEvaluator,
    HybridEvaluator,
    OpenWorldEvaluator,
    ReweightedSampleEvaluator,
)
from ..data import DatasetBundle, load_child, load_flights
from ..exceptions import ExperimentError
from ..metrics import percent_difference
from ..query import HitterKind, PointQueryWorkload, WorkloadQuery
from ..reweighting import IPFReweighter, LinearRegressionReweighter, UniformReweighter
from ..schema import Relation
from .config import ExperimentScale, SMALL_SCALE

#: Canonical method names used across experiments.
AQP = "AQP"
LINREG = "LinReg"
IPF = "IPF"
HYBRID = "Hybrid"
BN_MODES = ("SS", "SB", "BS", "AB", "BB")
DEFAULT_METHODS = (AQP, IPF, "BB", HYBRID)

_DATASET_CACHE: dict[tuple, DatasetBundle] = {}


# ----------------------------------------------------------------------
# Dataset access (cached per scale so repeated experiments stay fast)
# ----------------------------------------------------------------------
def flights_bundle(scale: ExperimentScale = SMALL_SCALE) -> DatasetBundle:
    """The Flights dataset bundle for a scale (cached)."""
    key = ("flights", scale.flights_rows, scale.sample_fraction, scale.seed)
    if key not in _DATASET_CACHE:
        _DATASET_CACHE[key] = load_flights(
            n_rows=scale.flights_rows,
            seed=7 + scale.seed,
            sample_fraction=scale.sample_fraction,
        )
    return _DATASET_CACHE[key]


def imdb_bundle(scale: ExperimentScale = SMALL_SCALE) -> DatasetBundle:
    """The IMDB dataset bundle for a scale (cached)."""
    key = ("imdb", scale.imdb_rows, scale.imdb_names, scale.sample_fraction, scale.seed)
    if key not in _DATASET_CACHE:
        from ..data.imdb import generate_imdb_population
        from ..data.registry import DatasetBundle as Bundle
        from ..data.samplers import biased_sample, uniform_sample
        from ..data.imdb import IMDB_AGGREGATE_ATTRIBUTES

        population = generate_imdb_population(
            n_rows=scale.imdb_rows, n_names=scale.imdb_names, seed=11 + scale.seed
        )
        samples = {
            "Unif": uniform_sample(population, scale.sample_fraction, seed=12 + scale.seed),
            "GB": biased_sample(
                population,
                {"movie_country": "GB"},
                fraction=scale.sample_fraction,
                bias=0.9,
                seed=13 + scale.seed,
            ),
            "SR159": biased_sample(
                population,
                {"rating": [1, 5, 9]},
                fraction=scale.sample_fraction,
                bias=0.9,
                seed=14 + scale.seed,
            ),
            "R159": biased_sample(
                population,
                {"rating": [1, 5, 9]},
                fraction=scale.sample_fraction,
                bias=1.0,
                seed=15 + scale.seed,
            ),
        }
        _DATASET_CACHE[key] = Bundle(
            name="imdb",
            population=population,
            samples=samples,
            aggregate_attributes=tuple(IMDB_AGGREGATE_ATTRIBUTES),
            seed=11 + scale.seed,
        )
    return _DATASET_CACHE[key]


def child_bundle(scale: ExperimentScale = SMALL_SCALE) -> DatasetBundle:
    """The CHILD dataset bundle for a scale (cached)."""
    key = ("child", scale.child_rows, scale.sample_fraction, scale.seed)
    if key not in _DATASET_CACHE:
        _DATASET_CACHE[key] = load_child(
            n_rows=scale.child_rows,
            seed=29 + scale.seed,
            sample_fraction=scale.sample_fraction,
        )
    return _DATASET_CACHE[key]


def dataset_bundle(name: str, scale: ExperimentScale = SMALL_SCALE) -> DatasetBundle:
    """Dataset bundle by name (``flights`` / ``imdb`` / ``child``)."""
    loaders = {"flights": flights_bundle, "imdb": imdb_bundle, "child": child_bundle}
    if name not in loaders:
        raise ExperimentError(f"unknown dataset {name!r}; expected one of {sorted(loaders)}")
    return loaders[name](scale)


def clear_dataset_cache() -> None:
    """Drop all cached datasets (used by tests)."""
    _DATASET_CACHE.clear()


# ----------------------------------------------------------------------
# Aggregate construction
# ----------------------------------------------------------------------
#: The 1D aggregate orders of Fig. 7 / Fig. 8 ("order A"; order B is reversed).
ONE_D_ORDER_A: dict[str, tuple[str, ...]] = {
    "flights": ("fl_date", "origin_state", "dest_state", "elapsed_time", "distance"),
    "imdb": ("movie_year", "movie_country", "gender", "rating", "runtime"),
}


def one_dimensional_order(dataset: str, order: str = "A") -> tuple[str, ...]:
    """The paper's 1D aggregate attribute order ``A`` or its reverse ``B``."""
    base = ONE_D_ORDER_A.get(dataset)
    if base is None:
        raise ExperimentError(f"no 1D order defined for dataset {dataset!r}")
    if order.upper() == "A":
        return base
    if order.upper() == "B":
        return tuple(reversed(base))
    raise ExperimentError(f"order must be 'A' or 'B', got {order!r}")


def build_aggregates(
    bundle: DatasetBundle,
    n_one_dimensional: int | None = None,
    one_dimensional_order_: Sequence[str] | None = None,
    n_two_dimensional: int = 0,
    n_three_dimensional: int = 0,
    selection_method: str = "t-cherry",
    seed: int | None = None,
) -> AggregateSet:
    """Assemble the aggregate set ``Γ`` for an experiment configuration.

    1D aggregates are added in the given order (all of them by default), then
    ``n_two_dimensional`` 2D and ``n_three_dimensional`` 3D aggregates chosen
    by the pruning technique (Table 3's configurations).
    """
    order = (
        tuple(one_dimensional_order_)
        if one_dimensional_order_ is not None
        else bundle.aggregate_attributes
    )
    if n_one_dimensional is None:
        n_one_dimensional = len(order)
    attribute_sets: list[tuple[str, ...]] = [
        (name,) for name in order[:n_one_dimensional]
    ]
    if n_two_dimensional > 0:
        attribute_sets.extend(
            bundle.pruned_attribute_sets(
                2, n_two_dimensional, method=selection_method, seed=seed
            )
        )
    if n_three_dimensional > 0:
        attribute_sets.extend(
            bundle.pruned_attribute_sets(
                3, n_three_dimensional, method=selection_method, seed=seed
            )
        )
    return aggregates_from_population(bundle.population, attribute_sets)


# ----------------------------------------------------------------------
# Method fitting
# ----------------------------------------------------------------------
@dataclass
class FittedMethods:
    """Evaluators for each requested method, plus fit-time diagnostics."""

    evaluators: dict[str, OpenWorldEvaluator]
    fit_seconds: dict[str, float] = field(default_factory=dict)
    weighted_samples: dict[str, Relation] = field(default_factory=dict)

    def __getitem__(self, method: str) -> OpenWorldEvaluator:
        return self.evaluators[method]

    def methods(self) -> list[str]:
        """The fitted method names, in insertion order."""
        return list(self.evaluators)


def fit_methods(
    sample: Relation,
    aggregates: AggregateSet,
    population_size: float,
    scale: ExperimentScale = SMALL_SCALE,
    methods: Sequence[str] = DEFAULT_METHODS,
    seed: int | None = None,
) -> FittedMethods:
    """Fit the requested methods on one sample + aggregate configuration.

    ``methods`` may contain ``AQP``, ``LinReg``, ``IPF``, any of the BN modes
    (``SS``, ``SB``, ``BS``, ``AB``, ``BB``), and ``Hybrid`` (which reuses the
    IPF weights and the BB network, fitting them on demand).
    """
    seed = scale.seed if seed is None else seed
    evaluators: dict[str, OpenWorldEvaluator] = {}
    fit_seconds: dict[str, float] = {}
    weighted_samples: dict[str, Relation] = {}
    bn_evaluators: dict[str, BayesNetEvaluator] = {}

    def reweighted(name: str) -> Relation:
        if name in weighted_samples:
            return weighted_samples[name]
        start = time.perf_counter()
        if name == AQP:
            reweighter = UniformReweighter(population_size=population_size)
        elif name == LINREG:
            reweighter = LinearRegressionReweighter(population_size=population_size)
        elif name == IPF:
            reweighter = IPFReweighter(max_iterations=scale.ipf_max_iterations)
        else:
            raise ExperimentError(f"unknown reweighting method {name!r}")
        weighted = reweighter.reweight(sample, aggregates)
        fit_seconds[name] = time.perf_counter() - start
        weighted_samples[name] = weighted
        return weighted

    def bayes_net(mode: str) -> BayesNetEvaluator:
        if mode in bn_evaluators:
            return bn_evaluators[mode]
        start = time.perf_counter()
        learner = ThemisBayesNetLearner.from_mode(
            LearningMode(mode), max_parents=scale.max_parents
        )
        result = learner.learn(sample, aggregates, population_size=population_size)
        fit_seconds[mode] = time.perf_counter() - start
        evaluator = BayesNetEvaluator(
            result.network,
            population_size=population_size,
            n_generated_samples=scale.n_generated_samples,
            generated_sample_size=scale.generated_sample_size,
            seed=seed,
            name=mode,
        )
        bn_evaluators[mode] = evaluator
        return evaluator

    for method in methods:
        if method in (AQP, LINREG, IPF):
            evaluators[method] = ReweightedSampleEvaluator(reweighted(method), name=method)
        elif method in BN_MODES:
            evaluators[method] = bayes_net(method)
        elif method == HYBRID:
            start = time.perf_counter()
            weighted = reweighted(IPF)
            bn_evaluator = bayes_net("BB")
            evaluators[method] = HybridEvaluator(weighted, bn_evaluator, name=HYBRID)
            fit_seconds[HYBRID] = time.perf_counter() - start
        else:
            raise ExperimentError(f"unknown method {method!r}")
    return FittedMethods(
        evaluators=evaluators, fit_seconds=fit_seconds, weighted_samples=weighted_samples
    )


# ----------------------------------------------------------------------
# Workloads and error measurement
# ----------------------------------------------------------------------
def point_query_workload(
    bundle: DatasetBundle,
    attribute_sets: Sequence[Sequence[str]],
    kind: HitterKind | str,
    n_queries: int,
    seed: int = 0,
) -> list[WorkloadQuery]:
    """A hitter workload over several attribute sets of one dataset."""
    generator = PointQueryWorkload(bundle.population, seed=seed)
    per_set = max(1, n_queries // max(len(attribute_sets), 1))
    return generator.generate_over_attribute_sets(attribute_sets, kind, per_set)


def point_query_errors(
    evaluators: dict[str, OpenWorldEvaluator],
    workload: Sequence[WorkloadQuery],
) -> dict[str, list[float]]:
    """Percent differences of every method on every workload query."""
    errors: dict[str, list[float]] = {name: [] for name in evaluators}
    for item in workload:
        for name, evaluator in evaluators.items():
            estimate = evaluator.execute(item.query)
            errors[name].append(percent_difference(item.true_value, estimate))
    return errors


def average_point_errors(
    evaluators: dict[str, OpenWorldEvaluator],
    workload: Sequence[WorkloadQuery],
) -> dict[str, float]:
    """Mean percent difference per method over a workload."""
    errors = point_query_errors(evaluators, workload)
    return {name: float(np.mean(values)) if values else 0.0 for name, values in errors.items()}


def default_flights_query_attribute_sets(
    bundle: DatasetBundle, n_sets: int = 6, sizes: Sequence[int] = (2, 3), seed: int = 0
) -> list[tuple[str, ...]]:
    """Random attribute sets used for "random point query" experiments."""
    generator = PointQueryWorkload(bundle.population, seed=seed)
    return generator.random_attribute_sets(sizes, n_sets)


def available_cores() -> int:
    """CPU cores this process may schedule on (the chaos experiments record it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1
