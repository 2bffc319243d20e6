"""Shared experiment machinery.

The harness builds datasets (cached per scale), assembles aggregate sets in
the paper's configurations (1D orders, pruned 2D/3D sets), fits the compared
methods (AQP / LinReg / IPF / the five BN modes / Hybrid) through
:meth:`Themis.fit`, and runs point query workloads measuring percent
difference against the ground-truth population.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..aggregates import AggregateSet, aggregates_from_population
from ..core import OpenWorldEvaluator, Themis, ThemisConfig, ThemisModel
from ..data import DatasetBundle, load_child, load_flights, load_imdb
from ..exceptions import ExperimentError
from ..metrics import percent_difference
from ..query import HitterKind, PointQueryWorkload, WorkloadQuery
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
        _DATASET_CACHE[key] = load_imdb(
            n_rows=scale.imdb_rows,
            n_names=scale.imdb_names,
            seed=11 + scale.seed,
            sample_fraction=scale.sample_fraction,
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
#: The ``(reweighter, bn_mode)`` of the fitted model each method reads its
#: evaluator from.  The BN modes pair with the uniform reweighter, so a call
#: asking only for BN modes never runs IPF.
_MODEL_KEYS: dict[str, tuple[str, str]] = {
    AQP: ("uniform", "BB"),
    LINREG: ("linreg", "BB"),
    IPF: ("ipf", "BB"),
    HYBRID: ("ipf", "BB"),
    **{mode: ("uniform", mode) for mode in BN_MODES},
}


def themis_config(scale: ExperimentScale, **overrides) -> ThemisConfig:
    """The :class:`ThemisConfig` an experiment scale stands for.

    ``overrides`` replace single fields (``reweighter``, ``bn_mode``,
    ``population_size``, ...); the seed defaults to ``scale.seed``.
    """
    settings = dict(
        max_parents=scale.max_parents,
        n_generated_samples=scale.n_generated_samples,
        generated_sample_size=scale.generated_sample_size,
        ipf_max_iterations=scale.ipf_max_iterations,
        seed=scale.seed,
    )
    settings.update(overrides)
    return ThemisConfig(**settings)


@dataclass
class FittedMethods:
    """Evaluators for each requested method, plus fit-time diagnostics."""

    evaluators: dict[str, OpenWorldEvaluator]
    fit_seconds: dict[str, float] = field(default_factory=dict)

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
    (``SS``, ``SB``, ``BS``, ``AB``, ``BB``), and ``Hybrid``.  Each method is
    an evaluator of a model fitted by :meth:`Themis.fit` (one model per
    ``(reweighter, bn_mode)``, shared within the call): the reweighted
    sample for AQP / LinReg / IPF, the network for a BN mode, and the
    model's hybrid for ``Hybrid``.  ``fit_seconds`` holds the model's
    reweighting time, learning time, or (for ``Hybrid``) both.
    """
    unknown = [method for method in methods if method not in _MODEL_KEYS]
    if unknown:
        raise ExperimentError(f"unknown method {unknown[0]!r}")
    seed = scale.seed if seed is None else seed
    models: dict[tuple[str, str], ThemisModel] = {}
    evaluators: dict[str, OpenWorldEvaluator] = {}
    fit_seconds: dict[str, float] = {}
    for method in methods:
        key = _MODEL_KEYS[method]
        if key not in models:
            reweighter, bn_mode = key
            themis = Themis(
                themis_config(
                    scale,
                    reweighter=reweighter,
                    bn_mode=bn_mode,
                    population_size=population_size,
                    seed=seed,
                )
            )
            themis.load_sample(sample)
            themis.add_aggregates(aggregates)
            models[key] = themis.fit()
        model = models[key]
        reweighting = model.timings["reweighting"]
        learning = model.timings["bayes_net_learning"]
        if method in BN_MODES:
            evaluators[method] = model.bayes_net_evaluator
            fit_seconds[method] = learning
        elif method == HYBRID:
            evaluators[method] = model.hybrid_evaluator
            fit_seconds[method] = reweighting + learning
        else:
            evaluators[method] = model.sample_evaluator
            fit_seconds[method] = reweighting
    return FittedMethods(evaluators=evaluators, fit_seconds=fit_seconds)


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
