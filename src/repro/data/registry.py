"""Named datasets, biased samples, and aggregate attribute sets (Sec. 6.2/6.3).

This module reproduces the experimental setup in one place: each dataset's
population generator, the paper's named biased samples (Unif / June /
SCorners / Corners for Flights; Unif / GB / SR159 / R159 for IMDB), and the
aggregate attribute sets of Table 3 (obtained by the pruning technique).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..aggregates import (
    AggregateSet,
    aggregates_from_population,
    candidate_attribute_sets,
    prune_aggregates,
)
from ..exceptions import ExperimentError
from ..schema import Relation
from .child import generate_child_population
from .flights import CORNER_STATES, generate_flights_population
from .imdb import IMDB_AGGREGATE_ATTRIBUTES, generate_imdb_population
from .samplers import biased_sample, uniform_sample


@dataclass
class DatasetBundle:
    """A population, its named biased samples, and bookkeeping for experiments."""

    name: str
    population: Relation
    samples: dict[str, Relation]
    aggregate_attributes: tuple[str, ...]
    seed: int = 0
    extra: dict[str, object] = field(default_factory=dict)

    @property
    def population_size(self) -> int:
        """Number of tuples in the population."""
        return self.population.n_rows

    def sample(self, name: str) -> Relation:
        """Fetch one of the named biased samples."""
        if name not in self.samples:
            raise ExperimentError(
                f"unknown sample {name!r}; available: {sorted(self.samples)}"
            )
        return self.samples[name]

    def aggregates(self, attribute_sets) -> AggregateSet:
        """Ground-truth population aggregates for the given attribute sets."""
        return aggregates_from_population(self.population, attribute_sets)

    def pruned_attribute_sets(
        self, dimension: int, budget: int, method: str = "t-cherry", seed: int | None = None
    ) -> list[tuple[str, ...]]:
        """Attribute sets of ``dimension`` chosen by the pruning technique."""
        candidates = candidate_attribute_sets(self.aggregate_attributes, dimension)
        candidate_aggregates = self.aggregates(candidates)
        selected = prune_aggregates(
            candidate_aggregates, budget, method=method, seed=seed
        )
        return [aggregate.attributes for aggregate in selected]


def load_flights(n_rows: int = 50_000, seed: int = 7, sample_fraction: float = 0.1) -> DatasetBundle:
    """The Flights population and its four biased samples (Sec. 6.2).

    * ``Unif`` — uniform 10% sample;
    * ``June`` — 90% of rows from June flights;
    * ``SCorners`` — 90% of rows from the four corner states (supported);
    * ``Corners`` — 100% of rows from the four corner states (unsupported).
    """
    population = generate_flights_population(n_rows=n_rows, seed=seed)
    samples = {
        "Unif": uniform_sample(population, sample_fraction, seed=seed + 1),
        "June": biased_sample(
            population,
            {"fl_date": "06"},
            fraction=sample_fraction,
            bias=0.9,
            seed=seed + 2,
        ),
        "SCorners": biased_sample(
            population,
            {"origin_state": list(CORNER_STATES)},
            fraction=sample_fraction,
            bias=0.9,
            seed=seed + 3,
        ),
        "Corners": biased_sample(
            population,
            {"origin_state": list(CORNER_STATES)},
            fraction=sample_fraction,
            bias=1.0,
            seed=seed + 4,
        ),
    }
    return DatasetBundle(
        name="flights",
        population=population,
        samples=samples,
        aggregate_attributes=(
            "fl_date",
            "origin_state",
            "dest_state",
            "elapsed_time",
            "distance",
        ),
        seed=seed,
    )


def load_imdb(
    n_rows: int = 40_000,
    seed: int = 11,
    sample_fraction: float = 0.1,
    n_names: int = 2_000,
) -> DatasetBundle:
    """The IMDB population and its four biased samples (Sec. 6.2).

    * ``Unif`` — uniform 10% sample;
    * ``GB`` — 90% of rows from Great Britain movies;
    * ``SR159`` — 90% of rows from movies rated 1, 5, or 9 (supported);
    * ``R159`` — 100% of rows from movies rated 1, 5, or 9 (unsupported).
    """
    population = generate_imdb_population(n_rows=n_rows, n_names=n_names, seed=seed)
    samples = {
        "Unif": uniform_sample(population, sample_fraction, seed=seed + 1),
        "GB": biased_sample(
            population,
            {"movie_country": "GB"},
            fraction=sample_fraction,
            bias=0.9,
            seed=seed + 2,
        ),
        "SR159": biased_sample(
            population,
            {"rating": [1, 5, 9]},
            fraction=sample_fraction,
            bias=0.9,
            seed=seed + 3,
        ),
        "R159": biased_sample(
            population,
            {"rating": [1, 5, 9]},
            fraction=sample_fraction,
            bias=1.0,
            seed=seed + 4,
        ),
    }
    return DatasetBundle(
        name="imdb",
        population=population,
        samples=samples,
        aggregate_attributes=tuple(IMDB_AGGREGATE_ATTRIBUTES),
        seed=seed,
    )


def load_child(n_rows: int = 20_000, seed: int = 29, sample_fraction: float = 0.1) -> DatasetBundle:
    """The CHILD population (from its ground-truth network) and a uniform sample."""
    population, network = generate_child_population(n_rows=n_rows, seed=seed)
    samples = {"Unif": uniform_sample(population, sample_fraction, seed=seed + 1)}
    return DatasetBundle(
        name="child",
        population=population,
        samples=samples,
        aggregate_attributes=tuple(population.attribute_names),
        seed=seed,
        extra={"true_network": network},
    )
