"""Table 1 — the motivating example (Sec. 2).

A data scientist estimates the number of short flights per origin state from
a sample biased towards four major states, comparing: the raw sample, uniform
AQP reweighting, reweighting from the per-state 1D aggregate ("US State"),
and Themis.  The paper's Table 1 shows Themis matching the state-aggregate
answers for states present in the sample and, unlike every other option,
returning a non-zero answer for a state (ME) missing from the sample.
"""

from __future__ import annotations

from ..aggregates import aggregates_from_population
from ..core import Themis
from ..metrics import percent_difference
from ..plan import ColumnarExecutor
from ..query import AggregateFunction, AggregateSpec, Comparison, Predicate, ScalarAggregateQuery
from ..reweighting import IPFReweighter, UniformReweighter
from .config import ExperimentScale, SMALL_SCALE
from .harness import flights_bundle, themis_config
from .reporting import ExperimentResult


def _short_flight_query(state: str) -> ScalarAggregateQuery:
    """Flights in the shortest elapsed-time bucket leaving ``state``."""
    return ScalarAggregateQuery(
        aggregate=AggregateSpec(AggregateFunction.COUNT),
        predicates=(
            Predicate("elapsed_time", Comparison.LE, 0),
            Predicate("origin_state", Comparison.EQ, state),
        ),
    )


def run_table1(
    scale: ExperimentScale = SMALL_SCALE,
    states: tuple[str, ...] = ("CA", "FL", "OH", "ME"),
) -> ExperimentResult:
    """Reproduce Table 1: short-flight counts per state under each preparation."""
    bundle = flights_bundle(scale)
    population = bundle.population
    sample = bundle.sample("Corners")
    population_size = float(bundle.population_size)

    state_aggregate = aggregates_from_population(population, [("origin_state",)])
    richer_aggregates = aggregates_from_population(
        population,
        [("origin_state",), ("elapsed_time",), ("origin_state", "elapsed_time")],
    )

    raw = ColumnarExecutor(sample)
    aqp_sample = UniformReweighter(population_size=population_size).reweight(
        sample, state_aggregate
    )
    aqp = ColumnarExecutor(aqp_sample)
    state_sample = IPFReweighter(max_iterations=scale.ipf_max_iterations).reweight(
        sample, state_aggregate
    )
    us_state = ColumnarExecutor(state_sample)

    themis = Themis(themis_config(scale, population_size=population_size))
    themis.load_sample(sample)
    themis.add_aggregates(richer_aggregates)
    themis.fit()

    result = ExperimentResult(
        experiment_id="table-1",
        title="Motivating example: short flights per state",
        paper_claim=(
            "Themis and the state-aggregate reweighting match the truth for states "
            "in the sample; only Themis answers for states missing from the sample "
            "(ME), while Raw and AQP are far off for under-represented states."
        ),
        parameters={"sample": "Corners", "population_rows": population.n_rows},
    )
    truth = ColumnarExecutor(population)
    for state in states:
        query = _short_flight_query(state)
        true_value = truth.execute(query)
        raw_value = raw.execute(query)
        aqp_value = aqp.execute(query)
        state_value = us_state.execute(query)
        themis_value = themis.query(query)
        result.add_row(
            state=state,
            true=true_value,
            raw=raw_value,
            aqp=aqp_value,
            us_state=state_value,
            themis=themis_value,
            themis_error=percent_difference(true_value, themis_value),
            aqp_error=percent_difference(true_value, aqp_value),
        )
    return result
