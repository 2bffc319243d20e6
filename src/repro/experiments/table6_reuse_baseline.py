"""Table 6 — Themis versus the reuse technique of Galakatos et al. [33].

With a single 1D aggregate over ``origin_state``, GROUP BY COUNT(*) queries
over the attribute pairs (O, DE) and (DT, DE) are answered by Themis's hybrid
and by the reuse baseline (known marginal × sample conditional) while the
Corners sample's bias is swept from 100 down to 90 percent.  The reported
value is the error ratio ``err_Themis / err_[33]``.

Paper shape: for (O, DE) — a pair the aggregate covers one side of — the two
are comparable (ratio ≈ 1); for (DT, DE) — untouched by the aggregate —
Themis is clearly better (ratio grows with the number of aggregates Themis
can exploit) because the baseline degenerates to uniform reweighting.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..aggregates import aggregates_from_population
from ..baselines import ConditionalReuseBaseline
from ..data import CORNER_STATES, biased_sample
from ..metrics import average_group_by_error
from ..plan import ColumnarExecutor
from ..query import GroupByQuery
from .config import ExperimentScale, SMALL_SCALE
from .harness import fit_methods, flights_bundle
from .reporting import ExperimentResult

DEFAULT_BIASES = (1.0, 0.98, 0.96, 0.94, 0.92, 0.90)
QUERY_PAIRS = (("origin_state", "dest_state"), ("distance", "dest_state"))


def run_reuse_comparison(
    scale: ExperimentScale = SMALL_SCALE,
    biases: Sequence[float] = DEFAULT_BIASES,
    query_pairs: Sequence[tuple[str, str]] = QUERY_PAIRS,
) -> ExperimentResult:
    """Error ratio of hybrid vs the reuse baseline per bias and attribute pair."""
    bundle = flights_bundle(scale)
    population = ColumnarExecutor(bundle.population)
    aggregates = aggregates_from_population(bundle.population, [("origin_state",)])

    result = ExperimentResult(
        experiment_id="table-6",
        title="Error ratio of Themis hybrid vs the reuse baseline [33]",
        paper_claim=(
            "Comparable error on (O, DE); Themis clearly better on (DT, DE), where "
            "the baseline cannot use the aggregate and reduces to uniform scaling."
        ),
        parameters={"biases": list(biases)},
    )
    for bias in biases:
        sample = biased_sample(
            bundle.population,
            {"origin_state": list(CORNER_STATES)},
            fraction=scale.sample_fraction,
            bias=bias,
            seed=scale.seed + int(bias * 100),
        )
        fitted = fit_methods(
            sample,
            aggregates,
            population_size=bundle.population_size,
            scale=scale,
            methods=("Hybrid",),
        )
        reuse = ConditionalReuseBaseline(
            sample, aggregates, population_size=bundle.population_size
        )
        for pair in query_pairs:
            query = GroupByQuery(group_by=tuple(pair))
            truth = population.execute(query).as_dict()
            hybrid_estimate = fitted["Hybrid"].execute(query).as_dict()
            reuse_estimate = reuse.group_by_count(pair).as_dict()
            hybrid_error = average_group_by_error(truth, hybrid_estimate)
            reuse_error = average_group_by_error(truth, reuse_estimate)
            ratio = hybrid_error / reuse_error if reuse_error > 0 else float("inf")
            result.add_row(
                pair="-".join(pair),
                bias=bias,
                hybrid_error=hybrid_error,
                reuse_error=reuse_error,
                error_ratio=ratio,
            )
    return result
