"""Figures 3 and 4 plus Table 4 — overall point-query accuracy (Sec. 6.4).

For each biased sample of Flights (Fig. 3) and IMDB (Fig. 4), 100 heavy- and
100 light-hitter point queries are answered by the default AQP approach, IPF
reweighting, the BB Bayesian network, and Themis's hybrid, using the full 1D
aggregates plus B = 4 pruned 2D aggregates.  Table 4 reports the percent
improvement of the hybrid approach over AQP at the 25th/50th/75th error
percentiles for the Flights samples.

Paper shape to reproduce: hybrid achieves the lowest error on supported
samples for both hitter kinds; on the unsupported samples (Corners / R159)
the BN is best but hybrid still beats IPF/AQP.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..metrics import ErrorSummary, percent_improvement
from ..query import HitterKind
from .config import ExperimentScale, SMALL_SCALE
from .harness import (
    DEFAULT_METHODS,
    build_aggregates,
    dataset_bundle,
    fit_methods,
    point_query_errors,
    point_query_workload,
)
from .reporting import ExperimentResult

FLIGHTS_SAMPLES = ("Unif", "June", "SCorners", "Corners")
IMDB_SAMPLES = ("Unif", "GB", "SR159", "R159")


def _query_attribute_sets(dataset: str) -> list[tuple[str, ...]]:
    """Attribute sets the hitter queries range over (scaled-down Sec. 6.3 setup)."""
    if dataset == "flights":
        return [
            ("origin_state", "dest_state"),
            ("origin_state", "elapsed_time"),
            ("fl_date", "origin_state"),
            ("dest_state", "distance"),
            ("fl_date", "dest_state", "distance"),
            ("origin_state", "dest_state", "elapsed_time"),
        ]
    return [
        ("movie_year", "rating"),
        ("movie_country", "rating"),
        ("movie_year", "movie_country", "runtime"),
        ("gender", "rating", "runtime"),
        ("movie_year", "gender"),
    ]


def run_overall_accuracy(
    dataset: str = "flights",
    scale: ExperimentScale = SMALL_SCALE,
    samples: Sequence[str] | None = None,
    methods: Sequence[str] = DEFAULT_METHODS,
    n_two_dimensional: int = 4,
) -> ExperimentResult:
    """Reproduce Fig. 3 (flights) or Fig. 4 (imdb): per-sample error summaries."""
    bundle = dataset_bundle(dataset, scale)
    if samples is None:
        samples = FLIGHTS_SAMPLES if dataset == "flights" else IMDB_SAMPLES
    aggregates = build_aggregates(
        bundle, n_two_dimensional=n_two_dimensional, seed=scale.seed
    )
    attribute_sets = _query_attribute_sets(dataset)

    result = ExperimentResult(
        experiment_id="figure-3" if dataset == "flights" else "figure-4",
        title=f"Heavy/light hitter point-query error on {dataset} biased samples",
        paper_claim=(
            "Hybrid has the lowest error on supported samples; on the 100%-biased "
            "sample the BN (BB) wins but hybrid still beats IPF and AQP."
        ),
        parameters={
            "dataset": dataset,
            "n_2d_aggregates": n_two_dimensional,
            "n_queries": scale.n_queries,
        },
    )
    for sample_name in samples:
        sample = bundle.sample(sample_name)
        fitted = fit_methods(
            sample,
            aggregates,
            population_size=bundle.population_size,
            scale=scale,
            methods=methods,
        )
        for kind in (HitterKind.HEAVY, HitterKind.LIGHT):
            workload = point_query_workload(
                bundle, attribute_sets, kind, scale.n_queries, seed=scale.seed + 17
            )
            errors = point_query_errors(fitted.evaluators, workload)
            for method, values in errors.items():
                summary = ErrorSummary.from_errors(values)
                result.add_row(
                    sample=sample_name,
                    hitters=kind.value,
                    method=method,
                    median=summary.median,
                    mean=summary.mean,
                    p25=summary.p25,
                    p75=summary.p75,
                )
    return result


def run_table4_improvement(
    scale: ExperimentScale = SMALL_SCALE,
    overall: ExperimentResult | None = None,
) -> ExperimentResult:
    """Table 4: percent improvement of hybrid over AQP per percentile.

    The paper reports a ~70% median-error improvement for heavy hitters.
    """
    if overall is None:
        overall = run_overall_accuracy("flights", scale, methods=("AQP", "Hybrid"))
    result = ExperimentResult(
        experiment_id="table-4",
        title="Percent improvement of hybrid over AQP (Flights)",
        paper_claim=(
            "Hybrid improves the heavy-hitter median error by roughly 70 percent "
            "over uniform reweighting, with larger gains on the more biased samples."
        ),
        parameters=dict(overall.parameters),
    )
    for sample_name in FLIGHTS_SAMPLES:
        for kind in ("heavy", "light"):
            aqp_rows = overall.filter_rows(sample=sample_name, hitters=kind, method="AQP")
            hybrid_rows = overall.filter_rows(
                sample=sample_name, hitters=kind, method="Hybrid"
            )
            if not aqp_rows or not hybrid_rows:
                continue
            aqp = aqp_rows[0]
            hybrid = hybrid_rows[0]
            result.add_row(
                sample=sample_name,
                hitters=kind,
                improvement_p25=percent_improvement(aqp["p25"], hybrid["p25"]),
                improvement_p50=percent_improvement(aqp["median"], hybrid["median"]),
                improvement_p75=percent_improvement(aqp["p75"], hybrid["p75"]),
            )
    return result


def median_improvement_heavy(table4: ExperimentResult) -> float:
    """Average heavy-hitter median improvement across samples (headline claim)."""
    values = [
        row["improvement_p50"]
        for row in table4.filter_rows(hitters="heavy")
        if np.isfinite(row["improvement_p50"])
    ]
    return float(np.mean(values)) if values else 0.0
