"""Tests for the experiment harness and the per-figure experiment modules.

These run at TINY_SCALE: they check plumbing (row shapes, parameter passing,
determinism) and the paper's coarsest qualitative claims, not exact numbers.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import Themis
from repro.exceptions import ExperimentError
from repro.experiments import (
    TINY_SCALE,
    ExperimentResult,
    build_aggregates,
    dataset_bundle,
    fit_methods,
    flights_bundle,
    format_table,
    imdb_bundle,
    one_dimensional_order,
    point_query_errors,
    point_query_workload,
    run_1d_sweep,
    run_bias_sweep,
    run_bn_modes,
    run_nd_sweep,
    run_overall_accuracy,
    run_pruning,
    run_query_execution_time,
    run_reuse_comparison,
    run_reweighting_comparison,
    run_simplification_ablation,
    run_solver_time,
    run_sql_queries,
    run_table1,
    run_table4_improvement,
    run_time_accuracy,
    themis_config,
)
from repro.reweighting import (
    IPFReweighter,
    LinearRegressionReweighter,
    UniformReweighter,
)
from repro.sql import parse_sql

SCALE = TINY_SCALE

#: sha256 over the TINY-scale IMDB population and its four samples (every
#: column's domain, dtype and codes), as the harness's own loader built them
#: before it called ``load_imdb``.
TINY_IMDB_SHA256 = "fce2dc91f252039026d65cf944110812dfe9ed8c1409f16618d7b5d71a81fd60"

#: SQL over the flights sample: scalar, point and GROUP BY shapes, one of
#: them on a state the biased sample may lack.
HYBRID_SQL = (
    "SELECT COUNT(*) FROM flights WHERE origin_state = 'CA' AND distance <= 3",
    "SELECT COUNT(*) FROM flights WHERE origin_state = 'ME'",
    "SELECT AVG(distance) FROM flights WHERE dest_state = 'NY'",
    "SELECT dest_state, COUNT(*) FROM flights WHERE elapsed_time < 4 GROUP BY dest_state",
    "SELECT origin_state, SUM(distance) FROM flights GROUP BY origin_state",
)


def _digest_relation(digest, relation) -> None:
    for attribute in relation.schema:
        digest.update(attribute.name.encode())
        digest.update(repr(attribute.domain.values).encode())
        column = np.ascontiguousarray(relation.column(attribute.name))
        digest.update(column.dtype.str.encode())
        digest.update(column.tobytes())
    if relation.has_weights:
        digest.update(np.ascontiguousarray(relation.weights).tobytes())


class TestHarness:
    def test_dataset_bundles_cached(self):
        first = flights_bundle(SCALE)
        second = flights_bundle(SCALE)
        assert first is second

    def test_imdb_bundle_cached(self):
        assert imdb_bundle(SCALE) is imdb_bundle(SCALE)

    def test_dataset_bundle_by_name(self):
        assert dataset_bundle("flights", SCALE).name == "flights"
        with pytest.raises(ExperimentError):
            dataset_bundle("nope", SCALE)

    def test_one_dimensional_orders(self):
        order_a = one_dimensional_order("flights", "A")
        order_b = one_dimensional_order("flights", "B")
        assert order_a == tuple(reversed(order_b))
        with pytest.raises(ExperimentError):
            one_dimensional_order("flights", "C")

    def test_build_aggregates_counts(self):
        bundle = flights_bundle(SCALE)
        aggregates = build_aggregates(bundle, n_two_dimensional=2)
        dimensions = sorted(a.dimension for a in aggregates)
        assert dimensions == [1, 1, 1, 1, 1, 2, 2]

    def test_fit_methods_and_errors(self):
        bundle = flights_bundle(SCALE)
        aggregates = build_aggregates(bundle, n_two_dimensional=1)
        fitted = fit_methods(
            bundle.sample("SCorners"),
            aggregates,
            population_size=bundle.population_size,
            scale=SCALE,
            methods=("AQP", "IPF", "BB", "Hybrid"),
        )
        assert set(fitted.methods()) == {"AQP", "IPF", "BB", "Hybrid"}
        workload = point_query_workload(
            bundle, [("origin_state", "dest_state")], "heavy", 5, seed=1
        )
        errors = point_query_errors(fitted.evaluators, workload)
        assert all(len(values) == len(workload) for values in errors.values())

    def test_unknown_method_rejected(self):
        bundle = flights_bundle(SCALE)
        aggregates = build_aggregates(bundle)
        with pytest.raises(ExperimentError):
            fit_methods(
                bundle.sample("Unif"),
                aggregates,
                population_size=bundle.population_size,
                scale=SCALE,
                methods=("Bogus",),
            )


class TestOneFitPath:
    """``fit_methods`` fits through ``Themis.fit`` and nothing else."""

    @pytest.fixture
    def inputs(self):
        bundle = flights_bundle(SCALE)
        aggregates = build_aggregates(bundle, n_two_dimensional=2, seed=SCALE.seed)
        return bundle, bundle.sample("SCorners"), aggregates

    def test_hybrid_is_the_facades_hybrid(self, inputs):
        bundle, sample, aggregates = inputs
        fitted = fit_methods(
            sample,
            aggregates,
            population_size=bundle.population_size,
            scale=SCALE,
            methods=("Hybrid",),
        )
        themis = Themis(themis_config(SCALE, population_size=bundle.population_size))
        themis.load_sample(sample, name="flights")
        themis.add_aggregates(aggregates)
        facade = themis.fit().hybrid_evaluator
        workload = point_query_workload(
            bundle, [("origin_state", "dest_state"), ("fl_date", "distance")], "heavy", 6
        ) + point_query_workload(bundle, [("origin_state", "elapsed_time")], "light", 6)
        for item in workload:
            assert fitted["Hybrid"].execute(item.query) == facade.execute(item.query)
        for statement in HYBRID_SQL:
            query = parse_sql(statement).query
            assert fitted["Hybrid"].execute(query) == facade.execute(query)
            assert fitted["Hybrid"].execute(query) == themis.sql(statement)

    def test_reweighted_samples_are_the_reweighters_own(self, inputs):
        bundle, sample, aggregates = inputs
        population_size = bundle.population_size
        fitted = fit_methods(
            sample,
            aggregates,
            population_size=population_size,
            scale=SCALE,
            methods=("AQP", "LinReg", "IPF"),
        )
        reweighters = {
            "AQP": UniformReweighter(population_size=population_size),
            "LinReg": LinearRegressionReweighter(population_size=population_size),
            "IPF": IPFReweighter(max_iterations=SCALE.ipf_max_iterations),
        }
        for method, reweighter in reweighters.items():
            expected = reweighter.reweight(sample, aggregates)
            assert np.array_equal(fitted[method].sample.weights, expected.weights)

    def test_bn_modes_alone_never_run_ipf(self, inputs, monkeypatch):
        bundle, sample, aggregates = inputs
        calls = []
        fit = IPFReweighter.fit

        def counting_fit(self, *args, **kwargs):
            calls.append(self)
            return fit(self, *args, **kwargs)

        monkeypatch.setattr(IPFReweighter, "fit", counting_fit)
        fitted = fit_methods(
            sample,
            aggregates,
            population_size=bundle.population_size,
            scale=SCALE,
            methods=("SS", "SB", "BS", "AB", "BB"),
        )
        assert fitted.methods() == ["SS", "SB", "BS", "AB", "BB"]
        assert calls == []
        fit_methods(
            sample,
            aggregates,
            population_size=bundle.population_size,
            scale=SCALE,
            methods=("BB", "IPF", "Hybrid"),
        )
        assert len(calls) == 1  # IPF and Hybrid share one model

    def test_themis_config_maps_the_scale(self):
        config = themis_config(SCALE)
        assert config.max_parents == SCALE.max_parents
        assert config.n_generated_samples == SCALE.n_generated_samples
        assert config.generated_sample_size == SCALE.generated_sample_size
        assert config.ipf_max_iterations == SCALE.ipf_max_iterations
        assert config.seed == SCALE.seed
        overridden = themis_config(
            SCALE, reweighter="linreg", bn_mode="SS", population_size=123.0, seed=7
        )
        assert overridden.reweighter == "linreg"
        assert overridden.bn_mode == "SS"
        assert overridden.population_size == 123.0
        assert overridden.seed == 7
        assert overridden.max_parents == SCALE.max_parents

    def test_fit_seconds_are_the_models_timings(self, inputs, monkeypatch):
        bundle, sample, aggregates = inputs
        models = []
        original_fit = Themis.fit

        def recording_fit(self):
            model = original_fit(self)
            models.append(model)
            return model

        monkeypatch.setattr(Themis, "fit", recording_fit)
        fitted = fit_methods(
            sample,
            aggregates,
            population_size=bundle.population_size,
            scale=SCALE,
            methods=("IPF", "Hybrid", "SB"),
        )
        assert len(models) == 2  # ("ipf", "BB") and ("uniform", "SB")
        ipf_model, sb_model = models
        reweighting = ipf_model.timings["reweighting"]
        learning = ipf_model.timings["bayes_net_learning"]
        assert fitted.fit_seconds["IPF"] == reweighting
        assert fitted.fit_seconds["Hybrid"] == reweighting + learning
        assert fitted.fit_seconds["SB"] == sb_model.timings["bayes_net_learning"]

    def test_unknown_method_fails_before_any_fit(self, inputs, monkeypatch):
        bundle, sample, aggregates = inputs
        fits = []
        monkeypatch.setattr(Themis, "fit", lambda self: fits.append(self))
        with pytest.raises(ExperimentError, match="Bogus"):
            fit_methods(
                sample,
                aggregates,
                population_size=bundle.population_size,
                scale=SCALE,
                methods=("AQP", "Bogus"),
            )
        assert fits == []

    def test_imdb_bundle_is_pinned(self):
        bundle = imdb_bundle(SCALE)
        digest = hashlib.sha256()
        _digest_relation(digest, bundle.population)
        for name in ("Unif", "GB", "SR159", "R159"):
            digest.update(name.encode())
            _digest_relation(digest, bundle.sample(name))
        assert digest.hexdigest() == TINY_IMDB_SHA256
        assert bundle.seed == 11 + SCALE.seed
        assert sorted(bundle.samples) == ["GB", "R159", "SR159", "Unif"]


class TestReporting:
    def test_experiment_result_rendering(self):
        result = ExperimentResult("x", "title", paper_claim="claim")
        result.add_row(a=1, b=2.5)
        result.add_row(a=3, b=float("inf"))
        text = result.render()
        assert "title" in text and "claim" in text and "inf" in text

    def test_filter_and_column(self):
        result = ExperimentResult("x", "t")
        result.add_row(method="AQP", error=10.0)
        result.add_row(method="IPF", error=5.0)
        assert result.filter_rows(method="IPF")[0]["error"] == 5.0
        assert result.column("error") == [10.0, 5.0]

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"


class TestExperiments:
    def test_table1_rows(self):
        result = run_table1(SCALE, states=("CA", "ME"))
        assert len(result.rows) == 2
        assert {"state", "true", "themis"} <= set(result.columns())

    def test_overall_accuracy_shape(self):
        result = run_overall_accuracy(
            "flights", SCALE, samples=("SCorners",), methods=("AQP", "Hybrid")
        )
        assert len(result.rows) == 2 * 2  # 2 methods x heavy/light
        assert all(np.isfinite(row["median"]) for row in result.rows)

    def test_overall_accuracy_headline_claim_at_small_scale(self):
        """Fig. 3 / Table 4 shape: hybrid beats AQP on heavy hitters (SCorners)."""
        from repro.experiments import SMALL_SCALE

        result = run_overall_accuracy(
            "flights", SMALL_SCALE, samples=("SCorners",), methods=("AQP", "Hybrid")
        )
        heavy_aqp = result.filter_rows(sample="SCorners", hitters="heavy", method="AQP")[0]
        heavy_hybrid = result.filter_rows(
            sample="SCorners", hitters="heavy", method="Hybrid"
        )[0]
        assert heavy_hybrid["median"] < heavy_aqp["median"]

    def test_table4_improvement_rows(self):
        overall = run_overall_accuracy(
            "flights", SCALE, samples=("SCorners",), methods=("AQP", "Hybrid")
        )
        table4 = run_table4_improvement(SCALE, overall=overall)
        assert len(table4.rows) == 2
        assert "improvement_p50" in table4.columns()

    def test_bias_sweep_rows(self):
        result = run_bias_sweep(SCALE, biases=(1.0, 0.9), methods=("AQP", "IPF"))
        assert len(result.rows) == 4

    def test_sql_queries_rows(self):
        result = run_sql_queries(SCALE, methods=("IPF", "Hybrid"), biases=(1.0,))
        assert len(result.rows) == 6 * 2
        assert all(np.isfinite(row["avg_percent_difference"]) for row in result.rows)

    def test_1d_sweep_rows(self):
        result = run_1d_sweep(
            "flights",
            SCALE,
            samples=("SCorners",),
            orders=("A",),
            budgets=(1, 2),
            methods=("AQP", "IPF"),
        )
        assert len(result.rows) == 4

    def test_nd_sweep_rows(self):
        result = run_nd_sweep(
            "flights",
            2,
            SCALE,
            samples=("SCorners",),
            budgets=(0, 2),
            methods=("IPF", "BB"),
        )
        assert len(result.rows) == 4

    def test_bn_modes_rows(self):
        result = run_bn_modes(SCALE, budgets=(0, 2), modes=("SS", "BB"))
        assert len(result.rows) == 2 * 2 * 2

    def test_reweighting_comparison_ipf_beats_aqp_on_biased_sample(self):
        result = run_reweighting_comparison(
            SCALE, samples=("SCorners",), methods=("AQP", "IPF")
        )
        aqp = result.filter_rows(sample="SCorners", method="AQP")[0]["mean"]
        ipf = result.filter_rows(sample="SCorners", method="IPF")[0]["mean"]
        assert ipf <= aqp

    def test_pruning_rows_include_opt(self):
        result = run_pruning(SCALE, budgets=(4,), selection_methods=("t-cherry",), bn_methods=("BB",))
        selections = {row["selection"] for row in result.rows}
        assert "OPT" in selections and "Prune" in selections

    def test_time_accuracy_rows(self):
        result = run_time_accuracy(SCALE, configurations=((2, 0), (5, 1)))
        assert len(result.rows) == 4
        assert all(row["solver_seconds"] >= 0 for row in result.rows)

    def test_reuse_comparison_rows(self):
        result = run_reuse_comparison(SCALE, biases=(1.0,))
        assert len(result.rows) == 2
        assert all(np.isfinite(row["hybrid_error"]) for row in result.rows)

    def test_query_execution_time_rows(self):
        result = run_query_execution_time(SCALE, methods=("IPF", "BB"))
        assert len(result.rows) == 2
        assert all(row["avg_query_seconds"] < 1.0 for row in result.rows)

    def test_solver_time_rows(self):
        result = run_solver_time(SCALE, configurations=((2, 0), (3, 1)))
        assert len(result.rows) == 2
        assert all(row["ipf_seconds"] >= 0 for row in result.rows)

    def test_simplification_ablation_claim(self):
        result = run_simplification_ablation(SCALE)
        per_factor = result.filter_rows(solver="per-factor (Sec. 5.2)")[0]
        naive = result.filter_rows(solver="naive joint (Eq. 2)")[0]
        assert per_factor["seconds"] <= naive["seconds"]
