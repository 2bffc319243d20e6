"""Tests for the Themis facade: ingestion, fitting, and open-world querying."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
import scipy.optimize

from repro.aggregates import AggregateQuery, AggregateSet
from repro.core import Themis, ThemisConfig
from repro.data import load_flights
from repro.exceptions import QueryError, ThemisError
from repro.experiments import build_aggregates
from repro.metrics import percent_difference
from repro.query import GroupByQuery, PointQuery
from repro.schema import Relation


@pytest.fixture
def fitted_themis(biased_correlated_sample, correlated_aggregates):
    themis = Themis(
        ThemisConfig(
            seed=1,
            ipf_max_iterations=60,
            n_generated_samples=4,
            generated_sample_size=600,
        )
    )
    themis.load_sample(biased_correlated_sample)
    themis.add_aggregates(correlated_aggregates)
    themis.fit()
    return themis


class TestIngestion:
    def test_empty_sample_rejected(self, correlated_population):
        themis = Themis()
        with pytest.raises(ThemisError):
            themis.load_sample(Relation.empty(correlated_population.schema))

    def test_fit_without_sample_rejected(self):
        with pytest.raises(ThemisError):
            Themis().fit()

    def test_fit_without_aggregates_rejected(self, biased_correlated_sample):
        themis = Themis()
        themis.load_sample(biased_correlated_sample)
        with pytest.raises(ThemisError):
            themis.fit()

    def test_unknown_config_override_rejected(self):
        with pytest.raises(ThemisError):
            Themis(bogus_option=1)

    def test_config_overrides_apply(self):
        themis = Themis(reweighter="linreg", bn_mode="SB")
        assert themis.config.reweighter == "linreg"
        assert themis.config.bn_mode == "SB"

    def test_adding_aggregate_invalidates_model(self, fitted_themis, correlated_population):
        assert fitted_themis.is_fitted
        fitted_themis.add_aggregate(
            AggregateQuery.from_relation(correlated_population, ["C"])
        )
        assert not fitted_themis.is_fitted


class TestFitting:
    def test_model_summary_contents(self, fitted_themis):
        summary = fitted_themis.model.summary()
        assert summary["reweighter"] == "IPF"
        assert summary["bn_mode"] == "BB"
        assert summary["population_size"] == 4000.0
        assert "reweighting" in summary["timings"]

    def test_weighted_sample_total_close_to_population(self, fitted_themis):
        total = fitted_themis.model.weighted_sample.total_weight()
        assert total == pytest.approx(4000.0, rel=0.15)

    def test_refit_reuses_the_sample_group_codes(self, fitted_themis):
        """The weighted sample shares the sample's group-code memo, so a
        refit recomputes no GROUP BY key set the sample already holds."""
        keys = ("A", "B")
        fitted_themis.refit()
        fitted_themis.sql("SELECT A, B, COUNT(*) FROM sample GROUP BY A, B")
        weighted = fitted_themis.model.weighted_sample
        assert weighted is not fitted_themis.sample
        assert weighted.group_codes(keys) is fitted_themis.sample.group_codes(keys)

    def test_evaluator_lookup(self, fitted_themis):
        model = fitted_themis.model
        assert model.evaluator("hybrid") is model.hybrid_evaluator
        assert model.evaluator("sample") is model.sample_evaluator
        assert model.evaluator("bn") is model.bayes_net_evaluator
        with pytest.raises(KeyError):
            model.evaluator("bogus")

    @pytest.mark.parametrize("reweighter", ["uniform", "linreg", "ipf"])
    def test_all_reweighters_fit(
        self, reweighter, biased_correlated_sample, correlated_aggregates
    ):
        themis = Themis(reweighter=reweighter, n_generated_samples=3, generated_sample_size=300)
        themis.load_sample(biased_correlated_sample)
        themis.add_aggregates(correlated_aggregates)
        model = themis.fit()
        assert model.weighted_sample.has_weights

    def test_fit_runs_no_general_solver(self, monkeypatch):
        """BB + IPF ``fit()`` never reaches ``scipy.optimize.minimize``."""

        def no_solver(*args, **kwargs):
            raise AssertionError("fit() called scipy.optimize.minimize")

        monkeypatch.setattr(scipy.optimize, "minimize", no_solver)
        bundle = load_flights(n_rows=4_000, seed=7, sample_fraction=0.1)
        themis = Themis(bn_mode="BB", reweighter="ipf", n_generated_samples=1)
        themis.load_sample(bundle.sample("SCorners"))
        themis.add_aggregates(build_aggregates(bundle, n_two_dimensional=2, seed=7))
        report = themis.fit().bayes_net_result.parameter_report
        assert len(report.constrained_nodes) == 5
        assert set(report.projection_gaps) == set(report.constrained_nodes)

    def test_importing_the_package_loads_no_scipy(self):
        """scipy costs ~40 MB of every process that imports it; only the
        LinReg reweighter and the ablation call it, and import it there."""
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import repro, repro.experiments, sys; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        loaded = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert loaded.stdout.strip() == "[]"

    def test_unknown_reweighter_rejected(self, biased_correlated_sample, correlated_aggregates):
        themis = Themis(reweighter="bogus")
        themis.load_sample(biased_correlated_sample)
        themis.add_aggregates(correlated_aggregates)
        with pytest.raises(ThemisError):
            themis.fit()

    def test_aggregate_budget_prunes(self, biased_correlated_sample, correlated_aggregates):
        themis = Themis(aggregate_budget=1, n_generated_samples=3, generated_sample_size=300)
        themis.load_sample(biased_correlated_sample)
        themis.add_aggregates(correlated_aggregates)
        model = themis.fit()
        # One 1D aggregate is always kept plus one pruned 2D aggregate.
        assert len(model.aggregates) == 2


class TestQuerying:
    def test_point_query_accuracy(self, fitted_themis, correlated_population):
        truth = correlated_population.count({"A": 2, "B": 2})
        estimate = fitted_themis.query(PointQuery({"A": 2, "B": 2}))
        assert percent_difference(truth, estimate) < 60

    def test_group_by_covers_population_groups(self, fitted_themis, correlated_population):
        result = fitted_themis.query(GroupByQuery(group_by=("A",)))
        assert result.groups() == correlated_population.distinct(["A"])

    def test_sql_entry_point(self, fitted_themis, correlated_population):
        truth = correlated_population.count({"A": 0})
        estimate = fitted_themis.sql("SELECT COUNT(*) FROM sample WHERE A = 0")
        assert percent_difference(truth, estimate) < 30

    def test_sql_group_by(self, fitted_themis):
        result = fitted_themis.sql("SELECT A, COUNT(*) FROM sample GROUP BY A")
        assert len(result) == 3

    def test_sql_unknown_attribute_rejected(self, fitted_themis):
        with pytest.raises(QueryError):
            fitted_themis.sql("SELECT COUNT(*) FROM sample WHERE bogus = 1")

    @pytest.mark.parametrize("select", ["COUNT(*)", "SUM(B)"])
    @pytest.mark.parametrize("where", ["A = 0 AND A = 1", "A = 1 AND A = 0"])
    def test_contradictory_where_answers_zero_on_every_path(
        self, fitted_themis, select, where
    ):
        """``COUNT(*)`` used to fold the conjunction into a point query that
        kept only the last literal of a repeated attribute."""
        statement = f"SELECT {select} FROM sample WHERE {where}"
        assert fitted_themis.sql(statement) == 0.0
        assert fitted_themis.query(statement) == 0.0
        assert fitted_themis.serve().execute(statement) == 0.0
        assert [o.result for o in fitted_themis.execute_batch([statement])] == [0.0]

    def test_repeated_equality_answers_what_the_single_one_does(self, fitted_themis):
        single = "SELECT COUNT(*) FROM sample WHERE A = 1"
        repeated = "SELECT COUNT(*) FROM sample WHERE A = 1 AND A = 1"
        assert fitted_themis.plan(repeated).route == "sample"
        expected = fitted_themis.sql(single)
        assert expected > 0
        assert fitted_themis.sql(repeated) == expected
        assert fitted_themis.serve().execute(repeated) == expected

    def test_sql_fits_lazily_and_again_after_ingestion(
        self, biased_correlated_sample, correlated_aggregates, correlated_population
    ):
        """``sql()`` reaches its planner without the lazily fitting ``model``
        property; it must still fit on first use and after every ingestion."""
        statement = "SELECT COUNT(*) FROM sample WHERE A = 0 AND C = 1"
        themis = Themis(seed=1, n_generated_samples=3, generated_sample_size=300)
        themis.load_sample(biased_correlated_sample)
        themis.add_aggregates(correlated_aggregates)
        assert not themis.is_fitted
        first = themis.sql(statement)
        assert themis.is_fitted and first == themis.query(statement)
        themis.add_aggregate(AggregateQuery.from_relation(correlated_population, ["A", "C"]))
        assert not themis.is_fitted
        second = themis.sql(statement)
        assert themis.is_fitted and second == themis.query(statement)
        assert second != first  # answered by the model fitted to the new aggregate

    def test_lazy_fit_on_query(self, biased_correlated_sample, correlated_aggregates):
        themis = Themis(n_generated_samples=3, generated_sample_size=300)
        themis.load_sample(biased_correlated_sample)
        themis.add_aggregates(correlated_aggregates)
        assert not themis.is_fitted
        themis.query(PointQuery({"A": 0}))
        assert themis.is_fitted
