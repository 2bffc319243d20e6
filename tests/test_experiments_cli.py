"""Tests for the ``python -m repro.experiments`` command-line runner."""

from __future__ import annotations

import pytest

from repro.experiments.cli import (
    available_experiments,
    build_parser,
    main,
    resolve_scale,
)
from repro.experiments.config import PAPER_SCALE, SMALL_SCALE, TINY_SCALE


class TestRegistry:
    def test_every_paper_artifact_has_an_entry(self):
        # The paper's tables and figures, the ablation and the chaos replays.
        expected = (
            ["table1", "fig3", "fig4", "table4"]
            + [f"fig{i}" for i in range(5, 17)]
            + ["table6", "table7", "table8", "ablation", "fault_tolerance", "governance"]
        )
        assert available_experiments() == expected  # 22 names

    def test_resolve_scale_names(self):
        assert resolve_scale("tiny") is TINY_SCALE
        assert resolve_scale("small") is SMALL_SCALE
        assert resolve_scale("paper") is PAPER_SCALE

    def test_resolve_scale_override(self):
        scale = resolve_scale("tiny", flights_rows=1234)
        assert scale.flights_rows == 1234
        assert scale.n_queries == TINY_SCALE.n_queries

    def test_resolve_unknown_scale(self):
        with pytest.raises(SystemExit):
            resolve_scale("huge")


class TestCLI:
    def test_list_option(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "fig3" in output and "table8" in output

    def test_no_arguments_lists_experiments(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_runs_one_experiment(self, capsys):
        assert main(["table1", "--scale", "tiny"]) == 0
        output = capsys.readouterr().out
        assert "table-1" in output and "Motivating example" in output

    def test_runs_ablation(self, capsys):
        assert main(["ablation", "--scale", "tiny"]) == 0
        assert "per-factor" in capsys.readouterr().out

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig3"])
        assert args.scale == "small"
        assert args.experiments == ["fig3"]

    def test_flights_rows_accepts_a_positive_integer(self):
        args = build_parser().parse_args(["fig3", "--flights-rows", "1234"])
        assert args.flights_rows == 1234

    @pytest.mark.parametrize("rows", ["-5", "0", "many"])
    def test_flights_rows_must_be_a_positive_integer(self, rows, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig3", "--scale", "tiny", "--flights-rows", rows])
        assert excinfo.value.code == 2
        assert "--flights-rows" in capsys.readouterr().err
