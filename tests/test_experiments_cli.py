"""Tests for the ``python -m repro.experiments`` command-line runner."""

from __future__ import annotations

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

import repro.experiments
from repro.experiments.cli import (
    _build_registry,
    available_experiments,
    build_parser,
    main,
    resolve_scale,
)
from repro.experiments.config import PAPER_SCALE, SMALL_SCALE, TINY_SCALE

#: The modules that run an experiment: the package minus the runner and the
#: shared scaffolding it and the experiments use.
EXPERIMENT_MODULES = sorted(
    path
    for path in Path(repro.experiments.__file__).parent.glob("*.py")
    if path.stem not in {"__init__", "__main__", "cli", "config", "harness", "reporting"}
)


class TestRegistry:
    def test_every_paper_artifact_has_an_entry(self):
        # The paper's tables and figures and the ablation.
        expected = (
            ["table1", "fig3", "fig4", "table4"]
            + [f"fig{i}" for i in range(5, 17)]
            + ["table6", "table7", "table8", "ablation"]
        )
        assert available_experiments() == expected  # 20 names

    @pytest.mark.parametrize("name", ["fault_tolerance", "governance"])
    def test_chaos_replays_are_smokes_not_experiments(self, name):
        # The scale tier's chaos replays live in benchmarks/test_*_smoke.py.
        assert name not in available_experiments()
        assert importlib.util.find_spec(f"repro.experiments.{name}") is None

    def test_every_experiment_module_is_registered(self):
        # The registry is the one entry point: each experiment module is
        # imported by ``_build_registry``, and none runs as a script.
        imported = {
            node.module
            for node in ast.walk(ast.parse(inspect.getsource(_build_registry)))
            if isinstance(node, ast.ImportFrom) and node.level == 1
        }
        experiments = {path.stem for path in EXPERIMENT_MODULES}
        assert imported == experiments

    @pytest.mark.parametrize("path", EXPERIMENT_MODULES, ids=lambda path: path.stem)
    def test_experiment_module_has_no_entry_point_of_its_own(self, path):
        tree = ast.parse(path.read_text())
        functions = {
            node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        }
        assert "main" not in functions
        assert "__main__" not in {
            node.value
            for statement in tree.body
            if isinstance(statement, ast.If)
            for node in ast.walk(statement.test)
            if isinstance(node, ast.Constant)
        }

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
