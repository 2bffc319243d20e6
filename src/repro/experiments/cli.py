"""Command-line runner for the paper's experiments.

Regenerate any table or figure without going through pytest:

.. code-block:: bash

    python -m repro.experiments --list
    python -m repro.experiments fig3 fig14
    python -m repro.experiments table4 --scale paper
    python -m repro.experiments all --flights-rows 100000

Each experiment prints the same table the corresponding benchmark produces,
prefixed by the paper's claim for easy comparison.
"""

from __future__ import annotations

import argparse
from collections.abc import Callable, Sequence

from .config import PAPER_SCALE, SMALL_SCALE, TINY_SCALE, ExperimentScale
from .reporting import ExperimentResult

#: Registry of experiment names to zero-config runner callables.
EXPERIMENTS: dict[str, Callable[[ExperimentScale], ExperimentResult]] = {}


def _register(name: str, runner: Callable[[ExperimentScale], ExperimentResult]) -> None:
    EXPERIMENTS[name] = runner


def _build_registry() -> None:
    """Populate the experiment registry lazily (imports are cheap but explicit)."""
    if EXPERIMENTS:
        return
    from .ablation_simplification import run_simplification_ablation
    from .fig3_fig4_overall import run_overall_accuracy, run_table4_improvement
    from .fig5_bias_sweep import run_bias_sweep
    from .fig6_sql_queries import run_sql_queries
    from .fig7_fig8_agg1d import run_1d_sweep
    from .fig9_fig12_aggnd import run_nd_sweep
    from .fig13_bn_modes import run_bn_modes
    from .fig14_reweighting import run_reweighting_comparison
    from .fig15_pruning import run_pruning
    from .fig16_time_accuracy import run_time_accuracy
    from .table1_motivating import run_table1
    from .table6_reuse_baseline import run_reuse_comparison
    from .table7_table8_timing import run_query_execution_time, run_solver_time

    _register("table1", lambda scale: run_table1(scale))
    _register("fig3", lambda scale: run_overall_accuracy("flights", scale))
    _register("fig4", lambda scale: run_overall_accuracy("imdb", scale))
    _register("table4", lambda scale: run_table4_improvement(scale))
    _register("fig5", lambda scale: run_bias_sweep(scale))
    _register("fig6", lambda scale: run_sql_queries(scale))
    _register("fig7", lambda scale: run_1d_sweep("flights", scale))
    _register("fig8", lambda scale: run_1d_sweep("imdb", scale))
    _register("fig9", lambda scale: run_nd_sweep("flights", 2, scale))
    _register("fig10", lambda scale: run_nd_sweep("imdb", 2, scale))
    _register("fig11", lambda scale: run_nd_sweep("flights", 3, scale))
    _register("fig12", lambda scale: run_nd_sweep("imdb", 3, scale))
    _register("fig13", lambda scale: run_bn_modes(scale))
    _register("fig14", lambda scale: run_reweighting_comparison(scale))
    _register("fig15", lambda scale: run_pruning(scale))
    _register("fig16", lambda scale: run_time_accuracy(scale))
    _register("table6", lambda scale: run_reuse_comparison(scale))
    _register("table7", lambda scale: run_query_execution_time(scale))
    _register("table8", lambda scale: run_solver_time(scale))
    _register("ablation", lambda scale: run_simplification_ablation(scale))


def available_experiments() -> list[str]:
    """Names accepted by :func:`main`, in paper order."""
    _build_registry()
    return list(EXPERIMENTS)


def resolve_scale(name: str, flights_rows: int | None = None) -> ExperimentScale:
    """Map a scale name (tiny/small/paper) to an :class:`ExperimentScale`."""
    scales = {"tiny": TINY_SCALE, "small": SMALL_SCALE, "paper": PAPER_SCALE}
    if name not in scales:
        raise SystemExit(f"unknown scale {name!r}; expected one of {sorted(scales)}")
    scale = scales[name]
    if flights_rows is not None:
        scale = scale.with_overrides(flights_rows=flights_rows)
    return scale


def _positive_int(text: str) -> int:
    """argparse type for a row count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for ``python -m repro.experiments``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate tables and figures from the Themis paper.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment names (e.g. fig3 table4) or 'all'",
    )
    parser.add_argument("--list", action="store_true", help="list experiment names")
    parser.add_argument(
        "--scale",
        default="small",
        choices=("tiny", "small", "paper"),
        help="dataset/workload scale (default: small)",
    )
    parser.add_argument(
        "--flights-rows",
        type=_positive_int,
        default=None,
        help="override the synthetic Flights population size",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    _build_registry()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list or not args.experiments:
        print("available experiments:")
        for name in available_experiments():
            print(f"  {name}")
        return 0

    names = list(args.experiments)
    if names == ["all"]:
        names = available_experiments()
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s) {unknown}; use --list to see available names"
        )

    scale = resolve_scale(args.scale, args.flights_rows)
    for name in names:
        result = EXPERIMENTS[name](scale)
        print(result.render())
        print()
    return 0
