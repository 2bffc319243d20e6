"""Experiment harness: one module per paper table/figure plus shared machinery.

Every experiment exposes a ``run_*`` function taking an
:class:`~repro.experiments.config.ExperimentScale` and returning an
:class:`~repro.experiments.reporting.ExperimentResult`: the paper's tables
and figures and the simplification ablation.  Every method they compare is
fitted by :meth:`Themis.fit`.  The benchmarks under ``benchmarks/`` call
these functions and ``python -m repro.experiments`` prints them.  Speed is
not measured here: that is ``python3 -m bench``.
"""

from .ablation_simplification import run_simplification_ablation
from .config import PAPER_SCALE, SMALL_SCALE, TINY_SCALE, ExperimentScale
from .fig3_fig4_overall import (
    median_improvement_heavy,
    run_overall_accuracy,
    run_table4_improvement,
)
from .fig5_bias_sweep import run_bias_sweep
from .fig6_sql_queries import run_sql_queries, table5_queries
from .fig7_fig8_agg1d import run_1d_sweep
from .fig9_fig12_aggnd import reference_hybrid_error_with_2d, run_nd_sweep
from .fig13_bn_modes import run_bn_modes
from .fig14_reweighting import run_reweighting_comparison
from .fig15_pruning import run_pruning
from .fig16_time_accuracy import run_time_accuracy
from .harness import (
    BN_MODES,
    DEFAULT_METHODS,
    build_aggregates,
    child_bundle,
    clear_dataset_cache,
    dataset_bundle,
    fit_methods,
    flights_bundle,
    imdb_bundle,
    one_dimensional_order,
    point_query_errors,
    point_query_workload,
    themis_config,
)
from .reporting import ExperimentResult, format_table
from .table1_motivating import run_table1
from .table6_reuse_baseline import run_reuse_comparison
from .table7_table8_timing import run_query_execution_time, run_solver_time

__all__ = [
    "BN_MODES",
    "DEFAULT_METHODS",
    "ExperimentResult",
    "ExperimentScale",
    "PAPER_SCALE",
    "SMALL_SCALE",
    "TINY_SCALE",
    "build_aggregates",
    "child_bundle",
    "clear_dataset_cache",
    "dataset_bundle",
    "fit_methods",
    "flights_bundle",
    "format_table",
    "imdb_bundle",
    "median_improvement_heavy",
    "one_dimensional_order",
    "point_query_errors",
    "point_query_workload",
    "reference_hybrid_error_with_2d",
    "run_1d_sweep",
    "run_bias_sweep",
    "run_bn_modes",
    "run_nd_sweep",
    "run_overall_accuracy",
    "run_pruning",
    "run_query_execution_time",
    "run_reuse_comparison",
    "run_reweighting_comparison",
    "run_simplification_ablation",
    "run_solver_time",
    "run_sql_queries",
    "run_table1",
    "run_table4_improvement",
    "run_time_accuracy",
    "table5_queries",
    "themis_config",
]
