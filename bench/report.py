"""Environment header, result tables, and the two-set comparison."""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
from functools import cache
from pathlib import Path
from typing import Any

from . import measure

ROOT = Path(__file__).resolve().parent.parent


@cache
def contract() -> dict[str, Any]:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def with_units(section: str, values: dict[str, float]) -> dict[str, dict[str, Any]]:
    """``values`` as the result line's ``metrics``: exactly the contract's names."""
    specs = contract()[section]
    if {spec["name"] for spec in specs} != set(values):
        raise ValueError(f"measured {sorted(values)} but BENCHMARK.json lists {section} otherwise")
    return {
        spec["name"]: {"value": float(values[spec["name"]]), "unit": spec["unit"]} for spec in specs
    }


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int, seconds: float, quick: bool) -> dict[str, Any]:
    import numpy

    return {
        "host_cores": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {
            name: os.environ.get(name) for name in sorted(os.environ) if name.endswith("_NUM_THREADS")
        },
        "git_sha": _git_sha(),
        "seed": seed,
        "run_seconds": seconds,
        "quick": quick,
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(str(cell)) for cell in column) for column in zip(header, *rows)]
    line = lambda cells: "| " + " | ".join(str(c).ljust(w) for c, w in zip(cells, widths)) + " |"
    rule = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    return "\n".join([line(header), rule, *(line(row) for row in rows)])


def _format(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"


def medians(runs: list[dict[str, Any]]) -> dict[str, float]:
    """Per-metric median over the runs of one workload."""
    names = runs[0]["metrics"]
    return {
        name: measure.median([run["metrics"][name]["value"] for run in runs]) for name in names
    }


def render(result_set: dict[str, Any]) -> str:
    """Environment table first, then one metrics table per result set."""
    env = result_set["environment"]
    out = ["## Environment", "", _table(["key", "value"], [[k, json.dumps(v)] for k, v in env.items()])]
    runs = result_set["runs"]
    workloads = list(runs)
    names = list(runs[workloads[0]][0]["metrics"])
    units = {name: runs[workloads[0]][0]["metrics"][name]["unit"] for name in names}
    per_workload = {w: medians(runs[w]) for w in workloads}
    title = "Per-layer metrics (traced run)" if result_set["kind"] == "trace" else "End-to-end metrics"
    out += ["", f"## {title}", ""]
    out.append(
        _table(
            ["metric", "unit", *workloads],
            [[name, units[name], *(_format(per_workload[w][name]) for w in workloads)] for name in names],
        )
    )
    info_rows = []
    for w in workloads:
        run = runs[w][-1]
        info = run.get("info", {})
        info_rows.append(
            [
                w,
                run["attempted"],
                run["failed"],
                f"{run['failed'] / run['attempted']:.3g}",
                info.get("latency_samples", "-"),
                _format(info["tail.latency_p99_ms"]) if "tail.latency_p99_ms" in info else "-",
                str(info.get("stream_sha256", "-"))[:16],
            ]
        )
    out += ["", "## Checks", ""]
    out.append(
        _table(
            ["workload", "attempted", "failed", "failed_share", "latency samples",
             "tail.latency_p99_ms", "stream sha256"],
            info_rows,
        )  # fmt: skip
    )
    return "\n".join(out)


# ----------------------------------------------------------------------
# Steadiness
# ----------------------------------------------------------------------
def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) on log(x)."""
    slope, _ = statistics.linear_regression([math.log(x) for x in xs], [math.log(y) for y in ys])
    return slope


def steadiness(result_set: dict[str, Any]) -> str:
    """Run-to-run spread of every timing metric, as reported and raw.

    One row per (workload, metric) of a set with several runs per workload
    (``run --repeat N``): the interquartile range over the median of the
    reported values (at reference host speed) and of the raw clock readings,
    and how each follows the host speed the runs saw (slope of log value on
    log host speed; a time that ignores the host has slope 0, one that
    follows it fully -1, and ``qps`` the opposite sign).  The
    ``measure.FOLLOWS_*`` exponents are right where the reported slope is
    near 0.  *max stolen* is the largest stolen share (CPU-seconds the
    hypervisor withheld per second of timed wall) any run of the row met.
    """
    bounds = {spec["name"]: spec["bound"] for spec in contract()["end_to_end"]}
    rows = []
    for workload, runs in result_set["runs"].items():
        if len(runs) < 4:
            continue  # quartiles need four runs
        for name in runs[0]["info"]["raw"]:
            reported = [run["metrics"][name]["value"] for run in runs]
            raw = [run["info"]["raw"][name] for run in runs]
            speed_key = "host_speed_setup" if name == "setup_s" else "host_speed"
            speeds = [run["info"][speed_key] for run in runs]
            rows.append(
                [workload, name, len(runs), f"{100 * bounds[name]:g}%",
                 f"{100 * measure.spread(reported):.1f}%", f"{100 * measure.spread(raw):.1f}%",
                 f"{_slope(speeds, reported):+.2f}", f"{_slope(speeds, raw):+.2f}",
                 f"{min(speeds):.2f}-{max(speeds):.2f}",
                 f"{max(run['info']['stolen_share'] for run in runs):.2f}"]
            )  # fmt: skip
    header = ["workload", "metric", "runs", "bound", "spread", "raw spread",
              "slope", "raw slope", "host speed", "max stolen"]  # fmt: skip
    return _table(header, rows)


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def _verdict(spec: dict[str, Any], before: list[float], after: list[float]) -> tuple[str, float]:
    """better / same / worse / unresolved for one (workload, metric) pair."""
    base, new = measure.median(before), measure.median(after)
    change = (new - base) / abs(base) if base else 0.0
    worse_by = change if spec["better"] == "lower" else -change
    bound = spec["bound"]
    spreads = [s for s in (measure.spread(before), measure.spread(after)) if s is not None]
    if spreads and max(spreads) > bound:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def compare(before: dict[str, Any], after: dict[str, Any]) -> int:
    """One row per (workload, end-to-end metric); non-zero exit on any *worse*.

    ``failed`` counts are compared exactly: any increase is *worse*.  A pair
    whose run-to-run spread (interquartile range over median, available from
    four runs per side) exceeds the metric's bound is *unresolved*, never
    *same*.
    """
    specs = {spec["name"]: spec for spec in contract()["end_to_end"]}
    rows, any_worse = [], False
    for workload in before["runs"]:
        runs_a, runs_b = before["runs"][workload], after["runs"].get(workload)
        if not runs_b:
            rows.append([workload, "-", "-", "-", "-", "missing"])
            any_worse = True
            continue
        for name, spec in specs.items():
            a = [run["metrics"][name]["value"] for run in runs_a]
            b = [run["metrics"][name]["value"] for run in runs_b]
            verdict, worse_by = _verdict(spec, a, b)
            any_worse |= verdict == "worse"
            rows.append(
                [workload, name, _format(measure.median(a)), _format(measure.median(b)),
                 f"{100 * worse_by:+.2f}% (bound {100 * spec['bound']:g}%)", verdict]
            )  # fmt: skip
        failed_a = max(run["failed"] / run["attempted"] for run in runs_a)
        failed_b = max(run["failed"] / run["attempted"] for run in runs_b)
        verdict = "worse" if failed_b > failed_a else "same"
        any_worse |= verdict == "worse"
        rows.append([workload, "failed_share", f"{failed_a:.3g}", f"{failed_b:.3g}", "any increase", verdict])
    print(_table(["workload", "metric", "A", "B", "B worse by", "verdict"], rows))
    return 1 if any_worse else 0

