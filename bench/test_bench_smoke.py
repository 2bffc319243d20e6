"""Smoke test: the harness runs end to end at tiny sizes and keeps its contract.

No timing assertions — only that every workload and every metric named in
``BENCHMARK.json`` comes out with a finite value, that nothing failed, and
that the statement streams depend on the seed and on nothing else.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:  # tier-1 sets PYTHONPATH=src; be usable without it
    sys.path.insert(0, str(ROOT / "src"))
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


def run_set(command: str, tmp_path: Path, seed: int) -> dict:
    out = tmp_path / f"{command}-{seed}.json"
    done = subprocess.run(
        [sys.executable, "-m", "bench", command, "--quick", "--seed", str(seed), "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def quick_sets(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("bench")
    return {
        "run": run_set("run", tmp_path, seed=3),
        "trace": run_set("trace", tmp_path, seed=3),
        "directory": tmp_path,
    }


@pytest.mark.parametrize("command, section", [("run", "end_to_end"), ("trace", "per_layer")])
def test_every_workload_reports_every_metric(quick_sets, command, section):
    runs = quick_sets[command]["runs"]
    assert list(runs) == WORKLOADS
    for name in WORKLOADS:
        (result,) = runs[name]
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [spec["name"] for spec in CONTRACT[section]]
        for spec in CONTRACT[section]:
            metric = result["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"]
            assert math.isfinite(metric["value"]), spec["name"]


def test_spans_are_written_beside_the_result_set(quick_sets):
    for name in WORKLOADS:
        spans = quick_sets["directory"] / f"trace-3.{name}.jsonl"
        records = [json.loads(line) for line in spans.read_text().splitlines()]
        assert len(records) == quick_sets["trace"]["runs"][name][0]["info"]["spans"]
        # Parent-linked: a child names a span written before it.
        assert all(r["parent"] is None or r["parent"] < r["id"] for r in records)


def test_end_to_end_metrics_are_never_zero(quick_sets):
    for name in WORKLOADS:
        for metric, body in quick_sets["run"]["runs"][name][0]["metrics"].items():
            assert body["value"] > 0, (name, metric)


def test_stream_digests_follow_the_seed(quick_sets):
    from bench.workloads import WORKLOADS as SPECS, load_data, quick

    reported = lambda key, name: quick_sets[key]["runs"][name][0]["info"]["stream_sha256"]
    for name in WORKLOADS:
        workload = quick(SPECS[name])
        bundle = load_data(workload.data)
        # Two processes and this one agree on seed 3; another seed differs.
        assert reported("run", name) == reported("trace", name)
        assert reported("run", name) == workload.stream(bundle, 3).digest
        assert reported("run", name) != workload.stream(bundle, 4).digest


def test_compare_accepts_a_set_against_itself(quick_sets, tmp_path):
    path = tmp_path / "set.json"
    path.write_text(json.dumps(quick_sets["run"]))
    done = subprocess.run(
        [sys.executable, "-m", "bench", "compare", str(path), str(path)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "worse" not in done.stdout.replace("B worse by", "")
