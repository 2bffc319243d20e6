"""Argument parsing and the developer commands (run, trace, compare, steadiness)."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any

from . import report
from .workloads import WORKLOADS, quick

DEFAULT_SEED = 1
INFO_PREFIX = "#info "


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("command", nargs="?", choices=("run", "trace", "compare", "steadiness"))
    parser.add_argument("files", nargs="*", help="compare: two result files; steadiness: one")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--repeat", type=int, default=1, help="run: runs per workload, on seeds SEED, SEED+1, ..."
    )
    parser.add_argument(
        "--out", type=Path, help="run/trace: write the result set here (trace: spans beside it)"
    )
    parser.add_argument("--spans", type=Path, help="with --trace 1: write the spans here as JSONL")
    parser.add_argument("--quick", action="store_true", help="tiny smoke-test sizes")
    return parser


def main(argv: list[str]) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compare":
        if len(args.files) != 2:
            print("compare needs exactly two result files", file=sys.stderr)
            return 2
        return report.compare(*(json.loads(Path(name).read_text()) for name in args.files))
    if args.command == "steadiness":
        if len(args.files) != 1:
            print("steadiness needs exactly one result file", file=sys.stderr)
            return 2
        print(report.steadiness(json.loads(Path(args.files[0]).read_text())))
        return 0
    if args.command in ("run", "trace"):
        return _run_set(args, trace=args.command == "trace")
    if args.workload is None:
        print("give --workload NAME, or one of: run, trace, compare, steadiness", file=sys.stderr)
        return 2
    return _run_one(args)


def _seconds(args) -> float:
    if args.seconds is not None:
        return args.seconds
    return 0.3 if args.quick else float(report.contract()["run_seconds"])


def _run_one(args) -> int:
    """The driver form: one workload in this process, one JSON line last."""
    from .runner import WrongAnswer, run_end_to_end

    workload = WORKLOADS[args.workload]
    if args.quick:
        workload = quick(workload)
    try:
        if args.trace:
            from .layers import run_traced

            result = run_traced(workload, args.seed, _seconds(args), args.quick, args.spans)
        else:
            result = run_end_to_end(workload, args.seed, _seconds(args))
    except WrongAnswer as error:
        print(f"bench: FAILED on {workload.name}: {error}", file=sys.stderr)
        failed = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        print(json.dumps(failed))
        return 1
    info = result.pop("info")
    print(INFO_PREFIX + json.dumps(info))
    print(json.dumps(result))
    return 0


def _run_set(args, trace: bool) -> int:
    """All four workloads, each in a fresh subprocess, rendered as tables."""
    runs: dict[str, list[dict[str, Any]]] = {}
    for name in WORKLOADS:
        for seed in range(args.seed, args.seed + args.repeat):
            command = [
                sys.executable, "-m", "bench",
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(_seconds(args)),
                "--trace", str(int(trace)),
            ]  # fmt: skip
            if args.quick:
                command.append("--quick")
            if trace and args.out is not None:
                command += ["--spans", str(args.out.with_suffix(f".{name}.jsonl").resolve())]
            print(f"bench: {name} ...", file=sys.stderr, flush=True)
            done = subprocess.run(command, cwd=report.ROOT, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"bench: {name} exited with {done.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            result["info"] = next(
                (json.loads(l[len(INFO_PREFIX):]) for l in lines if l.startswith(INFO_PREFIX)), {}
            )
            result["info"]["seed"] = seed
            runs.setdefault(name, []).append(result)
    result_set = {
        "environment": report.environment(args.seed, _seconds(args), args.quick),
        "kind": "trace" if trace else "end_to_end",
        "runs": runs,
    }
    print(report.render(result_set))
    if args.out is not None:
        args.out.write_text(json.dumps(result_set, indent=1) + "\n")
    return 0
