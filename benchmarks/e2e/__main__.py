"""``python -m benchmarks.e2e run|compare``: every workload, and verdicts.

``run`` measures each workload in its own fresh process (one at a time,
through ``benchmarks/e2e/run.py``) at seeds ``S .. S+runs-1`` and
writes the run records to ``--out``::

    python -m benchmarks.e2e run --seed 1 --runs 5 --out a.json
    python -m benchmarks.e2e run --seed 1 --trace --out traced.json

``compare`` applies BENCHMARK.json's bounds to two such files, prints
one row per workload, and exits 1 when the second regresses a metric
or fails an operation, and 2 when a workload has too few runs on
either side to be judged (``stats.MIN_RUNS``)::

    python -m benchmarks.e2e compare a.json b.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from .harness import benchmark_config
from .stats import MIN_RUNS, compare_workload
from .workloads import ROOT

RUN_SCRIPT = ROOT / "benchmarks" / "e2e" / "run.py"
SCHEMA = "bench-e2e-runs/v1"


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload in a fresh process; echoes its lines, returns its record."""
    completed = subprocess.run(
        [sys.executable, str(RUN_SCRIPT), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = completed.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited with "
                           f"{completed.returncode}")
    record = json.loads(lines[-1])
    record["seed"] = seed
    return record


def cmd_run(args: argparse.Namespace) -> int:
    config = benchmark_config()
    names = ([name for name in args.workloads.split(",") if name]
             if args.workloads
             else [w["name"] for w in config["workloads"]])
    seconds = args.seconds or config["run_seconds"]
    runs: dict[str, list] = {}
    for name in names:
        runs[name] = [run_one(name, args.seed + offset, seconds, args.trace)
                      for offset in range(args.runs)]
    Path(args.out).write_text(json.dumps(
        {"schema": SCHEMA, "seconds": seconds, "trace": args.trace,
         "runs": runs}, indent=1) + "\n", encoding="utf-8")
    failed = sum(record["failed"] for records in runs.values()
                 for record in records)
    print(f"wrote {args.out}: {len(names)} workload(s) x {args.runs} run(s), "
          f"{failed} failed operation(s)")
    return 1 if failed else 0


def _cell(verdict: dict) -> str:
    if verdict["verdict"] == "missing":
        return f"{verdict['metric']} missing"
    if verdict["verdict"] == "too-few-runs":
        return (f"{verdict['metric']} too few runs "
                f"{verdict['runs'][0]}/{verdict['runs'][1]}")
    return (f"{verdict['metric']} {verdict['parent']:.4g}->"
            f"{verdict['change']:.4g} ({verdict['worse'] * -100:+.1f}% "
            f"better) {verdict['verdict']}")


def cmd_compare(args: argparse.Namespace) -> int:
    metrics = benchmark_config()["end_to_end"]
    parent = json.loads(Path(args.parent).read_text(encoding="utf-8"))
    change = json.loads(Path(args.change).read_text(encoding="utf-8"))
    regressed = unjudged = False
    for name in [name for name in parent["runs"] if name in change["runs"]]:
        verdicts = compare_workload(parent["runs"][name],
                                    change["runs"][name], metrics)
        failed = sum(run["failed"] for run in change["runs"][name])
        bad = failed > 0 or any(v["verdict"] in ("regressed", "missing")
                                for v in verdicts)
        short = any(v["verdict"] == "too-few-runs" for v in verdicts)
        regressed |= bad
        unjudged |= short
        status = "REGRESSED" if bad else "UNJUDGED" if short else "ok"
        print(f"{name:<13} {status:<9} " + " | ".join(map(_cell, verdicts))
              + (f" | {failed} failed operation(s)" if failed else ""))
    if unjudged:
        print(f"each side needs at least {MIN_RUNS} runs per workload "
              f"(python -m benchmarks.e2e run --runs {MIN_RUNS})")
    return 1 if regressed else 2 if unjudged else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure every workload")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--runs", type=int, default=MIN_RUNS,
                     help="runs per workload, at seeds seed..seed+runs-1 "
                          f"(compare needs at least {MIN_RUNS})")
    run.add_argument("--seconds", type=float, default=None,
                     help="measured seconds per run (BENCHMARK.json's "
                          "run_seconds by default)")
    run.add_argument("--trace", action="store_true",
                     help="one traced pass per run: per-layer metrics")
    run.add_argument("--workloads", default="",
                     help="comma-separated subset (default: all)")
    run.add_argument("--out", required=True)
    compare = sub.add_parser("compare", help="apply the bounds to two run "
                                             "sets")
    compare.add_argument("parent")
    compare.add_argument("change")
    args = parser.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
