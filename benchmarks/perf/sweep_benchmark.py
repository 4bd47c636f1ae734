"""Sweep benchmark: warm worker-pool fan-out vs cold process-per-config.

Measures what :class:`repro.scenario.SweepRunner` actually buys over
the workflow it replaces — a shell loop that launches one cold Python
process per configuration, each paying interpreter start-up and the
full ``repro`` import bill before a single simulated event runs.  The
runner instead forks warm workers from an already-imported parent, so
the per-configuration overhead is one ``fork()`` plus two small JSON
strings over a pipe.

Both paths execute the byte-identical science: the cold loop feeds
each worker process the same spec JSON, through the same entry point
(``repro.scenario.workers.run_spec``), as the pool.  The benchmark
refuses to write a record whose two merged report digests differ; each
digest entry stores that digest, its science digest
(:meth:`~repro.scenario.SweepReport.science_digest`), which the checker
(``tools/check_bench_trajectory.py``) compares across captures, and the
``fingerprint`` of the spec that produced it.

On a multi-core host the pool also overlaps the simulations
themselves; on a single-core host (like CI containers) the speedup is
honest start-up amortization only.  The host's CPU count is recorded
in ``generated_with`` so the committed number can be read in context.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.sweep_benchmark \
        --output BENCH_sweep.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from repro.scenario import SweepReport, SweepRunner

from .scenarios import sweep_spec

__all__ = ["main", "run_cold_sweep", "run_pool_sweep"]

SCHEMA = "bench-sim-core/v1"

#: The one cold worker pays per configuration: rehydrate the spec,
#: run it, print the result — exactly ``run_spec`` behind a fresh
#: interpreter.
_COLD_WORKER = """\
import json, sys
from repro.scenario.workers import run_spec
index, spec_json = json.loads(sys.stdin.read())
print(json.dumps([index, run_spec(spec_json)]))
"""


def _grid(base, n_seeds: int):
    """The benchmark grid: an ``n_seeds``-way seed sweep of the base."""
    return SweepRunner(base).grid(seeds=range(1, n_seeds + 1))


def run_cold_sweep(base, n_seeds: int) -> dict:
    """Time the pre-kernel workflow: one cold process per point."""
    points = _grid(base, n_seeds)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    started = time.perf_counter()
    runs = []
    for point in points:
        payload = json.dumps([point.index, point.spec.to_json()])
        proc = subprocess.run([sys.executable, "-c", _COLD_WORKER],
                              input=payload, capture_output=True,
                              text=True, env=env, check=True)
        index, result_json = json.loads(proc.stdout)
        runs.append((index, result_json))
    elapsed = time.perf_counter() - started
    report = SweepReport.assemble(base, points, runs)
    return {"elapsed_s": elapsed, "runs": len(points),
            "digest": report.digest()}


def run_pool_sweep(base, n_seeds: int, workers: int) -> dict:
    """Time the kernel's worker pool on the same grid.

    Besides the metrics, ``science`` holds the report's science digest.
    """
    runner = SweepRunner(base, workers=workers)
    started = time.perf_counter()
    report = runner.run(_grid(base, n_seeds))
    elapsed = time.perf_counter() - started
    return {"elapsed_s": elapsed, "runs": len(report.points),
            "digest": report.digest(), "science": report.science_digest()}


def _capture(n_seeds: int, workers: int) -> dict:
    """One before/current pair on an ``n_seeds``-way grid."""
    base = sweep_spec()
    cold = run_cold_sweep(base, n_seeds)
    pool = run_pool_sweep(base, n_seeds, workers)
    if cold["digest"] != pool["digest"]:
        raise SystemExit(f"FAIL: cold digest {cold['digest']} != pool "
                         f"digest {pool['digest']}")
    digest = {"sha": pool["digest"], "science_sha": pool.pop("science"),
              "fingerprint": base.fingerprint()}
    return {
        "before": {"schema": SCHEMA, "mode": "cold-process-per-config",
                   "metrics": {"sweep": cold},
                   "digests": {"sweep": digest}},
        "current": {"schema": SCHEMA, "mode": f"pool-{workers}-workers",
                    "metrics": {"sweep": pool},
                    "digests": {"sweep": digest}},
        "speedup": cold["elapsed_s"] / pool["elapsed_s"],
    }


def main(argv: list[str] | None = None) -> int:
    """Run the sweep benchmark; optionally write the BENCH record."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=4,
                        help="grid width for the full capture")
    parser.add_argument("--workers", type=int, default=2,
                        help="pool size for the warm sweep")
    parser.add_argument("--output", metavar="PATH",
                        help="write the combined BENCH record here")
    args = parser.parse_args(argv)

    full = _capture(args.seeds, args.workers)
    smoke = _capture(2, args.workers)
    print(f"cold sweep ({args.seeds} points): "
          f"{full['before']['metrics']['sweep']['elapsed_s']:.2f}s")
    print(f"pool sweep ({args.workers} workers): "
          f"{full['current']['metrics']['sweep']['elapsed_s']:.2f}s")
    print(f"speedup: {full['speedup']:.2f}x (digests byte-identical)")

    if args.output:
        record = {
            "schema": SCHEMA,
            "generated_with": {
                "python": platform.python_version(),
                "machine": platform.machine(),
                "cpus": os.cpu_count(),
                "note": ("before = cold python process per configuration "
                         "(interpreter + import start-up each run); "
                         "current = SweepRunner forked warm workers on the "
                         "same grid; digests prove identical science"),
            },
            "before": full["before"],
            "current": full["current"],
            "smoke": smoke["current"],
            "speedups": {"sweep": full["speedup"]},
        }
        Path(args.output).write_text(json.dumps(record, indent=2,
                                                sort_keys=True) + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
