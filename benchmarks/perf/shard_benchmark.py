"""Shard benchmark: one continental event loop vs per-region shards.

Measures what a sharded run (:class:`repro.sim.ShardedScenarioRuntime`,
reached through ``ScenarioSpec.run()``) costs against a single
monolithic simulator spinning one event loop over every region's
machines and every service's tasks at once.  The workload is the
paper's composite ecosystem: each region runs gaming (bursty MMPP
match/lobby jobs), banking (Poisson transaction/batch jobs), and FaaS
(short independent function invocations) on shared regional
infrastructure, overloaded enough that schedulers carry real backlog.
Summed over the run the fleet executes about a million simulated
core-seconds.

Sharding is a modelling feature, not a speedup: each region gets its
own scheduler, and work crosses regions only as offloads over explicit
wide-area links.  A scheduling round walks only the queue groups a
free slot can hold, so its cost follows the work it places rather than
the backlog, and the monolith does not pay for the regions' combined
queue.  The partitioned loops add coupling work (epoch windows,
message ordering), so a speedup below 1 means the monolith was faster.
Both sides run in this process, on the same host and core.

The monolith and the sharded spec are *different specs* (one has a
``shards`` section) with different fingerprints — the record keeps
both and ``tools/check_bench_trajectory.py`` validates them
independently instead of demanding the cross-spec identity the
``bench-sim-core/v1`` schema enforces.  Each side records its result
digest and its science digest
(:meth:`~repro.scenario.ScenarioResult.science_digest`, the result
without the kernel's event counts), so a re-capture after a kernel
change shows whether only the event counts moved.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.shard_benchmark \
        --output BENCH_shard.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.scenario import (ClusterSpec, ScenarioSpec, ShardLinkSpec,
                            ShardPlanSpec, ShardSpec, TopologySpec,
                            WorkloadSpec)

__all__ = ["main", "monolith_spec", "sharded_spec"]

SCHEMA = "bench-shard/v2"
REGIONS = 6
MACHINES_PER_REGION = 30
CORES_PER_MACHINE = 4
HORIZON = 300.0
LINK_LATENCY = 0.5


def _region_workload(region: int) -> WorkloadSpec:
    """Gaming + banking + FaaS on one region's shared infrastructure."""
    prefix = f"r{region}"
    gaming = {"kind": "mmpp-jobs", "params": {
        "profiles": [
            {"kind": "match", "runtime_mean": 30.0, "runtime_sigma": 0.4,
             "cores_choices": [2], "memory_mean": 2.0},
            {"kind": "lobby", "runtime_mean": 8.0, "runtime_sigma": 0.3,
             "cores_choices": [1], "memory_mean": 1.0},
        ],
        "quiet_rate": 0.5, "burst_rate": 2.2,
        "quiet_duration": 30.0, "burst_duration": 15.0,
        "horizon": HORIZON, "tasks_per_job": 4.0,
        "arrival_stream": f"{prefix}-game-arrivals",
        "stream": f"{prefix}-gaming"}}
    banking = {"kind": "poisson-jobs", "params": {
        "profiles": [
            {"kind": "txn", "runtime_mean": 10.0, "runtime_sigma": 0.3,
             "cores_choices": [1], "memory_mean": 1.0},
            {"kind": "batch", "runtime_mean": 50.0, "runtime_sigma": 0.5,
             "cores_choices": [2, 4], "memory_mean": 4.0},
        ],
        "rate": 0.8, "horizon": HORIZON, "tasks_per_job": 5.0,
        "arrival_stream": f"{prefix}-bank-arrivals",
        "stream": f"{prefix}-banking"}}
    faas = {"kind": "uniform-tasks", "params": {
        "n_tasks": 800, "runtime": [2.0, 16.0], "cores": [1, 2],
        "submit": [0.0, HORIZON], "prefix": f"{prefix}-fn-",
        "priority_levels": 1, "stream": f"{prefix}-faas"}}
    return WorkloadSpec("composite", {"parts": [gaming, banking, faas]})


def _clusters() -> tuple:
    return tuple(ClusterSpec(f"r{i}", MACHINES_PER_REGION,
                             cores=CORES_PER_MACHINE, machines_per_rack=6)
                 for i in range(REGIONS))


def monolith_spec() -> ScenarioSpec:
    """Every region's services in one event loop and one scheduler."""
    parts = [_region_workload(i).to_dict() for i in range(REGIONS)]
    return ScenarioSpec(
        name="continental-monolith", seed=7,
        topology=TopologySpec(clusters=_clusters(), datacenter="continent"),
        workload=WorkloadSpec("composite", {"parts": parts}),
        horizon=20000.0)


def sharded_spec() -> ScenarioSpec:
    """The same regions as conservatively coupled shards."""
    shards = tuple(ShardSpec(f"r{i}", (f"r{i}",),
                             workload=_region_workload(i))
                   for i in range(REGIONS))
    links = tuple(ShardLinkSpec(f"r{i}", f"r{i + 1}", latency=LINK_LATENCY)
                  for i in range(REGIONS - 1))
    parts = [_region_workload(i).to_dict() for i in range(REGIONS)]
    return ScenarioSpec(
        name="continental-sharded", seed=7,
        topology=TopologySpec(clusters=_clusters(), datacenter="continent"),
        workload=WorkloadSpec("composite", {"parts": parts}),
        horizon=20000.0,
        shards=ShardPlanSpec(shards=shards, links=links))


def _measure_monolith() -> dict:
    """Time the single-loop run; return metrics + digest."""
    spec = monolith_spec()
    start = time.perf_counter()
    result = spec.run()
    elapsed = time.perf_counter() - start
    core_seconds = sum(
        t.runtime * t.cores for t in spec.build().tasks)
    return {
        "fingerprint": spec.fingerprint(),
        "elapsed_s": elapsed,
        "digest": result.digest(),
        "science": result.science_digest(),
        "tasks": result.tasks_total,
        "tasks_finished": result.tasks_finished,
        "events": result.events_processed,
        "makespan": result.makespan,
        "core_seconds": core_seconds,
    }


def _measure_sharded() -> dict:
    """Time the sharded run; return metrics + digest."""
    spec = sharded_spec()
    start = time.perf_counter()
    result = spec.run()
    elapsed = time.perf_counter() - start
    coupling = result.shards["coupling"]
    return {
        "fingerprint": spec.fingerprint(),
        "shards": REGIONS,
        "epochs": coupling["epochs"],
        "offloaded": coupling["offloaded"],
        "elapsed_s": elapsed,
        "digest": result.digest(),
        "science": result.science_digest(),
    }


def main(argv: list[str] | None = None) -> int:
    """Run the benchmark and write/print the ``bench-shard/v2`` record."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=Path, default=None,
                        help="write the record here (default: stdout)")
    args = parser.parse_args(argv)

    monolith = _measure_monolith()
    sharded = _measure_sharded()
    speedup = monolith["elapsed_s"] / sharded["elapsed_s"]
    record = {
        "schema": SCHEMA,
        "generated_with": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "note": ("monolith = one event loop over all regions; "
                     "sharded = per-region schedulers and event loops "
                     "under conservative epoch coupling, in one process. "
                     "Sharding is a modelling feature (per-region "
                     "schedulers, WAN offload); a speedup below 1 means "
                     "the monolith was faster."),
        },
        "monolith": monolith,
        "sharded": sharded,
        "speedup": speedup,
    }
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if args.output is not None:
        args.output.write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    print(f"  sharded: {speedup:.2f}x vs monolith "
          f"({sharded['elapsed_s']:.2f}s vs {monolith['elapsed_s']:.2f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
