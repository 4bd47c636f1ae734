"""Measure one workload in this process and print its metrics.

The metric names and units come from ``BENCHMARK.json`` at the root of
the checkout: an untraced run prints every ``end_to_end`` metric, a
traced run every ``per_layer`` metric, each on its own line with its
unit, then one JSON object as the last line of standard output::

    {"correct": true, "attempted": 9, "failed": 0,
     "metrics": {"latency_ms": {"value": 1021.3, "unit": "ms"}, ...}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys

from .hostspeed import REFERENCE_S, pin_to_one_cpu
from .serving import SERVICE_WORKLOADS, measure_service, trace_service
from .stats import tail_percentile, throughput
from .workloads import (ROOT, SIM_WORKLOADS, Measurement, measure_sim,
                        trace_sim)

__all__ = ["WORKLOADS", "benchmark_config", "measure", "end_to_end", "main"]

WORKLOADS = (*SIM_WORKLOADS, *SERVICE_WORKLOADS)


def benchmark_config() -> dict:
    """``BENCHMARK.json``: workloads, metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> Measurement:
    """Run one workload, untraced for ``seconds`` or one traced pass."""
    if workload in SIM_WORKLOADS:
        spec = SIM_WORKLOADS[workload]
        return trace_sim(spec, seed) if trace else measure_sim(spec, seed,
                                                               seconds)
    if trace:
        return trace_service(workload, seed)
    return measure_service(workload, seed, seconds)


def end_to_end(measurement: Measurement) -> dict[str, float]:
    """The user-visible metrics of an untraced run (reference speed)."""
    if not measurement.latencies:
        raise RuntimeError(f"{measurement.workload}: no operation succeeded")
    return {
        "setup_s": statistics.median(measurement.setups),
        "latency_ms": statistics.median(measurement.latencies) * 1e3,
        "tasks_per_s": throughput(measurement.latencies, measurement.tasks),
        "peak_rss_mb": measurement.peak_rss_mb,
    }


def report(measurement: Measurement, trace: bool,
           config: dict) -> dict:
    """Print the metric lines and return the result record."""
    specs = config["per_layer" if trace else "end_to_end"]
    values = measurement.layers if trace else end_to_end(measurement)
    print(f"workload {measurement.workload}  seed {measurement.seed}  "
          f"{'traced' if trace else 'untraced'}  "
          f"{measurement.attempted} operations, {measurement.failed} failed, "
          f"{measurement.passes} pass(es)")
    metrics = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        value = values[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<28} {value:>16.6g} {unit}")
    if measurement.latencies:
        count = len(measurement.latencies)
        tail = tail_percentile(measurement.latencies)
        tail_text = (f"p{tail[0]:g} {tail[1] * 1e3:.3f} ms" if tail
                     else "no tail percentile (fewer than 10 samples "
                          "beyond p75)")
        print(f"  latency over {count} operations at reference speed: "
              f"median {statistics.median(measurement.latencies) * 1e3:.3f}"
              f" ms, {tail_text}")
        print(f"  host time: median latency "
              f"{statistics.median(measurement.raw_latencies) * 1e3:.3f} ms;"
              f" reference loop median "
              f"{statistics.median(measurement.references) * 1e3:.3f} ms "
              f"over {len(measurement.references)} samples (nominal "
              f"{REFERENCE_S * 1e3:g} ms)")
    if measurement.digests:
        combined = hashlib.sha256(json.dumps(
            sorted(measurement.digests.items())).encode()).hexdigest()
        shown = list(measurement.digests.items())[:3]
        print(f"  digests of {len(measurement.digests)} input(s): "
              + ", ".join(f"{key}={digest[:16]}" for key, digest in shown)
              + (" ..." if len(measurement.digests) > 3 else "")
              + f"  (combined {combined[:16]})")
    for note in measurement.notes:
        print(f"  {note}")
    for problem in measurement.problems:
        print(f"  FAIL {problem}")
    return {"correct": measurement.failed == 0,
            "attempted": measurement.attempted,
            "failed": measurement.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    """The benchmark command: one workload, one seed, one process."""
    config = benchmark_config()
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="Measure one end-to-end workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cpu = pin_to_one_cpu()
    measurement = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    measurement.notes.append("pinned to CPU " + str(cpu) if cpu is not None
                             else "not pinned: no CPU affinity here")
    record = report(measurement, bool(args.trace), config)
    sys.stdout.flush()
    print(json.dumps(record), flush=True)
    return 0
