"""CLI driver for the perf harness.

Typical flows::

    # Record a capture (timings + determinism digests) at the current code:
    PYTHONPATH=src python -m benchmarks.perf.run_benchmarks \
        --mode full --capture benchmarks/perf/baseline_before.json

    # After optimizing, produce the committed perf record (verifies the
    # science digests against the "before" capture; kernel counts may
    # move and are re-captured):
    PYTHONPATH=src python -m benchmarks.perf.run_benchmarks \
        --mode full --before benchmarks/perf/baseline_before.json \
        --output BENCH_sim_core.json

    # CI regression smoke check against the committed record:
    PYTHONPATH=src python -m benchmarks.perf.run_benchmarks \
        --mode smoke --check BENCH_sim_core.json --tolerance 0.25

    # Refresh the tier-1 determinism goldens:
    PYTHONPATH=src python -m benchmarks.perf.run_benchmarks \
        --capture-goldens tests/perf/goldens/determinism.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

from . import scenarios
from .harness import KERNEL_FIELDS, calibration_unit, science_sha

SCHEMA = "bench-sim-core/v1"


def _capture(mode: str, repeat: int) -> dict:
    """Run every scenario at ``mode`` size; return timings + digests."""
    sizes = scenarios.SIZES[mode]
    unit = calibration_unit()
    sched = scenarios.run_scheduling(sizes["sched_tasks"],
                                     sizes["sched_machines"])
    sched["calibrated_cost"] = sched["elapsed_s"] / unit
    events = scenarios.run_event_core(sizes["event_count"])
    events["calibrated_cost"] = events["elapsed_s"] / unit
    csr = scenarios.run_csr_build(sizes["csr_vertices"], sizes["csr_degree"],
                                  repeat=repeat)
    csr["calibrated_cost"] = csr["elapsed_s"] / unit
    chaos = scenarios.run_chaos()
    chaos["calibrated_cost"] = chaos["elapsed_s"] / unit
    return {
        "schema": SCHEMA,
        "mode": mode,
        "python": platform.python_version(),
        "calibration_unit_s": unit,
        "metrics": {
            "scheduling": sched,
            "event_core": events,
            "csr_build": csr,
            "chaos": chaos,
        },
        "digests": {
            "scheduling": scenarios.digest_scheduling(
                sizes["sched_tasks"], sizes["sched_machines"]),
            "event_core": scenarios.digest_event_core(sizes["event_count"]),
            "csr": scenarios.digest_csr(sizes["csr_vertices"],
                                        sizes["csr_degree"]),
            "chaos": scenarios.digest_chaos(),
        },
    }


def _golden_capture() -> dict:
    sizes = scenarios.SIZES["golden"]
    return {
        "schema": "determinism-goldens/v1",
        "sizes": sizes,
        "scheduling": scenarios.digest_scheduling(sizes["sched_tasks"],
                                                  sizes["sched_machines"]),
        "event_core": scenarios.digest_event_core(sizes["event_count"]),
        "csr": scenarios.digest_csr(sizes["csr_vertices"],
                                    sizes["csr_degree"]),
        "chaos": scenarios.digest_chaos(),
        "alerts": scenarios.digest_alerts(),
    }


def _compare_digests(before: dict, after: dict) -> dict[str, list[str]]:
    """Scenarios whose digests differ, per half: science or kernel.

    The science half is :func:`~.harness.science_sha`, recomputed from
    the fields each record stores; the kernel half is the record's
    :data:`~.harness.KERNEL_FIELDS`.
    """
    drift: dict[str, list[str]] = {"science": [], "kernel": []}
    for name, record in after.items():
        old = before.get(name)
        if old is None:
            continue
        if science_sha(old) != science_sha(record):
            drift["science"].append(name)
        if any(old.get(key) != record.get(key) for key in KERNEL_FIELDS):
            drift["kernel"].append(name)
    return drift


def _speedup(before: dict, after: dict, metric: str = "elapsed_s") -> float:
    if not after.get(metric):
        return 0.0
    return before.get(metric, 0.0) / after[metric]


def _emit_record(args: argparse.Namespace) -> int:
    capture = _capture(args.mode, args.repeat)
    record: dict = {
        "schema": SCHEMA,
        "generated_with": {"python": capture["python"], "mode": args.mode},
        "current": capture,
    }
    if args.before:
        before = json.loads(Path(args.before).read_text())
        drift = _compare_digests(before.get("digests", {}),
                                 capture["digests"])
        if drift["science"]:
            print(f"FAIL: science digests changed: {drift['science']}")
            return 1
        if drift["kernel"]:
            print(f"kernel counts differ from the 'before' capture (same "
                  f"science): {drift['kernel']}")
        record["before"] = before
        record["speedups"] = {
            name: _speedup(before["metrics"][name],
                           capture["metrics"][name])
            for name in capture["metrics"]
            if name in before.get("metrics", {})
        }
        print("science digests identical to the 'before' capture")
        for name, factor in sorted(record["speedups"].items()):
            print(f"  speedup {name}: {factor:.2f}x")
    # A smoke capture rides along for the CI regression check, so CI
    # does not need to run the full sizes.
    if args.mode != "smoke":
        record["smoke"] = _capture("smoke", args.repeat)
    else:
        record["smoke"] = capture
    Path(args.output).write_text(json.dumps(record, indent=2,
                                            sort_keys=True) + "\n")
    print(f"wrote {args.output}")
    return 0


def _check(args: argparse.Namespace) -> int:
    """CI regression gate against a committed BENCH record."""
    committed = json.loads(Path(args.check).read_text())
    baseline = committed.get("smoke")
    if baseline is None:
        print(f"FAIL: {args.check} has no 'smoke' baseline section")
        return 1
    tolerance = args.tolerance
    capture = _capture("smoke", args.repeat)
    failures: list[str] = []

    # Both halves must match the committed smoke capture; the message
    # names the half, since a science drift means the model computed
    # something else and a kernel drift only that it cost other events.
    drift = _compare_digests(baseline.get("digests", {}),
                             capture["digests"])
    if drift["science"]:
        failures.append(f"science digests changed: {drift['science']}")
    if drift["kernel"]:
        failures.append(f"kernel counts changed ({', '.join(KERNEL_FIELDS)}"
                        f"): {drift['kernel']}")

    # Machine-portable ratio: vectorized CSR vs the frozen reference
    # loop, both timed on this host in this run.
    committed_ratio = baseline["metrics"]["csr_build"].get(
        "speedup_vs_reference", 0.0)
    current_ratio = capture["metrics"]["csr_build"].get(
        "speedup_vs_reference", 0.0)
    if committed_ratio and current_ratio < (1.0 - tolerance) * committed_ratio:
        failures.append(
            f"csr speedup regressed: {current_ratio:.2f}x vs committed "
            f"{committed_ratio:.2f}x")

    # Calibrated costs: elapsed / host-calibration-unit.  Noisier than
    # the ratio above, so the tolerance applies to these too.
    for name in ("scheduling", "event_core", "chaos"):
        committed_cost = baseline["metrics"][name].get("calibrated_cost")
        current_cost = capture["metrics"][name].get("calibrated_cost")
        if committed_cost and current_cost > (1.0 + tolerance) * committed_cost:
            failures.append(
                f"{name} calibrated cost regressed: {current_cost:.1f} vs "
                f"committed {committed_cost:.1f} (tolerance {tolerance:.0%})")

    for line in failures:
        print(f"FAIL: {line}")
    if not failures:
        print(f"perf smoke check passed (tolerance {tolerance:.0%})")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("smoke", "full"), default="smoke")
    parser.add_argument("--repeat", type=int, default=5,
                        help="best-of repetitions for micro timings")
    parser.add_argument("--capture", metavar="PATH",
                        help="run scenarios and write a raw capture JSON")
    parser.add_argument("--before", metavar="PATH",
                        help="prior capture to compare digests/speedups against")
    parser.add_argument("--output", metavar="PATH",
                        help="write the combined BENCH record here")
    parser.add_argument("--check", metavar="PATH",
                        help="regression-check against a committed BENCH record")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional regression for --check")
    parser.add_argument("--capture-goldens", metavar="PATH",
                        help="write tier-1 determinism goldens and exit")
    args = parser.parse_args(argv)

    if args.capture_goldens:
        Path(args.capture_goldens).write_text(
            json.dumps(_golden_capture(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.capture_goldens}")
        return 0
    if args.check:
        return _check(args)
    if args.capture:
        capture = _capture(args.mode, args.repeat)
        Path(args.capture).write_text(json.dumps(capture, indent=2,
                                                 sort_keys=True) + "\n")
        print(f"wrote {args.capture}")
        for name, metrics in sorted(capture["metrics"].items()):
            print(f"  {name}: {metrics['elapsed_s']:.3f}s")
        return 0
    if args.output:
        return _emit_record(args)
    parser.error("choose one of --capture, --output, --check, "
                 "--capture-goldens")
    return 2


if __name__ == "__main__":
    sys.exit(main())
