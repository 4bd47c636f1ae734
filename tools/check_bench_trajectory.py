#!/usr/bin/env python3
"""Sanity-check committed BENCH_*.json perf-trajectory records.

A BENCH record (written by ``benchmarks.perf.run_benchmarks --output``)
is the repository's claim about its own performance trajectory: a
"before" capture, the "current" capture, the speedup ratios between
them, and the determinism digests proving both captures computed the
same thing.  This checker validates the *structure and internal
consistency* of those claims without re-running any benchmark, so CI
can catch a hand-edited or truncated record in milliseconds.

Checks per record:

* schema is ``bench-sim-core/v1`` at the top and in each capture;
* the before/current/smoke captures and the speedups section exist;
* every speedup is a finite, positive ratio and agrees (within slack)
  with before/current elapsed times recomputed from the captures;
* every digest entry carries a non-empty ``sha``;
* a digest entry's optional ``fingerprint`` (the 16-hex-char
  :meth:`ScenarioSpec.fingerprint` identity of the spec that produced
  the run) is well-formed and identical across captures — two
  captures claiming the same digest name must have run the same spec;
* digest names match between the before and current captures;
* digest *science shas* match between the before and current captures
  — the record's claim is "same science, faster".  The science sha is
  recomputed from the fields each capture stores, leaving out ``sha``
  and the kernel fields (events processed, event-trace length and
  SHA-256), which count the events the kernel spent and are
  re-captured when a kernel change spends fewer.  A drift fails with a
  per-field diff of the digest summaries to make the divergence
  readable;
* ``calibrated_cost`` is monotonically non-regressing from before to
  current for every scenario tracked by both captures (a perf
  trajectory may not silently give back its wins).

Exit status is the number of failed records, so CI fails on any.

Usage:
    python tools/check_bench_trajectory.py BENCH_sim_core.json
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.perf.harness import KERNEL_FIELDS, science_sha  # noqa: E402

SCHEMA = "bench-sim-core/v1"
# Sharding records compare a monolithic spec against a sharded one —
# two different fingerprints by construction — so they carry their own
# schema with its own invariants (see _check_shard_record).
SHARD_SCHEMA = "bench-shard/v2"
SHARD_MIN_SHARDS = 4
# Speedups are recomputed from the captured elapsed times; allow for
# rounding in the committed record.
RATIO_SLACK = 0.05
# ScenarioSpec.fingerprint() identities are 16 lowercase hex chars.
FINGERPRINT_HEX = set("0123456789abcdef")
FINGERPRINT_LENGTH = 16
# calibrated_cost divides elapsed time by the host calibration unit, so
# before/current are comparable across machines; the slack absorbs the
# residual run-to-run noise of the calibration itself.
COST_REGRESSION_SLACK = 0.15
# A digest-drift diff prints at most this many per-field lines.
DRIFT_DIFF_LIMIT = 12


def _valid_fingerprint(value: object) -> bool:
    """True when ``value`` is a well-formed spec fingerprint."""
    return (isinstance(value, str) and len(value) == FINGERPRINT_LENGTH
            and set(value) <= FINGERPRINT_HEX)


def _check_capture(name: str, capture: object) -> list[str]:
    """Validate one capture section (before/current/smoke)."""
    problems = []
    if not isinstance(capture, dict):
        return [f"'{name}' section is not an object"]
    if capture.get("schema") != SCHEMA:
        problems.append(f"'{name}' capture schema is {capture.get('schema')!r},"
                        f" expected {SCHEMA!r}")
    metrics = capture.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        problems.append(f"'{name}' capture has no metrics")
        metrics = {}
    for scenario, record in metrics.items():
        elapsed = record.get("elapsed_s")
        if not isinstance(elapsed, (int, float)) or not elapsed > 0:
            problems.append(f"'{name}' metric {scenario} has bad "
                            f"elapsed_s: {elapsed!r}")
    digests = capture.get("digests")
    if not isinstance(digests, dict) or not digests:
        problems.append(f"'{name}' capture has no determinism digests")
        digests = {}
    for scenario, record in digests.items():
        sha = record.get("sha") if isinstance(record, dict) else None
        if not isinstance(sha, str) or len(sha) != 64:
            problems.append(f"'{name}' digest {scenario} lacks a sha-256")
        if isinstance(record, dict) and "fingerprint" in record \
                and not _valid_fingerprint(record["fingerprint"]):
            problems.append(f"'{name}' digest {scenario} has a malformed "
                            f"spec fingerprint: {record['fingerprint']!r}")
    return problems


def _flatten_digest(entry: dict) -> dict:
    """Digest entry's science fields as dotted-path leaves.

    Leaves out the hash, the fingerprint and the kernel fields.  Digest
    shapes vary per scenario (flat statistics, a nested
    ``summary``/``statistics`` dict, or both); one level of flattening
    makes them diffable field by field.
    """
    flat = {}
    for key, value in entry.items():
        if key in ("sha", "fingerprint") or key in KERNEL_FIELDS:
            continue
        if isinstance(value, dict):
            for subkey, subvalue in value.items():
                flat[f"{key}.{subkey}"] = subvalue
        else:
            flat[key] = value
    return flat


def _digest_drift_diff(scenario: str, shas: tuple[str, str],
                       before_entry: dict,
                       current_entry: dict) -> list[str]:
    """Readable messages for a digest whose science drifted.

    The sha alone says "something changed"; the summary diff says
    *what*: every science field that differs is printed as its own
    line, so a determinism break reads like a failing assertion, not a
    hash.
    """
    problems = [f"digest {scenario} science sha drifted between captures: "
                f"{shas[0][:12]}... != {shas[1][:12]}... (the trajectory "
                f"claim is 'same science, faster')"]
    before_flat = _flatten_digest(before_entry)
    current_flat = _flatten_digest(current_entry)
    lines = []
    for key in sorted(set(before_flat) | set(current_flat)):
        old = before_flat.get(key, "<absent>")
        new = current_flat.get(key, "<absent>")
        if old != new:
            lines.append(f"digest {scenario} {key}: {old!r} -> {new!r}")
    overflow = len(lines) - DRIFT_DIFF_LIMIT
    if overflow > 0:
        lines = lines[:DRIFT_DIFF_LIMIT]
        lines.append(f"digest {scenario}: ... and {overflow} more "
                     f"differing summary fields")
    return problems + lines


def _check_shard_record(record: dict) -> list[str]:
    """Validate a ``bench-shard/v2`` record (monolith vs sharded).

    The record's claim is different from a sim-core trajectory: the
    monolith and the sharded run are *different specs* (one declares
    ``shards``), so their fingerprints and digests legitimately
    differ.  What must hold instead:

    * both sides carry well-formed fingerprints, positive timings, and
      sha-256 digests;
    * the committed speedup agrees with the captured timings;
    * the sharded plan has at least ``SHARD_MIN_SHARDS`` shards.

    The speedup is reported, not gated: sharding is a modelling
    feature (per-region schedulers, WAN offload), and whether the
    partitioned loops run faster than the monolith depends on the host.
    """
    problems = []
    for key in ("generated_with", "monolith", "sharded", "speedup"):
        if key not in record:
            problems.append(f"missing top-level section '{key}'")
    monolith = record.get("monolith", {})
    sharded = record.get("sharded", {})
    if not isinstance(monolith, dict) or not isinstance(sharded, dict):
        return problems + ["'monolith'/'sharded' sections must be objects"]
    for name, section in (("monolith", monolith), ("sharded", sharded)):
        if not _valid_fingerprint(section.get("fingerprint")):
            problems.append(f"'{name}' has a malformed spec fingerprint: "
                            f"{section.get('fingerprint')!r}")
        elapsed = section.get("elapsed_s")
        if not isinstance(elapsed, (int, float)) or not elapsed > 0:
            problems.append(f"{name} has bad elapsed_s: {elapsed!r}")
        sha = section.get("digest")
        if not isinstance(sha, str) or len(sha) != 64:
            problems.append(f"{name} digest lacks a sha-256")
    shards = sharded.get("shards")
    if not isinstance(shards, int) or shards < SHARD_MIN_SHARDS:
        problems.append(f"sharded plan has {shards!r} shards; the record "
                        f"must demonstrate {SHARD_MIN_SHARDS}+")
    ratio = record.get("speedup")
    if not isinstance(ratio, (int, float)) or not math.isfinite(ratio) \
            or ratio <= 0:
        return problems + [f"speedup is not a positive finite ratio: "
                           f"{ratio!r}"]
    timings = (monolith.get("elapsed_s"), sharded.get("elapsed_s"))
    if all(isinstance(t, (int, float)) and t > 0 for t in timings):
        expected = timings[0] / timings[1]
        if abs(ratio - expected) > RATIO_SLACK * expected:
            problems.append(f"speedup ({ratio:.2f}x) disagrees with "
                            f"captured timings ({expected:.2f}x)")
    return problems


def check_record(path: Path) -> list[str]:
    """Return human-readable messages for every problem in ``path``."""
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        return [f"unreadable: {error}"]
    if record.get("schema") == SHARD_SCHEMA:
        return _check_shard_record(record)
    problems = []
    if record.get("schema") != SCHEMA:
        problems.append(f"top-level schema is {record.get('schema')!r}, "
                        f"expected {SCHEMA!r}")
    for key in ("before", "current", "smoke", "speedups", "generated_with"):
        if key not in record:
            problems.append(f"missing top-level section '{key}'")
    for name in ("before", "current", "smoke"):
        if name in record:
            problems.extend(_check_capture(name, record[name]))

    before = record.get("before", {})
    current = record.get("current", {})
    speedups = record.get("speedups", {})
    if not isinstance(speedups, dict) or not speedups:
        problems.append("speedups section is empty")
        speedups = {}
    for scenario, ratio in speedups.items():
        if not isinstance(ratio, (int, float)) or not math.isfinite(ratio) \
                or ratio <= 0:
            problems.append(f"speedup {scenario} is not a positive finite "
                            f"ratio: {ratio!r}")
            continue
        try:
            expected = (before["metrics"][scenario]["elapsed_s"]
                        / current["metrics"][scenario]["elapsed_s"])
        except (KeyError, TypeError, ZeroDivisionError):
            problems.append(f"speedup {scenario} has no matching "
                            f"before/current timings")
            continue
        if abs(ratio - expected) > RATIO_SLACK * expected:
            problems.append(f"speedup {scenario} ({ratio:.2f}x) disagrees "
                            f"with captured timings ({expected:.2f}x)")

    before_digests = before.get("digests", {}) or {}
    current_digests = current.get("digests", {}) or {}
    missing = set(before_digests) - set(current_digests)
    if missing:
        problems.append(f"current capture dropped digests: {sorted(missing)}")
    for scenario in set(before_digests) & set(current_digests):
        entries = (before_digests[scenario], current_digests[scenario])
        if not all(isinstance(entry, dict) for entry in entries):
            continue
        fingerprints = [entry.get("fingerprint") for entry in entries
                        if "fingerprint" in entry]
        if len(fingerprints) == 2 and fingerprints[0] != fingerprints[1]:
            problems.append(f"digest {scenario} fingerprint changed between "
                            f"captures: {fingerprints[0]!r} != "
                            f"{fingerprints[1]!r} (different spec, not a "
                            f"comparable trajectory)")
            continue
        shas = (science_sha(entries[0]), science_sha(entries[1]))
        if shas[0] != shas[1]:
            problems.extend(_digest_drift_diff(scenario, shas, *entries))

    before_metrics = before.get("metrics") if isinstance(before, dict) else {}
    current_metrics = (current.get("metrics")
                       if isinstance(current, dict) else {})
    if isinstance(before_metrics, dict) and isinstance(current_metrics, dict):
        for scenario in sorted(set(before_metrics) & set(current_metrics)):
            entries = (before_metrics[scenario], current_metrics[scenario])
            if not all(isinstance(entry, dict) for entry in entries):
                continue
            old = entries[0].get("calibrated_cost")
            new = entries[1].get("calibrated_cost")
            if not isinstance(old, (int, float)):
                continue
            if not isinstance(new, (int, float)):
                problems.append(f"metric {scenario} dropped calibrated_cost "
                                f"from the current capture")
            elif new > old * (1 + COST_REGRESSION_SLACK):
                problems.append(
                    f"calibrated_cost regressed for {scenario}: "
                    f"{old:.1f} -> {new:.1f} "
                    f"({new / old:.2f}x; current must stay <= before — a "
                    f"perf trajectory may not give back its wins)")
    return problems


def main(arguments: list[str]) -> int:
    """Check every record; print a summary; return the failure count."""
    paths = [Path(argument) for argument in arguments]
    if not paths:
        paths = sorted(Path(".").glob("BENCH_*.json"))
    if not paths:
        print("no BENCH_*.json records found")
        return 1
    failed = 0
    for path in paths:
        problems = check_record(path)
        if problems:
            failed += 1
            for message in problems:
                print(f"FAIL {path}: {message}")
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        speedups = record.get("speedups") or {"sharded": record["speedup"]}
        ratios = ", ".join(f"{name} {ratio:.2f}x" for name, ratio
                           in sorted(speedups.items()))
        print(f"OK {path}: {ratios}")
    print(f"checked {len(paths)} records: "
          f"{'all OK' if not failed else f'{failed} failed'}")
    return failed


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
