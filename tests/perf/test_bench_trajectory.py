"""The committed BENCH record and its CI sanity checker stay honest."""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_PATH = REPO_ROOT / "BENCH_sim_core.json"
SWEEP_BENCH_PATH = REPO_ROOT / "BENCH_sweep.json"

if str(REPO_ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_bench_trajectory as checker  # noqa: E402
from benchmarks.perf.harness import science_sha  # noqa: E402


@pytest.fixture(scope="module")
def record() -> dict:
    return json.loads(BENCH_PATH.read_text())


def _write(tmp_path: Path, record: dict) -> Path:
    path = tmp_path / "BENCH_edited.json"
    path.write_text(json.dumps(record))
    return path


def test_committed_record_passes(record: dict) -> None:
    assert checker.check_record(BENCH_PATH) == []


def test_committed_record_shape(record: dict) -> None:
    assert record["schema"] == "bench-sim-core/v1"
    assert set(record) >= {"before", "current", "generated_with", "smoke",
                           "speedups"}
    for name in ("before", "current", "smoke"):
        assert set(record[name]) >= {"digests", "metrics", "schema"}
    assert all(ratio > 0 for ratio in record["speedups"].values())


def test_checker_rejects_wrong_schema(record: dict, tmp_path: Path) -> None:
    edited = copy.deepcopy(record)
    edited["schema"] = "bench-sim-core/v0"
    problems = checker.check_record(_write(tmp_path, edited))
    assert any("schema" in p for p in problems)


def test_checker_rejects_missing_sections(record: dict,
                                          tmp_path: Path) -> None:
    edited = copy.deepcopy(record)
    del edited["speedups"]
    del edited["smoke"]
    problems = checker.check_record(_write(tmp_path, edited))
    assert any("'speedups'" in p for p in problems)
    assert any("'smoke'" in p for p in problems)


def test_checker_rejects_nonpositive_speedup(record: dict,
                                             tmp_path: Path) -> None:
    edited = copy.deepcopy(record)
    edited["speedups"]["scheduling"] = -2.0
    problems = checker.check_record(_write(tmp_path, edited))
    assert any("positive finite" in p for p in problems)


def test_checker_rejects_fabricated_speedup(record: dict,
                                            tmp_path: Path) -> None:
    # A speedup claim that the captured timings do not support.
    edited = copy.deepcopy(record)
    edited["speedups"]["scheduling"] = 1000.0
    problems = checker.check_record(_write(tmp_path, edited))
    assert any("disagrees" in p for p in problems)


def test_checker_rejects_missing_sha(record: dict, tmp_path: Path) -> None:
    edited = copy.deepcopy(record)
    del edited["current"]["digests"]["chaos"]["sha"]
    problems = checker.check_record(_write(tmp_path, edited))
    assert any("sha" in p for p in problems)


def test_checker_rejects_dropped_digest(record: dict,
                                        tmp_path: Path) -> None:
    edited = copy.deepcopy(record)
    del edited["current"]["digests"]["csr"]
    problems = checker.check_record(_write(tmp_path, edited))
    assert any("dropped digests" in p for p in problems)


def test_checker_rejects_drifted_digest_with_field_diff(
        record: dict, tmp_path: Path) -> None:
    # A sha drift must fail AND name the summary fields that diverged,
    # so a broken determinism contract reads like a failing assertion.
    edited = copy.deepcopy(record)
    entry = edited["current"]["digests"]["scheduling"]
    entry["sha"] = "0" * 64
    entry["completed"] = 9_999.0
    problems = checker.check_record(_write(tmp_path, edited))
    assert any("sha drifted" in p for p in problems)
    assert any("completed" in p and "9999.0" in p for p in problems)


def test_checker_accepts_kernel_only_drift(record: dict,
                                           tmp_path: Path) -> None:
    # Same science but other kernel counts (a kernel that spends fewer
    # events on the same model): the trajectory holds, so no drift.
    edited = copy.deepcopy(record)
    entry = edited["current"]["digests"]["scheduling"]
    entry["sha"] = "0" * 64
    entry["events_processed"] -= 1
    entry["event_trace_len"] -= 1
    entry["event_trace_sha"] = "1" * 64
    assert checker.check_record(_write(tmp_path, edited)) == []


def test_checker_diff_leaves_out_kernel_fields(record: dict,
                                               tmp_path: Path) -> None:
    edited = copy.deepcopy(record)
    entry = edited["current"]["digests"]["scheduling"]
    entry["makespan"] += 1.0
    entry["events_processed"] += 7
    problems = checker.check_record(_write(tmp_path, edited))
    assert any("science sha drifted" in p for p in problems)
    assert any("scheduling makespan" in p for p in problems)
    assert not any("events_processed" in p for p in problems)


def test_checker_caps_drift_diff_length(record: dict,
                                        tmp_path: Path) -> None:
    edited = copy.deepcopy(record)
    for capture, base in (("before", 0.0), ("current", 1.0)):
        entry = edited[capture]["digests"]["scheduling"]
        entry["statistics"] = {f"stat{i}": base + i for i in range(40)}
    edited["current"]["digests"]["scheduling"]["sha"] = "0" * 64
    problems = checker.check_record(_write(tmp_path, edited))
    diff_lines = [p for p in problems if "statistics.stat" in p]
    assert len(diff_lines) == checker.DRIFT_DIFF_LIMIT
    assert any("more differing summary fields" in p for p in problems)


def test_checker_skips_sha_comparison_across_spec_change(
        record: dict, tmp_path: Path) -> None:
    # Different fingerprints mean different experiments: the checker
    # reports the fingerprint change, not a meaningless sha diff.
    edited = copy.deepcopy(record)
    edited["before"]["digests"]["scheduling"]["fingerprint"] = "a" * 16
    current = edited["current"]["digests"]["scheduling"]
    current["fingerprint"] = "b" * 16
    current["sha"] = "0" * 64
    problems = checker.check_record(_write(tmp_path, edited))
    assert any("fingerprint changed" in p for p in problems)
    assert not any("sha drifted" in p for p in problems)


def test_checker_rejects_calibrated_cost_regression(
        record: dict, tmp_path: Path) -> None:
    edited = copy.deepcopy(record)
    before_cost = edited["before"]["metrics"]["scheduling"]["calibrated_cost"]
    edited["current"]["metrics"]["scheduling"]["calibrated_cost"] = (
        before_cost * 2.0)
    problems = checker.check_record(_write(tmp_path, edited))
    assert any("calibrated_cost regressed for scheduling" in p
               for p in problems)


def test_checker_allows_cost_noise_within_slack(record: dict,
                                                tmp_path: Path) -> None:
    edited = copy.deepcopy(record)
    before_cost = edited["before"]["metrics"]["scheduling"]["calibrated_cost"]
    edited["current"]["metrics"]["scheduling"]["calibrated_cost"] = (
        before_cost * (1.0 + checker.COST_REGRESSION_SLACK / 2))
    problems = checker.check_record(_write(tmp_path, edited))
    assert not any("calibrated_cost regressed" in p for p in problems)


def test_checker_rejects_dropped_cost_tracking(record: dict,
                                               tmp_path: Path) -> None:
    edited = copy.deepcopy(record)
    del edited["current"]["metrics"]["scheduling"]["calibrated_cost"]
    problems = checker.check_record(_write(tmp_path, edited))
    assert any("dropped calibrated_cost" in p for p in problems)


def test_committed_scheduling_trajectory_claims(record: dict) -> None:
    # The epoch-batching PR's headline: the scheduling macro got >= 5x
    # faster while computing byte-identical science.  The science sha
    # is recomputed from the fields each capture stores, so kernel
    # counts may differ between the captures.
    before = record["before"]["digests"]["scheduling"]
    current = record["current"]["digests"]["scheduling"]
    assert science_sha(before) == science_sha(current)
    assert current["events_processed"] <= before["events_processed"]
    assert record["speedups"]["scheduling"] >= 5.0


def test_committed_sweep_record_passes() -> None:
    assert checker.check_record(SWEEP_BENCH_PATH) == []


def test_committed_sweep_record_claims() -> None:
    record = json.loads(SWEEP_BENCH_PATH.read_text())
    # The headline claim of the sweep kernel: >= 2x over the cold
    # process-per-config workflow it replaced, identical science.
    assert record["speedups"]["sweep"] >= 2.0
    before = record["before"]["digests"]["sweep"]
    current = record["current"]["digests"]["sweep"]
    assert before["sha"] == current["sha"]
    assert checker._valid_fingerprint(before["fingerprint"])


def test_checker_accepts_wellformed_fingerprint(record: dict,
                                                tmp_path: Path) -> None:
    edited = copy.deepcopy(record)
    for capture in ("before", "current"):
        edited[capture]["digests"]["chaos"]["fingerprint"] = "ab12" * 4
    assert checker.check_record(_write(tmp_path, edited)) == []


def test_checker_rejects_malformed_fingerprint(record: dict,
                                               tmp_path: Path) -> None:
    edited = copy.deepcopy(record)
    edited["current"]["digests"]["chaos"]["fingerprint"] = "not-hex!"
    problems = checker.check_record(_write(tmp_path, edited))
    assert any("malformed spec fingerprint" in p for p in problems)


def test_checker_rejects_fingerprint_change_between_captures(
        record: dict, tmp_path: Path) -> None:
    # Two captures with different spec fingerprints are runs of
    # different experiments; their timings are not a trajectory.
    edited = copy.deepcopy(record)
    edited["before"]["digests"]["chaos"]["fingerprint"] = "a" * 16
    edited["current"]["digests"]["chaos"]["fingerprint"] = "b" * 16
    problems = checker.check_record(_write(tmp_path, edited))
    assert any("fingerprint changed" in p for p in problems)


def test_checker_rejects_unreadable_file(tmp_path: Path) -> None:
    path = tmp_path / "BENCH_broken.json"
    path.write_text("{not json")
    assert checker.check_record(path)


def test_main_exit_status(record: dict, tmp_path: Path,
                          capsys: pytest.CaptureFixture) -> None:
    assert checker.main([str(BENCH_PATH)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "all OK" in out
    edited = copy.deepcopy(record)
    edited["speedups"]["chaos"] = float("nan")
    bad = _write(tmp_path, edited)
    assert checker.main([str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# bench-shard/v2: the monolith-vs-sharded record
# ---------------------------------------------------------------------------

SHARD_BENCH_PATH = REPO_ROOT / "BENCH_shard.json"


@pytest.fixture(scope="module")
def shard_record() -> dict:
    return json.loads(SHARD_BENCH_PATH.read_text())


def test_committed_shard_record_passes(shard_record: dict) -> None:
    assert checker.check_record(SHARD_BENCH_PATH) == []


def test_committed_shard_record_shape(shard_record: dict) -> None:
    assert shard_record["schema"] == "bench-shard/v2"
    assert set(shard_record) >= {"generated_with", "monolith", "sharded",
                                 "speedup"}
    assert shard_record["sharded"]["shards"] >= 4


def test_shard_checker_rejects_malformed_digest(
        shard_record: dict, tmp_path: Path) -> None:
    edited = copy.deepcopy(shard_record)
    edited["sharded"]["digest"] = "0" * 12
    problems = checker.check_record(_write(tmp_path, edited))
    assert problems == ["sharded digest lacks a sha-256"]


def test_shard_checker_rejects_inconsistent_speedup(
        shard_record: dict, tmp_path: Path) -> None:
    edited = copy.deepcopy(shard_record)
    edited["speedup"] *= 3.0
    problems = checker.check_record(_write(tmp_path, edited))
    assert any("disagrees with captured timings" in p for p in problems)


def test_shard_checker_rejects_too_few_shards(
        shard_record: dict, tmp_path: Path) -> None:
    edited = copy.deepcopy(shard_record)
    edited["sharded"]["shards"] = 2
    problems = checker.check_record(_write(tmp_path, edited))
    assert any("must demonstrate" in p for p in problems)
