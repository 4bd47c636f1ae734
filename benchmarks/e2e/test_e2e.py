"""Self-test of the end-to-end benchmark (outside tier-1).

Run with ``pytest benchmarks/e2e``.  Covers span self time, the
percentile rule, every workload at a tiny size (traced digests equal
untraced ones), ``compare`` on synthetic runs, and the command's
contract with ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from benchmarks.e2e import __main__ as cli  # noqa: E402
from benchmarks.e2e import harness, serving, workloads  # noqa: E402
from benchmarks.e2e.hostspeed import HostSpeed  # noqa: E402
from benchmarks.e2e.stats import (compare_workload, percentile,  # noqa: E402
                                  spread, tail_percentile, throughput)
from benchmarks.e2e.tracer import Hook, Tracer, instrument  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = CONFIG["end_to_end"]
PER_LAYER = [metric["name"] for metric in CONFIG["per_layer"]]


# ---------------------------------------------------------------------------
# Spans and order statistics
# ---------------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_child_spans() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf(cost: float) -> None:
        clock.now += cost

    def middle() -> None:
        clock.now += 1.0
        tracer.call("leaf", leaf, 2.0)
        tracer.call("leaf", leaf, 3.0)

    def root() -> None:
        clock.now += 4.0
        tracer.call("middle", middle)

    tracer.call("root", root)

    assert tracer.total("root") == 10.0
    assert tracer.self_time("root") == 4.0
    assert tracer.total("middle") == 6.0
    assert tracer.self_time("middle") == 1.0
    assert (tracer.count("leaf"), tracer.self_time("leaf")) == (2, 5.0)
    parents = {span[1]: span[4] for span in tracer.spans}
    ids = {span[1]: span[0] for span in tracer.spans}
    assert parents["middle"] == ids["root"]
    assert parents["leaf"] == ids["middle"]


def test_span_cap_keeps_totals_exact() -> None:
    tracer = Tracer(max_spans=3, clock=FakeClock())
    for _ in range(5):
        tracer.call("x", lambda: None)
    assert len(tracer.spans) == 3
    assert tracer.dropped == 2
    assert tracer.count("x") == 5


def test_percentile_needs_ten_samples_beyond_it() -> None:
    values = [float(i) for i in range(1, 200)]
    assert percentile(values, 95) is None
    assert percentile(values + [200.0], 95) == 190.0
    assert percentile(values, 90) == 180.0
    assert percentile(values[:999], 99) is None
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert tail_percentile([1.0] * 50) == (75.0, 1.0)
    assert tail_percentile([1.0] * 30) is None


def test_throughput_is_the_median_slice_rate() -> None:
    latencies = [1.0] * 40
    latencies[3] = latencies[4] = 10.0
    # Slices of two: the stall slows two slices; a plain sum would read
    # 40 tasks / 58 s.
    assert throughput(latencies, [1] * 40) == 1.0
    # Fewer operations than slices: one operation per slice.
    assert throughput([2.0, 4.0, 1.0], [2, 2, 2]) == 1.0


def test_spread_is_interquartile_share_of_median() -> None:
    assert spread([10.0]) is None
    assert spread([10.0] * 5) == 0.0
    assert spread([9.0, 10.0, 11.0, 10.0]) == pytest.approx(0.15)


def test_sampled_host_speed_excludes_its_own_pauses() -> None:
    scales = []
    with HostSpeed(sample=True) as speed:
        wall, clock = time.perf_counter(), speed.clock()
        while time.perf_counter() - wall < 0.5:
            sum(range(1000))
        wall, clock = time.perf_counter() - wall, speed.clock() - clock
        speed.defer(scales.append)
    # Before, at least one sample during the loop, after.
    assert len(speed.references) >= 3
    assert 0 < wall - clock < wall / 4
    assert scales and scales[0] > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------
def _runs(values: dict[str, list[float]]) -> list[dict]:
    count = len(next(iter(values.values())))
    return [{"correct": True, "attempted": 1, "failed": 0,
             "metrics": {name: {"value": series[i], "unit": "u"}
                         for name, series in values.items()}}
            for i in range(count)]


def _verdicts(parent: dict, change: dict) -> dict[str, str]:
    metrics = [{"name": "latency_ms", "better": "lower", "bound": 0.1},
               {"name": "tasks_per_s", "better": "higher", "bound": 0.1}]
    return {v["metric"]: v["verdict"]
            for v in compare_workload(_runs(parent), _runs(change), metrics)}


def test_compare_flags_a_steady_regression_beyond_the_bound() -> None:
    parent = {"latency_ms": [100, 101, 99, 100, 100],
              "tasks_per_s": [50, 50, 51, 49, 50]}
    change = {"latency_ms": [120, 121, 119, 120, 120],
              "tasks_per_s": [50, 51, 50, 49, 50]}
    assert _verdicts(parent, change) == {"latency_ms": "regressed",
                                         "tasks_per_s": "ok"}


def test_compare_reports_improvements_and_unresolved_noise() -> None:
    parent = {"latency_ms": [100, 60, 140, 100, 100],
              "tasks_per_s": [50, 50, 50, 50, 50]}
    worse_but_noisy = {"latency_ms": [115, 70, 160, 115, 115],
                       "tasks_per_s": [70, 71, 70, 69, 70]}
    assert _verdicts(parent, worse_but_noisy) == {
        "latency_ms": "unresolved", "tasks_per_s": "improved"}
    # Noisy, but the sides do not overlap: resolved either way.
    dominating = {"latency_ms": [30, 31, 29, 30, 30],
                  "tasks_per_s": [50, 50, 50, 50, 50]}
    assert _verdicts(parent, dominating)["latency_ms"] == "improved"
    far_worse = {"latency_ms": [300, 310, 290, 300, 300],
                 "tasks_per_s": [50, 50, 50, 50, 50]}
    assert _verdicts(parent, far_worse)["latency_ms"] == "regressed"


def test_compare_refuses_to_judge_too_few_runs() -> None:
    parent = {"latency_ms": [100], "tasks_per_s": [50]}
    much_worse = {"latency_ms": [150], "tasks_per_s": [25]}
    assert set(_verdicts(parent, much_worse).values()) == {"too-few-runs"}


def _write_runs(path: Path, latency: float,
                jitters: tuple = (0.0, 0.5, -0.5, 0.2, -0.2)) -> Path:
    runs = []
    for jitter in jitters:
        metrics = {m["name"]: {"value": 10.0 + jitter, "unit": m["unit"]}
                   for m in E2E}
        metrics["latency_ms"]["value"] = latency + jitter
        runs.append({"correct": True, "attempted": 3, "failed": 0,
                     "metrics": metrics})
    path.write_text(json.dumps({"schema": cli.SCHEMA,
                                "runs": {"macro": runs}}))
    return path


def test_compare_command_exits_2_on_single_runs(tmp_path, capsys) -> None:
    parent = _write_runs(tmp_path / "a.json", 100, (0.0,))
    slower = _write_runs(tmp_path / "b.json", 150, (0.0,))
    assert cli.main(["compare", str(parent), str(slower)]) == 2
    assert "UNJUDGED" in capsys.readouterr().out


def test_compare_command_exits_nonzero_on_regression(tmp_path, capsys) -> None:
    parent = _write_runs(tmp_path / "a.json", 100)
    same = _write_runs(tmp_path / "b.json", 101)
    slower = _write_runs(tmp_path / "c.json", 150)
    assert cli.main(["compare", str(parent), str(same)]) == 0
    assert cli.main(["compare", str(parent), str(slower)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[1].startswith("macro") and "REGRESSED" in out[1]


# ---------------------------------------------------------------------------
# Workloads at a tiny size
# ---------------------------------------------------------------------------
def _shrink_workload(workload: dict) -> None:
    """Cut a workload's task counts and generator horizons twentyfold."""
    params = workload["params"]
    for part in params.get("parts", ()):
        _shrink_workload(part)
    if "horizon" in params:
        params["horizon"] /= 20
    if "n_tasks" in params:
        params["n_tasks"] = max(2, params["n_tasks"] // 20)


def _shrink(name: str, data: dict) -> dict:
    """A small version of a committed spec (same shape, less work)."""
    if name == "macro.json":
        data["workload"]["params"]["n_tasks"] = 300
        data["topology"]["clusters"][0]["machines"] = 30
    elif name in ("backlog.json", "elastic.json"):
        _shrink_workload(data["workload"])
        for cluster in data["topology"]["clusters"]:
            cluster["machines"] = max(2, cluster["machines"] // 10)
        if data.get("duration") is not None:
            data["duration"] /= 20
    return data


@pytest.fixture
def tiny_specs(tmp_path, monkeypatch):
    """Every committed spec, shrunk, under a manifest of its own."""
    from repro.scenario import ScenarioSpec
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    manifest = {}
    for path in sorted(workloads.SPEC_DIR.glob("*.json")):
        if path.name == "MANIFEST.json":
            continue
        spec = ScenarioSpec.from_dict(_shrink(path.name,
                                              json.loads(path.read_text())))
        text = spec.to_json(indent=2) + "\n"
        (spec_dir / path.name).write_text(text)
        manifest[path.name] = {
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "fingerprint": spec.fingerprint()}
    (spec_dir / "MANIFEST.json").write_text(json.dumps(manifest))
    monkeypatch.setattr(workloads, "SPEC_DIR", spec_dir)
    monkeypatch.setattr(workloads, "OUT_DIR", tmp_path / "out")
    return tmp_path


#: Layer counts each workload must (True) or must not (False) touch.
SEPARATION = {
    "autoscaling.ticks": {"elastic"},
    "observability.advances": {"resilience"},
    "sharding.epochs": {"planet"},
}


@pytest.mark.parametrize("name", sorted(workloads.SIM_WORKLOADS))
def test_sim_workload_traced_digests_match_untraced(name, tiny_specs) -> None:
    spec = workloads.SIM_WORKLOADS[name]
    small = dataclasses.replace(spec, inputs=min(spec.inputs, 3))
    untraced = workloads.measure_sim(small, seed=5, seconds=0.0)
    assert untraced.failed == 0, untraced.problems
    assert untraced.passes == 1
    assert len(untraced.latencies) == small.inputs
    assert set(harness.end_to_end(untraced)) == {m["name"] for m in E2E}
    traced = workloads.trace_sim(small, seed=5)
    assert traced.failed == 0, traced.problems
    assert traced.digests == untraced.digests
    assert set(traced.layers) == set(PER_LAYER)
    for layer, owners in SEPARATION.items():
        assert (traced.layers[layer] > 0) == (name in owners), layer
    assert traced.layers["sim.steps"] > 0
    assert (tiny_specs / "out" / f"{name}-seed5.trace.json").is_file()


def test_missing_hook_is_skipped_with_a_warning(capsys) -> None:
    tracer = Tracer()
    hooks = (Hook("repro.scheduling.scheduler", "ClusterScheduler",
                  "_no_such_round", "scheduling.round"),)
    with instrument(tracer, hooks) as missing:
        pass
    assert missing == ["repro.scheduling.scheduler.ClusterScheduler."
                       "_no_such_round"]
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(serving.SERVICE_WORKLOADS))
def test_service_workload_at_tiny_size(name, tiny_specs, monkeypatch) -> None:
    monkeypatch.setattr(serving, "HIT_SET", 5)
    monkeypatch.setattr(serving, "TRACE_MISSES", 5)
    monkeypatch.setattr(serving, "TRACE_HITS", 20)
    monkeypatch.setattr(serving, "LAUNCHES", 1)
    untraced = serving.measure_service(name, seed=3, seconds=0.3)
    assert untraced.failed == 0, untraced.problems
    assert untraced.latencies and untraced.peak_rss_mb > 0
    traced = serving.trace_service(name, seed=3)
    assert traced.failed == 0, traced.problems
    assert set(traced.layers) == set(PER_LAYER)
    hit_ratio = traced.layers["service.cache_hit_ratio"]
    assert (hit_ratio > 0.5) == (name == "service_hit")


# ---------------------------------------------------------------------------
# The command's contract
# ---------------------------------------------------------------------------
def test_benchmark_json_names_every_workload() -> None:
    assert [w["name"] for w in CONFIG["workloads"]] == list(harness.WORKLOADS)
    assert CONFIG["paths"] == ["benchmarks/e2e"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in E2E)


def test_spec_manifest_freezes_every_committed_spec() -> None:
    manifest = json.loads((workloads.SPEC_DIR / "MANIFEST.json").read_text())
    names = {path.name for path in workloads.SPEC_DIR.glob("*.json")}
    assert set(manifest) == names - {"MANIFEST.json"}
    for name in manifest:
        workloads.load_spec(name)


def test_command_prints_the_end_to_end_record() -> None:
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "macro",
         "--seed", "2", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    record = json.loads(lines[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] and record["failed"] == 0
    assert set(record["metrics"]) == {m["name"] for m in E2E}
    for metric in E2E:
        assert any(line.split()[:1] == [metric["name"]] for line in lines)


def test_command_refuses_to_run_without_the_program(tmp_path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "macro",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert completed.returncode != 0
    assert completed.stdout == ""
