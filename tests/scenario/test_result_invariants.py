"""Result invariants every scenario run keeps (ROADMAP item 1).

Run on each distinct gallery spec of ``examples/specs`` and
``benchmarks/e2e/specs`` at seed 1, on the structural ``small`` and
``full`` specs, and on three runs whose idle controller once kept the
clock going to ``max_time``:

- every task ends FINISHED, FAILED or SHED (a sharded run's tasks
  offloaded to a peer end there, and each one is acknowledged);
- ``mean_utilization`` lies in [0, 1];
- without a ``duration`` the clock stops by the last task, failure or
  repair event plus the longest controller interval; with one, it
  stops at the ``duration``.
"""

import functools
import json
from pathlib import Path

import pytest

from repro.scenario import ScenarioSpec
from repro.sim.sharding import ShardedScenarioRuntime
from repro.workload import TaskState

from .conftest import full_spec, small_spec

ROOT = Path(__file__).resolve().parents[2]
SPEC_DIRS = (ROOT / "examples" / "specs", ROOT / "benchmarks" / "e2e" / "specs")

TERMINAL = {TaskState.FINISHED, TaskState.FAILED, TaskState.SHED}

#: Runs whose clock still passes their last event: hedge watchers fire
#: after their tasks are done (ROADMAP item 1, bug 2).
HEDGE_TAIL = {"chaos_baseline", "chaos_slo", "full", "chaos-autoscaled"}


def _gallery() -> dict[str, ScenarioSpec]:
    specs: dict[str, ScenarioSpec] = {}
    fingerprints = set()
    for directory in SPEC_DIRS:
        for path in sorted(directory.glob("*.json")):
            if path.name == "MANIFEST.json" or path.name.endswith(
                    ".wfformat.json"):
                continue
            spec = ScenarioSpec.from_json(path.read_text()).override(
                {"seed": 1})
            if spec.fingerprint() not in fingerprints:
                fingerprints.add(spec.fingerprint())
                specs[path.stem] = spec
    return specs


def _cases() -> dict[str, ScenarioSpec]:
    cases = _gallery()
    react = {"autoscaler": {"policy": "react", "interval": 5.0}}
    chaos = json.loads((SPEC_DIRS[0] / "chaos_baseline.json").read_text())
    chaos["autoscaler"] = {}
    cases.update({
        "small": small_spec(),
        "full": full_spec(),
        "small-react": small_spec().override(react),
        # React releases the fleet after each task, so the last task
        # arrives into zero capacity with only the next tick queued.
        "scale-from-zero": small_spec().override({
            **react, "workload.params.n_tasks": 3,
            "workload.params.runtime": [5.0, 5.0],
            "workload.params.submit": [0.0, 500.0]}),
        "chaos-autoscaled": ScenarioSpec.from_dict(chaos),
    })
    return cases


CASES = _cases()


@functools.lru_cache(maxsize=None)
def _run(case: str):
    runtime = CASES[case].build()
    return runtime, runtime.execute()


def _runtimes(runtime):
    if isinstance(runtime, ShardedScenarioRuntime):
        return [runtime._set.harnesses[name].runtime
                for name in runtime._set.order]
    return [runtime]


def test_gallery_has_nine_distinct_specs():
    assert len(_gallery()) == 9


@pytest.mark.parametrize("case", sorted(CASES))
def test_tasks_end_terminal_and_utilization_is_a_fraction(case):
    runtime, result = _run(case)
    open_tasks = [task for task in runtime.tasks
                  if task.state not in TERMINAL]
    offloaded = acked = 0
    if result.shards is not None:
        offloaded = result.shards["coupling"]["offloaded"]
        acked = result.shards["coupling"]["acked"]
    assert len(open_tasks) == offloaded == acked
    assert all(task.state is TaskState.PENDING for task in open_tasks)
    assert 0.0 <= result.datacenter["mean_utilization"] <= 1.0


def _clock_cases():
    return [pytest.param(case, marks=pytest.mark.xfail(
                strict=True, reason="stale hedge watchers outlive their "
                                    "tasks (ROADMAP item 1, bug 2)"))
            if case in HEDGE_TAIL else case
            for case in sorted(CASES)]


@pytest.mark.parametrize("case", _clock_cases())
def test_clock_stops_with_the_work(case):
    spec = CASES[case]
    runtime, result = _run(case)
    if spec.duration is not None:
        assert result.sim_time == spec.duration
        return
    last = 0.0
    for run in _runtimes(runtime):
        for task in run.tasks:
            for when in (task.submit_time, task.start_time,
                         task.finish_time):
                if when is not None:
                    last = max(last, when)
        if run.injector is not None:
            for when, event, _victims in run.injector.event_log:
                last = max(last, when + event.duration)
    last = max(last, result.makespan)
    intervals = [0.0]
    if spec.autoscaler is not None:
        intervals.append(spec.autoscaler.interval)
    if spec.scheduler.portfolio:
        intervals.append(spec.scheduler.portfolio_interval)
    assert result.sim_time <= last + max(intervals)


@pytest.mark.parametrize("max_time", [1e3, 5e3, None])
def test_idle_autoscaler_does_not_extend_the_run(max_time):
    spec = CASES["small-react"]
    if max_time is not None:
        spec = spec.override({"max_time": max_time})
    result = spec.run()
    assert result.sim_time == result.makespan == pytest.approx(35.6165,
                                                               abs=1e-4)
    assert result.tasks_finished == result.tasks_total


def test_task_arriving_into_zero_capacity_still_runs():
    _runtime, result = _run("scale-from-zero")
    assert result.tasks_finished == result.tasks_total == 3
    assert result.sim_time == 505.0


def test_cli_ends_an_autoscaled_run_without_duration(tmp_path, capsys):
    from repro.__main__ import main
    path = tmp_path / "chaos_autoscaled.json"
    path.write_text(CASES["chaos-autoscaled"].to_json())
    assert main(["run", str(path)]) == 0
    _runtime, result = _run("chaos-autoscaled")
    assert result.sim_time < 1000.0
    assert f"  digest: {result.digest()}" in capsys.readouterr().out


def test_unplaceable_work_does_not_keep_the_autoscaler_ticking():
    # Every task needs more cores than a machine has.  Once the whole
    # fleet is leased no tick can help, so the run ends with the work
    # still queued instead of ticking on to max_time.
    spec = CASES["small-react"].override({"workload.params.cores": 4})
    runtime = spec.build()
    result = runtime.execute()
    assert result.tasks_finished == 0
    assert result.sim_time == max(task.submit_time for task in runtime.tasks)
