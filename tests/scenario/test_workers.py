"""The worker seam under real processes: one outcome table for every tier.

Each pool case forks real workers and costs under a second: a hung
run is a spec that takes seconds in process (~7 s on a 2-vCPU x86_64
host), cut by a sub-second deadline.
"""

import math
import multiprocessing

import pytest

from repro.scenario import ScenarioSpec, SweepRunner
from repro.scenario.workers import (Attempt, ExecutionFailure,
                                    PoolExecutor)
from repro.service import ScenarioService, ServiceConfig

from .conftest import small_spec

#: Turns ``small_spec`` into a run of several seconds.
SLOW = {"workload.params.n_tasks": 60000, "horizon": 1e9}


def broken_spec():
    """A spec that loads but whose run raises (no machine per rack)."""
    data = small_spec().to_dict()
    data["topology"]["clusters"][0]["machines_per_rack"] = 0
    return ScenarioSpec.from_dict(data)


def test_timed_out_attempt_leaves_no_worker_alive():
    executor = PoolExecutor(workers=1, timeout=0.3)
    try:
        outcome, = executor.settle(
            [Attempt("slow", small_spec().override(SLOW).to_json(), 0)])
        assert isinstance(outcome, ExecutionFailure)
        assert outcome.kind == "timeout"
        assert multiprocessing.active_children() == []
    finally:
        executor.close()


def test_hung_sweep_point_becomes_a_timeout_gap():
    runner = SweepRunner(small_spec(), workers=2, retries=1,
                         point_timeout=0.3)
    report = runner.sweep(overrides=({}, SLOW))
    assert report.failed_indexes() == {1}
    gap = report.failed[0]
    assert gap["error"].startswith("timeout: ")
    assert gap["attempts"] == 1 + runner.retries
    assert [run.digest() for run in report.runs] == [
        small_spec().run().digest()]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2], ids=["inline", "pool"])
def test_point_whose_run_raises_is_not_retried(workers):
    report = SweepRunner(broken_spec(), workers=workers,
                         retries=1).sweep(seeds=(1,))
    gap, = report.failed
    assert gap["attempts"] == 1
    assert gap["error"].startswith("error: ValueError")


@pytest.mark.parametrize("timeout", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("build", [
    lambda timeout: PoolExecutor(timeout=timeout),
    lambda timeout: SweepRunner(small_spec(), workers=2,
                                point_timeout=timeout),
    lambda timeout: ScenarioService(ServiceConfig(worker_timeout=timeout)),
], ids=["pool", "sweep", "service"])
def test_unusable_deadlines_are_refused(build, timeout):
    with pytest.raises(ValueError, match="timeout must be a positive"):
        build(timeout)
