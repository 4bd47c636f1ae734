"""Sweeps: grid construction, parallel merge, digest stability."""

import pytest

from repro.scenario import (ScenarioResult, SweepReport, SweepRunner,
                            sweep)
from repro.scenario.workers import run_spec


def test_grid_order_and_labels(small_spec):
    runner = SweepRunner(small_spec)
    points = runner.grid(seeds=(1, 2), policies=("fcfs", "sjf"))
    assert [point.index for point in points] == [0, 1, 2, 3]
    assert [point.label() for point in points] == [
        "queue=fcfs seed=1", "queue=sjf seed=1",
        "queue=fcfs seed=2", "queue=sjf seed=2"]
    assert points[3].spec.seed == 2
    assert points[3].spec.scheduler.queue == "sjf"


def test_empty_axes_yield_base_point(small_spec):
    points = SweepRunner(small_spec).grid()
    assert len(points) == 1
    assert points[0].label() == "base"
    assert points[0].spec == small_spec


def test_scale_axis_resizes_clusters(small_spec):
    points = SweepRunner(small_spec).grid(scale=(1.0, 2.0))
    assert points[0].spec.topology.clusters[0].machines == 4
    assert points[1].spec.topology.clusters[0].machines == 8


def test_serial_and_parallel_digests_identical(small_spec):
    grid = {"seeds": (1, 2), "policies": ("fcfs", "sjf")}
    serial = sweep(small_spec, workers=1, **grid)
    parallel = sweep(small_spec, workers=2, **grid)
    assert serial.to_json() == parallel.to_json()
    assert serial.digest() == parallel.digest()
    assert serial.workers == 1 and parallel.workers == 2


def test_merge_is_order_independent(small_spec):
    runner = SweepRunner(small_spec)
    points = runner.grid(seeds=(1, 2))
    outcomes = [(p.index, run_spec(p.spec.to_json())) for p in points]
    forward = SweepReport.assemble(small_spec, points, outcomes)
    backward = SweepReport.assemble(small_spec, points,
                                    list(reversed(outcomes)))
    assert forward.to_json() == backward.to_json()


def test_report_roundtrip(small_spec):
    report = sweep(small_spec, seeds=(1, 2))
    rehydrated = SweepReport.from_json(report.to_json())
    assert rehydrated.digest() == report.digest()
    assert all(isinstance(run, ScenarioResult)
               for run in rehydrated.runs)
    assert rehydrated.base_fingerprint == small_spec.fingerprint()


def test_rows_pair_labels_with_summaries(small_spec):
    report = sweep(small_spec, seeds=(1, 2))
    rows = report.rows()
    assert [label for label, _ in rows] == ["seed=1", "seed=2"]
    for _, summary in rows:
        assert summary["tasks_finished"] == summary["tasks_total"] == 12.0


def test_each_point_runs_through_json_rehydration(small_spec):
    # The worker entry point is itself the round-trip contract.
    result_json = run_spec(small_spec.to_json())
    assert ScenarioResult.from_json(result_json).digest() == \
        small_spec.run().digest()


def test_empty_grid_rejected(small_spec):
    with pytest.raises(ValueError, match="grid is empty"):
        SweepRunner(small_spec).run([])


def test_workers_validated(small_spec):
    with pytest.raises(ValueError, match="workers"):
        SweepRunner(small_spec, workers=0)


def test_override_axis(small_spec):
    report = sweep(small_spec, overrides=(
        {"workload.params.n_tasks": 6},
        {"workload.params.n_tasks": 12},
    ))
    totals = [run.tasks_total for run in report.runs]
    assert totals == [6, 12]
