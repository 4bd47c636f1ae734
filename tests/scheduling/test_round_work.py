"""Work-bound regression test for the fit-limited scheduling round.

An overloaded composite (gaming, banking and FaaS generators over two
regions of 4-core machines) keeps thousands of tasks queued.  A round
that walks the whole backlog visits about rounds x queue length tasks;
the fit-limited walk visits the tasks it starts plus, per round, at
most one blocked task per core-demand group.  The test counts the tasks
each round's queue walk yields and holds the run to that bound.
"""

from repro.scenario import ClusterSpec, ScenarioSpec, TopologySpec, WorkloadSpec
from repro.scheduling import ClusterScheduler
from repro.scheduling.taskqueue import TaskQueue

HORIZON = 20.0


def _region(region: int) -> dict:
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
        "n_tasks": 400, "runtime": [2.0, 16.0], "cores": [1, 2],
        "submit": [0.0, HORIZON], "prefix": f"{prefix}-fn-",
        "priority_levels": 1, "stream": f"{prefix}-faas"}}
    return {"kind": "composite", "params": {"parts": [gaming, banking,
                                                        faas]}}


def overloaded_spec() -> ScenarioSpec:
    clusters = tuple(ClusterSpec(f"r{i}", 10, cores=4, machines_per_rack=5)
                     for i in range(2))
    return ScenarioSpec(
        name="overloaded-composite", seed=3,
        topology=TopologySpec(clusters=clusters),
        workload=WorkloadSpec("composite", {
            "parts": [_region(i) for i in range(2)]}))


def test_round_visits_follow_work_placed_not_backlog(monkeypatch):
    counts = {"visits": 0, "rounds": 0, "started": 0, "scanned": 0}
    walk = TaskQueue.walk
    schedule_round = ClusterScheduler._schedule_round
    start = ClusterScheduler._start

    def counting_walk(self, limit=None):
        for task in walk(self, limit):
            counts["visits"] += 1
            yield task

    def counting_round(self):
        counts["rounds"] += 1
        counts["scanned"] += len(self.queue)
        schedule_round(self)

    def counting_start(self, task, machine):
        counts["started"] += 1
        start(self, task, machine)

    monkeypatch.setattr(TaskQueue, "walk", counting_walk)
    monkeypatch.setattr(ClusterScheduler, "_schedule_round", counting_round)
    monkeypatch.setattr(ClusterScheduler, "_start", counting_start)
    spec = overloaded_spec()
    groups = len({task.cores for task in spec.build().tasks})
    result = spec.run()

    assert result.tasks_finished == result.tasks_total
    bound = counts["started"] + counts["rounds"] * groups
    # The workload really is overloaded: a full walk per round would
    # visit the queue length at each round's entry, far above the bound.
    assert counts["scanned"] > 10 * bound
    assert counts["visits"] <= bound
