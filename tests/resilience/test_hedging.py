"""Hedged (speculative) execution: policy and scheduler race mechanics."""

import pytest

from repro.datacenter import (
    Cluster,
    Datacenter,
    Machine,
    MachineSpec,
    Rack,
)
from repro.resilience import HedgePolicy
from repro.scheduling import ClusterScheduler
from repro.selfaware import RecoveryPlanner
from repro.sim import Simulator
from repro.workload import Task, TaskState


def straggler_cluster():
    """One slow machine (listed first, so FirstFit prefers it) + one fast."""
    slow = Machine("slow", MachineSpec(cores=4, speed=0.1))
    fast = Machine("fast", MachineSpec(cores=4, speed=1.0))
    return Cluster("c", [Rack("r0", [slow, fast])])


def build(hedge_policy):
    sim = Simulator()
    dc = Datacenter(sim, [straggler_cluster()])
    scheduler = ClusterScheduler(sim, dc, hedge_policy=hedge_policy)
    return sim, dc, scheduler


class TestHedgePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            HedgePolicy(delay_factor=0.0)
        with pytest.raises(ValueError):
            HedgePolicy(min_delay=-1.0)
        with pytest.raises(ValueError):
            HedgePolicy(max_hedges=0)
        with pytest.raises(ValueError):
            HedgePolicy(min_runtime=-1.0)

    def test_thresholds(self):
        policy = HedgePolicy(delay_factor=2.0, min_delay=5.0,
                             min_runtime=10.0)
        assert not policy.should_consider(9.0)
        assert policy.should_consider(10.0)
        assert policy.hedge_delay(1.0) == 5.0
        assert policy.hedge_delay(10.0) == 20.0


class TestHedgedExecution:
    def test_backup_wins_against_straggler(self):
        # Primary lands on the slow machine: 10s of work takes 100s.
        # The backup launches at t=20 on the fast machine and finishes
        # at t=30; the primary is cancelled and adopts the result.
        sim, dc, scheduler = build(HedgePolicy(delay_factor=0.2))
        task = Task(runtime=10.0, cores=4)
        scheduler.submit(task)
        sim.run()
        assert task.state is TaskState.FINISHED
        assert task.finish_time == pytest.approx(30.0)
        assert scheduler.hedges_launched == 1
        assert scheduler.hedge_wins == 1
        assert scheduler.hedge_rescues == 0
        # Exactly one completion, reported under the primary identity.
        assert scheduler.completed == [task]

    def test_primary_wins_cancels_backup(self):
        # delay_factor 0.9 -> backup at t=90, primary done at t=100;
        # fast backup would finish at t=100 too... use 0.95: backup
        # launches at 95, would finish at 105, primary wins at 100.
        sim, dc, scheduler = build(HedgePolicy(delay_factor=0.95))
        task = Task(runtime=10.0, cores=4)
        scheduler.submit(task)
        sim.run()
        assert task.state is TaskState.FINISHED
        assert task.finish_time == pytest.approx(100.0)
        assert scheduler.completed == [task]
        assert scheduler.hedges_launched == 1
        assert scheduler.hedge_wins == 0
        # The losing backup's interruption is not counted as a failure
        # surfaced to observers.
        assert len(scheduler.completed) == 1

    def test_backup_rescues_failed_primary(self):
        # Backup launches at t=20 (fast machine, done at t=30); the
        # slow machine dies at t=25 -> the primary genuinely fails and
        # the still-running backup becomes the recovery path.
        sim, dc, scheduler = build(HedgePolicy(delay_factor=0.2))
        task = Task(runtime=10.0, cores=4)
        scheduler.submit(task)

        def kill_slow():
            yield sim.timeout(25.0)
            dc.fail_machine(dc.machines()[0])

        sim.process(kill_slow())
        sim.run()
        assert task.state is TaskState.FINISHED
        assert task.finish_time == pytest.approx(30.0)
        assert scheduler.hedge_rescues == 1
        assert scheduler.completed == [task]

    def test_stale_watcher_does_not_hedge_the_retry(self):
        # Attempt 1 starts on the fast machine at t=0; its watcher is
        # due at t=15.  The machine dies at t=2 and attempt 2 runs on
        # the slow machine from t=2 to t=22 under its own watcher (due
        # at t=32).  Attempt 1's watcher must not hedge attempt 2.
        fast = Machine("fast", MachineSpec(cores=1, speed=1.0))
        slow = Machine("slow", MachineSpec(cores=1, speed=0.5))
        sim = Simulator()
        dc = Datacenter(sim, [Cluster("c", [Rack("r0", [fast, slow])])])
        scheduler = ClusterScheduler(
            sim, dc, hedge_policy=HedgePolicy(delay_factor=1.5))
        RecoveryPlanner(scheduler, max_retries=3)
        task = Task(runtime=10.0, cores=1)
        scheduler.submit(task)

        def kill_fast():
            yield sim.timeout(2.0)
            dc.fail_machine(fast)

        sim.process(kill_fast())
        sim.run()
        assert task.state is TaskState.FINISHED
        assert task.finish_time == pytest.approx(22.0)
        assert scheduler.hedges_launched == 0

    def test_short_tasks_are_not_hedged(self):
        sim, dc, scheduler = build(HedgePolicy(delay_factor=0.2,
                                               min_runtime=50.0))
        task = Task(runtime=10.0, cores=4)
        scheduler.submit(task)
        sim.run()
        assert scheduler.hedges_launched == 0
        assert task.state is TaskState.FINISHED
