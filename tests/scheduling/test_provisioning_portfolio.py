"""Unit tests for provisioning policies, the provisioning controller,
portfolio scheduling, and the Schopf-style reference pipeline."""

import pytest

from repro.autoscaling import AutoscalerInput, AutoscalingController
from repro.datacenter import Datacenter, Machine, MachineSpec, homogeneous_cluster
from repro.scheduling import (
    FCFS,
    SJF,
    ClusterScheduler,
    OnDemandProvisioning,
    PortfolioScheduler,
    ReservedPlusOnDemand,
    SchedulingPipeline,
    SchedulingStage,
    StaticProvisioning,
    estimate_mean_slowdown,
)
from repro.sim import Simulator
from repro.workload import Task


def make_state(queued_cores=0, running_cores=0, total=10, cores_each=4):
    return AutoscalerInput(
        time=0.0, queued_cores=queued_cores, running_cores=running_cores,
        eligible_tasks=queued_cores, soon_eligible_tasks=0, machines=total,
        cores_per_machine=cores_each, max_machines=total)


class TestProvisioningPolicies:
    def test_static_clamps_to_total(self):
        assert StaticProvisioning(20).decide(make_state()) == 10
        assert StaticProvisioning(3).decide(make_state()) == 3

    def test_static_validation(self):
        with pytest.raises(ValueError):
            StaticProvisioning(-1)

    def test_on_demand_scales_with_demand(self):
        policy = OnDemandProvisioning(min_machines=1, headroom=0.0)
        assert policy.decide(make_state(queued_cores=0)) == 1
        assert policy.decide(make_state(queued_cores=8)) == 2
        assert policy.decide(
            make_state(queued_cores=8, running_cores=8)) == 4

    def test_on_demand_headroom(self):
        policy = OnDemandProvisioning(min_machines=0, headroom=0.5)
        # 8 cores * 1.5 = 12 -> 3 machines of 4 cores.
        assert policy.decide(make_state(queued_cores=8)) == 3

    def test_on_demand_validation(self):
        with pytest.raises(ValueError):
            OnDemandProvisioning(min_machines=-1)
        with pytest.raises(ValueError):
            OnDemandProvisioning(headroom=-0.1)

    def test_reserved_plus_on_demand_floor(self):
        policy = ReservedPlusOnDemand(reserved=4)
        assert policy.decide(make_state(queued_cores=0)) == 4
        assert policy.decide(make_state(queued_cores=40)) == 10

    def test_reserved_validation(self):
        with pytest.raises(ValueError):
            ReservedPlusOnDemand(reserved=-1)


class TestProvisioner:
    """Provisioning policies under the one lease controller."""

    def build(self, policy, n_machines=4):
        sim = Simulator()
        dc = Datacenter(sim, [homogeneous_cluster(
            "c", n_machines, MachineSpec(cores=4, memory=1e9))])
        scheduler = ClusterScheduler(sim, dc)
        provisioner = AutoscalingController(sim, dc, scheduler, policy,
                                            interval=5.0)
        return sim, dc, scheduler, provisioner

    def test_interval_validation(self):
        sim = Simulator()
        dc = Datacenter(sim, [homogeneous_cluster("c", 1)])
        scheduler = ClusterScheduler(sim, dc)
        with pytest.raises(ValueError):
            AutoscalingController(sim, dc, scheduler, StaticProvisioning(1),
                                  interval=0.0)
        provisioner = AutoscalingController(sim, dc, scheduler,
                                            StaticProvisioning(1))
        with pytest.raises(ValueError):
            provisioner.total_cost(on_demand_premium=0.5)

    def test_on_demand_releases_idle_machines(self):
        sim, dc, scheduler, provisioner = self.build(
            OnDemandProvisioning(min_machines=1))
        sim.run(until=20.0)
        provisioner.stop()
        leased = sum(1 for m in dc.machines() if m.available)
        assert leased == 1  # idle datacenter shrinks to the minimum

    def test_demand_grows_lease(self):
        sim, dc, scheduler, provisioner = self.build(
            OnDemandProvisioning(min_machines=1))
        sim.run(until=6.0)  # shrink to 1 machine first
        for _ in range(4):
            scheduler.submit(Task(runtime=30.0, cores=4))
        sim.run(until=12.0)  # provisioning tick at t=10 sees the queue
        leased = sum(1 for m in dc.machines() if m.available)
        assert leased == 4
        sim.run(until=200.0)
        assert len(scheduler.completed) == 4

    def test_static_keeps_count(self):
        sim, dc, scheduler, provisioner = self.build(StaticProvisioning(2))
        sim.run(until=20.0)
        provisioner.stop()
        assert sum(1 for m in dc.machines() if m.available) == 2

    def test_cost_accumulates_over_time(self):
        sim, dc, scheduler, provisioner = self.build(StaticProvisioning(4))
        sim.run(until=3600.0)  # one hour, 4 reserved machines at $1/h
        provisioner.stop()
        assert provisioner.total_cost(reserved_machines=4) == \
            pytest.approx(4.0, rel=0.05)

    def test_on_demand_premium_raises_cost(self):
        sim, dc, scheduler, provisioner = self.build(StaticProvisioning(4))
        sim.run(until=3600.0)
        provisioner.stop()
        assert provisioner.total_cost(reserved_machines=0,
                                      on_demand_premium=2.5) == \
            pytest.approx(10.0, rel=0.05)

    def test_mean_leased(self):
        sim, dc, scheduler, provisioner = self.build(StaticProvisioning(2))
        sim.run(until=50.0)
        provisioner.stop()
        assert 2.0 <= provisioner.mean_leased() <= 4.0


class TestEstimator:
    def test_empty_queue_scores_one(self):
        assert estimate_mean_slowdown([], 0.0, 8, []) == 1.0

    def test_validates_capacity(self):
        with pytest.raises(ValueError):
            estimate_mean_slowdown([], 0.0, 0, [])

    def test_immediate_fit_scores_one(self):
        tasks = [Task(runtime=10.0, cores=2, submit_time=0.0)]
        assert estimate_mean_slowdown(tasks, 0.0, 8, []) == pytest.approx(1.0)

    def test_contention_raises_score(self):
        tasks = [Task(runtime=10.0, cores=8, submit_time=0.0)
                 for _ in range(3)]
        score = estimate_mean_slowdown(tasks, 0.0, 8, [])
        assert score > 1.5

    def test_oversized_task_penalized(self):
        tasks = [Task(runtime=10.0, cores=64, submit_time=0.0)]
        assert estimate_mean_slowdown(tasks, 0.0, 8, []) >= 1e6

    def test_sjf_scores_better_than_ljf_under_contention(self):
        mixed = [Task(runtime=100.0, cores=8, submit_time=0.0),
                 Task(runtime=1.0, cores=8, submit_time=0.0),
                 Task(runtime=1.0, cores=8, submit_time=0.0)]
        sjf_order = sorted(mixed, key=lambda t: t.runtime)
        ljf_order = sorted(mixed, key=lambda t: -t.runtime)
        assert (estimate_mean_slowdown(sjf_order, 0.0, 8, [])
                < estimate_mean_slowdown(ljf_order, 0.0, 8, []))


class TestPortfolioScheduler:
    def test_validation(self):
        sim = Simulator()
        dc = Datacenter(sim, [homogeneous_cluster("c", 1)])
        scheduler = ClusterScheduler(sim, dc)
        with pytest.raises(ValueError):
            PortfolioScheduler(sim, scheduler, [])
        with pytest.raises(ValueError):
            PortfolioScheduler(sim, scheduler, [FCFS()], interval=0.0)

    def test_selects_sjf_for_skewed_queue(self):
        sim = Simulator()
        dc = Datacenter(sim, [homogeneous_cluster(
            "c", 1, MachineSpec(cores=8, memory=1e9))])
        scheduler = ClusterScheduler(sim, dc)
        portfolio = PortfolioScheduler(sim, scheduler, [FCFS(), SJF()],
                                       interval=1000.0)
        # A long head followed by many short tasks: SJF clearly wins.
        scheduler.queue.extend(
            [Task(runtime=100.0, cores=8, submit_time=0.0)]
            + [Task(runtime=1.0, cores=8, submit_time=0.0)
               for _ in range(5)])
        winner = portfolio.select()
        assert winner.name == "sjf"
        assert scheduler.queue_policy is winner
        assert portfolio.history[-1][1] == "sjf"

    def test_runs_inside_simulation(self):
        sim = Simulator()
        dc = Datacenter(sim, [homogeneous_cluster(
            "c", 1, MachineSpec(cores=8, memory=1e9))])
        scheduler = ClusterScheduler(sim, dc)
        portfolio = PortfolioScheduler(sim, scheduler, [FCFS(), SJF()],
                                       interval=5.0)
        for runtime in (50.0, 1.0, 1.0, 1.0):
            scheduler.submit(Task(runtime=runtime, cores=8))
        sim.run(until=200.0)
        portfolio.stop()
        sim.run()
        assert len(scheduler.completed) == 4
        assert portfolio.history  # at least one selection happened


class TestSchedulingPipeline:
    def make_machines(self):
        return [Machine("a", MachineSpec(cores=4, memory=8.0)),
                Machine("b", MachineSpec(cores=16, memory=64.0))]

    def test_default_pipeline_places_task(self):
        pipeline = SchedulingPipeline()
        decision = pipeline.decide(Task(1.0, cores=2), self.make_machines())
        assert decision.placed
        assert decision.machine.name in ("a", "b")
        assert decision.stages_run[-1] is SchedulingStage.SYSTEM_SELECTION
        assert len(decision.stages_run) == 5

    def test_min_requirement_filtering(self):
        pipeline = SchedulingPipeline()
        decision = pipeline.decide(Task(1.0, cores=8), self.make_machines())
        assert decision.machine.name == "b"

    def test_unplaceable_task(self):
        pipeline = SchedulingPipeline()
        decision = pipeline.decide(Task(1.0, cores=64), self.make_machines())
        assert not decision.placed

    def test_full_lifecycle_runs_all_eleven_stages(self):
        pipeline = SchedulingPipeline()
        decision = pipeline.decide(Task(1.0, cores=2), self.make_machines(),
                                   until=SchedulingStage.CLEANUP)
        assert len(decision.stages_run) == 11

    def test_grafting_a_custom_stage(self):
        pipeline = SchedulingPipeline()

        def pick_biggest(ctx):
            ctx.selected = max(ctx.candidates, key=lambda m: m.spec.cores,
                               default=None)

        pipeline.replace(SchedulingStage.SYSTEM_SELECTION, pick_biggest)
        decision = pipeline.decide(Task(1.0, cores=1), self.make_machines())
        assert decision.machine.name == "b"

    def test_replace_unknown_stage_rejected(self):
        pipeline = SchedulingPipeline()
        with pytest.raises(KeyError):
            pipeline.replace("not-a-stage", lambda ctx: None)
