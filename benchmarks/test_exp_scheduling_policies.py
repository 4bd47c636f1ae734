"""E1 — the dual-problem scheduling study (C7, P4).

Sweeps allocation policies (strict FCFS, FCFS+EASY backfilling, SJF,
and portfolio selection) on the same bursty bag-of-tasks trace, and
provisioning policies (static, on-demand, reserved+on-demand) for
cost.  Reproduction contract: backfilling beats strict FCFS on
makespan; SJF beats FCFS on mean slowdown; the portfolio is never
worse than the worst fixed policy; on-demand provisioning is cheaper
than static while completing the same work.
"""

import random

from repro.autoscaling import AutoscalingController
from repro.datacenter import Datacenter, MachineSpec, homogeneous_cluster
from repro.reporting import render_table
from repro.scheduling import (
    FCFS,
    SJF,
    ClusterScheduler,
    OnDemandProvisioning,
    PortfolioScheduler,
    ReservedPlusOnDemand,
    StaticProvisioning,
)
from repro.sim import Simulator
from repro.workload import MMPPArrivals, TaskProfile, VicissitudeMix, WorkloadGenerator


def bursty_jobs(seed=1, horizon=600.0):
    generator = WorkloadGenerator(
        MMPPArrivals(quiet_rate=0.05, burst_rate=1.0, quiet_duration=60.0,
                     burst_duration=15.0, rng=random.Random(seed)),
        mix=VicissitudeMix.steady(
            (TaskProfile("mix", runtime_mean=20.0, runtime_sigma=1.0,
                         cores_choices=(1, 2, 4)),)),
        tasks_per_job=3.0,
        rng=random.Random(seed + 1))
    return generator.generate(horizon)


def run_allocation(policy_name: str, jobs) -> dict[str, float]:
    sim = Simulator()
    dc = Datacenter(sim, [homogeneous_cluster(
        "c", 4, MachineSpec(cores=8, memory=1e9))])
    kwargs = {}
    if policy_name == "fcfs-strict":
        kwargs = dict(queue_policy=FCFS(), strict_head=True)
    elif policy_name == "fcfs-backfill":
        kwargs = dict(queue_policy=FCFS(), backfilling=True)
    elif policy_name == "sjf":
        kwargs = dict(queue_policy=SJF())
    scheduler = ClusterScheduler(sim, dc, **kwargs)
    portfolio = None
    if policy_name == "portfolio":
        portfolio = PortfolioScheduler(sim, scheduler, [FCFS(), SJF()],
                                       interval=30.0)

    def feeder(sim):
        for job in jobs:
            delay = job.submit_time - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            scheduler.submit_job(job)

    sim.run(until=sim.process(feeder(sim), name="feeder"))
    sim.run(until=20000.0)
    if portfolio is not None:
        portfolio.stop()
    stats = scheduler.statistics()
    expected = sum(len(j) for j in jobs)
    assert stats["completed"] == expected, (policy_name, stats["completed"])
    return {"slowdown": stats["slowdown_mean"],
            "wait_p95": stats["wait_p95"],
            "makespan": scheduler.makespan()}


def run_provisioning(policy, jobs) -> dict[str, float]:
    sim = Simulator()
    dc = Datacenter(sim, [homogeneous_cluster(
        "c", 8, MachineSpec(cores=8, memory=1e9, cost_per_hour=1.0))])
    scheduler = ClusterScheduler(sim, dc, queue_policy=SJF())
    provisioner = AutoscalingController(sim, dc, scheduler, policy,
                                        interval=10.0)

    def feeder(sim):
        for job in jobs:
            delay = job.submit_time - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            scheduler.submit_job(job)

    sim.run(until=sim.process(feeder(sim), name="feeder"))
    sim.run(until=3600.0)
    provisioner.stop()
    expected = sum(len(j) for j in jobs)
    assert len(scheduler.completed) == expected
    reserved = getattr(policy, "reserved", 0)
    return {"cost": provisioner.total_cost(reserved_machines=reserved),
            "mean_leased": provisioner.mean_leased(),
            "slowdown": scheduler.statistics()["slowdown_mean"]}


def build_e1():
    jobs_fn = lambda: bursty_jobs(seed=7)
    allocation = {name: run_allocation(name, jobs_fn())
                  for name in ("fcfs-strict", "fcfs-backfill", "sjf",
                               "portfolio")}
    provisioning = {
        "static-8": run_provisioning(StaticProvisioning(8), jobs_fn()),
        "on-demand": run_provisioning(
            OnDemandProvisioning(min_machines=1, headroom=0.1), jobs_fn()),
        "reserved+od": run_provisioning(
            ReservedPlusOnDemand(reserved=3), jobs_fn()),
    }
    return allocation, provisioning


def test_exp_scheduling_policies(benchmark, show):
    allocation, provisioning = benchmark.pedantic(build_e1, rounds=1,
                                                  iterations=1)
    # --- allocation contract ---
    assert (allocation["fcfs-backfill"]["makespan"]
            <= allocation["fcfs-strict"]["makespan"])
    assert (allocation["sjf"]["slowdown"]
            < allocation["fcfs-strict"]["slowdown"])
    worst = max(a["slowdown"] for a in allocation.values())
    assert allocation["portfolio"]["slowdown"] <= worst
    # --- provisioning contract ---
    assert provisioning["on-demand"]["cost"] < provisioning["static-8"]["cost"]
    assert (provisioning["on-demand"]["mean_leased"]
            < provisioning["static-8"]["mean_leased"])

    rows = [(name, f"{m['slowdown']:.2f}", f"{m['wait_p95']:.1f}",
             f"{m['makespan']:.0f}") for name, m in allocation.items()]
    prov_rows = [(name, f"{m['cost']:.3f}", f"{m['mean_leased']:.2f}",
                  f"{m['slowdown']:.2f}")
                 for name, m in provisioning.items()]
    show(render_table(["Allocation policy", "Mean slowdown", "p95 wait [s]",
                       "Makespan [s]"], rows,
                      title="E1a. ALLOCATION POLICIES ON A BURSTY TRACE.")
         + "\n\n"
         + render_table(["Provisioning policy", "Cost [$]",
                         "Mean machines leased", "Mean slowdown"],
                        prov_rows,
                        title="E1b. PROVISIONING POLICIES (THE DUAL "
                              "PROBLEM'S OTHER HALF)."))
