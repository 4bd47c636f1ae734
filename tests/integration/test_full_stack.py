"""Integration tests: multiple substrates composed end-to-end."""

import hashlib
import importlib.util
import io
import json
import pathlib
import random
from contextlib import redirect_stdout

from repro.__main__ import main
from repro.autoscaling import AutoscalingController, ReactAutoscaler
from repro.datacenter import (
    Datacenter,
    Federation,
    MachineSpec,
    heterogeneous_cluster,
    homogeneous_cluster,
    least_loaded_offload,
)
from repro.failures import FailureInjector, SpaceCorrelatedModel
from repro.scheduling import (
    ClusterScheduler,
    FastestFit,
    SJF,
    WorkflowEngine,
)
from repro.selfaware import RecoveryPlanner
from repro.sim import Simulator
from repro.workload import (
    PoissonArrivals,
    Task,
    TaskState,
    WorkloadGenerator,
    wfformat_workflow,
)

GALLERY = pathlib.Path(__file__).parents[2] / "examples" / "specs"
SCIENCE_FAMILIES = ("montage", "ligo", "epigenomics")


def test_autoscaled_datacenter_with_failures_and_recovery():
    """The C6 composition: autoscaling + failure injection + recovery."""
    sim = Simulator()
    # 16-core machines: the default workload mix includes HPC tasks of
    # up to 16 cores, which must remain placeable.
    dc = Datacenter(sim, [homogeneous_cluster(
        "c", 12, MachineSpec(cores=16, memory=1e9))])
    scheduler = ClusterScheduler(sim, dc, queue_policy=SJF())
    controller = AutoscalingController(sim, dc, scheduler,
                                       ReactAutoscaler(), interval=5.0)
    planner = RecoveryPlanner(scheduler, max_retries=8)
    model = SpaceCorrelatedModel(burst_rate=0.01, max_group=4,
                                 repair_median=30.0,
                                 rng=random.Random(1))
    racks = [[f"c-m{i}" for i in range(r * 4, (r + 1) * 4)]
             for r in range(3)]
    injector = FailureInjector(sim, dc, model.generate(500.0, racks))
    jobs = WorkloadGenerator(
        PoissonArrivals(0.3, rng=random.Random(2)),
        rng=random.Random(3)).generate(horizon=300.0)

    def feeder(sim):
        for job in jobs:
            delay = job.submit_time - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            scheduler.submit_job(job)

    sim.run(until=sim.process(feeder(sim)))
    sim.run(until=5000.0)
    controller.stop()
    expected = sum(len(j) for j in jobs)
    assert len(scheduler.completed) == expected
    # Failures occurred and were recovered, not silently dropped.
    if injector.victim_tasks:
        assert planner.total_retries >= 1
    # No task double-counted.
    assert len({t.task_id for t in scheduler.completed}) == expected


def test_science_workflows_on_heterogeneous_cluster():
    """§6.2: the full e-Science mix completes with dependencies intact."""
    sim = Simulator()
    dc = Datacenter(sim, [heterogeneous_cluster("sci", n_cpu=8, n_gpu=2)])
    scheduler = ClusterScheduler(sim, dc, placement_policy=FastestFit(),
                                 backfilling=True)
    engine = WorkflowEngine(sim, scheduler)
    # The WfFormat gallery's Montage, LIGO and Epigenomics instances,
    # twice each, arriving 20 s apart.
    workflows = []
    for i in range(6):
        family = SCIENCE_FAMILIES[i % len(SCIENCE_FAMILIES)]
        workflow = wfformat_workflow(
            GALLERY / f"{family}_small.wfformat.json", submit_time=20.0 * i)
        workflow.name = f"{workflow.name}-{i}"
        workflows.append(workflow)

    def feeder(sim):
        for workflow in workflows:
            delay = workflow.submit_time - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            engine.submit(workflow)

    sim.run(until=sim.process(feeder(sim)))
    sim.run(until=100_000.0)
    for workflow in workflows:
        assert workflow.is_finished, workflow.name
        for task in workflow:
            for dep in task.dependencies:
                assert dep.finish_time <= task.start_time + 1e-9
        # Makespan is bounded below by the critical path.
        assert workflow.makespan >= workflow.critical_path_length() / 4.0 - 1e-6


def test_federation_absorbs_local_overload():
    """C10: delegation keeps a federated deployment serving."""
    sim = Simulator()
    sites = [Datacenter(sim, [homogeneous_cluster(
        f"{name}-c", 2, MachineSpec(cores=4, memory=1e9))], name=name)
        for name in ("eu", "us", "ap")]
    federation = Federation(
        sim, sites,
        latency={("eu", "us"): 0.1, ("eu", "ap"): 0.25,
                 ("us", "ap"): 0.18},
        policy=least_loaded_offload(threshold=0.6))
    tasks = [Task(runtime=20.0, cores=4, name=f"t{i}") for i in range(12)]

    def feeder(sim):
        for task in tasks:
            federation.submit(task, "eu")
            yield sim.timeout(0.5)

    sim.run(until=sim.process(feeder(sim)))
    sim.run(until=2000.0)
    assert all(t.state is TaskState.FINISHED for t in tasks)
    assert federation.offloaded_tasks > 0
    served_elsewhere = sum(len(dc.completed_tasks) for dc in sites[1:])
    assert served_elsewhere == federation.offloaded_tasks


def test_machines_never_oversubscribed_under_stress():
    """Global invariant: capacity is conserved through the whole run."""
    sim = Simulator()
    dc = Datacenter(sim, [homogeneous_cluster(
        "c", 3, MachineSpec(cores=4, memory=8.0))])
    scheduler = ClusterScheduler(sim, dc, backfilling=True)
    rng = random.Random(5)
    tasks = [Task(runtime=rng.uniform(1, 10), cores=rng.randint(1, 4),
                  memory=rng.uniform(0.5, 8.0)) for _ in range(60)]

    violations = []

    def watchdog(sim):
        while True:
            violations.extend(
                (sim.now, machine.name) for machine in dc.machines()
                if (machine.cores_used > machine.spec.cores
                    or machine.memory_used > machine.spec.memory + 1e-9))
            yield sim.timeout(0.5)

    sim.process(watchdog(sim))
    for task in tasks:
        scheduler.submit(task)
    sim.run(until=1000.0)
    assert not violations
    assert len(scheduler.completed) == 60


GOLDENS = pathlib.Path(__file__).with_name("goldens") / "examples.json"

#: observability_tour.py prints a wall-clock column (its profiler
#: table), so two runs never hash alike; it keeps the non-empty check.
UNPINNED = frozenset({"observability_tour.py"})


def _printed(fn, *args) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        fn(*args)
    return buffer.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _example_digests() -> dict[str, str]:
    """Run every shipped example in-process; SHA-256 of what each prints."""
    examples = sorted(
        pathlib.Path(__file__).parents[2].joinpath("examples").glob("*.py"))
    assert len(examples) >= 3
    digests = {}
    for path in examples:
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        printed = _printed(module.main)
        assert printed.strip(), f"{path.name} printed nothing"
        if path.name not in UNPINNED:
            digests[path.name] = _sha256(printed)
    return digests


def test_examples_run_clean():
    """Every shipped example runs and prints exactly what it printed before."""
    pinned = json.loads(GOLDENS.read_text())["examples"]
    assert _example_digests() == pinned


def test_repro_all_prints_what_it_printed_before():
    """``python -m repro all`` regenerates the paper's tables unchanged."""
    pinned = json.loads(GOLDENS.read_text())["repro all"]
    assert _sha256(_printed(main, ["all"])) == pinned
