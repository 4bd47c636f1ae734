"""Profiler tests: classification rules and run-loop attribution."""

from pathlib import Path

from repro.observability import Observer, SubsystemProfiler
from repro.datacenter import Datacenter, MachineSpec, homogeneous_cluster
from repro.scenario import ScenarioSpec
from repro.scheduling import ClusterScheduler
from repro.sim import Simulator
from repro.workload import Task

SPEC_DIR = Path(__file__).resolve().parents[2] / "examples" / "specs"


def test_default_classification_rules():
    profiler = SubsystemProfiler()
    assert profiler.classify("exec-t1") == "datacenter"
    assert profiler.classify("scheduler-loop") == "scheduling"
    assert profiler.classify("hedge-watch-t1") == "scheduling"
    assert profiler.classify("faas-resize") == "faas"
    assert profiler.classify("guarded-resize") == "faas"
    assert profiler.classify("autoscaler-react") == "autoscaling"
    assert profiler.classify("failure-injector") == "resilience"
    assert profiler.classify("repair@60") == "resilience"
    assert profiler.classify("arrivals") == "workload"
    assert profiler.classify("") == "kernel"
    assert profiler.classify("mystery-process") == "other"


def test_custom_rules_override():
    profiler = SubsystemProfiler(rules=(("my-", "mine"),))
    assert profiler.classify("my-thing") == "mine"
    assert profiler.classify("exec-t1") == "other"


def _run_scenario(profiling: bool):
    sim = Simulator()
    observer = Observer(profiling=profiling)
    observer.attach(sim)
    datacenter = Datacenter(sim, [homogeneous_cluster(
        "c", 4, MachineSpec(cores=8))])
    scheduler = ClusterScheduler(sim, datacenter)
    for i in range(12):
        scheduler.submit(Task(runtime=10.0, cores=2, name=f"t{i}"))
    sim.run(until=10_000.0)
    return sim, scheduler, observer


def test_profiled_run_attributes_events_and_sim_time():
    sim, scheduler, observer = _run_scenario(profiling=True)
    profiler = observer.profiler
    report = profiler.report()
    assert set(report) >= {"datacenter", "scheduling"}
    total_events = sum(entry["events"] for entry in report.values())
    assert total_events == sim.events_processed
    # All clock advances are attributed somewhere, so per-subsystem
    # sim-time sums to the time of the last processed event.
    assert sum(e["sim_time"] for e in report.values()) <= 10_000.0
    assert profiler.run_wall_time > 0.0
    wall = profiler.wall_report()
    assert set(wall) == set(report)
    assert all(v >= 0.0 for v in wall.values())


def test_profiled_report_is_deterministic_across_runs():
    _, _, first = _run_scenario(profiling=True)
    _, _, second = _run_scenario(profiling=True)
    assert first.profiler.report() == second.profiler.report()


def test_profiled_run_matches_unprofiled_outcome():
    """Profiled steps must not change simulation results."""
    _, profiled, _ = _run_scenario(profiling=True)
    _, plain, _ = _run_scenario(profiling=False)
    assert profiled.statistics() == plain.statistics()
    assert profiled.makespan() == plain.makespan()


def test_step_dispatches_to_profiler():
    sim = Simulator()
    observer = Observer()
    observer.attach(sim)

    def ticker(sim):
        for _ in range(3):
            yield sim.timeout(1.0)

    sim.process(ticker(sim), name="exec-tick")
    while sim.peek() != float("inf"):
        sim.step()
    report = observer.profiler.report()
    assert report["datacenter"]["events"] >= 3.0
    assert sim.now == 3.0


def test_profile_is_the_same_whoever_drives():
    """Attribution lives in ``step()``, so run() and drive() agree.

    The spec declares no ``slos``: only ``drive()`` advances streaming
    telemetry, so with objectives the two runs would differ by design.
    """
    spec = ScenarioSpec.from_json(
        (SPEC_DIR / "chaos_baseline.json").read_text())
    assert spec.slos is None
    outcomes = []
    for drive in (lambda runtime: runtime.sim.run(),
                  lambda runtime: runtime.drive()):
        observer = Observer(profiling=True)
        runtime = spec.build(observer=observer)
        drive(runtime)
        runtime.finalize()
        outcomes.append((observer.profiler.report(), runtime.result()))
    (run_profile, run_result), (drive_profile, drive_result) = outcomes
    assert run_profile and run_profile == drive_profile
    assert run_result.to_dict() == drive_result.to_dict()
