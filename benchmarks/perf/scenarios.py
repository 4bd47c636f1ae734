"""Seeded benchmark scenarios over the simulator's hot paths.

Each scenario exposes two entry points:

- ``run_*`` — build and execute the scenario once, returning timing
  metrics (used for the perf trajectory);
- ``digest_*`` — execute the scenario under instrumentation and return
  a determinism digest: a JSON-able record of the *outcome* (event
  trace, statistics, report fields, array hashes) that must stay
  bit-identical across behavior-preserving optimizations.

All randomness derives from :class:`repro.sim.RandomStreams`
substreams of an explicit seed, so every run of a scenario at a given
size is exactly reproducible.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.datacenter import Datacenter
from repro.observability import Observer
from repro.graphproc.csr import CSRGraph, pagerank_csr
from repro.graphproc.graph import Graph, preferential_attachment_graph
from repro.resilience import ChaosExperiment
from repro.scenario import (BurnRuleSpec, CheckpointSpec, ClusterSpec,
                            FailureSpec, HedgeSpec, ObjectiveSpec, RetrySpec,
                            ScenarioRuntime, ScenarioSpec, SLOSpec,
                            TopologySpec, WorkloadSpec, open_arrival_tasks)
from repro.scheduling import ClusterScheduler
from repro.sim import RandomStreams, Simulator
from repro.workload import Task

from .harness import best_of, digest, digest_floats

__all__ = [
    "SIZES",
    "scheduling_spec",
    "chaos_spec",
    "sweep_spec",
    "make_scheduling_tasks",
    "run_scheduling",
    "digest_scheduling",
    "run_event_core",
    "digest_event_core",
    "run_csr_build",
    "digest_csr",
    "run_chaos",
    "digest_chaos",
    "digest_alerts",
]

#: Scenario sizes per harness mode.  ``full`` backs the headline
#: numbers in BENCH_sim_core.json; ``smoke`` is the CI regression
#: check; ``golden`` is small enough for the tier-1 determinism tests.
SIZES = {
    "full": {
        "sched_tasks": 10_000, "sched_machines": 1_000,
        "event_count": 200_000,
        "csr_vertices": 25_000, "csr_degree": 4,
    },
    # Smoke sizes are chosen so every scenario takes a few hundred ms
    # *after* optimization: much smaller and best-of-N wall times get
    # noisy enough to trip the CI tolerance on a quiet regression-free
    # run.
    "smoke": {
        "sched_tasks": 2_500, "sched_machines": 256,
        "event_count": 150_000,
        "csr_vertices": 8_000, "csr_degree": 4,
    },
    "golden": {
        "sched_tasks": 400, "sched_machines": 64,
        "event_count": 10_000,
        "csr_vertices": 1_200, "csr_degree": 3,
    },
}


# ---------------------------------------------------------------------------
# Scheduling pipeline: submission -> queue -> placement -> execution
# ---------------------------------------------------------------------------
def scheduling_spec(n_tasks: int, n_machines: int,
                    seed: int = 0) -> ScenarioSpec:
    """The scheduling benchmark as a declarative scenario spec."""
    return ScenarioSpec(
        name="perf-scheduling",
        seed=seed,
        topology=TopologySpec(
            clusters=(ClusterSpec("perf", n_machines, cores=8, memory=32.0,
                                  machines_per_rack=32),),
            datacenter="perf-dc"),
        workload=WorkloadSpec("open-arrivals", {
            "n_tasks": n_tasks, "load": 0.9, "cores": [1, 8],
            "runtime": [5.0, 195.0], "memory_per_core": 2.0,
            "prefix": "perf", "stream": "perf-workload"}))


def make_scheduling_tasks(n_tasks: int, total_cores: int,
                          seed: int = 0, load: float = 0.9) -> list[Task]:
    """A seeded open-arrival workload targeting ``load`` utilization."""
    rng = RandomStreams(seed).stream("perf-workload")
    return open_arrival_tasks(rng, n_tasks, total_cores, load=load)


def run_scheduling(n_tasks: int, n_machines: int,
                   seed: int = 0) -> dict[str, float]:
    """Time one end-to-end scheduling run; returns flat metrics."""
    runtime = scheduling_spec(n_tasks, n_machines, seed).build()
    sim = runtime.sim
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    runtime.finalize()
    return {
        "elapsed_s": elapsed,
        "events_processed": float(sim.events_processed),
        "events_per_sec": sim.events_processed / elapsed if elapsed else 0.0,
        "tasks_completed": float(len(runtime.scheduler.completed)),
        "sim_time": sim.now,
    }


def _scheduling_outcome(sim: Simulator, datacenter: Datacenter,
                        scheduler: ClusterScheduler,
                        trace: Sequence[float]) -> dict:
    return {
        "statistics": scheduler.statistics(),
        "makespan": scheduler.makespan(),
        "completed": len(scheduler.completed),
        "failed_executions": datacenter.failed_executions,
        "energy_joules": datacenter.total_energy_joules(),
        "mean_utilization": datacenter.mean_utilization(),
        "events_processed": sim.events_processed,
        "sim_time": sim.now,
        "event_trace_len": len(trace),
        "event_trace_sha": digest_floats(trace),
    }


def digest_scheduling(n_tasks: int, n_machines: int, seed: int = 0) -> dict:
    """Run under step-level instrumentation; digest the full outcome.

    The event-time trace pins the simulator's exact event ordering:
    any change to when (or how many) events fire changes the digest.
    """
    runtime: ScenarioRuntime = scheduling_spec(n_tasks, n_machines,
                                               seed).build()
    trace: list[float] = []
    runtime.drive(trace=trace)
    runtime.finalize()
    outcome = _scheduling_outcome(runtime.sim, runtime.datacenter,
                                  runtime.scheduler, trace)
    outcome["sha"] = digest(outcome)
    return outcome


# ---------------------------------------------------------------------------
# Event core: timeout-driven process churn
# ---------------------------------------------------------------------------
def _build_event_core(event_count: int, seed: int = 0) -> Simulator:
    sim = Simulator()
    rng = RandomStreams(seed).stream("perf-events")
    n_processes = 50
    per_process = event_count // n_processes

    def ticker(delays):
        for delay in delays:
            yield sim.timeout(delay)

    for _ in range(n_processes):
        delays = [rng.uniform(0.01, 10.0) for _ in range(per_process)]
        sim.process(ticker(delays), name="perf-ticker")
    return sim


def run_event_core(event_count: int, seed: int = 0) -> dict[str, float]:
    """Time a pure timeout/process workload; the kernel's floor cost."""
    sim = _build_event_core(event_count, seed)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return {
        "elapsed_s": elapsed,
        "events_processed": float(sim.events_processed),
        "events_per_sec": sim.events_processed / elapsed if elapsed else 0.0,
    }


def digest_event_core(event_count: int, seed: int = 0) -> dict:
    """Step-driven digest of the event core's exact timing sequence."""
    sim = _build_event_core(event_count, seed)
    trace: list[float] = []
    sim.advance_until(float("inf"), before_step=trace.append)
    outcome = {
        "events_processed": sim.events_processed,
        "sim_time": sim.now,
        "event_trace_len": len(trace),
        "event_trace_sha": digest_floats(trace),
    }
    outcome["sha"] = digest(outcome)
    return outcome


# ---------------------------------------------------------------------------
# CSR construction
# ---------------------------------------------------------------------------
def build_csr_graph(n_vertices: int, degree: int, seed: int = 0) -> Graph:
    """A scale-free graph with roughly ``n_vertices * degree`` edges."""
    rng = RandomStreams(seed).stream("perf-graph")
    return preferential_attachment_graph(n_vertices, m=degree, rng=rng)


def run_csr_build(n_vertices: int, degree: int, seed: int = 0,
                  repeat: int = 3,
                  with_reference: bool = True) -> dict[str, float]:
    """Time CSR construction; optionally also the frozen reference loop.

    The reference ratio (``speedup_vs_reference``) is machine-portable:
    both implementations run back to back on the same host.
    """
    graph = build_csr_graph(n_vertices, degree, seed)
    build_elapsed, csr = best_of(lambda: CSRGraph(graph), repeat=repeat)
    metrics = {
        "elapsed_s": build_elapsed,
        "vertices": float(csr.vertex_count),
        "directed_edges": float(csr.directed_edge_count),
        "edges_per_sec": (csr.directed_edge_count / build_elapsed
                          if build_elapsed else 0.0),
    }
    if with_reference:
        from .csr_reference import reference_csr_arrays
        ref_elapsed, _ = best_of(lambda: reference_csr_arrays(graph),
                                 repeat=repeat)
        metrics["reference_elapsed_s"] = ref_elapsed
        metrics["speedup_vs_reference"] = (ref_elapsed / build_elapsed
                                           if build_elapsed else 0.0)
    return metrics


def digest_csr(n_vertices: int, degree: int, seed: int = 0) -> dict:
    """Digest the CSR arrays and a PageRank over them."""
    graph = build_csr_graph(n_vertices, degree, seed)
    csr = CSRGraph(graph)
    ranks, ops = pagerank_csr(csr, iterations=10)
    outcome = {
        "vertices": csr.vertex_count,
        "directed_edges": csr.directed_edge_count,
        "indptr_sha": digest_floats([float(x) for x in csr.indptr]),
        "indices_sha": digest_floats([float(x) for x in csr.indices]),
        "weights_sha": digest_floats([float(x) for x in csr.weights]),
        "pagerank_sha": digest_floats([ranks[v] for v in sorted(ranks)]),
        "edges_scanned": ops.edges_scanned,
    }
    outcome["sha"] = digest(outcome)
    return outcome


# ---------------------------------------------------------------------------
# Chaos experiment: resilience machinery end to end
# ---------------------------------------------------------------------------
def chaos_spec(seed: int = 11, with_slos: bool = False) -> ScenarioSpec:
    """The chaos benchmark as a declarative scenario spec.

    ``with_slos=True`` adds the SLO/burn-rate declarations graded by
    :func:`digest_alerts`.
    """
    slos = None
    if with_slos:
        slos = SLOSpec(
            objectives=(
                ObjectiveSpec("availability", {
                    "name": "exec-success",
                    "good": "datacenter.executions_finished",
                    "bad": "datacenter.executions_interrupted",
                    "target": 0.9}),
                ObjectiveSpec("queue-wait", {
                    "name": "fast-start", "threshold": 50.0,
                    "target": 0.9}),
            ),
            rules=(BurnRuleSpec("fast", long_window=60.0, short_window=15.0,
                                threshold=4.0),
                   BurnRuleSpec("slow", long_window=240.0, short_window=60.0,
                                threshold=2.0)),
            telemetry_interval=5.0)
    return ScenarioSpec(
        name="perf-chaos",
        seed=seed,
        topology=TopologySpec(
            clusters=(ClusterSpec("chaos", 24, cores=4, memory=32.0,
                                  machines_per_rack=6),),
            datacenter="chaos-dc"),
        workload=WorkloadSpec("uniform-tasks", {
            "n_tasks": 160, "runtime": [20.0, 150.0], "cores": [1, 3],
            "submit": [0.0, 80.0], "priority_levels": 3,
            "prefix": "chaos-", "stream": "workload"}),
        failures=FailureSpec("sampled-bursts", {
            "times": [70.0, 180.0, 320.0], "victims": 6,
            "duration": 35.0, "stream": "failures"}),
        retries=RetrySpec(max_attempts=6, base=1.0, cap=60.0,
                          jitter="decorrelated"),
        checkpoints=CheckpointSpec(interval=20.0, overhead=0.5),
        hedging=HedgeSpec(delay_factor=2.5, min_runtime=40.0),
        horizon=600.0, availability_slo=0.85, injection_jitter=3.0,
        slos=slos)


def sweep_spec() -> ScenarioSpec:
    """The base spec for the sweep benchmark (seed x policy grid).

    A mid-size chaos scenario: heavy enough that a sweep has real work
    to parallelize, light enough for CI smoke runs.
    """
    spec = chaos_spec(seed=3)
    return spec.override({"workload.params.n_tasks": 120,
                          "horizon": 400.0})


def run_chaos(seed: int = 11) -> dict[str, float]:
    """Time one chaos experiment (retries, checkpoints, hedges, repairs)."""
    experiment = ChaosExperiment.from_spec(chaos_spec(seed))
    start = time.perf_counter()
    experiment.run()
    elapsed = time.perf_counter() - start
    return {"elapsed_s": elapsed}


def digest_chaos(seed: int = 11) -> dict:
    """Digest the full chaos report — every resilience counter."""
    report = ChaosExperiment.from_spec(chaos_spec(seed)).run()
    outcome = {"summary": report.summary(),
               "max_attempts_observed": report.max_attempts_observed,
               "unrecovered_victims": report.unrecovered_victims,
               "violations": list(report.violations)}
    outcome["sha"] = digest(outcome)
    return outcome


def digest_alerts(seed: int = 11) -> dict:
    """Digest the SLO verdicts and alert log of an observed chaos run.

    The same scenario as :func:`digest_chaos`, re-run with the
    observer armed and SLOs declared: the per-tick burn-rate
    evaluation, every fire/resolve transition, and the final SLO
    report must all be bit-identical for a fixed seed.
    """
    spec = chaos_spec(seed, with_slos=True)
    experiment = ChaosExperiment.from_spec(spec)
    report = experiment.run(observer=Observer())
    outcome = {"slo_report": report.slo_report,
               "alerts": report.alert_log.to_json(),
               "violations": list(report.violations)}
    outcome["sha"] = digest(outcome)
    return outcome
