"""The scenario composition root: one assembly path for every run.

Before this module existed the repository wired up simulations five
different ways — the perf benchmarks, each example script, the chaos
harness, experiment recipes, and the CLI all duplicated the
datacenter/workload/scheduler/observer setup.  :func:`compose` is the
single composition root they now share: it builds a
:class:`ScenarioRuntime` holding every live component of one run, in a
*fixed construction order* so that refactoring an entry point onto the
kernel preserves its determinism digests bit for bit.

A run advances through the kernel's one loop,
:meth:`~repro.sim.engine.Simulator.advance_until`: to its ``duration``,
or else until only daemon controller ticks remain (capped at
``max_time``), without the clock jump that ``run(until=...)`` performs
on an early drain, advancing streaming telemetry from the loop's
``before_step`` hook so observation can never perturb the event order.
A shard harness drives the same window and tail epoch by epoch.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

from ..autoscaling.controller import AutoscalingController
from ..datacenter.cluster import Cluster
from ..datacenter.datacenter import Datacenter
from ..failures.injection import FailureInjector
from ..failures.models import FailureEvent
from ..observability.observer import Observer
from ..observability.slo import BurnRateRule, ServiceObjective, SLOEngine
from ..observability.streaming import StreamingPipeline
from ..scheduling.policies import PLACEMENT_POLICIES, QUEUE_POLICIES
from ..scheduling.portfolio import PortfolioScheduler
from ..scheduling.scheduler import ClusterScheduler
from ..scheduling.workflow_engine import WorkflowEngine
from ..selfaware.anomaly import RecoveryPlanner
from ..sim import RandomStreams, Simulator, Timeout
from ..workload.task import Job, Task
from ..workload.workflow import Workflow
from .result import ScenarioResult, compile_result
from .spec import ScenarioSpec

__all__ = ["ScenarioRuntime", "compose", "build_runtime"]


class ScenarioRuntime:
    """The live components of one composed scenario run.

    Produced by :func:`compose`; holds the simulator, the observer (if
    armed), the SLO engine (if objectives were declared), the
    datacenter, scheduler, resilience machinery, workload, and failure
    injector.  :meth:`drive` executes the run, :meth:`finalize` stops
    the scheduler and controllers, and :meth:`result` compiles the
    deterministic :class:`~repro.scenario.result.ScenarioResult`.
    """

    def __init__(self) -> None:
        self.spec: ScenarioSpec | None = None
        self.seed: int = 0
        self.sim: Simulator = None  # type: ignore[assignment]
        self.observer: Observer | None = None
        self.engine: SLOEngine | None = None
        self.streams: RandomStreams = None  # type: ignore[assignment]
        self.clusters: list[Cluster] = []
        self.datacenter: Datacenter = None  # type: ignore[assignment]
        self.admission: Any = None
        self.scheduler: ClusterScheduler = None  # type: ignore[assignment]
        self.portfolio: PortfolioScheduler | None = None
        self.controller: AutoscalingController | None = None
        self.planner: RecoveryPlanner | None = None
        self.workflow_engine: WorkflowEngine | None = None
        self.retry_policy: Any = None
        self.items: list = []
        self.tasks: list[Task] = []
        self.events: list[FailureEvent] = []
        self.injector: FailureInjector | None = None
        self.availability_slo: float = 0.0
        self.duration: float | None = None
        self.max_time: float = 10_000_000.0
        self._driven = False
        self._finalized = False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def drive(self, trace: list[float] | None = None) -> None:
        """Step the run to completion: :meth:`advance` then :meth:`settle`.

        Runs to ``duration`` (when set) or else to an idle simulator
        (capped at ``max_time``), *without* the clock jump to the stop
        time that ``Simulator.run(until=...)`` performs on an early
        drain — the availability denominator is the actual elapsed time.

        Args:
            trace: Optional list; when given, every event's time is
                appended as it is processed — the event-time trace the
                perf harness digests to pin exact event ordering.
        """
        if self._driven:
            raise RuntimeError("this runtime was already driven; "
                               "build a fresh one per run")
        self._driven = True
        self.advance(float("inf"), trace=trace)
        self.settle()

    def advance(self, stop: float, trace: list[float] | None = None) -> int:
        """Process this run's events strictly before ``stop``.

        One :meth:`~repro.sim.engine.Simulator.advance_until` window,
        bounded by ``duration`` when declared, else open-ended (it ends
        once only daemon controller ticks remain) and capped at
        ``max_time``.  Streaming telemetry ticks are driven from its
        ``before_step`` hook rather than as sim events, so observation
        can never keep a drained simulation alive or perturb its event
        order.  :meth:`drive` opens one unbounded window; a shard
        harness opens one per epoch.  Returns the number of events
        processed.
        """
        bound = self.duration
        if bound is None and stop > self.max_time:
            stop = math.nextafter(self.max_time, math.inf)
        record = trace.append if trace is not None else None
        if self.engine is None:
            hook = record
        elif record is None:
            hook = self.engine.pipeline.advance
        else:
            telemetry = self.engine.pipeline.advance

            def hook(when: float) -> None:
                telemetry(when)
                record(when)
        return self.sim.advance_until(stop, bound=bound, before_step=hook)

    def settle(self) -> None:
        """Close the run after its last window.

        An explicit ``duration`` fixes the observation window, so the
        clock jumps to it (no events remain at or before it); streaming
        telemetry then advances to the final clock.
        """
        self._driven = True
        sim = self.sim
        if self.duration is not None and sim.now < self.duration:
            sim.run(until=self.duration)
        if self.engine is not None:
            self.engine.pipeline.advance(sim.now)

    def finalize(self) -> None:
        """Stop the scheduler and the controller ticks (portfolio, scaler)."""
        if self._finalized:
            return
        self._finalized = True
        self.scheduler.stop()
        if self.portfolio is not None:
            self.portfolio.stop()
        if self.controller is not None:
            self.controller.stop()

    # ------------------------------------------------------------------
    # Outcomes
    # ------------------------------------------------------------------
    def chaos_report(self):
        """The resilience-graded view of the finished run.

        Returns a :class:`~repro.resilience.chaos.ChaosReport` (SLO
        verdicts included when an engine was armed) — exactly what
        :meth:`ChaosExperiment.run` reports.
        """
        from ..resilience.chaos import compile_report
        report = compile_report(
            self.sim, self.datacenter, self.scheduler, self.planner,
            self.injector, self.tasks, seed=self.seed,
            availability_slo=self.availability_slo,
            retry_policy=self.retry_policy)
        if self.engine is not None:
            report.slo_report = self.engine.report()
            report.alert_log = self.engine.alerts
            report.violations.extend(self.engine.violations())
        return report

    def result(self) -> ScenarioResult:
        """Compile the deterministic result record for this run."""
        return compile_result(self)

    def execute(self, trace: list[float] | None = None) -> ScenarioResult:
        """Drive, finalize, and compile the result in one call."""
        self.drive(trace=trace)
        self.finalize()
        result = self.result()
        if self.observer is not None:
            # The run's simulator is private; release the observer so
            # its collected data can outlive the scenario.
            self.observer.detach()
        return result


def compose(*, seed: int,
            clusters: Callable[[], Sequence[Cluster]],
            workload: Callable[[RandomStreams, Datacenter], Sequence],
            failures: Callable[[RandomStreams, list, float],
                               Sequence[FailureEvent]] | None = None,
            observer: Observer | None = None,
            slos: Sequence[ServiceObjective] = (),
            slo_rules: Sequence[BurnRateRule] | None = None,
            telemetry_interval: float = 5.0,
            queue_policy: Any = None,
            placement_policy: Any = None,
            backfilling: bool = False,
            strict_head: bool = False,
            admission: Callable[[Datacenter], Any] | None = None,
            hedge_policy: Any = None,
            retry_policy: Any = None,
            checkpoint_policy: Any = None,
            portfolio: Sequence[Any] | None = None,
            portfolio_interval: float = 50.0,
            autoscaler: Any = None,
            autoscaler_interval: float = 10.0,
            datacenter_name: str = "dc",
            operator: str = "operator",
            horizon: float = 1000.0,
            injection_jitter: float = 0.0,
            availability_slo: float = 0.0,
            duration: float | None = None,
            max_time: float = 10_000_000.0,
            spec: ScenarioSpec | None = None,
            submit_router: Callable[[Any], bool] | None = None,
            ) -> ScenarioRuntime:
    """Assemble one run from live ingredients (the composition root).

    Every entry point — spec runs, the chaos harness, the perf
    benchmarks — funnels through this function, in this construction
    order; the order is part of the determinism contract.

    Args:
        seed: Root seed for the run's :class:`RandomStreams`.
        clusters: ``() -> clusters`` factory (fresh topology per run).
        workload: ``(streams, datacenter) -> tasks-or-jobs``.
        failures: Optional ``(streams, racks, horizon) -> events``;
            when given a :class:`FailureInjector` is armed even if the
            schedule comes back empty (a calm control run).
        observer: Optional observer to attach to the private simulator.
        slos: Declared objectives; arm streaming telemetry + SLOEngine
            (requires ``observer``).
        slo_rules: Burn rules for the engine (None keeps its default).
        telemetry_interval: Sim-seconds between telemetry windows.
        queue_policy / placement_policy / backfilling / strict_head:
            Scheduler configuration, as for :class:`ClusterScheduler`.
        admission: Optional ``(datacenter) -> admission controller``.
        hedge_policy: Optional speculative-execution policy.
        retry_policy: Optional retry policy; arms a
            :class:`RecoveryPlanner` with the ``"retry-jitter"`` stream.
        checkpoint_policy: Optional policy stamped onto the workload.
        portfolio: Optional extra queue-policy instances raced by a
            :class:`PortfolioScheduler`.
        portfolio_interval: Portfolio re-selection cadence.
        autoscaler: Optional autoscaling policy object; arms an
            :class:`AutoscalingController`.
        autoscaler_interval: Autoscaler evaluation cadence.
        datacenter_name / operator: Datacenter identity.
        horizon: Failure-generation horizon.
        injection_jitter: Failure-time perturbation bound.
        availability_slo: Target graded into the chaos report.
        duration: Optional run-until bound; None runs to exhaustion.
        max_time: Safety cap on simulated time.
        spec: The originating spec, if any (carried on the runtime for
            fingerprinting; composition never reads it).
        submit_router: Optional arrival-time hook, ``(item) -> bool``;
            returning True claims the item (it is *not* submitted
            locally).  The sharded runtime uses this to divert
            offloaded tasks into the cross-shard channel.

    Returns:
        A ready-to-drive :class:`ScenarioRuntime`.
    """
    if slos and observer is None:
        raise ValueError(
            "SLO grading reads the metrics registry; pass an observer "
            "when the scenario declares slos")
    runtime = ScenarioRuntime()
    runtime.spec = spec
    runtime.seed = seed
    runtime.availability_slo = availability_slo
    runtime.duration = duration
    runtime.max_time = max_time
    runtime.retry_policy = retry_policy

    sim = Simulator()
    runtime.sim = sim
    if observer is not None:
        observer.attach(sim)
        runtime.observer = observer
    if slos:
        pipeline = StreamingPipeline(sim, observer.metrics,
                                     interval=telemetry_interval)
        runtime.engine = (SLOEngine(pipeline, tuple(slos), rules=slo_rules)
                          if slo_rules is not None
                          else SLOEngine(pipeline, tuple(slos)))
    streams = RandomStreams(seed)
    runtime.streams = streams
    runtime.clusters = list(clusters())
    datacenter = Datacenter(sim, runtime.clusters, name=datacenter_name,
                            operator=operator)
    runtime.datacenter = datacenter
    runtime.admission = admission(datacenter) if admission else None
    scheduler = ClusterScheduler(
        sim, datacenter, queue_policy=queue_policy,
        placement_policy=placement_policy, backfilling=backfilling,
        strict_head=strict_head, admission=runtime.admission,
        hedge_policy=hedge_policy)
    runtime.scheduler = scheduler
    if portfolio:
        runtime.portfolio = PortfolioScheduler(
            sim, scheduler, list(portfolio), interval=portfolio_interval)
    if autoscaler is not None:
        runtime.controller = AutoscalingController(
            sim, datacenter, scheduler, autoscaler,
            interval=autoscaler_interval)
    if retry_policy is not None:
        runtime.planner = RecoveryPlanner(
            scheduler, retry_policy=retry_policy,
            rng=streams.stream("retry-jitter"))
    items = list(workload(streams, datacenter))
    if not items:
        raise ValueError("the workload produced no tasks")
    runtime.items = items
    runtime.tasks = _flatten(items)
    if any(isinstance(item, Workflow) for item in items):
        # DAG workloads need an execution engine that releases tasks
        # as dependencies finish; plain job/task workloads keep the
        # historical path (no engine, no extra completion callback).
        runtime.workflow_engine = WorkflowEngine(
            sim, scheduler, retry_policy=retry_policy, streams=streams)
    if checkpoint_policy is not None:
        checkpoint_policy.apply(runtime.tasks)
    if failures is not None:
        racks = [[machine.name for machine in rack]
                 for cluster in runtime.clusters for rack in cluster.racks]
        runtime.events = list(failures(streams, racks, horizon))
        runtime.injector = FailureInjector(sim, datacenter, runtime.events,
                                           streams=streams,
                                           jitter=injection_jitter)
    _Arrivals(sim, scheduler, items, engine=runtime.workflow_engine,
              router=submit_router)
    return runtime


def build_runtime(spec: ScenarioSpec, **overrides: Any) -> ScenarioRuntime:
    """Resolve a :class:`ScenarioSpec` into a composed runtime.

    This is what :meth:`ScenarioSpec.build` calls.  Keyword
    ``overrides`` replace resolved ingredients by :func:`compose`
    parameter name (e.g. ``autoscaler=CustomPolicy()``,
    ``observer=my_observer``) — the programmatic escape hatch for
    studies whose components have no declarative form.  A run built
    with overrides is no longer reproducible from the spec JSON alone.
    """
    scheduler = spec.scheduler
    ingredients: dict[str, Any] = {
        "seed": spec.seed,
        "clusters": spec.cluster_factory(),
        "workload": spec.workload_fn(),
        "failures": spec.failure_fn(),
        "queue_policy": QUEUE_POLICIES[scheduler.queue](),
        "placement_policy": PLACEMENT_POLICIES[scheduler.placement](),
        "backfilling": scheduler.backfilling,
        "strict_head": scheduler.strict_head,
        "portfolio": ([QUEUE_POLICIES[name]() for name in
                       (scheduler.queue, *scheduler.portfolio)]
                      if scheduler.portfolio else None),
        "portfolio_interval": scheduler.portfolio_interval,
        "datacenter_name": spec.topology.datacenter,
        "operator": spec.topology.operator,
        "horizon": spec.horizon,
        "injection_jitter": spec.injection_jitter,
        "availability_slo": spec.availability_slo,
        "duration": spec.duration,
        "max_time": spec.max_time,
        "spec": spec,
    }
    if spec.autoscaler is not None:
        ingredients["autoscaler"] = spec.autoscaler.build()
        ingredients["autoscaler_interval"] = spec.autoscaler.interval
    if spec.retries is not None:
        ingredients["retry_policy"] = spec.retries.build()
    if spec.checkpoints is not None:
        ingredients["checkpoint_policy"] = spec.checkpoints.build()
    if spec.hedging is not None:
        ingredients["hedge_policy"] = spec.hedging.build()
    if spec.shedding is not None:
        ingredients["admission"] = spec.shedding.build()
    if spec.slos is not None:
        ingredients["slos"] = spec.slos.build_objectives()
        ingredients["slo_rules"] = spec.slos.build_rules()
        ingredients["telemetry_interval"] = spec.slos.telemetry_interval
    ingredients.update(overrides)
    if (spec.observer or ingredients.get("slos")) \
            and ingredients.get("observer") is None:
        ingredients["observer"] = Observer()
    return compose(**ingredients)


def _flatten(items: Sequence) -> list[Task]:
    """Every task in a mixed task/job workload, in item order."""
    tasks: list[Task] = []
    for item in items:
        if isinstance(item, Job):
            tasks.extend(item.tasks)
        else:
            tasks.append(item)
    return tasks


class _Arrivals:
    """The arrival process: submits items in (submit_time, name) order.

    A driver of chained :class:`~repro.sim.Timeout` events, one per
    distinct future submit time, started by a zero-delay timeout posted
    at composition.  The items are sorted at that first delivery, not
    at composition.  Its callbacks are bound to this object, named
    ``arrivals``, so profiles attribute them to the workload.

    Workflows route through the :class:`WorkflowEngine` (dependency
    release + bounded retries) when one was armed; plain jobs and tasks
    go straight to the scheduler, as always.  A ``router`` sees every
    item first and may claim it (returning True) instead of local
    submission — the cross-shard offload seam.
    """

    __slots__ = ("sim", "scheduler", "items", "engine", "router", "_next")

    name = "arrivals"

    def __init__(self, sim: Simulator, scheduler: ClusterScheduler,
                 items: Sequence, engine: WorkflowEngine | None = None,
                 router: Callable[[Any], bool] | None = None) -> None:
        self.sim = sim
        self.scheduler = scheduler
        self.items = items
        self.engine = engine
        self.router = router
        #: Index of the item the pending timeout submits.
        self._next = 0
        Timeout(sim, 0.0).add_callback(self._start)

    def _start(self, _event: Timeout) -> None:
        self.items = sorted(self.items,
                            key=lambda t: (t.submit_time, t.name))
        self._submit_from(0)

    def _resume(self, _timeout: Timeout) -> None:
        index = self._next
        self._submit(self.items[index])
        self._submit_from(index + 1)

    def _submit_from(self, index: int) -> None:
        """Submit items from ``index`` until one lies in the future."""
        items = self.items
        sim = self.sim
        for index in range(index, len(items)):
            item = items[index]
            delay = item.submit_time - sim.now
            if delay > 0:
                self._next = index
                Timeout(sim, delay).add_callback(self._resume)
                return
            self._submit(item)

    def _submit(self, item: Any) -> None:
        if self.router is not None and self.router(item):
            return
        if self.engine is not None and isinstance(item, Workflow):
            self.engine.submit(item)
        elif isinstance(item, Job):
            self.scheduler.submit_job(item)
        else:
            self.scheduler.submit(item)
