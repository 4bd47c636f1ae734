"""Chaos experiments: measured resilience under injected failures (C17).

The paper's C17 calls for "systems that tolerate, predict, and even
steer failures"; its methodological thread (P6) demands that such
claims be *measured*, not asserted.  A :class:`ChaosExperiment`
composes the correlated failure models of :mod:`repro.failures.models`
with an arbitrary workload scenario and the resilience mechanisms of
this package — retry policies, checkpointing, hedging, load shedding —
then reports the metrics that matter for an availability story:

- **goodput**: core-seconds of work that finished and was useful;
- **wasted work**: core-seconds destroyed by interrupted executions
  (work since the victim's last checkpoint, plus losing hedge copies);
- **recovery time**: per failure burst, how long until every task it
  killed had finished after all;
- **availability**: machine-uptime fraction, checked against an SLO.

Experiments are bit-reproducible: all randomness — workload sampling,
failure generation, retry jitter, injection jitter — is drawn from
named :class:`~repro.sim.RandomStreams` substreams of one root seed,
so the same seed always yields the identical :class:`ChaosReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..datacenter.cluster import Cluster
from ..datacenter.datacenter import Datacenter
from ..failures.injection import FailureInjector
from ..failures.models import FailureEvent
from ..observability.slo import AlertLog, BurnRateRule, ServiceObjective
from ..scheduling.scheduler import ClusterScheduler
from ..selfaware.anomaly import RecoveryPlanner
from ..sim import RandomStreams, Simulator
from ..workload.task import Task, TaskState
from .checkpoint import CheckpointPolicy
from .policies import ExponentialBackoff, RetryPolicy

__all__ = ["ChaosExperiment", "ChaosReport", "compile_report"]

#: Builds the workload for one run: ``(streams) -> tasks``.
WorkloadFn = Callable[[RandomStreams], Sequence[Task]]
#: Builds the failure schedule: ``(streams, racks, horizon) -> events``,
#: where ``racks`` is a list of racks, each a list of machine names.
FailureFn = Callable[[RandomStreams, list, float], Sequence[FailureEvent]]


@dataclass
class ChaosReport:
    """Outcome of one chaos experiment."""

    seed: int
    makespan: float
    #: Task census.
    tasks_total: int = 0
    tasks_finished: int = 0
    tasks_shed: int = 0
    tasks_abandoned: int = 0
    #: Useful work delivered, in core-seconds of task runtime.
    goodput_core_seconds: float = 0.0
    #: Work destroyed by interruptions (beyond the last checkpoint).
    wasted_core_seconds: float = 0.0
    #: Work saved by checkpoints across interruptions.
    preserved_core_seconds: float = 0.0
    #: Throughput of useful work: goodput / makespan.
    goodput_rate: float = 0.0
    #: Fraction of attempted work that was wasted.
    wasted_fraction: float = 0.0
    #: Failure bursts injected / tasks they killed.
    failure_events: int = 0
    victim_tasks: int = 0
    #: Victims that never reached FINISHED by the end of the run.
    unrecovered_victims: int = 0
    #: Mean / max time from a burst to the last of its victims finishing.
    mean_recovery_time: float = 0.0
    max_recovery_time: float = 0.0
    #: Machine-uptime fraction over the run, and the SLO verdict.
    availability: float = 1.0
    availability_slo: float = 0.0
    slo_met: bool = True
    #: Retry and hedging activity.
    total_retries: int = 0
    max_attempts_observed: int = 0
    hedges_launched: int = 0
    hedge_wins: int = 0
    hedge_rescues: int = 0
    #: Resilience-invariant violations; empty means the run was clean.
    violations: list[str] = field(default_factory=list)
    #: SLO grading — populated only when the experiment declares
    #: ``slos`` and runs with an observer.  Kept out of
    #: :meth:`summary` so existing benchmark records stay comparable.
    slo_report: dict[str, dict[str, float]] | None = None
    alert_log: AlertLog | None = None

    @property
    def ok(self) -> bool:
        """True when no resilience invariant was violated."""
        return not self.violations

    def summary(self) -> dict[str, float]:
        """Flat numeric view for tabulation and benchmark records."""
        return {
            "seed": float(self.seed),
            "makespan": self.makespan,
            "tasks_total": float(self.tasks_total),
            "tasks_finished": float(self.tasks_finished),
            "tasks_shed": float(self.tasks_shed),
            "tasks_abandoned": float(self.tasks_abandoned),
            "goodput_core_seconds": self.goodput_core_seconds,
            "wasted_core_seconds": self.wasted_core_seconds,
            "preserved_core_seconds": self.preserved_core_seconds,
            "goodput_rate": self.goodput_rate,
            "wasted_fraction": self.wasted_fraction,
            "failure_events": float(self.failure_events),
            "victim_tasks": float(self.victim_tasks),
            "mean_recovery_time": self.mean_recovery_time,
            "max_recovery_time": self.max_recovery_time,
            "availability": self.availability,
            "slo_met": float(self.slo_met),
            "total_retries": float(self.total_retries),
            "hedges_launched": float(self.hedges_launched),
            "violations": float(len(self.violations)),
        }


class ChaosExperiment:
    """One reproducible resilience experiment over a cluster.

    Args:
        cluster: Factory for the physical topology, ``() -> Cluster``
            (a fresh cluster per run keeps runs independent).
        workload: ``(streams) -> tasks``; tasks are submitted at their
            ``submit_time`` through the scheduler.
        failures: ``(streams, racks, horizon) -> FailureEvent list``;
            ``racks`` is the cluster's rack layout as machine names —
            ready to feed a
            :class:`~repro.failures.models.SpaceCorrelatedModel`.
        seed: Root seed; every random choice in the run derives from it.
        horizon: Failure-generation horizon in sim-seconds.
        retry_policy: Policy for resubmitting failed tasks (default:
            exponential backoff, 6 attempts, decorrelated jitter).
        checkpoint_policy: Optional
            :class:`~repro.resilience.checkpoint.CheckpointPolicy`
            stamped onto the workload before submission.
        hedge_policy: Optional straggler-hedging policy for the
            scheduler.
        admission: Optional factory ``(datacenter) -> admission
            controller`` (e.g. wrapping
            :class:`~repro.resilience.shedding.LoadSheddingAdmission`).
        availability_slo: Machine-availability target in [0, 1] the
            report is checked against.
        injection_jitter: Perturbation bound on failure times, drawn
            from the ``"failure-injection"`` substream.
        max_time: Safety cap on simulated time.
        slos: Optional declared
            :class:`~repro.observability.slo.ServiceObjective` set the
            run is graded against at every telemetry tick.  Requires
            passing an observer to :meth:`run`; violations land in the
            report's ``violations`` and the full verdicts in
            ``slo_report`` / ``alert_log``.
        slo_rules: Burn-rate rules for the SLO engine (default: the
            SRE fast/slow pair,
            :data:`~repro.observability.slo.DEFAULT_BURN_RULES`).
        telemetry_interval: Sim-seconds between telemetry ticks when
            ``slos`` are declared.
    """

    def __init__(self, cluster: Callable[[], Cluster],
                 workload: WorkloadFn, failures: FailureFn,
                 seed: int = 0, horizon: float = 1000.0,
                 retry_policy: RetryPolicy | None = None,
                 checkpoint_policy: CheckpointPolicy | None = None,
                 hedge_policy: Any = None,
                 admission: Callable[[Datacenter], Any] | None = None,
                 availability_slo: float = 0.0,
                 injection_jitter: float = 0.0,
                 max_time: float = 10_000_000.0,
                 slos: Sequence[ServiceObjective] | None = None,
                 slo_rules: Sequence[BurnRateRule] | None = None,
                 telemetry_interval: float = 5.0) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if not 0.0 <= availability_slo <= 1.0:
            raise ValueError("availability_slo must be in [0, 1]")
        if injection_jitter < 0:
            raise ValueError("injection_jitter must be non-negative")
        if telemetry_interval <= 0:
            raise ValueError("telemetry_interval must be positive")
        self.cluster = cluster
        self.workload = workload
        self.failures = failures
        self.seed = seed
        self.horizon = horizon
        self.retry_policy = retry_policy or ExponentialBackoff(
            max_attempts=6, base=1.0, cap=60.0, jitter="decorrelated")
        self.checkpoint_policy = checkpoint_policy
        self.hedge_policy = hedge_policy
        self.admission = admission
        self.availability_slo = availability_slo
        self.injection_jitter = injection_jitter
        self.max_time = max_time
        self.slos = tuple(slos) if slos else ()
        self.slo_rules = tuple(slo_rules) if slo_rules else None
        self.telemetry_interval = telemetry_interval

    @classmethod
    def from_spec(cls, spec: Any) -> "ChaosExperiment":
        """A chaos experiment that runs a declarative scenario spec.

        ``spec`` is an unsharded
        :class:`~repro.scenario.spec.ScenarioSpec` with a single-cluster
        topology.  The experiment composes it with
        :func:`~repro.scenario.runtime.build_runtime`, the path
        ``spec.run()`` takes, so every section of the spec applies (its
        scheduler, autoscaler, ``duration``, and its retries or their
        absence) and the report's :meth:`~ChaosReport.summary` equals
        ``spec.run().chaos["summary"]``.
        """
        if len(spec.topology.clusters) != 1 or spec.shards is not None:
            raise ValueError("ChaosExperiment runs one unsharded cluster; "
                             f"the spec declares "
                             f"{len(spec.topology.clusters)} clusters"
                             f"{' and shards' if spec.shards else ''}")
        return _SpecExperiment(spec)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, observer: Any = None) -> ChaosReport:
        """Execute the experiment once and report.

        Composition and the drive loop are delegated to the scenario
        kernel (:func:`repro.scenario.runtime.compose`, or
        :func:`~repro.scenario.runtime.build_runtime` for an experiment
        from :meth:`from_spec`) — the chaos harness is a thin
        resilience-flavored view over the same composition root every
        other entry point uses.

        Args:
            observer: Optional
                :class:`~repro.observability.observer.Observer` to
                attach to the run's private simulator.  When given, the
                run streams spans and ``scheduler.*`` /
                ``datacenter.*`` / ``failures.*`` metrics live, and the
                finished report's fields are published as ``chaos.*``
                gauges — the registry replaces reading counters off the
                report by hand.  Observability never perturbs the run:
                the same seed yields the identical report either way.
        """
        runtime = self._compose(observer)
        runtime.drive()
        runtime.finalize()
        report = runtime.chaos_report()
        if observer is not None:
            for key, value in report.summary().items():
                observer.metrics.gauge(f"chaos.{key}").set(value)
            # The run's simulator is private; release the observer so
            # its collected data can outlive the experiment (and the
            # observer itself could be attached elsewhere).
            observer.detach()
        return report

    def _compose(self, observer: Any) -> Any:
        """This experiment's scenario runtime, ready to drive."""
        from ..scenario.runtime import compose
        if self.slos and observer is None:
            raise ValueError(
                "SLO grading reads the metrics registry; pass an observer "
                "to run() when the experiment declares slos")
        workload = self.workload
        return compose(
            seed=self.seed,
            clusters=lambda: [self.cluster()],
            workload=lambda streams, datacenter: workload(streams),
            failures=self.failures,
            observer=observer,
            slos=self.slos,
            slo_rules=self.slo_rules,
            telemetry_interval=self.telemetry_interval,
            admission=self.admission,
            hedge_policy=self.hedge_policy,
            retry_policy=self.retry_policy,
            checkpoint_policy=self.checkpoint_policy,
            datacenter_name="chaos-dc",
            horizon=self.horizon,
            injection_jitter=self.injection_jitter,
            availability_slo=self.availability_slo,
            max_time=self.max_time)


class _SpecExperiment(ChaosExperiment):
    """What :meth:`ChaosExperiment.from_spec` returns.

    The spec is the whole description of the run, so none of the
    callable constructor's fields apply.
    """

    def __init__(self, spec: Any) -> None:
        self.spec = spec

    def _compose(self, observer: Any) -> Any:
        from ..scenario.runtime import build_runtime
        return build_runtime(self.spec, observer=observer)


# ---------------------------------------------------------------------------
# Report compilation (shared with the scenario kernel)
# ---------------------------------------------------------------------------
def compile_report(sim: Simulator, datacenter: Datacenter,
                   scheduler: ClusterScheduler,
                   planner: RecoveryPlanner | None,
                   injector: FailureInjector | None,
                   tasks: Sequence[Task], *, seed: int,
                   availability_slo: float = 0.0,
                   retry_policy: RetryPolicy | None = None) -> ChaosReport:
    """Compile the resilience report for one finished run.

    The single grading path shared by :meth:`ChaosExperiment.run` and
    :meth:`~repro.scenario.runtime.ScenarioRuntime.chaos_report`.
    ``planner`` / ``injector`` / ``retry_policy`` may be ``None`` for
    runs without retries or failure injection; the corresponding
    counters report zero and the attempt-budget invariant is skipped.
    """
    finished = [t for t in tasks if t.state is TaskState.FINISHED]
    shed = [t for t in tasks if t.state is TaskState.SHED]
    makespan = (max(t.finish_time for t in finished) if finished
                else sim.now)
    goodput = sum(t.runtime * t.cores for t in finished)
    wasted = datacenter.wasted_core_seconds
    attempted = goodput + wasted
    recovery = _recovery_times(injector)
    unrecovered = 0 if injector is None else sum(
        1 for _, _, victims in injector.event_log
        for v in victims if v.state is not TaskState.FINISHED
        and not v.speculative)
    availability = _availability(sim, datacenter, injector)
    report = ChaosReport(
        seed=seed,
        makespan=makespan,
        tasks_total=len(tasks),
        tasks_finished=len(finished),
        tasks_shed=len(shed),
        tasks_abandoned=0 if planner is None else len(planner.abandoned),
        goodput_core_seconds=goodput,
        wasted_core_seconds=wasted,
        preserved_core_seconds=datacenter.preserved_core_seconds,
        goodput_rate=goodput / makespan if makespan > 0 else 0.0,
        wasted_fraction=wasted / attempted if attempted > 0 else 0.0,
        failure_events=0 if injector is None else len(injector.event_log),
        victim_tasks=0 if injector is None else injector.victim_tasks,
        unrecovered_victims=unrecovered,
        mean_recovery_time=(sum(recovery) / len(recovery)
                            if recovery else 0.0),
        max_recovery_time=max(recovery, default=0.0),
        availability=availability,
        availability_slo=availability_slo,
        slo_met=availability >= availability_slo,
        total_retries=0 if planner is None else planner.total_retries,
        max_attempts_observed=max(
            (t.attempts for t in tasks if not t.speculative), default=0),
        hedges_launched=scheduler.hedges_launched,
        hedge_wins=scheduler.hedge_wins,
        hedge_rescues=scheduler.hedge_rescues,
    )
    report.violations = _check_invariants(
        datacenter, planner, tasks, report,
        availability_slo=availability_slo, retry_policy=retry_policy)
    return report


def _recovery_times(injector: FailureInjector | None) -> list[float]:
    """Burst time to last-victim-finish, per burst with victims."""
    if injector is None:
        return []
    times = []
    for when, _, victims in injector.event_log:
        finishes = [v.finish_time for v in victims
                    if v.state is TaskState.FINISHED]
        if finishes:
            times.append(max(finishes) - when)
    return times


def _availability(sim: Simulator, datacenter: Datacenter,
                  injector: FailureInjector | None) -> float:
    """Machine-uptime fraction over the run (1.0 with no injector)."""
    if injector is None:
        return 1.0
    elapsed = sim.now
    n_machines = len(datacenter.machines())
    if elapsed <= 0 or n_machines == 0:
        return 1.0
    downtime = sum(end - start
                   for intervals in injector.downtime_intervals().values()
                   for start, end in intervals)
    return 1.0 - downtime / (n_machines * elapsed)


def _check_invariants(datacenter: Datacenter,
                      planner: RecoveryPlanner | None,
                      tasks: Sequence[Task], report: ChaosReport, *,
                      availability_slo: float,
                      retry_policy: RetryPolicy | None) -> list[str]:
    """The resilience invariants; empty when the run was clean."""
    violations = []
    abandoned = () if planner is None else planner.abandoned
    abandoned_ids = {id(t) for t in abandoned}
    stuck = [t for t in tasks
             if t.state not in (TaskState.FINISHED, TaskState.SHED)
             and id(t) not in abandoned_ids]
    if stuck:
        violations.append(
            f"{len(stuck)} non-shed tasks neither finished nor were "
            f"abandoned (first: {stuck[0].name}, {stuck[0].state.value})")
    if retry_policy is not None:
        budget = retry_policy.max_attempts
        over = [t for t in tasks
                if not t.speculative and t.attempts > budget]
        if over:
            violations.append(
                f"{len(over)} tasks exceeded the {budget}-attempt budget "
                f"(worst: {max(t.attempts for t in over)} attempts)")
    for task, lost in datacenter.execution_losses:
        interval = task.checkpoint_interval
        if interval is not None and lost > interval + 1e-6:
            violations.append(
                f"task {task.name} lost {lost:.3f}s of work, more than "
                f"its {interval:.3f}s checkpoint interval")
            break
    if not report.slo_met and availability_slo > 0:
        violations.append(
            f"availability {report.availability:.4f} misses the "
            f"{availability_slo:.4f} SLO")
    return violations
