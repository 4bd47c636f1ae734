"""The deterministic chaos drill: prove the service survives itself.

This is the PR's acceptance harness, as a library: a scripted incident
— an overload burst from several tenants, injected worker crashes
timed to trip the circuit breaker, a submission against the open
breaker — driven entirely on the deterministic
:class:`~repro.service.clock.ServiceClock` with an
:class:`~repro.scenario.workers.InlineExecutor` crash plan.  Because
every fault is injected *outside* the specs, the drill can assert the
strongest possible recovery property: every admitted run's result
digest is byte-identical to a clean serial execution of the same spec,
crashes and retries notwithstanding.

What the drill checks (all recorded in :class:`DrillReport`):

- overload sheds with 429 semantics and a positive ``Retry-After``
  hint on every shed decision — degradation, not collapse;
- three consecutive injected crashes open the breaker; a submission
  during the open window gets 503 + ``Retry-After``;
- the breaker recovers through half-open and every admitted job
  completes, retried points included;
- digests match serial execution byte for byte;
- a re-submission after the storm is served from the result cache;
- the availability SLO stays within budget and no burn-rate alert is
  left firing in the :class:`~repro.observability.slo.AlertLog`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..scenario.spec import ScenarioSpec
from ..scenario.workers import InlineExecutor
from .core import ScenarioService, ServiceConfig, SubmitOutcome
from .jobs import JobState

__all__ = ["DrillReport", "ServiceChaosDrill"]

#: Drill-sized service: small bounds so a modest burst overloads it,
#: short breaker recovery so the drill stays a few dozen pump steps.
DRILL_CONFIG = ServiceConfig(
    max_queue=8,
    tenant_quota=4,
    max_attempts=3,
    breaker_threshold=3,
    breaker_recovery=5.0,
    queue_deadline=120.0,
)


@dataclass
class DrillReport:
    """Everything the chaos drill observed, JSON-ready and assertable.

    ``passed`` is the drill's single verdict: the service shed politely,
    broke the circuit, recovered, completed every admitted run with a
    serially-verified digest, served the cache, and kept its
    availability SLO green.
    """

    submissions: int = 0
    admitted: int = 0
    shed_429: int = 0
    breaker_503: int = 0
    retry_after_violations: int = 0
    injected_crashes: int = 0
    retries: int = 0
    completed: int = 0
    failed: int = 0
    digest_mismatches: list[dict[str, str]] = field(default_factory=list)
    cache_hit_ok: bool = False
    availability: dict[str, float] = field(default_factory=dict)
    alerts: list[dict[str, Any]] = field(default_factory=list)
    alerts_active: int = 0
    slo_ok: bool = False
    health: dict[str, Any] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """The drill's overall verdict (every invariant held)."""
        return (self.shed_429 > 0
                and self.breaker_503 > 0
                and self.retry_after_violations == 0
                and self.injected_crashes > 0
                and self.completed == self.admitted
                and self.failed == 0
                and not self.digest_mismatches
                and self.cache_hit_ok
                and self.slo_ok
                and self.alerts_active == 0)

    def to_dict(self) -> dict[str, Any]:
        """The report as a JSON-ready dict (includes the verdict)."""
        return {
            "passed": self.passed,
            "submissions": self.submissions,
            "admitted": self.admitted,
            "shed_429": self.shed_429,
            "breaker_503": self.breaker_503,
            "retry_after_violations": self.retry_after_violations,
            "injected_crashes": self.injected_crashes,
            "retries": self.retries,
            "completed": self.completed,
            "failed": self.failed,
            "digest_mismatches": list(self.digest_mismatches),
            "cache_hit_ok": self.cache_hit_ok,
            "availability": dict(self.availability),
            "alerts": list(self.alerts),
            "alerts_active": self.alerts_active,
            "slo_ok": self.slo_ok,
            "health": dict(self.health),
        }


class ServiceChaosDrill:
    """A scripted, fully deterministic service incident.

    Args:
        base: The scenario spec the drill derives its workload from;
            each submission is ``base`` with a distinct seed, so every
            job is a distinct fingerprint (no accidental cache hits
            during the storm).
        tenants: Tenant names that submit round-robin.
        seeds: Seed per submission; more seeds than the drill config's
            capacity means the tail of the burst is shed — pick at
            least ``max_queue + 2`` to guarantee 429s.
        crash_points: How many of the first admitted jobs get one
            injected crash each; must be >= the config's breaker
            threshold to trip the breaker.
        config: Service tunables (defaults to :data:`DRILL_CONFIG`).
    """

    def __init__(self, base: ScenarioSpec,
                 tenants: tuple[str, ...] = ("acme", "beta", "carol"),
                 seeds: tuple[int, ...] = tuple(range(1, 19)),
                 crash_points: int = 3,
                 config: ServiceConfig | None = None) -> None:
        if not tenants:
            raise ValueError("need at least one tenant")
        if crash_points < 1:
            raise ValueError("crash_points must be >= 1")
        self.base = base
        self.tenants = tuple(tenants)
        self.seeds = tuple(seeds)
        self.crash_points = crash_points
        self.config = config or DRILL_CONFIG

    def run(self) -> DrillReport:
        """Execute the scripted incident; returns the full report."""
        report = DrillReport()
        executor = InlineExecutor()
        service = ScenarioService(self.config, executor=executor)
        try:
            self._drive(service, executor, report)
        finally:
            service.close()
        return report

    # ------------------------------------------------------------------
    def _submit(self, service: ScenarioService, spec: ScenarioSpec,
                tenant: str, report: DrillReport) -> SubmitOutcome:
        outcome = service.submit(spec.to_json(), tenant=tenant)
        report.submissions += 1
        if outcome.status == 202:
            report.admitted += 1
        elif outcome.status == 429:
            report.shed_429 += 1
            if outcome.retry_after <= 0:
                report.retry_after_violations += 1
        elif outcome.status == 503:
            report.breaker_503 += 1
            if outcome.retry_after <= 0:
                report.retry_after_violations += 1
        return outcome

    def _drive(self, service: ScenarioService, executor: InlineExecutor,
               report: DrillReport) -> None:
        specs = [self.base.override({"seed": seed})
                 for seed in self.seeds]

        # Act 1 — overload burst: more submissions than the bounded
        # queue and tenant quotas can hold; the tail is shed with 429.
        for index, spec in enumerate(specs):
            self._submit(service, spec,
                         self.tenants[index % len(self.tenants)], report)

        # Act 2 — arm the crash plan against the first admitted jobs,
        # then pump exactly enough steps to watch them crash and trip
        # the breaker.  The plan keys on spec fingerprints, so the
        # faults live entirely outside the specs themselves.
        queued = [service.jobs.get(job_id) for job_id in
                  list(service._queue)[:self.crash_points]]
        executor.crash_plan = {job.fingerprint: 1 for job in queued
                               if job is not None}
        for _ in range(self.crash_points):
            service.pump_once()

        # Act 3 — submit against the open breaker: 503 + Retry-After.
        storm_probe = self.base.override({"seed": max(self.seeds) + 1})
        self._submit(service, storm_probe, self.tenants[0], report)

        # Act 4 — let the service dig out: breaker waits, half-open
        # probe, retries of the crashed points, the rest of the queue.
        service.pump()

        # Act 5 — after the storm: the probe spec is admitted now, and
        # a re-submission of a completed spec is a pure cache hit.
        retry_probe = self._submit(service, storm_probe,
                                   self.tenants[0], report)
        if retry_probe.status == 202:
            service.pump()
        cache_probe = service.submit(specs[0].to_json(),
                                     tenant=self.tenants[1])
        report.cache_hit_ok = bool(
            cache_probe.status == 200 and cache_probe.cached
            and cache_probe.result_digest is not None)

        self._audit(service, executor, report)

    def _audit(self, service: ScenarioService, executor: InlineExecutor,
               report: DrillReport) -> None:
        """Verify digests against serial runs and collect the verdicts."""
        report.injected_crashes = executor.injected_crashes
        report.retries = int(
            service.metrics.counter("service.retries").value)
        for job in service.jobs:
            if job.state is JobState.DONE and not job.cached:
                report.completed += 1
                serial = ScenarioSpec.from_json(job.spec_json).run()
                if serial.digest() != job.result_digest:
                    report.digest_mismatches.append({
                        "job_id": job.job_id,
                        "fingerprint": job.fingerprint,
                        "served": str(job.result_digest),
                        "serial": serial.digest(),
                    })
            elif job.state is JobState.DONE:
                report.completed += 1
            elif job.state.terminal:
                report.failed += 1
        slo = service.slo_report()
        availability = slo["slo"].get("service-availability", {})
        report.availability = availability
        report.alerts = slo["alerts"]
        report.alerts_active = len(service.engine.alerts.active())
        report.slo_ok = bool(availability.get("ok"))
        report.health = service.health()
