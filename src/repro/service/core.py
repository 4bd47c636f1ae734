"""The scenario service core: multi-tenant serving that survives itself.

This is ROADMAP item 1 made executable: the scenario kernel as a
long-lived service whose request path is wrapped in the repository's
*own* resilience stack (the dogfooding move the AtLarge design vision
argues for — the serving tier deserves the same dependability
disciplines as the systems it studies):

- **admission control** — a bounded queue with per-tenant quotas
  (:class:`~repro.service.admission.ServiceAdmission`); overload sheds
  with 429 + ``Retry-After`` instead of collapsing;
- **circuit breaker** — a
  :class:`~repro.resilience.breakers.CircuitBreaker` around the worker
  pool; while it is open, submissions get 503 + ``Retry-After`` and
  queued jobs wait for the half-open probe instead of hammering a
  failing pool;
- **retry budgets** — each tenant holds a
  :class:`~repro.resilience.policies.RetryBudget`; worker crashes are
  retried deterministically on a fresh worker until the budget or the
  per-job attempt cap says stop, at which point the job fails *with
  its error recorded* rather than taking the service down;
- **deadlines** — jobs that outwait ``queue_deadline`` expire
  gracefully;
- **result cache** — keyed on ``spec.fingerprint()``; byte-identical
  specs are byte-identical runs, so hits are provably correct.  A
  re-submitted request body is matched by its SHA-256 before any
  parse, so a hit on a known body costs one hash and two dictionary
  lookups;
- **self-grading** — every decision lands in a
  :class:`~repro.observability.metrics.MetricsRegistry` and the
  service's availability SLO is judged by the same
  :class:`~repro.observability.slo.SLOEngine` scenarios use, on the
  deterministic :class:`~repro.service.clock.ServiceClock`.

The core is transport-agnostic and single-threaded by design: the
HTTP layer (:mod:`repro.service.http`) serializes calls into it, and
the deterministic chaos drill (:mod:`repro.service.chaos`) drives it
directly.  Shed requests count as *graceful degradation*, not
availability failures — the availability objective judges admitted
work only, which is exactly the promise ``Retry-After`` makes.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..observability.metrics import MetricsRegistry
from ..observability.openmetrics import render_openmetrics
from ..observability.slo import (
    AvailabilityObjective,
    BurnRateRule,
    SLOEngine,
)
from ..observability.streaming import StreamingPipeline
from ..resilience.breakers import BreakerState, CircuitBreaker
from ..resilience.policies import RetryBudget
from ..scenario.spec import ScenarioSpec
from ..scenario.sweep import SweepPoint, SweepReport, SweepRunner
from ..scenario.workers import ExecutionFailure, PoolExecutor
from .admission import ServiceAdmission
from .cache import ResultCache
from .clock import ServiceClock
from .events import ServiceEventLog
from .jobs import Job, JobState, JobTable
from .telemetry import TelemetryStore

__all__ = ["ServiceConfig", "SubmitOutcome", "ScenarioService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`ScenarioService` instance.

    Times are logical service-seconds (see
    :class:`~repro.service.clock.ServiceClock`); the clock advances by
    ``clock_step`` per pump step, so e.g. ``breaker_recovery=10`` means
    "ten units of service work".

    Attributes:
        max_queue: Global bound on queued + running jobs.
        tenant_quota: Per-tenant bound on queued + running jobs.
        max_attempts: Execution attempts per job (first + retries).
        retry_budget_ratio / retry_budget_initial / retry_budget_max:
            Per-tenant :class:`~repro.resilience.policies.RetryBudget`
            parameters — the global cap on retry amplification.
        breaker_threshold: Consecutive worker failures that open the
            breaker.
        breaker_recovery: Service-seconds the breaker stays open.
        queue_deadline: Service-seconds a job may wait before it
            expires gracefully.
        cache_capacity: Retained results (LRU beyond it); also bounds
            the remembered request bodies of :meth:`ScenarioService.submit`.
        telemetry_interval: Streaming-telemetry tick period.
        availability_target: The service availability SLO.
        burn_rules: Burn-rate alerting rules for the SLO engine.
        clock_step: Logical seconds one pump step advances the clock.
        retry_after: Back-off hint on shed/rejected responses.
        default_tenant: Tenant assumed when a request names none.
        workers: Warm worker processes (pooled executor only).  The
            dispatcher runs one attempt at a time, so one is enough.
        worker_timeout: Wall-clock hang deadline per attempt (pooled
            executor only; never enters any deterministic artifact).
            A positive, finite number of seconds or ``None``.
        observe: Federated observation: every executed job arms a
            worker-side Observer, its telemetry snapshot lands in the
            :class:`~repro.service.telemetry.TelemetryStore` under the
            causal run id ``<tenant>/<job id>``, and the fleet merge
            joins the OpenMetrics exposition.  Result bytes are
            unchanged (cache hits skip execution and carry none).
        telemetry_capacity: Retained telemetry snapshots (LRU).
        event_log_capacity: Retained structured event records.
    """

    max_queue: int = 64
    tenant_quota: int = 16
    max_attempts: int = 3
    retry_budget_ratio: float = 0.5
    retry_budget_initial: float = 4.0
    retry_budget_max: float = 20.0
    breaker_threshold: int = 3
    breaker_recovery: float = 10.0
    queue_deadline: float = 300.0
    cache_capacity: int = 256
    telemetry_interval: float = 1.0
    availability_target: float = 0.95
    burn_rules: tuple[BurnRateRule, ...] = (
        BurnRateRule("page", long_window=30.0, short_window=5.0,
                     threshold=2.0),
        BurnRateRule("ticket", long_window=120.0, short_window=30.0,
                     threshold=1.5),
    )
    clock_step: float = 1.0
    retry_after: float = 5.0
    default_tenant: str = "public"
    workers: int = 1
    worker_timeout: float | None = 120.0
    observe: bool = False
    telemetry_capacity: int = 256
    event_log_capacity: int = 1024


@dataclass
class SubmitOutcome:
    """What one submission (or result fetch) produced.

    ``status`` follows HTTP semantics so transports map it directly:
    200 (served from cache / result ready), 202 (admitted), 400
    (invalid spec), 404 (unknown id/digest), 409 (not finished yet),
    429 (shed — quota or queue), 503 (breaker open).  ``retry_after``
    is non-zero exactly when a polite later retry could succeed.
    """

    status: int
    job_id: str | None = None
    sweep_id: str | None = None
    reason: str = ""
    retry_after: float = 0.0
    fingerprint: str = ""
    result_json: str | None = None
    result_digest: str | None = None
    cached: bool = False
    error: str | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        """Whether the request was admitted or served (2xx)."""
        return 200 <= self.status < 300

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready body for transports (``result_json`` kept raw)."""
        body: dict[str, Any] = {"status": self.status}
        for key in ("job_id", "sweep_id", "result_digest", "error"):
            value = getattr(self, key)
            if value is not None:
                body[key] = value
        if self.reason:
            body["reason"] = self.reason
        if self.retry_after:
            body["retry_after"] = self.retry_after
        if self.fingerprint:
            body["fingerprint"] = self.fingerprint
        if self.cached:
            body["cached"] = True
        body.update(self.extra)
        return body


class _SweepRecord:
    """Book-keeping for one admitted sweep: its points and child jobs."""

    __slots__ = ("sweep_id", "tenant", "base", "points", "children")

    def __init__(self, sweep_id: str, tenant: str, base: ScenarioSpec,
                 points: Sequence[SweepPoint],
                 children: dict[int, str]) -> None:
        self.sweep_id = sweep_id
        self.tenant = tenant
        self.base = base
        self.points = list(points)
        self.children = dict(children)


class ScenarioService:
    """The multi-tenant scenario server behind every transport.

    Args:
        config: Service tunables (defaults are drill-friendly).
        executor: The execution tier; defaults to a
            :class:`~repro.scenario.workers.PoolExecutor` with
            ``config.workers`` warm processes, forked at the first
            attempt.  Tests and the chaos drill pass an
            :class:`~repro.scenario.workers.InlineExecutor` (with a
            crash plan) for full determinism.

    The core is **not** thread-safe; transports must serialize calls.
    Work executes in :meth:`pump_once` steps — the HTTP layer runs a
    dispatcher loop over it, deterministic drivers call :meth:`pump`.
    """

    def __init__(self, config: ServiceConfig | None = None,
                 executor: Any = None) -> None:
        self.config = config or ServiceConfig()
        cfg = self.config
        self.clock = ServiceClock()
        self.metrics = MetricsRegistry()
        self.executor = executor if executor is not None else PoolExecutor(
            workers=cfg.workers, timeout=cfg.worker_timeout)
        self.admission = ServiceAdmission(max_queue=cfg.max_queue,
                                          tenant_quota=cfg.tenant_quota,
                                          retry_after=cfg.retry_after)
        self.cache = ResultCache(capacity=cfg.cache_capacity)
        self.jobs = JobTable()
        self.breaker = CircuitBreaker(
            self.clock, name="worker-pool",
            failure_threshold=cfg.breaker_threshold,
            recovery_timeout=cfg.breaker_recovery)
        self.budgets: dict[str, RetryBudget] = {}
        self.pipeline = StreamingPipeline(self.clock, self.metrics,
                                          interval=cfg.telemetry_interval)
        self.engine = SLOEngine(
            self.pipeline,
            objectives=[AvailabilityObjective(
                "service-availability",
                good="service.requests_ok",
                bad="service.requests_failed",
                target=cfg.availability_target,
                description="admitted requests that completed")],
            rules=cfg.burn_rules)
        self._queue: deque[str] = deque()
        self._sweeps: dict[str, _SweepRecord] = {}
        # SHA-256 of a submitted body -> its spec fingerprint, so a
        # re-submitted body skips the parse (LRU, ``cache_capacity``).
        self._bodies: OrderedDict[str, str] = OrderedDict()
        self.telemetry = TelemetryStore(capacity=cfg.telemetry_capacity)
        self.events = ServiceEventLog(capacity=cfg.event_log_capacity)
        # Eagerly register every instrument so snapshots show explicit
        # zeros from the first scrape on.
        for name in ("submissions", "admitted", "cache_hits",
                     "rejected_invalid", "rejected_breaker",
                     "shed_queue_full", "shed_tenant_quota",
                     "requests_ok", "requests_failed", "worker_failures",
                     "retries", "retries_denied", "expired",
                     "telemetry_captured"):
            self.metrics.counter(f"service.{name}")
        self.metrics.gauge("service.queue_depth")
        self.metrics.histogram("service.queue_wait")
        self.metrics.histogram("service.attempts",
                               boundaries=(1.0, 2.0, 3.0, 4.0, 5.0))
        self.pipeline.watch("service.requests_ok")
        self.pipeline.watch("service.queue_depth")

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _count(self, name: str, amount: float = 1.0) -> None:
        self.metrics.counter(f"service.{name}").inc(amount)

    def _tenant_budget(self, tenant: str) -> RetryBudget:
        cfg = self.config
        budget = self.budgets.get(tenant)
        if budget is None:
            budget = RetryBudget(ratio=cfg.retry_budget_ratio,
                                 initial=cfg.retry_budget_initial,
                                 max_tokens=cfg.retry_budget_max)
            self.budgets[tenant] = budget
        return budget

    def _parse_spec(self, spec_json: str) -> ScenarioSpec:
        """Validate and rehydrate a submitted spec (raises ValueError)."""
        try:
            return ScenarioSpec.from_json(spec_json)
        except ValueError as exc:
            raise ValueError(f"invalid scenario spec: "
                             f"{type(exc).__name__}: {exc}") from exc

    def _breaker_retry_after(self) -> float:
        """Seconds until an open breaker would admit half-open probes."""
        opened_at = (self.breaker.transitions[-1][0]
                     if self.breaker.transitions else self.clock.now)
        remaining = (self.config.breaker_recovery
                     - (self.clock.now - opened_at))
        return max(remaining, self.config.clock_step)

    def _queue_gauge(self) -> None:
        self.metrics.gauge("service.queue_depth").set(len(self._queue))

    def submit(self, spec_json: str,
               tenant: str | None = None) -> SubmitOutcome:
        """Submit one scenario spec; returns the admission outcome.

        The request path, in order: validate → cache → circuit breaker
        → admission (queue bound, tenant quota) → enqueue.  Every exit
        is graceful: invalid specs get 400 with the parse error, a
        tripped breaker gets 503 + ``Retry-After``, shed load gets 429
        + ``Retry-After``, cache hits return the stored result
        immediately with 200.

        A body seen before skips validation: its SHA-256 maps to the
        fingerprint its first parse gave, and parsing and
        fingerprinting are pure functions of the text.  Only bodies
        that parsed enter that map, so an invalid body is rejected on
        every submission.
        """
        tenant = tenant or self.config.default_tenant
        self._count("submissions")
        body_key = hashlib.sha256(
            spec_json.encode("utf-8", "surrogatepass")).hexdigest()
        spec = None
        fingerprint = self._bodies.get(body_key)
        if fingerprint is None:
            try:
                spec = self._parse_spec(spec_json)
            except ValueError as exc:
                self._count("rejected_invalid")
                self.events.emit("job-rejected", self.clock.now,
                                 tenant=tenant, reason="invalid-spec")
                return SubmitOutcome(status=400, error=str(exc))
            fingerprint = spec.fingerprint()
            self._bodies[body_key] = fingerprint
            if len(self._bodies) > self.config.cache_capacity:
                self._bodies.popitem(last=False)
        else:
            self._bodies.move_to_end(body_key)
        cached = self.cache.get(fingerprint)
        if cached is not None:
            self._count("cache_hits")
            self._count("requests_ok")
            self.events.emit("job-cached", self.clock.now,
                             tenant=tenant, fingerprint=fingerprint)
            return SubmitOutcome(
                status=200, fingerprint=fingerprint, cached=True,
                result_json=cached, result_digest=_digest(cached))
        if spec is None:
            # A known body whose result is not cached.  It parsed once,
            # and parsing is a pure function of the text.
            spec = self._parse_spec(spec_json)
        if self.breaker.state is BreakerState.OPEN:
            self._count("rejected_breaker")
            self.events.emit("job-rejected", self.clock.now,
                             tenant=tenant, fingerprint=fingerprint,
                             reason="breaker-open")
            return SubmitOutcome(status=503, reason="breaker-open",
                                 retry_after=self._breaker_retry_after(),
                                 fingerprint=fingerprint)
        decision = self.admission.admit(tenant)
        if not decision.admitted:
            self._count("shed_queue_full"
                        if decision.reason == "queue-full"
                        else "shed_tenant_quota")
            self.events.emit("job-shed", self.clock.now, tenant=tenant,
                             fingerprint=fingerprint,
                             reason=decision.reason)
            return SubmitOutcome(status=429, reason=decision.reason,
                                 retry_after=decision.retry_after,
                                 fingerprint=fingerprint)
        job = Job(self.jobs.new_id("run"), tenant,
                  spec.to_json(), fingerprint, spec.name,
                  submitted_at=self.clock.now)
        self.jobs.add(job)
        self._queue.append(job.job_id)
        self._queue_gauge()
        self._tenant_budget(tenant).record_attempt()
        self._count("admitted")
        self.events.emit("job-admitted", self.clock.now, tenant=tenant,
                         job_id=job.job_id, fingerprint=fingerprint)
        return SubmitOutcome(status=202, job_id=job.job_id,
                             fingerprint=fingerprint)

    def submit_sweep(self, spec_json: str,
                     axes: Mapping[str, Any] | None = None,
                     tenant: str | None = None) -> SubmitOutcome:
        """Submit a sweep: a spec plus grid axes, admitted atomically.

        ``axes`` may carry ``seeds`` / ``policies`` / ``scale`` /
        ``overrides`` exactly as
        :meth:`~repro.scenario.sweep.SweepRunner.grid` takes them.
        Admission is all-or-nothing over the whole grid (a
        half-admitted sweep would wedge the queue), every grid point
        rides the same cache/retry/breaker path as a single run, and
        the assembled report carries explicit gap accounting for
        points that failed after retry
        (:attr:`~repro.scenario.sweep.SweepReport.failed`).
        """
        tenant = tenant or self.config.default_tenant
        axes = dict(axes or {})
        self._count("submissions")
        try:
            spec = self._parse_spec(spec_json)
            points = SweepRunner(spec).grid(
                seeds=axes.get("seeds", ()),
                policies=axes.get("policies", ()),
                scale=axes.get("scale", ()),
                overrides=axes.get("overrides", ()))
        except (ValueError, KeyError, TypeError) as exc:
            self._count("rejected_invalid")
            return SubmitOutcome(
                status=400, error=f"invalid sweep request: "
                                  f"{type(exc).__name__}: {exc}")
        if self.breaker.state is BreakerState.OPEN:
            self._count("rejected_breaker")
            return SubmitOutcome(status=503, reason="breaker-open",
                                 retry_after=self._breaker_retry_after())
        decision = self.admission.admit(tenant, slots=len(points))
        if not decision.admitted:
            self._count("shed_queue_full"
                        if decision.reason == "queue-full"
                        else "shed_tenant_quota")
            return SubmitOutcome(status=429, reason=decision.reason,
                                 retry_after=decision.retry_after)
        sweep_id = self.jobs.new_id("sweep")
        budget = self._tenant_budget(tenant)
        children: dict[int, str] = {}
        for point in points:
            job = Job(self.jobs.new_id("run"), tenant,
                      point.spec.to_json(), point.spec.fingerprint(),
                      point.spec.name, submitted_at=self.clock.now,
                      sweep_id=sweep_id)
            self.jobs.add(job)
            children[point.index] = job.job_id
            budget.record_attempt()
            cached = self.cache.get(job.fingerprint)
            if cached is not None:
                self._count("cache_hits")
                self._finish_ok(job, cached, cached_hit=True)
            else:
                self._queue.append(job.job_id)
        self._queue_gauge()
        self._count("admitted")
        self._sweeps[sweep_id] = _SweepRecord(sweep_id, tenant, spec,
                                              points, children)
        self.events.emit("sweep-admitted", self.clock.now, tenant=tenant,
                         sweep_id=sweep_id,
                         fingerprint=spec.fingerprint(),
                         points=len(points))
        return SubmitOutcome(status=202, sweep_id=sweep_id,
                             fingerprint=spec.fingerprint(),
                             extra={"points": len(points)})

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """One quantum of service time; telemetry and SLOs keep pace."""
        self.pipeline.advance(self.clock.advance(self.config.clock_step))

    def _finish_ok(self, job: Job, result_json: str,
                   cached_hit: bool = False) -> None:
        """Terminal bookkeeping for a completed (or cache-served) job."""
        job.result_json = result_json
        job.result_digest = _digest(result_json)
        job.cached = cached_hit
        job.transition(JobState.DONE, self.clock.now)
        self._count("requests_ok")
        self.metrics.histogram("service.attempts").observe(
            max(job.attempts, 1))
        self.cache.put(job.fingerprint, result_json, job.result_digest)
        self.admission.release(job.tenant)
        self.events.emit("job-done", self.clock.now, tenant=job.tenant,
                         job_id=job.job_id, sweep_id=job.sweep_id,
                         fingerprint=job.fingerprint,
                         digest=job.result_digest,
                         cached=cached_hit or None)

    def _finish_failed(self, job: Job, state: JobState,
                       error: str) -> None:
        """Terminal bookkeeping for a failed or expired job."""
        job.error = error
        job.transition(state, self.clock.now)
        self._count("expired" if state is JobState.EXPIRED
                    else "requests_failed")
        if state is JobState.EXPIRED:
            # An admitted job the service dropped is an availability
            # failure too — expiry is graceful for the *queue*, not
            # for the caller.
            self._count("requests_failed")
        self.admission.release(job.tenant)
        self.events.emit("job-expired" if state is JobState.EXPIRED
                         else "job-failed", self.clock.now,
                         tenant=job.tenant, job_id=job.job_id,
                         sweep_id=job.sweep_id,
                         fingerprint=job.fingerprint, error=error)

    def pump_once(self) -> bool:
        """Process one queued job attempt; returns whether work remains.

        One call = one unit of service work = one ``clock_step``: a
        deadline check, a breaker gate, then a single execution
        attempt whose outcome feeds the breaker, the tenant's retry
        budget, the cache, and the metrics that the SLO engine grades
        at each telemetry tick.  A crash or timeout is a worker
        failure: it counts against the breaker and may be retried.  An
        error (the run itself raised) fails the job on its first
        attempt and counts as an answer from the pool.
        """
        if not self._queue:
            return False
        job = self.jobs.get(self._queue.popleft())
        assert job is not None  # queue only ever holds registered ids
        now = self.clock.now
        if now - job.submitted_at > self.config.queue_deadline:
            self._finish_failed(job, JobState.EXPIRED,
                                "queue-deadline-exceeded")
            self._queue_gauge()
            self._advance()
            return bool(self._queue)
        if not self.breaker.allow():
            # Breaker open: the job stays queued while service time
            # advances toward the half-open probe window.
            self._queue.appendleft(job.job_id)
            self._advance()
            return True
        if job.started_at is None:
            self.metrics.histogram("service.queue_wait").observe(
                now - job.submitted_at)
        job.transition(JobState.RUNNING, now)
        attempt = job.attempts
        job.attempts += 1
        run_id = (f"{job.tenant}/{job.job_id}" if self.config.observe
                  else None)
        try:
            if run_id is not None:
                result_json, telemetry_json = self.executor.run(
                    job.fingerprint, job.spec_json, attempt,
                    observe_run_id=run_id)
            else:
                result_json = self.executor.run(job.fingerprint,
                                                job.spec_json, attempt)
        except ExecutionFailure as exc:
            if exc.kind == "error":
                # The run raised.  A run is a pure function of its
                # spec, so a retry would raise again; the pool
                # answered, so the breaker counts a success.
                self.breaker.record_success()
                self._finish_failed(job, JobState.FAILED, str(exc))
            else:
                self._count("worker_failures")
                self.breaker.record_failure()
                self._handle_attempt_failure(job, exc)
        else:
            self.breaker.record_success()
            if run_id is not None:
                digest = self.telemetry.put(job.job_id, telemetry_json)
                self._count("telemetry_captured")
                self.events.emit("run-observed", self.clock.now,
                                 tenant=job.tenant, job_id=job.job_id,
                                 sweep_id=job.sweep_id, run_id=run_id,
                                 telemetry_digest=digest)
            self._finish_ok(job, result_json)
        self._queue_gauge()
        self._advance()
        return bool(self._queue)

    def _handle_attempt_failure(self, job: Job,
                                exc: ExecutionFailure) -> None:
        """Retry a failed attempt if budget and attempt cap allow."""
        error = str(exc)
        if job.attempts >= self.config.max_attempts:
            self._finish_failed(job, JobState.FAILED,
                                f"{error} (attempts exhausted)")
            return
        if not self._tenant_budget(job.tenant).try_spend():
            self._count("retries_denied")
            self._finish_failed(job, JobState.FAILED,
                                f"{error} (retry budget exhausted)")
            return
        self._count("retries")
        job.error = error
        job.transition(JobState.QUEUED, self.clock.now)
        self._queue.append(job.job_id)

    def pump(self, max_steps: int | None = None) -> int:
        """Drain the queue; returns the number of steps executed.

        Termination is guaranteed: every queued job either completes,
        exhausts its attempts/budget, or expires at its deadline —
        the breaker can stall progress only for ``breaker_recovery``
        service-seconds at a time.  ``max_steps`` is a safety valve
        for drivers that want to interleave.
        """
        steps = 0
        while self._queue:
            if max_steps is not None and steps >= max_steps:
                break
            self.pump_once()
            steps += 1
        return steps

    @property
    def queue_depth(self) -> int:
        """Jobs currently waiting for a worker."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def job_status(self, job_id: str) -> dict[str, Any] | None:
        """The status document for ``job_id``, or ``None``."""
        job = self.jobs.get(job_id)
        return None if job is None else job.status()

    def job_result(self, job_id: str) -> SubmitOutcome:
        """The result of ``job_id``: 200 + JSON, 409 pending, 404/410."""
        job = self.jobs.get(job_id)
        if job is None:
            return SubmitOutcome(status=404, error=f"no job {job_id!r}")
        if job.state is JobState.DONE:
            return SubmitOutcome(status=200, job_id=job_id,
                                 fingerprint=job.fingerprint,
                                 cached=job.cached,
                                 result_json=job.result_json,
                                 result_digest=job.result_digest)
        if job.state.terminal:
            return SubmitOutcome(status=410, job_id=job_id,
                                 reason=job.state.value, error=job.error)
        return SubmitOutcome(status=409, job_id=job_id,
                             reason=job.state.value,
                             retry_after=self.config.retry_after)

    def result_by_digest(self, digest: str) -> SubmitOutcome:
        """Fetch a cached result by its result digest (200/404)."""
        result_json = self.cache.by_digest(digest)
        if result_json is None:
            return SubmitOutcome(status=404,
                                 error=f"no cached result {digest!r}")
        return SubmitOutcome(status=200, result_json=result_json,
                             result_digest=digest, cached=True)

    def sweep_status(self, sweep_id: str) -> dict[str, Any] | None:
        """Aggregate child-state counts for one sweep, or ``None``."""
        record = self._sweeps.get(sweep_id)
        if record is None:
            return None
        tally = {state.value: 0 for state in JobState}
        for job_id in record.children.values():
            job = self.jobs.get(job_id)
            assert job is not None
            tally[job.state.value] += 1
        done = all(tally[state.value] == 0
                   for state in JobState if not state.terminal)
        return {"sweep_id": sweep_id, "tenant": record.tenant,
                "points": len(record.points), "states": tally,
                "done": done,
                "children": dict(sorted(record.children.items()))}

    def sweep_result(self, sweep_id: str) -> SubmitOutcome:
        """Assemble the sweep's deterministic report once all points end.

        Completed points enter ``runs``; points that failed after
        retry (or expired) enter
        :attr:`~repro.scenario.sweep.SweepReport.failed` — the same
        gap-accounting contract the offline
        :class:`~repro.scenario.sweep.SweepRunner` honors, so a
        partial sweep is a readable report, never a stack trace.
        """
        record = self._sweeps.get(sweep_id)
        if record is None:
            return SubmitOutcome(status=404,
                                 error=f"no sweep {sweep_id!r}")
        status = self.sweep_status(sweep_id)
        assert status is not None
        if not status["done"]:
            return SubmitOutcome(status=409, sweep_id=sweep_id,
                                 reason="running",
                                 retry_after=self.config.retry_after)
        outcomes = []
        failures = []
        for point in record.points:
            job = self.jobs.get(record.children[point.index])
            assert job is not None
            if job.state is JobState.DONE:
                outcomes.append((point.index, job.result_json))
            else:
                failures.append({"index": point.index,
                                 "label": point.label(),
                                 "fingerprint": job.fingerprint,
                                 "error": job.error or job.state.value,
                                 "attempts": job.attempts})
        report = SweepReport.assemble(record.base, record.points,
                                      outcomes, workers=1,
                                      failures=failures)
        return SubmitOutcome(status=200, sweep_id=sweep_id,
                             result_json=report.to_json(),
                             result_digest=report.digest(),
                             extra={"complete": report.complete,
                                    "failed_points": len(report.failed)})

    def tenant_stats(self, tenant: str) -> dict[str, Any]:
        """One tenant's quota occupancy and retry-budget state."""
        budget = self.budgets.get(tenant)
        return {
            "tenant": tenant,
            "occupancy": self.admission.tenant_occupancy(tenant),
            "quota": self.admission.tenant_quota,
            "retry_budget": None if budget is None else {
                "tokens": budget.tokens,
                "deposits": budget.deposits,
                "granted": budget.granted,
                "denied": budget.denied,
            },
        }

    def run_telemetry(self, job_id: str) -> SubmitOutcome:
        """One observed run's telemetry snapshot: 200 + JSON, 404/409.

        404 for unknown jobs and for finished jobs with no retained
        snapshot (service not observing, snapshot evicted, or the job
        was served from cache and never executed); 409 while the job
        has not run yet.
        """
        job = self.jobs.get(job_id)
        if job is None:
            return SubmitOutcome(status=404, error=f"no job {job_id!r}")
        entry = self.telemetry.get(job_id)
        if entry is not None:
            telemetry_json, digest = entry
            return SubmitOutcome(status=200, job_id=job_id,
                                 result_json=telemetry_json,
                                 result_digest=digest)
        if not job.state.terminal:
            return SubmitOutcome(status=409, job_id=job_id,
                                 reason=job.state.value,
                                 retry_after=self.config.retry_after)
        return SubmitOutcome(status=404, job_id=job_id,
                             error=f"no telemetry for job {job_id!r} "
                                   f"(unobserved, cached, or evicted)")

    def telemetry_by_digest(self, digest: str) -> SubmitOutcome:
        """Fetch a retained telemetry snapshot by its digest (200/404)."""
        telemetry_json = self.telemetry.by_digest(digest)
        if telemetry_json is None:
            return SubmitOutcome(status=404,
                                 error=f"no telemetry {digest!r}")
        return SubmitOutcome(status=200, result_json=telemetry_json,
                             result_digest=digest)

    def metrics_openmetrics(self) -> str:
        """Both metric planes as one OpenMetrics text exposition.

        The service's own registry exposes under ``plane="service"``;
        when federated observation has captured runs, their merged
        fleet metrics join under ``plane="fleet"``.
        """
        planes = [({"plane": "service"}, self.metrics.snapshot())]
        fleet = self.telemetry.fleet()
        if fleet is not None:
            planes.append(({"plane": "fleet"}, fleet["metrics"]))
        return render_openmetrics(planes)

    def fleet_telemetry(self) -> dict[str, Any] | None:
        """The merged fleet view over retained run snapshots, or None."""
        return self.telemetry.fleet()

    def events_jsonl(self) -> str:
        """The structured event log as JSON Lines."""
        return self.events.to_jsonl()

    def health(self) -> dict[str, Any]:
        """Liveness document: clock, breaker, queue, and job tallies."""
        return {
            "status": ("degraded"
                       if self.breaker.state is not BreakerState.CLOSED
                       else "ok"),
            "time": self.clock.now,
            "breaker": self.breaker.state.value,
            "queue_depth": len(self._queue),
            "jobs": self.jobs.counts(),
            "admission": self.admission.statistics(),
            "cache": self.cache.statistics(),
            "telemetry": self.telemetry.statistics(),
        }

    def slo_report(self) -> dict[str, Any]:
        """The SLO engine's verdicts plus the full alert log."""
        return {"slo": self.engine.report(),
                "alerts": self.engine.alerts.to_json()}

    def metrics_snapshot(self) -> dict[str, Any]:
        """The service metrics registry's deterministic snapshot."""
        return self.metrics.snapshot()

    def close(self) -> None:
        """Release the execution tier (idempotent)."""
        self.executor.close()


def _digest(result_json: str) -> str:
    """SHA-256 of canonical result JSON (= ``ScenarioResult.digest``)."""
    return hashlib.sha256(result_json.encode("utf-8")).hexdigest()
