"""Simulation-as-a-service: the scenario kernel as a resilient server.

The paper's central claim is that computer ecosystems must absorb
heavy, bursty, multi-tenant load while staying dependable (§2.2, C4,
C17).  This package makes that claim *executable against ourselves*:
it runs the scenario kernel as a long-lived multi-tenant service and
puts the repository's own resilience stack in front of it —

- :class:`~repro.service.core.ScenarioService` — the transport-
  agnostic service core: submit :class:`~repro.scenario.spec.ScenarioSpec`
  JSON, poll job status, fetch results and telemetry by digest;
- :class:`~repro.service.admission.ServiceAdmission` — bounded-queue,
  per-tenant-quota admission control in the mold of
  :class:`~repro.resilience.shedding.LoadSheddingAdmission`: overload
  answers 429/503 with ``Retry-After`` instead of collapse;
- per-tenant :class:`~repro.resilience.policies.RetryBudget`\\ s and a
  :class:`~repro.resilience.breakers.CircuitBreaker` around the warm
  worker pool, so crashed or hung workers are detected, their jobs
  deterministically retried, and a failing pool stops being hammered;
- :class:`~repro.service.cache.ResultCache` — results keyed on
  ``spec.fingerprint()``; specs are byte-identical by contract, so a
  cache hit is provably the correct response;
- service-level metrics through the existing
  :class:`~repro.observability.metrics.MetricsRegistry`, graded by the
  existing :class:`~repro.observability.slo.SLOEngine` — the service
  watches itself with the same instruments its scenarios use;
- :class:`~repro.service.chaos.ServiceChaosDrill` — a deterministic
  overload-plus-worker-crash drill that must keep the availability
  SLO green (the dogfooding proof, pinned by tests).

Transports: :class:`~repro.service.http.ServiceHTTPServer` (stdlib
``http.server``; ``python -m repro serve``) and the in-process core
directly.  See ``docs/SERVICE.md`` for endpoints and semantics.
"""

from ..scenario.workers import ExecutionFailure, InlineExecutor, PoolExecutor
from .admission import AdmissionDecision, ServiceAdmission
from .cache import ResultCache
from .chaos import DrillReport, ServiceChaosDrill
from .clock import ServiceClock
from .core import ScenarioService, ServiceConfig, SubmitOutcome
from .events import ServiceEventLog
from .http import ServiceHTTPServer
from .client import ServiceClient, ServiceError
from .jobs import Job, JobState, JobTable
from .telemetry import TelemetryStore

__all__ = [
    "AdmissionDecision",
    "ServiceAdmission",
    "ResultCache",
    "DrillReport",
    "ServiceChaosDrill",
    "ServiceClock",
    "ScenarioService",
    "ServiceConfig",
    "SubmitOutcome",
    "ExecutionFailure",
    "InlineExecutor",
    "PoolExecutor",
    "ServiceHTTPServer",
    "ServiceClient",
    "ServiceError",
    "Job",
    "JobState",
    "JobTable",
    "ServiceEventLog",
    "TelemetryStore",
]
