"""Deterministic scenario results: the run's outcome as plain data.

A :class:`ScenarioResult` is everything a finished run reports —
scheduler statistics, datacenter metrics, the resilience summary, SLO
verdicts and the alert log, the subsystem profile — as JSON-ready
plain data with a canonical SHA-256 :meth:`digest`.  No wall-clock
time ever enters the record, so a spec run in-process, in a
multiprocessing worker, or rehydrated from JSON yields the
byte-identical result.  That identity is what the sweep runner's
order-independent merge and the golden-pinned determinism tests rely
on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from ..observability.export import dumps_deterministic
from ..workload.task import TaskState
from .codec import OMIT_DEFAULT, Codec

__all__ = ["ScenarioResult", "compile_result"]


@dataclass(frozen=True)
class ScenarioResult(Codec, schema="scenario-result/v1"):
    """Outcome of one scenario run, as deterministic plain data.

    Attributes:
        name: The scenario's name.
        seed: The root seed the run derived all randomness from.
        fingerprint: The spec's identity digest (empty for runs
            composed without a spec).
        sim_time: Final simulated clock.
        events_processed: Total events the simulator processed.
        makespan: Last task-finish time (``sim_time`` if none finished).
        tasks_total: Tasks in the workload (jobs counted by task).
        tasks_finished: Tasks that reached FINISHED.
        statistics: Scheduler wait/slowdown/response summaries, or
            ``None`` when nothing completed.
        datacenter: Utilization / energy / failure counters.
        chaos: Resilience summary (the chaos report's flat view plus
            violations), present when failures or retries were armed.
        slo_report: Per-objective SLO verdicts when objectives were
            declared.
        alerts: The burn-rate alert log (plain rows) when declared.
        profile: The observer's deterministic snapshot (metrics +
            per-subsystem profile) when an observer was armed.
        shards: The sharded-run roll-up — coupling record (lookahead,
            epoch count, cross-shard traffic) and every per-shard
            result in full — present only for sharded runs, so every
            single-loop result digest is untouched.
    """

    name: str
    seed: int
    fingerprint: str
    sim_time: float
    events_processed: int
    makespan: float
    tasks_total: int
    tasks_finished: int
    statistics: dict[str, float] | None = None
    datacenter: dict[str, float] = field(default_factory=dict)
    chaos: dict[str, Any] | None = None
    slo_report: dict[str, dict[str, float]] | None = None
    alerts: list[dict] | None = None
    profile: dict[str, Any] | None = None
    shards: dict[str, Any] | None = field(default=None,
                                          metadata=OMIT_DEFAULT)

    def to_json(self) -> str:
        """Canonical JSON form (sorted keys, no whitespace, no NaN)."""
        return dumps_deterministic(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ScenarioResult":
        """Rehydrate a result from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        """SHA-256 over the canonical JSON form."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def summary(self) -> dict[str, float]:
        """Flat numeric view for tabulation (sweep report rows)."""
        flat = {
            "seed": float(self.seed),
            "sim_time": self.sim_time,
            "makespan": self.makespan,
            "tasks_total": float(self.tasks_total),
            "tasks_finished": float(self.tasks_finished),
        }
        if self.statistics:
            for key in ("wait_mean", "wait_p95", "slowdown_mean",
                        "response_p95", "mean_queue_length"):
                if key in self.statistics:
                    flat[key] = self.statistics[key]
        flat.update({f"datacenter_{k}": v
                     for k, v in self.datacenter.items()})
        if self.chaos is not None:
            flat["violations"] = float(len(self.chaos["violations"]))
            flat["availability"] = self.chaos["summary"]["availability"]
        return flat


def compile_result(runtime: Any) -> ScenarioResult:
    """Build the :class:`ScenarioResult` for a driven runtime.

    Reads only deterministic signals — simulated clocks, counters,
    registries — never wall time, so the record is identical across
    processes for the same spec.
    """
    sim = runtime.sim
    scheduler = runtime.scheduler
    datacenter = runtime.datacenter
    spec = runtime.spec
    tasks = runtime.tasks
    finished = [t for t in tasks if t.state is TaskState.FINISHED]
    makespan = (max(t.finish_time for t in finished) if finished
                else sim.now)
    statistics = scheduler.statistics() if scheduler.completed else None
    datacenter_view = {
        "mean_utilization": datacenter.mean_utilization(),
        "energy_joules": datacenter.total_energy_joules(),
        "failed_executions": float(datacenter.failed_executions),
        "wasted_core_seconds": datacenter.wasted_core_seconds,
        "preserved_core_seconds": datacenter.preserved_core_seconds,
    }
    if any(t.input_files or t.output_files for t in tasks):
        # Data-transfer accounting appears only for data-aware
        # workloads, keeping every pre-existing result digest intact.
        data = datacenter.data
        datacenter_view["data_transfer_seconds"] = data.transfer_seconds
        datacenter_view["data_transfer_bytes"] = data.transfer_bytes
        datacenter_view["data_local_bytes"] = data.local_bytes
    chaos = None
    if runtime.injector is not None or runtime.planner is not None:
        report = runtime.chaos_report()
        chaos = {
            "summary": report.summary(),
            "max_attempts_observed": report.max_attempts_observed,
            "unrecovered_victims": report.unrecovered_victims,
            "violations": list(report.violations),
        }
    slo_report = None
    alerts = None
    if runtime.engine is not None:
        slo_report = runtime.engine.report()
        alerts = runtime.engine.alerts.to_json()
    profile = (runtime.observer.snapshot()
               if runtime.observer is not None else None)
    return ScenarioResult(
        name=spec.name if spec is not None else "",
        seed=runtime.seed,
        fingerprint=spec.fingerprint() if spec is not None else "",
        sim_time=sim.now,
        events_processed=sim.events_processed,
        makespan=makespan,
        tasks_total=len(tasks),
        tasks_finished=len(finished),
        statistics=statistics,
        datacenter=datacenter_view,
        chaos=chaos,
        slo_report=slo_report,
        alerts=alerts,
        profile=profile,
    )
