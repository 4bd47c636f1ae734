"""Declarative scenarios: one experiment = one JSON-serializable spec.

The paper's reproducibility pillars (C15 "reproducible
experimentation", P8 "reproducibility as an essential service") and
the OpenDC-style experimentation platform of §3.3 demand that an
experiment be a *declarative artifact*, not a hand-wired script.  This
package is that artifact and its engine:

- :class:`~repro.scenario.spec.ScenarioSpec` — a frozen,
  JSON-serializable description of one run (topology, workload,
  scheduler, autoscaler, failures, resilience, SLOs, seed, duration)
  with an :meth:`~repro.scenario.spec.ScenarioSpec.override` mechanism
  for deriving variants and a recipe-compatible
  :meth:`~repro.scenario.spec.ScenarioSpec.fingerprint`;
- :func:`~repro.scenario.runtime.compose` /
  :class:`~repro.scenario.runtime.ScenarioRuntime` — the single
  composition root every entry point (benchmarks, examples, chaos
  harness, CLI) assembles runs through;
- :class:`~repro.scenario.result.ScenarioResult` — the run's outcome
  as deterministic plain data with a canonical digest;
- :mod:`~repro.scenario.codec` — the one field-driven JSON codec every
  scenario document inherits; bad input raises
  :class:`~repro.scenario.codec.SpecError` naming the field;
- :func:`~repro.scenario.sweep.sweep` /
  :class:`~repro.scenario.sweep.SweepRunner` — process-parallel
  parameter sweeps with an order-independent merge and a byte-stable
  report.

Determinism contract: a spec run in-process, in a worker pool, or
rehydrated from JSON produces the identical result digest.  See
``docs/SCENARIOS.md`` for the spec schema and sweep semantics.
"""

from .codec import SpecError
from .result import ScenarioResult, compile_result
from .runtime import ScenarioRuntime, build_runtime, compose
from .spec import (
    FAILURE_KINDS,
    OBJECTIVE_KINDS,
    WORKLOAD_KINDS,
    AutoscalerSpec,
    BurnRuleSpec,
    CheckpointSpec,
    ClusterSpec,
    FailureSpec,
    HedgeSpec,
    ObjectiveSpec,
    RetrySpec,
    ScenarioSpec,
    SchedulerSpec,
    ShardLinkSpec,
    ShardOffloadSpec,
    ShardPlanSpec,
    ShardSpec,
    SheddingSpec,
    SLOSpec,
    TopologySpec,
    WorkloadSpec,
    open_arrival_tasks,
    scenario_experiment,
)
from .sweep import SweepPoint, SweepReport, SweepRunner, sweep

__all__ = [
    "ScenarioSpec",
    "SpecError",
    "ClusterSpec",
    "TopologySpec",
    "WorkloadSpec",
    "SchedulerSpec",
    "AutoscalerSpec",
    "FailureSpec",
    "RetrySpec",
    "CheckpointSpec",
    "HedgeSpec",
    "SheddingSpec",
    "ObjectiveSpec",
    "BurnRuleSpec",
    "SLOSpec",
    "ShardSpec",
    "ShardLinkSpec",
    "ShardOffloadSpec",
    "ShardPlanSpec",
    "WORKLOAD_KINDS",
    "FAILURE_KINDS",
    "OBJECTIVE_KINDS",
    "open_arrival_tasks",
    "scenario_experiment",
    "ScenarioRuntime",
    "compose",
    "build_runtime",
    "ScenarioResult",
    "compile_result",
    "SweepPoint",
    "SweepReport",
    "SweepRunner",
    "sweep",
]
