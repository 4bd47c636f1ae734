"""The declarative scenario specification (C15, P8, §3.3).

A :class:`ScenarioSpec` is a *frozen, JSON-serializable artifact* that
pins everything one simulation run needs: topology, workload,
scheduling policy, autoscaling, failures, resilience mechanisms,
observability and SLO configuration, seed, and duration.  The paper's
reproducibility pillar (P8: "reproducibility as essential service")
demands exactly this — an experiment should be a declarative document,
not a hand-wired script — and the OpenDC-style platform of §3.3 shows
the payoff: one composition layer serving every concrete study.

Determinism contract: a spec run in-process, in a worker pool, or
rehydrated from its JSON form produces the identical
:class:`~repro.scenario.result.ScenarioResult` digest.  All randomness
derives from named :class:`~repro.sim.rng.RandomStreams` substreams of
the spec's single ``seed``.

Workload and failure *kinds* are resolved through small registries
(:data:`WORKLOAD_KINDS`, :data:`FAILURE_KINDS`), so a spec stays plain
data while the kernel owns the generators.  Programmatic escape
hatches (custom callables, custom autoscalers) are available through
:meth:`ScenarioSpec.build` overrides — those runs are no longer fully
serializable, and the spec API makes that boundary explicit.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from ..autoscaling.autoscalers import AUTOSCALERS
from ..datacenter.cluster import Cluster, homogeneous_cluster
from ..datacenter.machine import MachineSpec
from ..failures.models import FailureEvent
from ..observability.slo import (
    AvailabilityObjective,
    BurnRateRule,
    GoodputObjective,
    LatencyObjective,
    QueueWaitObjective,
    ServiceObjective,
)
from ..datacenter.wide_area import WideAreaLink, min_lookahead
from ..resilience.checkpoint import CheckpointPolicy
from ..resilience.hedging import HedgePolicy
from ..resilience.policies import ExponentialBackoff
from ..resilience.shedding import LoadSheddingAdmission
from ..scheduling.policies import PLACEMENT_POLICIES, QUEUE_POLICIES
from ..sim.experiment import ExperimentRecipe
from ..sim.rng import RandomStreams, substream_seed
from ..sim.sharding import ShardConfigError
from ..workload.arrivals import MMPPArrivals, PoissonArrivals
from ..workload.generators import TaskProfile, VicissitudeMix, WorkloadGenerator
from ..workload.task import Task
from ..workload.trace import (
    downsample_records,
    read_gwf,
    records_to_jobs,
    rescale_records,
)
from ..workload.wfformat import wfformat_workflow
from .codec import OMIT_DEFAULT, Codec, SpecError

__all__ = [
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
    "ShardLinkSpec",
    "ShardOffloadSpec",
    "ShardSpec",
    "ShardPlanSpec",
    "ScenarioSpec",
    "WORKLOAD_KINDS",
    "WorkloadKind",
    "FAILURE_KINDS",
    "OBJECTIVE_KINDS",
    "open_arrival_tasks",
]


def _range(value: Any) -> tuple[float, float] | None:
    """Interpret ``value`` as a (lo, hi) pair, or None for a fixed scalar."""
    if isinstance(value, (list, tuple)):
        lo, hi = value
        return float(lo), float(hi)
    return None


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------
#: Default machine link bandwidth (bytes/second); mirrors
#: :class:`~repro.datacenter.machine.MachineSpec`.
_DEFAULT_LINK_BANDWIDTH = 1.25e9


@dataclass(frozen=True)
class ClusterSpec(Codec):
    """One homogeneous cluster: ``machines`` identical machines."""

    name: str
    machines: int
    cores: int = 8
    memory: float = 32.0
    machines_per_rack: int = 16
    speed: float = 1.0
    link_bandwidth: float = field(default=_DEFAULT_LINK_BANDWIDTH,
                                  metadata=OMIT_DEFAULT)

    def build(self) -> Cluster:
        """Materialize the cluster."""
        return homogeneous_cluster(
            self.name, self.machines,
            MachineSpec(cores=self.cores, memory=self.memory,
                        speed=self.speed,
                        link_bandwidth=self.link_bandwidth),
            machines_per_rack=self.machines_per_rack)


@dataclass(frozen=True)
class TopologySpec(Codec):
    """The physical substrate: clusters under one datacenter."""

    clusters: tuple[ClusterSpec, ...]
    datacenter: str = "dc"
    operator: str = "operator"

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ValueError("a topology needs at least one cluster")
        object.__setattr__(self, "clusters", tuple(self.clusters))

    def build(self) -> list[Cluster]:
        """Materialize every cluster, in declaration order."""
        return [cluster.build() for cluster in self.clusters]


# ---------------------------------------------------------------------------
# Workload kinds
# ---------------------------------------------------------------------------
def open_arrival_tasks(rng: Any, n_tasks: int, total_cores: int, *,
                       load: float = 0.9,
                       cores: tuple[int, int] = (1, 8),
                       runtime: tuple[float, float] = (5.0, 195.0),
                       memory_per_core: float = 2.0,
                       prefix: str = "perf") -> list[Task]:
    """Seeded open-arrival tasks targeting a utilization ``load``.

    The shared datacenter-workload builder that used to live
    copy-pasted in the perf benchmarks and examples: Poisson arrivals
    at a rate chosen so the offered demand is ``load`` times the
    ``total_cores`` capacity, with uniform core and runtime draws.
    """
    cores_lo, cores_hi = cores
    runtime_lo, runtime_hi = runtime
    mean_demand = ((cores_lo + cores_hi) / 2.0
                   * (runtime_lo + runtime_hi) / 2.0)
    rate = load * total_cores / mean_demand
    now = 0.0
    tasks = []
    for i in range(n_tasks):
        now += rng.expovariate(rate)
        task_cores = rng.randint(cores_lo, cores_hi)
        tasks.append(Task(runtime=rng.uniform(runtime_lo, runtime_hi),
                          cores=task_cores,
                          memory=memory_per_core * task_cores,
                          submit_time=now, name=f"{prefix}-{i}"))
    return tasks


def _open_arrivals_workload(streams: RandomStreams, datacenter: Any,
                            params: Mapping[str, Any]) -> list[Task]:
    """Registry wrapper over :func:`open_arrival_tasks`."""
    return open_arrival_tasks(
        streams.stream(params.get("stream", "perf-workload")),
        int(params["n_tasks"]), datacenter.total_cores,
        load=float(params.get("load", 0.9)),
        cores=tuple(params.get("cores", (1, 8))),
        runtime=tuple(params.get("runtime", (5.0, 195.0))),
        memory_per_core=float(params.get("memory_per_core", 2.0)),
        prefix=params.get("prefix", "perf"))


def _uniform_tasks_workload(streams: RandomStreams, datacenter: Any,
                            params: Mapping[str, Any]) -> list[Task]:
    """Independent tasks with uniform runtime/cores/submit draws.

    Each of ``runtime``, ``cores``, and ``submit`` may be a fixed
    scalar (no random draw is consumed) or a ``[lo, hi]`` pair drawn
    uniformly — ``cores`` with ``randint``, the others with
    ``uniform``.  Priorities cycle ``i % priority_levels`` when
    ``priority_levels`` is positive.
    """
    n_tasks = int(params["n_tasks"])
    runtime = params.get("runtime", 60.0)
    cores = params.get("cores", 1)
    submit = params.get("submit", 0.0)
    levels = int(params.get("priority_levels", 0))
    prefix = params.get("prefix", "t")
    rng = streams.stream(params.get("stream", "workload"))
    runtime_range, cores_range, submit_range = (
        _range(runtime), _range(cores), _range(submit))
    tasks = []
    for i in range(n_tasks):
        task_runtime = (rng.uniform(*runtime_range) if runtime_range
                        else float(runtime))
        task_cores = (rng.randint(int(cores_range[0]), int(cores_range[1]))
                      if cores_range else int(cores))
        task_submit = (rng.uniform(*submit_range) if submit_range
                       else float(submit))
        tasks.append(Task(runtime=task_runtime, cores=task_cores,
                          submit_time=task_submit,
                          priority=i % levels if levels else 0,
                          name=f"{prefix}{i}"))
    return tasks


def _mmpp_jobs_workload(streams: RandomStreams, datacenter: Any,
                        params: Mapping[str, Any]) -> list:
    """Bursty bag-of-tasks jobs from an MMPP arrival process [113].

    Drives a :class:`~repro.workload.generators.WorkloadGenerator` with
    Markov-modulated Poisson arrivals and a (possibly degenerate)
    vicissitude mix over the declared task profiles.
    """
    profiles = tuple(
        TaskProfile(kind=p["kind"], runtime_mean=p["runtime_mean"],
                    runtime_sigma=p.get("runtime_sigma", 0.5),
                    cores_choices=tuple(p.get("cores_choices", (1,))),
                    memory_mean=p.get("memory_mean", 1.0))
        for p in params["profiles"])
    arrivals = MMPPArrivals(
        quiet_rate=params["quiet_rate"], burst_rate=params["burst_rate"],
        quiet_duration=params["quiet_duration"],
        burst_duration=params["burst_duration"],
        rng=streams.stream(params.get("arrival_stream", "arrivals")))
    generator = WorkloadGenerator(
        arrivals, mix=VicissitudeMix.steady(profiles),
        tasks_per_job=params.get("tasks_per_job", 5.0),
        fragmentation=params.get("fragmentation", 0.0),
        rng=streams.stream(params.get("stream", "workload")))
    return generator.generate(horizon=params["horizon"])


def _poisson_jobs_workload(streams: RandomStreams, datacenter: Any,
                           params: Mapping[str, Any]) -> list:
    """Bag-of-tasks jobs on plain Poisson arrivals."""
    profiles = tuple(
        TaskProfile(kind=p["kind"], runtime_mean=p["runtime_mean"],
                    runtime_sigma=p.get("runtime_sigma", 0.5),
                    cores_choices=tuple(p.get("cores_choices", (1,))),
                    memory_mean=p.get("memory_mean", 1.0))
        for p in params["profiles"])
    arrivals = PoissonArrivals(
        params["rate"],
        rng=streams.stream(params.get("arrival_stream", "arrivals")))
    generator = WorkloadGenerator(
        arrivals, mix=VicissitudeMix.steady(profiles),
        tasks_per_job=params.get("tasks_per_job", 5.0),
        fragmentation=params.get("fragmentation", 0.0),
        rng=streams.stream(params.get("stream", "workload")))
    return generator.generate(horizon=params["horizon"])


def _wfformat_workload(streams: RandomStreams, datacenter: Any,
                       params: Mapping[str, Any]) -> list:
    """A WfCommons WfFormat instance compiled into one workflow job.

    ``params.document`` embeds the WfFormat document inline (the
    self-contained, digest-pinnable form); ``params.path`` points at a
    JSON file instead.  ``runtime_scale`` and ``submit_time`` pass
    through to :func:`~repro.workload.wfformat.wfformat_workflow`.
    """
    return [wfformat_workflow(
        params["document"] if "document" in params else params["path"],
        runtime_scale=float(params.get("runtime_scale", 1.0)),
        submit_time=float(params.get("submit_time", 0.0)))]


def _gwf_trace_workload(streams: RandomStreams, datacenter: Any,
                        params: Mapping[str, Any]) -> list:
    """Jobs replayed from a GWF trace file, with shaping controls.

    ``fraction`` seed-samples a subset of the records (via the
    ``stream`` substream, default ``"gwf-sample"``), ``time_scale`` /
    ``runtime_scale`` / ``align`` rescale the time axis, and ``limit``
    truncates to the first N records after shaping.
    """
    records = read_gwf(params["path"])
    fraction = params.get("fraction")
    if fraction is not None:
        records = downsample_records(
            records, float(fraction),
            streams.stream(params.get("stream", "gwf-sample")))
    records = rescale_records(
        records,
        time_scale=float(params.get("time_scale", 1.0)),
        runtime_scale=float(params.get("runtime_scale", 1.0)),
        align=bool(params.get("align", False)))
    limit = params.get("limit")
    if limit is not None:
        records = records[:int(limit)]
    return records_to_jobs(records)


def _composite_workload(streams: RandomStreams, datacenter: Any,
                        params: Mapping[str, Any]) -> list:
    """Several registered workloads concatenated into one item list.

    ``params.parts`` is a list of workload-spec dicts (``kind`` +
    ``params``), built in declaration order against the same streams
    and datacenter.  Give each part its own ``stream`` /
    ``arrival_stream`` name, otherwise the parts share (and therefore
    correlate) their random draws.  This is how a multi-service region
    — say gaming plus banking plus FaaS on shared infrastructure — is
    declared as one spec, and how the sharded planet-scale scenario is
    expressed as an equivalent single-loop monolith for benchmarking.
    :class:`WorkloadSpec` decodes and checks every part at load, so
    each is built here straight from its kind's builder.
    """
    items: list = []
    for part in params["parts"]:
        kind = WORKLOAD_KINDS[part["kind"]]
        items.extend(kind.build(streams, datacenter, part.get("params", {})))
    return items


class WorkloadKind(NamedTuple):
    """A registered workload kind: its builder and its ``params`` names.

    ``build`` is ``(streams, datacenter, params) -> items``; ``required``
    and ``optional`` are the only ``params`` names it reads, and
    exactly one of the ``one_of`` names (when given) must be present.
    """

    build: Callable[[RandomStreams, Any, Mapping[str, Any]], Sequence]
    required: tuple[str, ...]
    optional: tuple[str, ...] = ()
    one_of: tuple[str, ...] = ()


_JOB_OPTIONAL = ("arrival_stream", "tasks_per_job", "fragmentation",
                 "stream")

#: Workload kind -> :class:`WorkloadKind`.
WORKLOAD_KINDS: dict[str, WorkloadKind] = {
    "open-arrivals": WorkloadKind(
        _open_arrivals_workload, ("n_tasks",),
        ("stream", "load", "cores", "runtime", "memory_per_core",
         "prefix")),
    "uniform-tasks": WorkloadKind(
        _uniform_tasks_workload, ("n_tasks",),
        ("runtime", "cores", "submit", "priority_levels", "prefix",
         "stream")),
    "mmpp-jobs": WorkloadKind(
        _mmpp_jobs_workload,
        ("profiles", "quiet_rate", "burst_rate", "quiet_duration",
         "burst_duration", "horizon"), _JOB_OPTIONAL),
    "poisson-jobs": WorkloadKind(
        _poisson_jobs_workload, ("profiles", "rate", "horizon"),
        _JOB_OPTIONAL),
    "wfformat": WorkloadKind(
        _wfformat_workload, (),
        ("document", "path", "runtime_scale", "submit_time"),
        one_of=("document", "path")),
    "gwf-trace": WorkloadKind(
        _gwf_trace_workload, ("path",),
        ("fraction", "stream", "time_scale", "runtime_scale", "align",
         "limit")),
    "composite": WorkloadKind(_composite_workload, ("parts",)),
}


@dataclass(frozen=True)
class WorkloadSpec(Codec):
    """One declared workload: a registered ``kind`` plus parameters.

    An unknown ``kind``, and a ``params`` name the kind does not read
    or a missing required one, is a
    :class:`~repro.scenario.codec.SpecError` naming the field; each
    ``composite`` part is decoded here too.  The values' types are
    checked only when the kind builds.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        kind = WORKLOAD_KINDS.get(self.kind)
        if kind is None:
            raise SpecError(f"names an unknown workload kind {self.kind!r}; "
                            f"registered: {sorted(WORKLOAD_KINDS)}",
                            ("kind",))
        params = dict(self.params)
        object.__setattr__(self, "params", params)
        known = kind.required + kind.optional
        for name in params:
            if name not in known:
                raise SpecError(f"is not a {self.kind} parameter; known: "
                                f"{', '.join(known)}", ("params", name))
        for name in kind.required:
            if name not in params:
                raise SpecError("is required", ("params", name))
        if kind.one_of and sum(name in params for name in kind.one_of) != 1:
            raise SpecError(f"needs exactly one of "
                            f"{' and '.join(kind.one_of)}", ("params",))
        if self.kind == "composite":
            parts = params["parts"]
            if not isinstance(parts, (list, tuple)):
                raise SpecError(f"must be a JSON list, not "
                                f"{type(parts).__name__}",
                                ("params", "parts"))
            for index, part in enumerate(parts):
                try:
                    WorkloadSpec.from_dict(part)
                except SpecError as error:
                    raise SpecError(error.problem, ("params", "parts", index)
                                    + error.path) from None

    def build(self, streams: RandomStreams, datacenter: Any) -> list:
        """Generate the workload items (tasks or jobs)."""
        return list(WORKLOAD_KINDS[self.kind].build(streams, datacenter,
                                                    self.params))


# ---------------------------------------------------------------------------
# Scheduler / autoscaler
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SchedulerSpec(Codec):
    """Queue + placement policy selection for the cluster scheduler.

    ``portfolio`` names extra queue policies raced by a
    :class:`~repro.scheduling.portfolio.PortfolioScheduler` that
    periodically re-selects the live policy.
    """

    queue: str = "fcfs"
    placement: str = "first-fit"
    backfilling: bool = False
    strict_head: bool = False
    portfolio: tuple[str, ...] = ()
    portfolio_interval: float = 50.0

    def __post_init__(self) -> None:
        if self.queue not in QUEUE_POLICIES:
            raise ValueError(f"unknown queue policy {self.queue!r}; "
                             f"registered: {sorted(QUEUE_POLICIES)}")
        if self.placement not in PLACEMENT_POLICIES:
            raise ValueError(f"unknown placement policy {self.placement!r}; "
                             f"registered: {sorted(PLACEMENT_POLICIES)}")
        for name in self.portfolio:
            if name not in QUEUE_POLICIES:
                raise ValueError(f"unknown portfolio policy {name!r}")
        if not self.portfolio_interval > 0:
            raise ValueError("portfolio_interval must be positive")
        object.__setattr__(self, "portfolio", tuple(self.portfolio))


@dataclass(frozen=True)
class AutoscalerSpec(Codec):
    """An elastic-provisioning policy from the autoscaler registry."""

    policy: str = "react"
    interval: float = 10.0

    def __post_init__(self) -> None:
        if self.policy not in AUTOSCALERS:
            raise ValueError(f"unknown autoscaler {self.policy!r}; "
                             f"registered: {sorted(AUTOSCALERS)}")
        if not self.interval > 0:
            raise ValueError("autoscaler interval must be positive")

    def build(self) -> Any:
        """Instantiate the autoscaler policy object."""
        return AUTOSCALERS[self.policy]()


# ---------------------------------------------------------------------------
# Failures
# ---------------------------------------------------------------------------
def _sampled_bursts_failures(streams: RandomStreams, racks: list,
                             horizon: float,
                             params: Mapping[str, Any]) -> list[FailureEvent]:
    """Correlated bursts with seeded victim sampling.

    At each time in ``times``, ``victims`` machines (an absolute count,
    or a fraction of the fleet when < 1) are sampled without
    replacement and taken down for ``duration`` seconds.
    """
    rng = streams.stream(params.get("stream", "failures"))
    names = [name for rack in racks for name in rack]
    victims = params.get("victims", 1)
    k = (int(len(names) * victims) if isinstance(victims, float)
         and victims < 1.0 else int(victims))
    duration = float(params.get("duration", 30.0))
    events = []
    for when in params["times"]:
        chosen = tuple(sorted(rng.sample(names, k=k)))
        events.append(FailureEvent(time=float(when), machine_names=chosen,
                                   duration=duration))
    return events


def _explicit_failures(streams: RandomStreams, racks: list, horizon: float,
                       params: Mapping[str, Any]) -> list[FailureEvent]:
    """A literal failure schedule: every event spelled out."""
    return [FailureEvent(time=float(e["time"]),
                         machine_names=tuple(e["machines"]),
                         duration=float(e["duration"]))
            for e in params["events"]]


#: Failure kind -> ``(streams, racks, horizon, params) -> events``.
FAILURE_KINDS: dict[str, Callable] = {
    "sampled-bursts": _sampled_bursts_failures,
    "explicit": _explicit_failures,
}


@dataclass(frozen=True)
class FailureSpec(Codec):
    """One declared failure schedule: a registered ``kind`` + params."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ValueError(f"unknown failure kind {self.kind!r}; "
                             f"registered: {sorted(FAILURE_KINDS)}")
        object.__setattr__(self, "params", dict(self.params))

    def build(self, streams: RandomStreams, racks: list,
              horizon: float) -> list[FailureEvent]:
        """Generate the failure events for one run."""
        return list(FAILURE_KINDS[self.kind](streams, racks, horizon,
                                             self.params))


# ---------------------------------------------------------------------------
# Resilience mechanisms
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RetrySpec(Codec):
    """Exponential-backoff retry policy parameters."""

    max_attempts: int = 6
    base: float = 1.0
    cap: float = 60.0
    multiplier: float = 2.0
    jitter: str = "none"

    def build(self) -> ExponentialBackoff:
        """Instantiate the retry policy."""
        return ExponentialBackoff(max_attempts=self.max_attempts,
                                  base=self.base, cap=self.cap,
                                  multiplier=self.multiplier,
                                  jitter=self.jitter)


@dataclass(frozen=True)
class CheckpointSpec(Codec):
    """Checkpoint/restart policy parameters."""

    interval: float
    overhead: float = 0.0
    min_runtime: float = 0.0

    def build(self) -> CheckpointPolicy:
        """Instantiate the checkpoint policy."""
        return CheckpointPolicy(interval=self.interval,
                                overhead=self.overhead,
                                min_runtime=self.min_runtime)


@dataclass(frozen=True)
class HedgeSpec(Codec):
    """Speculative (hedged) execution policy parameters."""

    delay_factor: float = 2.0
    min_delay: float = 0.0
    max_hedges: int = 1
    min_runtime: float = 0.0

    def build(self) -> HedgePolicy:
        """Instantiate the hedge policy."""
        return HedgePolicy(delay_factor=self.delay_factor,
                           min_delay=self.min_delay,
                           max_hedges=self.max_hedges,
                           min_runtime=self.min_runtime)


@dataclass(frozen=True)
class SheddingSpec(Codec):
    """Load-shedding admission-control parameters."""

    threshold: float = 0.85
    shed_below: int = 1

    def build(self) -> Callable[[Any], LoadSheddingAdmission]:
        """A ``(datacenter) -> admission controller`` factory."""
        return lambda datacenter: LoadSheddingAdmission(
            datacenter, threshold=self.threshold,
            shed_below=self.shed_below)


# ---------------------------------------------------------------------------
# SLOs
# ---------------------------------------------------------------------------
def _availability_objective(params: Mapping[str, Any]) -> ServiceObjective:
    """Build an :class:`AvailabilityObjective` from spec params."""
    return AvailabilityObjective(params["name"], good=params["good"],
                                 bad=params["bad"],
                                 target=params.get("target", 0.99))


def _queue_wait_objective(params: Mapping[str, Any]) -> ServiceObjective:
    """Build a :class:`QueueWaitObjective` from spec params."""
    return QueueWaitObjective(params["name"],
                              threshold=params["threshold"],
                              target=params.get("target", 0.95))


def _latency_objective(params: Mapping[str, Any]) -> ServiceObjective:
    """Build a :class:`LatencyObjective` from spec params."""
    return LatencyObjective(params["name"], histogram=params["histogram"],
                            threshold=params["threshold"],
                            target=params.get("target", 0.95))


def _goodput_objective(params: Mapping[str, Any]) -> ServiceObjective:
    """Build a :class:`GoodputObjective` from spec params."""
    return GoodputObjective(params["name"], counter=params["counter"],
                            target_rate=params["target_rate"],
                            target=params.get("target", 0.9))


#: Objective kind -> ``(params) -> ServiceObjective`` builder.
OBJECTIVE_KINDS: dict[str, Callable] = {
    "availability": _availability_objective,
    "queue-wait": _queue_wait_objective,
    "latency": _latency_objective,
    "goodput": _goodput_objective,
}


@dataclass(frozen=True)
class ObjectiveSpec(Codec):
    """One declared service objective: a registered ``kind`` + params."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}; "
                             f"registered: {sorted(OBJECTIVE_KINDS)}")
        object.__setattr__(self, "params", dict(self.params))

    def build(self) -> ServiceObjective:
        """Instantiate the objective."""
        return OBJECTIVE_KINDS[self.kind](self.params)


@dataclass(frozen=True)
class BurnRuleSpec(Codec):
    """One multi-window burn-rate alerting rule."""

    name: str
    long_window: float
    short_window: float
    threshold: float

    def build(self) -> BurnRateRule:
        """Instantiate the burn-rate rule."""
        return BurnRateRule(self.name, long_window=self.long_window,
                            short_window=self.short_window,
                            threshold=self.threshold)


@dataclass(frozen=True)
class SLOSpec(Codec):
    """Declared objectives, burn rules, and the telemetry cadence.

    ``rules=None`` keeps the engine's default SRE fast/slow pair;
    an explicit tuple overrides it.
    """

    objectives: tuple[ObjectiveSpec, ...]
    rules: tuple[BurnRuleSpec, ...] | None = None
    telemetry_interval: float = 5.0

    def __post_init__(self) -> None:
        if not self.objectives:
            raise ValueError("an SLO spec needs at least one objective")
        if not self.telemetry_interval > 0:
            raise ValueError("telemetry_interval must be positive")
        object.__setattr__(self, "objectives", tuple(self.objectives))
        if self.rules is not None:
            object.__setattr__(self, "rules", tuple(self.rules))

    def build_objectives(self) -> tuple[ServiceObjective, ...]:
        """Instantiate every declared objective."""
        return tuple(o.build() for o in self.objectives)

    def build_rules(self) -> tuple[BurnRateRule, ...] | None:
        """Instantiate the burn rules (None keeps the engine default)."""
        if self.rules is None:
            return None
        return tuple(r.build() for r in self.rules)


# ---------------------------------------------------------------------------
# Sharding (per-region event loops, conservatively coupled)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ShardLinkSpec(Codec):
    """One declared wide-area link between two shards (symmetric).

    The latency is the one-way message delay between the two regions,
    and — through :func:`~repro.datacenter.wide_area.min_lookahead` —
    the physical bound behind the conservative epoch barrier.
    """

    src: str
    dst: str
    latency: float

    def __post_init__(self) -> None:
        if not self.src or not self.dst:
            raise ShardConfigError("a shard link needs two shard names")
        if self.src == self.dst:
            raise ShardConfigError(
                f"shard link endpoints must differ, got {self.src!r} twice")
        if not self.latency > 0:
            raise ShardConfigError(
                f"link {self.src!r}->{self.dst!r} has non-positive latency "
                f"{self.latency}; zero-latency cross-shard links make the "
                f"conservative lookahead vanish")

    def build(self) -> WideAreaLink:
        """The link as a typed wide-area channel descriptor."""
        return WideAreaLink(src=self.src, dst=self.dst, latency=self.latency)


@dataclass(frozen=True)
class ShardOffloadSpec(Codec):
    """Dynamic delegation from one shard to a linked peer.

    When the shard's instantaneous utilization reaches ``threshold`` at
    submit time, plain tasks are sent to ``target`` over the declared
    link instead of the local scheduler (C7 offloading, across the
    shard boundary).
    """

    target: str
    threshold: float = 0.85

    def __post_init__(self) -> None:
        if not self.target:
            raise ShardConfigError("an offload section needs a target shard")
        if not 0.0 <= self.threshold <= 1.0:
            raise ShardConfigError(
                f"offload threshold must be in [0, 1], got {self.threshold}")


@dataclass(frozen=True)
class ShardSpec(Codec):
    """One shard: a named region owning a subset of the clusters.

    Each shard runs its own simulator, scheduler, and datacenter (named
    after the shard); ``workload`` overrides the scenario's workload for
    this region (usually every region declares its own), and
    ``offload`` optionally delegates overflow to a linked peer.
    """

    name: str
    clusters: tuple[str, ...]
    workload: WorkloadSpec | None = field(default=None,
                                          metadata=OMIT_DEFAULT)
    offload: ShardOffloadSpec | None = field(default=None,
                                             metadata=OMIT_DEFAULT)

    def __post_init__(self) -> None:
        if not self.name:
            raise ShardConfigError("a shard needs a non-empty name")
        if not self.clusters:
            raise ShardConfigError(
                f"shard {self.name!r} owns no clusters; every shard needs "
                f"at least one")
        object.__setattr__(self, "clusters", tuple(self.clusters))


@dataclass(frozen=True)
class ShardPlanSpec(Codec):
    """The partition of a scenario into conservatively coupled shards.

    ``shards`` must partition the topology's clusters exactly — every
    cluster assigned to one shard, none to two.  ``links`` declare the
    wide-area channels (symmetric, positive latency); the conservative
    lookahead is their minimum latency unless a smaller explicit
    ``epoch`` tightens it.  All structural errors raise the typed
    :class:`~repro.sim.sharding.ShardConfigError` so the CLI can exit 2
    with one friendly line.
    """

    shards: tuple[ShardSpec, ...]
    links: tuple[ShardLinkSpec, ...] = ()
    epoch: float | None = field(default=None, metadata=OMIT_DEFAULT)

    def __post_init__(self) -> None:
        if not self.shards:
            raise ShardConfigError("a shard plan needs at least one shard")
        object.__setattr__(self, "shards", tuple(self.shards))
        object.__setattr__(self, "links", tuple(self.links))
        names = [shard.name for shard in self.shards]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ShardConfigError(f"duplicate shard names {duplicates}")
        owners: dict[str, str] = {}
        for shard in self.shards:
            for cluster in shard.clusters:
                if cluster in owners:
                    raise ShardConfigError(
                        f"overlapping shards: cluster {cluster!r} is owned "
                        f"by both {owners[cluster]!r} and {shard.name!r}")
                owners[cluster] = shard.name
        declared = set(names)
        pairs: set[tuple[str, str]] = set()
        for link in self.links:
            for endpoint in (link.src, link.dst):
                if endpoint not in declared:
                    raise ShardConfigError(
                        f"link {link.src!r}->{link.dst!r} references "
                        f"unknown shard {endpoint!r}; declared: "
                        f"{sorted(declared)}")
            pair = tuple(sorted((link.src, link.dst)))
            if pair in pairs:
                raise ShardConfigError(
                    f"duplicate link between {pair[0]!r} and {pair[1]!r}")
            pairs.add(pair)
        if self.epoch is not None:
            if not self.epoch > 0:
                raise ShardConfigError(
                    f"epoch must be positive, got {self.epoch}")
            limit = min_lookahead([link.build() for link in self.links])
            if self.epoch > limit:
                raise ShardConfigError(
                    f"epoch {self.epoch} exceeds the minimum link latency "
                    f"{limit}; a conservative window cannot outrun the "
                    f"slowest guarantee")
        for shard in self.shards:
            if shard.offload is None:
                continue
            target = shard.offload.target
            if target not in declared:
                raise ShardConfigError(
                    f"shard {shard.name!r} offloads to unknown shard "
                    f"{target!r}")
            if target == shard.name:
                raise ShardConfigError(
                    f"shard {shard.name!r} cannot offload to itself")
            if tuple(sorted((shard.name, target))) not in pairs:
                raise ShardConfigError(
                    f"shard {shard.name!r} offloads to {target!r} but no "
                    f"link between them is declared")

    def validate(self, topology: "TopologySpec") -> None:
        """Check the plan partitions ``topology`` exactly.

        Raises :class:`~repro.sim.sharding.ShardConfigError` when a
        shard references an unknown datacenter cluster or a topology
        cluster is left unassigned.
        """
        known = {cluster.name for cluster in topology.clusters}
        assigned: set[str] = set()
        for shard in self.shards:
            for cluster in shard.clusters:
                if cluster not in known:
                    raise ShardConfigError(
                        f"shard {shard.name!r} references unknown "
                        f"datacenter cluster {cluster!r}; topology "
                        f"declares {sorted(known)}")
                assigned.add(cluster)
        missing = known - assigned
        if missing:
            raise ShardConfigError(
                f"clusters {sorted(missing)} are assigned to no shard; "
                f"the plan must partition the topology exactly")

    def lookahead(self) -> float:
        """The conservative window width this plan couples under.

        The explicit ``epoch`` when declared, otherwise the minimum
        link latency (``inf`` for fully decoupled shards).
        """
        if self.epoch is not None:
            return self.epoch
        return min_lookahead([link.build() for link in self.links])

    def latency(self, a: str, b: str) -> float:
        """One-way latency between two shards (symmetric lookup)."""
        for link in self.links:
            if {link.src, link.dst} == {a, b}:
                return link.latency
        raise ShardConfigError(f"no link declared between {a!r} and {b!r}")


# ---------------------------------------------------------------------------
# The scenario spec
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec(Codec, schema="scenario-spec/v1"):
    """Everything one reproducible simulation run needs, as plain data.

    The single composition artifact behind benchmarks, examples, chaos
    experiments, and the CLI.  :meth:`build` resolves the declarative
    sections into live components (the composition root);
    :meth:`run` executes the scenario and returns a deterministic
    :class:`~repro.scenario.result.ScenarioResult`.

    Args:
        name: Scenario name (keys artifacts and fingerprints).
        topology: Physical substrate declaration.
        workload: Workload declaration (kind + parameters).
        seed: Root seed; every random draw in the run derives from it.
        scheduler: Queue/placement policy selection.
        autoscaler: Optional elastic-provisioning section.
        failures: Optional failure schedule.
        retries: Optional retry policy (arms a
            :class:`~repro.selfaware.anomaly.RecoveryPlanner`).
        checkpoints: Optional checkpoint/restart policy.
        hedging: Optional speculative-execution policy.
        shedding: Optional load-shedding admission control.
        slos: Optional service objectives + burn-rate alerting (arms
            streaming telemetry and implies an observer).
        observer: Arm the observability stack for this run.
        duration: Optional run-until bound in sim-seconds; ``None``
            runs to event exhaustion (bounded by ``max_time``).
        horizon: Failure-generation horizon in sim-seconds.
        max_time: Safety cap on simulated time.
        availability_slo: Machine-availability target graded into the
            resilience report.
        injection_jitter: Perturbation bound on failure times.
        shards: Optional partition into per-region event loops with
            conservative epoch coupling (see
            :mod:`repro.sim.sharding`); ``None`` runs the scenario on
            one loop, exactly as before.
    """

    name: str
    topology: TopologySpec
    workload: WorkloadSpec
    seed: int = 0
    scheduler: SchedulerSpec = field(default_factory=SchedulerSpec)
    autoscaler: AutoscalerSpec | None = None
    failures: FailureSpec | None = None
    retries: RetrySpec | None = None
    checkpoints: CheckpointSpec | None = None
    hedging: HedgeSpec | None = None
    shedding: SheddingSpec | None = None
    slos: SLOSpec | None = None
    observer: bool = False
    duration: float | None = None
    horizon: float = 1000.0
    max_time: float = 10_000_000.0
    availability_slo: float = 0.0
    injection_jitter: float = 0.0
    shards: ShardPlanSpec | None = field(default=None,
                                         metadata=OMIT_DEFAULT)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a non-empty name")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, "
                             f"not {type(self.seed).__name__}")
        spans = {"horizon": self.horizon, "max_time": self.max_time}
        if self.duration is not None:
            spans["duration"] = self.duration
        for key, value in {**spans,
                           "availability_slo": self.availability_slo,
                           "injection_jitter": self.injection_jitter}.items():
            # bool is an int subclass, but ``true`` is no number here.
            if isinstance(value, bool) or not isinstance(value,
                                                         (int, float)):
                raise ValueError(f"{key} must be a number, "
                                 f"not {type(value).__name__}")
        for key, value in spans.items():
            # NaN fails every comparison, so this form rejects it too;
            # an infinite span would let a periodic controller tick
            # forever.
            if not 0 < value < math.inf:
                raise ValueError(f"{key} must be finite and positive")
        if not 0.0 <= self.availability_slo <= 1.0:
            raise ValueError("availability_slo must be in [0, 1]")
        if not self.injection_jitter >= 0:
            raise ValueError("injection_jitter must be non-negative")
        if self.shards is not None:
            self.shards.validate(self.topology)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable identity digest, via the experiment-recipe scheme.

        Reuses :meth:`~repro.sim.experiment.ExperimentRecipe.fingerprint`
        so sweep artifacts, ``BENCH_*.json`` records, and experiment
        registries share one identity format.
        """
        return self.recipe().fingerprint()

    def recipe(self) -> ExperimentRecipe:
        """The spec as an :class:`~repro.sim.experiment.ExperimentRecipe`."""
        return ExperimentRecipe(name=self.name, seed=self.seed,
                                parameters=self.to_dict())

    # ------------------------------------------------------------------
    # Serialization (``to_dict``/``from_dict`` come from ``Codec``)
    # ------------------------------------------------------------------
    def to_json(self, indent: int | None = None) -> str:
        """The spec as a deterministic JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Rehydrate a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Variation
    # ------------------------------------------------------------------
    def override(self, updates: Mapping[str, Any]) -> "ScenarioSpec":
        """A new spec with dotted-path fields replaced.

        Keys address the :meth:`to_dict` tree (``"seed"``,
        ``"scheduler.queue"``, ``"workload.params.n_tasks"`` ...).  The
        special key ``"scale"`` multiplies every cluster's machine
        count by its value (minimum one machine) — the capacity axis of
        a sweep.  The result is decoded like any document, so a key
        that names no field raises
        :class:`~repro.scenario.codec.SpecError` instead of being
        ignored.
        """
        data = self.to_dict()
        for path, value in updates.items():
            if path == "scale":
                for cluster in data["topology"]["clusters"]:
                    cluster["machines"] = max(1, round(cluster["machines"]
                                                       * value))
                continue
            parts = path.split(".")
            node = data
            for part in parts[:-1]:
                nxt = node.get(part)
                if not isinstance(nxt, dict):
                    raise KeyError(f"override path {path!r} does not "
                                   f"resolve (at {part!r})")
                node = nxt
            node[parts[-1]] = value
        return ScenarioSpec.from_dict(data)

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """The identical scenario under a different root seed."""
        return self.override({"seed": seed})

    # ------------------------------------------------------------------
    # Resolution (declarative -> live ingredients)
    # ------------------------------------------------------------------
    def cluster_factory(self) -> Callable[[], list[Cluster]]:
        """``() -> clusters`` builder (fresh topology per run)."""
        return self.topology.build

    def workload_fn(self) -> Callable[[RandomStreams, Any], list]:
        """``(streams, datacenter) -> items`` builder."""
        workload = self.workload
        return workload.build

    def failure_fn(self) -> Callable[[RandomStreams, list, float],
                                     Sequence[FailureEvent]] | None:
        """``(streams, racks, horizon) -> events`` builder, or None."""
        if self.failures is None:
            return None
        return self.failures.build

    def shard_subspec(self, shard: ShardSpec) -> "ScenarioSpec":
        """The single-region spec one shard of this scenario runs.

        The shard owns its declared clusters (in topology declaration
        order) under a datacenter named after the shard, runs its own
        workload (falling back to the scenario's), and derives its seed
        as the ``shard:<name>`` substream of the scenario seed — so
        regions draw decorrelated randomness yet the whole fleet is a
        pure function of the one root seed.  Resilience, scheduling,
        and observability sections pass through unchanged.
        """
        if self.shards is None:
            raise ShardConfigError(
                f"scenario {self.name!r} declares no shards")
        owned = set(shard.clusters)
        topology = dataclasses.replace(
            self.topology, datacenter=shard.name,
            clusters=tuple(c for c in self.topology.clusters
                           if c.name in owned))
        return dataclasses.replace(
            self, name=f"{self.name}/{shard.name}", topology=topology,
            workload=shard.workload or self.workload,
            seed=substream_seed(self.seed, f"shard:{shard.name}"),
            shards=None)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def build(self, **overrides: Any) -> Any:
        """Compose the live :class:`~repro.scenario.runtime.ScenarioRuntime`.

        Keyword ``overrides`` replace resolved ingredients for
        programmatic studies (e.g. ``autoscaler=CustomPolicy()``); such
        runs are no longer reproducible from the JSON form alone.
        A sharded spec composes a
        :class:`~repro.sim.sharding.ShardedScenarioRuntime` instead —
        per-shard composition is derived, so overrides are rejected.
        """
        if self.shards is not None:
            if overrides:
                raise ShardConfigError(
                    "sharded scenarios compose each shard from the spec; "
                    "build() overrides are not supported")
            from ..sim.sharding import ShardedScenarioRuntime
            return ShardedScenarioRuntime(self)
        from .runtime import build_runtime
        return build_runtime(self, **overrides)

    def run(self, **overrides: Any) -> Any:
        """Build and execute; returns a deterministic ``ScenarioResult``."""
        return self.build(**overrides).execute()


def scenario_experiment(seed: int,
                        parameters: Mapping[str, Any]) -> dict[str, float]:
    """The kernel as an :data:`~repro.sim.experiment.ExperimentFn`.

    Bridges the reproducibility machinery onto the scenario kernel:
    ``spec.recipe()`` publishes a spec as an
    :class:`~repro.sim.experiment.ExperimentRecipe` (its parameters are
    the spec's :meth:`~ScenarioSpec.to_dict` tree), and this function
    re-runs it —

    >>> record = run_experiment(scenario_experiment, spec.recipe())
    >>> check_reproduction(scenario_experiment, record).reproducible
    True

    so ``check_reproduction`` exercises the full declarative pipeline:
    rehydrate, compose, run, summarize.
    """
    spec = ScenarioSpec.from_dict(parameters)
    if seed != spec.seed:
        spec = spec.with_seed(seed)
    return spec.run().summary()
