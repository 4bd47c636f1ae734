"""Sharded simulation: per-region event loops, conservatively coupled.

The paper's central object is the *ecosystem* — millions of users
across geo-distributed datacenters — yet a scenario used to be one
:class:`~repro.sim.engine.Simulator` on one core.  This module
partitions a multi-datacenter scenario by region into per-shard
simulators, each owning its local event loop, scheduler, and
datacenter, coupled only through explicit cross-shard messages
(federation offload and its completion acknowledgements) carried over
the declared :class:`~repro.datacenter.wide_area.WideAreaLink`
channels.

**Conservative epoch coupling.**  Shards advance in windows.  Each
epoch the coordinator reads every shard's next-event time (and every
undelivered message's delivery time), sets the window end to their
minimum plus the *lookahead* — the minimum cross-shard link latency
(:func:`~repro.datacenter.wide_area.min_lookahead`), or the plan's
tighter explicit ``epoch`` — injects the previous epoch's messages,
and lets every shard process events strictly below the window end.
The classic safety argument applies: a message sent at time *t* inside
the window delivers at ``t + latency >= window_end``, so delivering it
at the next barrier can never rewind any shard's clock.

**Deterministic message ordering.**  Every message is stamped with
``(send_time, source shard, per-shard sequence number)`` and each
destination's inbox is sorted by ``(deliver_time, src, seq)`` before
injection, so the injected event order — and therefore every digest —
is a pure function of the spec.

**Determinism contract.**  Shards are built, advanced and merged in
plan declaration order inside one process, and share no object state:
offloaded tasks travel as plain-data payloads and are rebuilt at their
destination.  The merged
:class:`~repro.scenario.result.ScenarioResult` and fleet telemetry are
therefore a pure function of the spec, and every per-shard result is
invariant to the legal epoch width (only the coupling record's epoch
count and lookahead follow it); the golden tests pin the planet-scale
gallery spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenario.result import ScenarioResult
    from ..scenario.spec import ScenarioSpec, ShardSpec

__all__ = [
    "ShardConfigError",
    "RemoteSubmit",
    "CompletionAck",
    "ShardHarness",
    "ShardedScenarioRuntime",
]


class ShardConfigError(ValueError):
    """An invalid shard partition or coupling declaration.

    The user-facing error for everything a shard plan can get wrong —
    unknown datacenter clusters, overlapping shards, zero-latency
    links, dangling offload targets.  The CLI catches it and exits 2
    with the message, matching the
    :class:`~repro.workload.wfformat.WfFormatError` convention.
    """


# ---------------------------------------------------------------------------
# Cross-shard messages
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RemoteSubmit:
    """One task delegated across a shard boundary.

    Stamped with the sender's ``(send_time, src, seq)`` so destinations
    can order concurrent arrivals deterministically; ``deliver_time``
    is ``send_time`` plus the link latency, and the task itself travels
    as a plain-data payload (the origin's Task object never crosses the
    shard boundary).
    """

    src: str
    dst: str
    seq: int
    send_time: float
    deliver_time: float
    task: dict


@dataclass(frozen=True)
class CompletionAck:
    """Notice that a delegated task finished at its destination.

    Flows back over the same link so the origin can account for its
    offloaded work (merged ``tasks_finished`` and makespan) without
    sharing any object state.
    """

    src: str
    dst: str
    seq: int
    send_time: float
    deliver_time: float
    task_name: str
    finish_time: float


def _message_order(message: "RemoteSubmit | CompletionAck"):
    """The deterministic per-destination injection order."""
    return (message.deliver_time, message.src, message.seq)


def _task_payload(task: Any) -> dict:
    """A task's plain-data form: everything needed to rebuild it remotely."""
    return {
        "runtime": task.runtime,
        "cores": task.cores,
        "memory": task.memory,
        "name": task.name,
        "kind": task.kind,
        "deadline": task.deadline,
        "priority": task.priority,
        "checkpoint_interval": task.checkpoint_interval,
        "checkpoint_overhead": task.checkpoint_overhead,
        "input_files": dict(task.input_files),
        "output_files": dict(task.output_files),
    }


def _task_from_payload(payload: Mapping[str, Any], submit_time: float):
    """Rebuild a delegated task at its destination.

    The rebuilt task submits at its delivery time (it spent the link
    latency in flight) and keeps its origin name, so the destination's
    statistics and the acknowledgement name the task as its origin did.
    """
    from ..workload.task import Task
    return Task(runtime=payload["runtime"], cores=payload["cores"],
                memory=payload["memory"], submit_time=submit_time,
                name=payload["name"], kind=payload["kind"],
                deadline=payload["deadline"], priority=payload["priority"],
                checkpoint_interval=payload["checkpoint_interval"],
                checkpoint_overhead=payload["checkpoint_overhead"],
                input_files=dict(payload["input_files"]),
                output_files=dict(payload["output_files"]))


# ---------------------------------------------------------------------------
# One shard
# ---------------------------------------------------------------------------
class ShardHarness:
    """One region's event loop plus its cross-shard edges.

    Wraps the shard's composed
    :class:`~repro.scenario.runtime.ScenarioRuntime` with the three
    seams the coordinator drives: arrival-time offload routing (an
    :class:`~repro.datacenter.federation.OffloadGate` over the local
    datacenter diverts plain tasks into the outbox), message injection
    (delegated tasks and acknowledgements arrive as future events via
    :meth:`~repro.sim.engine.Simulator.inject`), and windowed
    advancement (the runtime's own
    :meth:`~repro.scenario.runtime.ScenarioRuntime.advance` window,
    ending at the epoch barrier).
    """

    def __init__(self, spec: "ScenarioSpec", shard: "ShardSpec",
                 links: Mapping[str, float], capture: bool = False) -> None:
        from ..datacenter.federation import OffloadGate
        from ..observability.observer import Observer
        from ..scenario.runtime import build_runtime
        self.name = shard.name
        self.links = dict(links)
        self.subspec = spec.shard_subspec(shard)
        self._declared = bool(self.subspec.observer
                              or self.subspec.slos is not None)
        self._capture = capture
        self._offload = shard.offload
        self._outbox: list[RemoteSubmit | CompletionAck] = []
        self._seq = 0
        self._remote_origin: dict[int, str] = {}
        self.offloads_sent = 0
        self.offloads_run = 0
        self.remote_finished = 0
        self.remote_finish_max = 0.0
        overrides: dict[str, Any] = {}
        if shard.offload is not None:
            overrides["submit_router"] = self._route
        if capture and not self._declared:
            overrides["observer"] = Observer()
        self.runtime = build_runtime(self.subspec, **overrides)
        self._gate = (OffloadGate(self.runtime.datacenter,
                                  shard.offload.threshold)
                      if shard.offload is not None else None)
        self.runtime.scheduler.on_task_complete.append(self._on_complete)
        self._finished = False

    # -- outbound -------------------------------------------------------
    def _route(self, item: Any) -> bool:
        """Arrival-time router: divert plain tasks the gate offloads."""
        from ..workload.task import Task
        if not isinstance(item, Task) or item.dependencies:
            return False
        if not self._gate.should_offload(item):
            return False
        sim = self.runtime.sim
        target = self._offload.target
        self._seq += 1
        self.offloads_sent += 1
        self._outbox.append(RemoteSubmit(
            src=self.name, dst=target, seq=self._seq, send_time=sim.now,
            deliver_time=sim.now + self.links[target],
            task=_task_payload(item)))
        return True

    def _on_complete(self, task: Any) -> None:
        """Acknowledge delegated tasks back to their origin shard."""
        origin = self._remote_origin.pop(task.task_id, None)
        if origin is None:
            return
        sim = self.runtime.sim
        self._seq += 1
        self.offloads_run += 1
        self._outbox.append(CompletionAck(
            src=self.name, dst=origin, seq=self._seq, send_time=sim.now,
            deliver_time=sim.now + self.links[origin],
            task_name=task.name, finish_time=float(task.finish_time)))

    def drain(self) -> list["RemoteSubmit | CompletionAck"]:
        """Take (and clear) the messages produced this epoch."""
        messages = self._outbox
        self._outbox = []
        return messages

    # -- inbound --------------------------------------------------------
    def inject(self, message: "RemoteSubmit | CompletionAck") -> None:
        """Schedule a cross-shard message as a local future event."""
        sim = self.runtime.sim
        if isinstance(message, RemoteSubmit):
            sim.inject(message.deliver_time,
                       lambda _event, m=message: self._deliver_submit(m))
        else:
            sim.inject(message.deliver_time,
                       lambda _event, m=message: self._deliver_ack(m))

    def _deliver_submit(self, message: RemoteSubmit) -> None:
        task = _task_from_payload(message.task,
                                  submit_time=message.deliver_time)
        self._remote_origin[task.task_id] = message.src
        self.runtime.scheduler.submit(task)

    def _deliver_ack(self, message: CompletionAck) -> None:
        self.remote_finished += 1
        if message.finish_time > self.remote_finish_max:
            self.remote_finish_max = message.finish_time

    # -- advancement ----------------------------------------------------
    def peek(self) -> float:
        """The shard's next local event time (``inf`` when drained)."""
        return self.runtime.sim.peek()

    def advance(self, stop: float) -> int:
        """Process local events strictly before the window end."""
        return self.runtime.advance(stop)

    # -- completion -----------------------------------------------------
    def finish(self) -> dict:
        """Settle the run and compile the shard's payload for the merge.

        Closes the run exactly as
        :meth:`~repro.scenario.runtime.ScenarioRuntime.drive` does
        (:meth:`~repro.scenario.runtime.ScenarioRuntime.settle`),
        finalizes, and returns the result, the optional telemetry
        snapshot (run id ``shard-<name>``), and the cross-shard
        accounting the merge needs.
        """
        if self._finished:
            raise RuntimeError(f"shard {self.name!r} was already finished")
        self._finished = True
        runtime = self.runtime
        runtime.settle()
        runtime.finalize()
        observer = runtime.observer
        if not self._declared:
            # An undeclared capture observer must not leak into the
            # result bytes (mirrors sweep.run_spec_observed).
            runtime.observer = None
        result = runtime.result()
        telemetry = None
        if observer is not None:
            observer.detach()
            if self._capture:
                from ..observability.federation import TelemetrySnapshot
                telemetry = TelemetrySnapshot.capture(
                    observer, run_id=f"shard-{self.name}",
                    fingerprint=self.subspec.fingerprint(),
                    seed=self.subspec.seed)
        return {
            "result": result,
            "telemetry": telemetry,
            "extras": {
                "offloads_sent": self.offloads_sent,
                "offloads_run": self.offloads_run,
                "remote_finished": self.remote_finished,
                "remote_finish_max": self.remote_finish_max,
                "total_cores": runtime.datacenter.total_cores,
            },
        }


def _peer_links(plan: Any, name: str) -> dict[str, float]:
    """The one-way latencies from shard ``name`` to each linked peer."""
    links: dict[str, float] = {}
    for link in plan.links:
        if link.src == name:
            links[link.dst] = link.latency
        elif link.dst == name:
            links[link.src] = link.latency
    return links


# ---------------------------------------------------------------------------
# The epoch coordinator
# ---------------------------------------------------------------------------
def _route_messages(outbound: Iterable["RemoteSubmit | CompletionAck"],
                    ) -> dict[str, list]:
    """Group messages by destination in deterministic injection order."""
    by_dst: dict[str, list] = {}
    for message in outbound:
        by_dst.setdefault(message.dst, []).append(message)
    for messages in by_dst.values():
        messages.sort(key=_message_order)
    return by_dst


class _InProcessShards:
    """Every shard harness of one run, stepped in plan declaration order."""

    def __init__(self, spec: "ScenarioSpec", capture: bool = False) -> None:
        plan = spec.shards
        self.order = [shard.name for shard in plan.shards]
        self.harnesses = {
            shard.name: ShardHarness(spec, shard,
                                     _peer_links(plan, shard.name),
                                     capture=capture)
            for shard in plan.shards
        }

    def peeks(self) -> dict[str, float]:
        return {name: self.harnesses[name].peek() for name in self.order}

    def run_epoch(self, window: float, inbound: Mapping[str, list],
                  ) -> tuple[list, dict[str, float]]:
        for name in self.order:
            for message in inbound.get(name, ()):
                self.harnesses[name].inject(message)
        for name in self.order:
            self.harnesses[name].advance(window)
        outbound: list = []
        peeks: dict[str, float] = {}
        for name in self.order:
            outbound.extend(self.harnesses[name].drain())
            peeks[name] = self.harnesses[name].peek()
        return outbound, peeks

    def finish(self) -> dict[str, dict]:
        return {name: self.harnesses[name].finish() for name in self.order}


# ---------------------------------------------------------------------------
# Result merge
# ---------------------------------------------------------------------------
def _merge_payloads(spec: "ScenarioSpec", order: Sequence[str],
                    payloads: Mapping[str, dict], *, epochs: int,
                    lookahead: float,
                    ) -> tuple["ScenarioResult", dict | None]:
    """Fold per-shard payloads into the scenario-level outcome.

    Counters and energies sum; clocks and makespans take maxima
    (including delegated tasks finishing remotely, via the
    acknowledgement stream); mean utilization is weighted by shard
    capacity; per-shard results nest in full under ``shards.by_shard``
    so nothing is lost in the roll-up.  Telemetry snapshots, when
    captured, fold through the standard
    :class:`~repro.observability.federation.TelemetryMerge` into one
    ``telemetry-fleet/v1`` view.  Everything is a pure function of the
    payload set.
    """
    from ..observability.federation import TelemetryMerge
    from ..scenario.result import ScenarioResult
    results = {name: payloads[name]["result"] for name in order}
    extras = {name: payloads[name]["extras"] for name in order}
    remote_finished = sum(e["remote_finished"] for e in extras.values())
    makespans = [results[name].makespan for name in order]
    makespans.extend(e["remote_finish_max"] for e in extras.values()
                     if e["remote_finished"])
    total_cores = sum(e["total_cores"] for e in extras.values())
    datacenter_view: dict[str, float] = {
        "mean_utilization": (
            sum(results[n].datacenter["mean_utilization"]
                * extras[n]["total_cores"] for n in order) / total_cores
            if total_cores else 0.0),
        "energy_joules": sum(results[n].datacenter["energy_joules"]
                             for n in order),
        "failed_executions": sum(
            results[n].datacenter["failed_executions"] for n in order),
        "wasted_core_seconds": sum(
            results[n].datacenter["wasted_core_seconds"] for n in order),
        "preserved_core_seconds": sum(
            results[n].datacenter["preserved_core_seconds"] for n in order),
    }
    data_keys = ("data_transfer_seconds", "data_transfer_bytes",
                 "data_local_bytes")
    if any(key in results[n].datacenter for n in order for key in data_keys):
        for key in data_keys:
            datacenter_view[key] = sum(
                results[n].datacenter.get(key, 0.0) for n in order)
    shards_section = {
        "coupling": {
            "lookahead": (None if lookahead == float("inf")
                          else lookahead),
            "epochs": epochs,
            "offloaded": sum(e["offloads_sent"] for e in extras.values()),
            "acked": sum(e["offloads_run"] for e in extras.values()),
        },
        "by_shard": {
            name: {
                "result": results[name].to_dict(),
                "offloads_sent": extras[name]["offloads_sent"],
                "offloads_run": extras[name]["offloads_run"],
                "remote_finished": extras[name]["remote_finished"],
                "remote_finish_max": extras[name]["remote_finish_max"],
            }
            for name in order
        },
    }
    merged = ScenarioResult(
        name=spec.name,
        seed=spec.seed,
        fingerprint=spec.fingerprint(),
        sim_time=max(results[name].sim_time for name in order),
        events_processed=sum(results[name].events_processed
                             for name in order),
        makespan=max(makespans),
        tasks_total=sum(results[name].tasks_total for name in order),
        tasks_finished=(sum(results[name].tasks_finished for name in order)
                        + remote_finished),
        datacenter=datacenter_view,
        shards=shards_section,
    )
    snapshots = [payloads[name]["telemetry"] for name in order
                 if payloads[name]["telemetry"] is not None]
    fleet = None
    if snapshots:
        merge = TelemetryMerge()
        for snapshot in snapshots:
            merge.add(snapshot)
        fleet = merge.fleet()
    return merged, fleet


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
class ShardedScenarioRuntime:
    """The sharded counterpart of a composed scenario runtime.

    What :meth:`ScenarioSpec.build` returns for a spec with a
    ``shards`` section: every shard harness composed in-process, driven
    through the conservative epoch loop by :meth:`execute`.  Mirrors
    the single-loop runtime's surface where it matters (``tasks``,
    :meth:`finalize`, :meth:`execute`), so spec tooling works on both.

    ``capture=True`` records per-shard telemetry even when the spec
    declares no observer (``None`` captures exactly when it does);
    the capture never changes the result bytes.  After
    :meth:`execute`, ``telemetry`` holds the merged
    ``telemetry-fleet/v1`` view (``None`` without capture) and
    ``epochs`` the number of epoch windows run.
    """

    def __init__(self, spec: "ScenarioSpec", capture: bool | None = None,
                 ) -> None:
        if spec.shards is None:
            raise ShardConfigError(
                f"scenario {spec.name!r} declares no shards; add a "
                f"'shards' section (see docs/SCENARIOS.md)")
        self.spec = spec
        declared = bool(spec.observer or spec.slos is not None)
        self.capture = declared if capture is None else capture
        self.lookahead = spec.shards.lookahead()
        self.epochs = 0
        self.telemetry: dict | None = None
        self._bound = (spec.duration if spec.duration is not None
                       else spec.max_time)
        self._set = _InProcessShards(spec, capture=self.capture)
        self._driven = False
        self._result: "ScenarioResult | None" = None

    @property
    def tasks(self) -> list:
        """Every locally generated task, in shard declaration order."""
        return [task for name in self._set.order
                for task in self._set.harnesses[name].runtime.tasks]

    def drive(self) -> None:
        """Run the conservative epoch loop to completion.

        Each epoch: compute every shard's *effective* horizon (its next
        local event, or an earlier undelivered message), stop when
        nothing remains at or below the run's bound, otherwise open a
        window of ``lookahead`` past the global minimum, deliver the
        pending batch, advance every shard to the barrier, and collect
        the next batch.  Counts the epochs into ``epochs``, part of the
        coupling record.
        """
        if self._driven:
            raise RuntimeError("this sharded runtime was already driven; "
                               "build a fresh one per run")
        self._driven = True
        pending: dict[str, list] = {}
        peeks = self._set.peeks()
        while True:
            effective = dict(peeks)
            for dst, messages in pending.items():
                horizon = min(m.deliver_time for m in messages)
                if horizon < effective.get(dst, float("inf")):
                    effective[dst] = horizon
            floor = min(effective.values(), default=float("inf"))
            if floor > self._bound:
                break
            outbound, peeks = self._set.run_epoch(floor + self.lookahead,
                                                  pending)
            pending = _route_messages(outbound)
            self.epochs += 1

    def finalize(self) -> None:
        """Stop every shard's periodic processes (idempotent)."""
        for name in self._set.order:
            self._set.harnesses[name].runtime.finalize()

    def result(self) -> "ScenarioResult":
        """The merged result (available after :meth:`execute`)."""
        if self._result is None:
            raise RuntimeError("execute() the sharded runtime first")
        return self._result

    def execute(self) -> "ScenarioResult":
        """Drive, settle every shard, and merge the fleet outcome."""
        self.drive()
        payloads = self._set.finish()
        self._result, self.telemetry = _merge_payloads(
            self.spec, self._set.order, payloads, epochs=self.epochs,
            lookahead=self.lookahead)
        return self._result
