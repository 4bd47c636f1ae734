"""Spans recorded from the benchmark's side of each layer boundary.

The traced run installs :data:`LAYER_HOOKS`: each replaces one layer's
entry method on its class with a wrapper that opens a span around the
original call, so the program itself carries no tracing code.  A span
is ``(id, name, start, end, parent id, run id)``; a layer's self time
is its spans' duration minus the part covered by child spans.  Spans
stay in memory (exact per-name totals, plus the first
:attr:`Tracer.max_spans` individual spans) and are written once, as
Chrome-trace JSON, when the run ends.

Some boundaries are private methods (``ClusterScheduler._schedule_round``
and ``._select_machine``), installed by name: a hook whose target is
missing is skipped with a warning and its metrics read zero.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator, Mapping

__all__ = ["Tracer", "Hook", "LAYER_HOOKS", "instrument", "layer_metrics",
           "chrome_trace"]


class Tracer:
    """Nested spans with exact self-time totals.

    Args:
        max_spans: Individual spans kept for the trace file; totals
            stay exact beyond it (the overflow is counted in
            :attr:`dropped`).
        clock: Seconds source (the self-test injects a fake one).
    """

    def __init__(self, max_spans: int = 20_000,
                 clock: Callable[[], float] = perf_counter) -> None:
        self.max_spans = max_spans
        self.clock = clock
        self.origin = clock()
        self.spans: list[tuple[int, str, float, float, int, str]] = []
        #: name -> [count, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        self.counters: dict[str, int] = defaultdict(int)
        self.dropped = 0
        #: Tag stamped on every span opened from now on.
        self.run_id = ""
        self._stack: list[list] = []
        self._next_id = 0

    def begin(self, name: str) -> list:
        """Open a span; returns the frame :meth:`end` closes."""
        stack = self._stack
        span_id = self._next_id
        self._next_id = span_id + 1
        frame = [span_id, 0.0, name, stack[-1][0] if stack else -1, 0.0]
        stack.append(frame)
        frame[4] = self.clock()
        return frame

    def end(self, frame: list) -> None:
        """Close the innermost span (``frame``) and account its time."""
        end = self.clock()
        span_id, child, name, parent, start = frame
        stack = self._stack
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][1] += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, name, start, end, parent,
                               self.run_id))
        else:
            self.dropped += 1

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        frame = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(frame)

    def count(self, name: str) -> int:
        """Closed spans called ``name``."""
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``, seconds."""
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        """Summed self time of the spans called ``name``, seconds."""
        return self.totals.get(name, (0, 0.0, 0.0))[2]


def direct(name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
    """Untraced stand-in for :meth:`Tracer.call`."""
    return fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# Layer hooks
# ---------------------------------------------------------------------------
def _count_queue(tracer: Tracer, args: tuple, result: Any) -> None:
    # Queue length at round entry: the tasks the round will scan.
    tracer.counters["scheduling.tasks_scanned"] += len(args[0].queue)


def _count_hit(tracer: Tracer, args: tuple, result: Any) -> None:
    if result is not None:
        tracer.counters["scheduling.probe_hits"] += 1


def _count_idle(tracer: Tracer, args: tuple, result: Any) -> None:
    snapshot = args[1]
    if snapshot.queued_cores == 0 and snapshot.running_cores == 0:
        tracer.counters["autoscaling.idle_ticks"] += 1


@dataclass(frozen=True)
class Hook:
    """One wrapped layer entry point.

    ``span`` names the span opened around each call.  ``before`` sees
    the call's arguments before it runs, ``after`` sees them with the
    result.
    """

    module: str
    owner: str
    method: str
    span: str
    before: Callable[[Tracer, tuple, Any], None] | None = None
    after: Callable[[Tracer, tuple, Any], None] | None = None


LAYER_HOOKS: tuple[Hook, ...] = (
    Hook("repro.scenario.runtime", "ScenarioRuntime", "drive",
         "scenario.drive"),
    Hook("repro.scenario.runtime", "ScenarioRuntime", "result",
         "scenario.result"),
    Hook("repro.sim.sharding", "ShardedScenarioRuntime", "drive",
         "scenario.drive"),
    Hook("repro.sim.engine", "Simulator", "step", "sim.step"),
    Hook("repro.scheduling.scheduler", "ClusterScheduler", "_schedule_round",
         "scheduling.round", before=_count_queue),
    Hook("repro.scheduling.scheduler", "ClusterScheduler", "_select_machine",
         "scheduling.probe", after=_count_hit),
    Hook("repro.datacenter.datacenter", "Datacenter", "execute",
         "datacenter.execute"),
    Hook("repro.datacenter.datacenter", "Datacenter", "repair_machine",
         "datacenter.repair"),
    Hook("repro.datacenter.datacenter", "Datacenter", "end_epoch",
         "datacenter.epoch"),
    Hook("repro.datacenter.capacity", "CapacityIndex", "sync",
         "datacenter.sync"),
    Hook("repro.autoscaling.autoscalers", "AUTOSCALERS", "decide",
         "autoscaling.decide", before=_count_idle),
    Hook("repro.observability.streaming", "StreamingPipeline", "advance",
         "observability.advance"),
    Hook("repro.sim.sharding", "_InProcessShards", "run_epoch",
         "sharding.epoch"),
    Hook("repro.sim.sharding", "ShardHarness", "advance", "sharding.window"),
)


def _wrapper(tracer: Tracer, hook: Hook, original: Callable) -> Callable:
    before, after, name = hook.before, hook.after, hook.span
    begin, end = tracer.begin, tracer.end

    def traced(*args: Any, **kwargs: Any) -> Any:
        if before is not None:
            before(tracer, args, None)
        frame = begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            end(frame)
        if after is not None:
            after(tracer, args, result)
        return result
    return traced


def _owners(hook: Hook) -> list[type]:
    """The classes a hook patches (a registry dict names several)."""
    module = importlib.import_module(hook.module)
    owner = getattr(module, hook.owner)
    if isinstance(owner, Mapping):
        return list(dict.fromkeys(owner.values()))
    return [owner]


@contextmanager
def instrument(tracer: Tracer,
               hooks: tuple[Hook, ...] = LAYER_HOOKS) -> Iterator[list[str]]:
    """Install ``hooks`` for the ``with`` block; yields missing targets."""
    installed: list[tuple[type, str, Any]] = []
    missing: list[str] = []
    try:
        for hook in hooks:
            try:
                owners = _owners(hook)
            except (ImportError, AttributeError):
                owners = []
            found = False
            for owner in owners:
                original = owner.__dict__.get(hook.method)
                if not callable(original):
                    continue
                found = True
                installed.append((owner, hook.method, original))
                setattr(owner, hook.method, _wrapper(tracer, hook, original))
            if not found:
                target = f"{hook.module}.{hook.owner}.{hook.method}"
                missing.append(target)
                print(f"warning: trace hook {target} not found; its "
                      f"metrics read zero", file=sys.stderr)
        yield missing
    finally:
        for owner, method, original in reversed(installed):
            setattr(owner, method, original)


# ---------------------------------------------------------------------------
# Reading the trace
# ---------------------------------------------------------------------------
def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers a traced pass yields from its spans and counters.

    Workload-level figures the spans cannot see (resilience counters,
    cross-shard messages, the service plane, trace overhead) are added
    by the caller.
    """
    c = tracer.counters
    steps = tracer.count("sim.step")
    scanned = c["scheduling.tasks_scanned"]
    # ClusterScheduler starts a task with exactly one Datacenter.execute.
    started = tracer.count("datacenter.execute")
    probes = tracer.count("scheduling.probe")
    return {
        "scenario.parse_s": tracer.total("scenario.parse"),
        "scenario.build_s": tracer.total("scenario.build"),
        "scenario.drive_self_s": tracer.self_time("scenario.drive"),
        "scenario.result_s": tracer.total("scenario.result"),
        "scenario.digest_s": tracer.total("scenario.digest"),
        "sim.steps": steps,
        "sim.self_s": tracer.self_time("sim.step"),
        "sim.self_ns_per_step": (tracer.self_time("sim.step") / steps * 1e9
                                 if steps else 0.0),
        "scheduling.rounds": tracer.count("scheduling.round"),
        "scheduling.round_self_s": tracer.self_time("scheduling.round"),
        "scheduling.tasks_scanned": scanned,
        "scheduling.tasks_started": started,
        "scheduling.start_ratio": started / scanned if scanned else 0.0,
        "scheduling.probes": probes,
        "scheduling.probe_s": tracer.total("scheduling.probe"),
        "scheduling.probe_hit_ratio": (c["scheduling.probe_hits"] / probes
                                       if probes else 0.0),
        "datacenter.executions": tracer.count("datacenter.execute"),
        "datacenter.execute_s": tracer.total("datacenter.execute"),
        "datacenter.repairs": tracer.count("datacenter.repair"),
        "datacenter.sync_s": tracer.total("datacenter.sync"),
        "datacenter.epoch_s": tracer.total("datacenter.epoch"),
        "autoscaling.ticks": tracer.count("autoscaling.decide"),
        "autoscaling.idle_ticks": c["autoscaling.idle_ticks"],
        "autoscaling.decide_s": tracer.total("autoscaling.decide"),
        "observability.advances": tracer.count("observability.advance"),
        "observability.advance_s": tracer.total("observability.advance"),
        "sharding.epochs": tracer.count("sharding.epoch"),
        "sharding.windows": tracer.count("sharding.window"),
        "sharding.window_s": tracer.total("sharding.window"),
        "sharding.coupling_self_s": tracer.self_time("sharding.epoch"),
    }


def chrome_trace(tracer: Tracer, meta: Mapping[str, Any]) -> dict:
    """The recorded spans as a Chrome-trace (``chrome://tracing``) document."""
    origin = tracer.origin
    events = [{"name": name, "cat": name.split(".")[0], "ph": "X",
               "ts": round((start - origin) * 1e6, 3),
               "dur": round((end - start) * 1e6, 3), "pid": 1, "tid": 1,
               "args": {"id": span_id, "parent": parent, "run": run}}
              for span_id, name, start, end, parent, run in tracer.spans]
    totals = {name: {"count": count, "total_s": total, "self_s": own}
              for name, (count, total, own) in sorted(tracer.totals.items())}
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {**meta, "spans_dropped": tracer.dropped,
                          "totals": totals,
                          "counters": dict(sorted(tracer.counters.items()))}}
