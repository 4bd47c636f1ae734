"""The Observer: one switch that turns the ecosystem's senses on.

Observability in this repository is **disabled by default and free
when disabled**: instrumented code paths (scheduler, datacenter,
failure injector, FaaS platform, autoscaler, chaos harness) read
``sim.observer`` and do nothing when it is ``None`` — a single
attribute load and identity check, and the simulator's hot event loop
does not even pay that (it dispatches once per ``run()`` call, not per
event).  Attaching an :class:`Observer` flips every instrumented site
on at once:

- ``observer.tracer`` collects causal :class:`~repro.observability.tracing.Span`
  trees over simulated time;
- ``observer.metrics`` is the shared
  :class:`~repro.observability.metrics.MetricsRegistry`;
- ``observer.profiler`` (optional) makes ``Simulator.step`` attribute
  per-subsystem cost, whoever drives the run.

Determinism: with a fixed seed, traces and metrics snapshots are
byte-identical across runs; the profiler's wall-clock figures are the
one deliberate exception and are quarantined in
:meth:`~repro.observability.profiling.SubsystemProfiler.wall_report`.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from .export import chrome_trace, dumps_deterministic
from .metrics import MetricsRegistry
from .profiling import SubsystemProfiler
from .tracing import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import Simulator

__all__ = ["Observer"]


class Observer:
    """Bundles tracer, metrics registry, and profiler for one simulation.

    Args:
        profiling: Collect per-subsystem cost attribution.  This is the
            only part of observability with per-event overhead, so it
            can be turned off while keeping traces and metrics.

    Usage::

        sim = Simulator()
        obs = Observer()
        obs.attach(sim)
        ... build and run the scenario ...
        print(obs.metrics.snapshot())
        obs.trace_chrome_json()   # feed to chrome://tracing
    """

    def __init__(self, profiling: bool = True) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.profiler: SubsystemProfiler | None = (
            SubsystemProfiler() if profiling else None)
        self.sim: Simulator | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, sim: "Simulator") -> "Observer":
        """Bind this observer to ``sim``; instrumentation lights up.

        A simulator holds at most one observer and an observer watches
        at most one simulator — fan-in/fan-out would break the
        deterministic span ordering.
        """
        if sim.observer is not None:
            raise RuntimeError(f"simulator already has observer "
                               f"{sim.observer!r}")
        if self.sim is not None:
            raise RuntimeError("observer is already attached; detach first")
        sim.observer = self
        self.sim = sim
        # The clock attribute read through C callables: a span stamp
        # then runs no Python frame (the ``now`` property costs one).
        self.tracer.bind_clock(partial(getattr, sim, "_now"))
        return self

    def detach(self) -> None:
        """Unbind from the simulator; collected data stays readable."""
        if self.sim is not None:
            self.sim.observer = None
            self.sim = None

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def trace_chrome_json(self) -> str:
        """The collected spans as a Chrome/Perfetto trace JSON string."""
        return dumps_deterministic(chrome_trace(self.tracer))

    def metrics_json(self) -> str:
        """The metrics snapshot as a deterministic JSON string."""
        return dumps_deterministic(self.metrics.snapshot())

    def snapshot(self) -> dict:
        """Deterministic combined view: metrics plus the profile.

        Only the profiler's deterministic columns are included; wall
        times must be fetched explicitly via
        ``observer.profiler.wall_report()`` so they cannot leak into
        golden comparisons by accident.
        """
        combined = {"metrics": self.metrics.snapshot()}
        if self.profiler is not None:
            combined["profile"] = self.profiler.report()
        return combined

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "attached" if self.sim is not None else "detached"
        return (f"<Observer {state}: {len(self.tracer)} spans, "
                f"{len(self.metrics)} metrics>")
