"""A simulated FaaS platform: the Function Management + Resource layers.

Implements the operational heart of Figure 5: function deployment,
instance lifecycle (cold start, warm pool, keep-alive expiry), routing
of invocations to instances, concurrency capacity drawn from the
Resource layer, and the fine-grained consumption billing the paper
highlights ("on-demand services billed at a very fine
resource-granularity", §6.5).  The pragmatic challenge the paper names
— "achieving good performance while isolating the operation of each
function across multiple tenants" — shows up here as the cold-start /
keep-alive trade-off the benchmarks sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..sim import Event, Monitor, Resource, Simulator

__all__ = ["FunctionSpec", "Invocation", "FaaSPlatform"]


@dataclass(frozen=True)
class FunctionSpec:
    """A deployed cloud function.

    Attributes:
        name: Function identifier.
        mean_runtime: Service time of one invocation, seconds.
        memory_gb: Memory reservation (billing unit is GB-seconds).
        cold_start: Extra latency to create a fresh instance.
        keep_alive: Idle time after which a warm instance is reclaimed.
    """

    name: str
    mean_runtime: float = 0.2
    memory_gb: float = 0.25
    cold_start: float = 0.5
    keep_alive: float = 60.0

    def __post_init__(self) -> None:
        if self.mean_runtime <= 0:
            raise ValueError("mean_runtime must be positive")
        if self.memory_gb <= 0:
            raise ValueError("memory_gb must be positive")
        if self.cold_start < 0:
            raise ValueError("cold_start must be non-negative")
        if self.keep_alive < 0:
            raise ValueError("keep_alive must be non-negative")


@dataclass
class Invocation:
    """Record of one function invocation."""

    function: str
    submit_time: float
    start_time: float = 0.0
    finish_time: float = 0.0
    cold: bool = False
    #: Served by a degraded fallback path (breaker open or deadline hit).
    fallback: bool = False
    #: The primary call exceeded its deadline and was cancelled.
    timed_out: bool = False
    result: Any = None

    @property
    def latency(self) -> float:
        """End-to-end invocation latency."""
        return self.finish_time - self.submit_time


class _WarmPool:
    """Warm instances of one function, newest-first reuse."""

    def __init__(self) -> None:
        # Each entry is the sim-time the instance went idle.
        self.idle_since: list[float] = []

    def take(self, now: float, keep_alive: float) -> bool:
        """Try to claim a still-alive warm instance."""
        self.reap(now, keep_alive)
        if self.idle_since:
            self.idle_since.pop()
            return True
        return False

    def put(self, now: float) -> None:
        self.idle_since.append(now)

    def reap(self, now: float, keep_alive: float) -> int:
        """Drop instances idle past the keep-alive; returns count dropped."""
        before = len(self.idle_since)
        self.idle_since = [t for t in self.idle_since
                           if now - t <= keep_alive]
        return before - len(self.idle_since)

    def __len__(self) -> int:
        return len(self.idle_since)


class FaaSPlatform:
    """The Function Management Layer over a fixed concurrency capacity.

    Args:
        sim: The simulator.
        concurrency: Maximum simultaneously running instances (the
            Resource layer's capacity).
        gb_second_price: Billing rate in dollars per GB-second.
        per_invocation_price: Flat per-request fee.
    """

    def __init__(self, sim: Simulator, concurrency: int = 100,
                 gb_second_price: float = 0.0000166667,
                 per_invocation_price: float = 0.0000002) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.sim = sim
        self.concurrency = Resource(sim, capacity=concurrency)
        self.gb_second_price = gb_second_price
        self.per_invocation_price = per_invocation_price
        self._functions: dict[str, FunctionSpec] = {}
        self._pools: dict[str, _WarmPool] = {}
        self.invocations: list[Invocation] = []
        self.latency = Monitor("faas.latency")
        self.billed_gb_seconds = 0.0
        self.billed_dollars = 0.0

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def deploy(self, spec: FunctionSpec) -> FunctionSpec:
        """Register a function; redeploying the same name replaces it."""
        self._functions[spec.name] = spec
        self._pools.setdefault(spec.name, _WarmPool())
        return spec

    def get_function(self, name: str) -> FunctionSpec:
        """Look up a deployed function."""
        if name not in self._functions:
            raise KeyError(f"function {name!r} is not deployed")
        return self._functions[name]

    @property
    def deployed_functions(self) -> list[str]:
        """Names of all deployed functions."""
        return sorted(self._functions)

    def warm_instances(self, name: str) -> int:
        """Currently warm (idle, not yet reaped) instances of a function."""
        spec = self.get_function(name)
        pool = self._pools[name]
        pool.reap(self.sim.now, spec.keep_alive)
        return len(pool)

    # ------------------------------------------------------------------
    # Invocation (routing + lifecycle)
    # ------------------------------------------------------------------
    def invoke(self, name: str, runtime: float | None = None) -> Event:
        """Invoke a function; the returned process yields the Invocation."""
        spec = self.get_function(name)
        record = Invocation(function=name, submit_time=self.sim.now)
        observer = self.sim.observer
        span = None
        if observer is not None:
            observer.metrics.counter("faas.invocations").inc()
            span = observer.tracer.begin("invoke " + name, category="faas",
                                         attrs={"function": name})
        return self.sim.process(self._invoke(spec, record, runtime, span),
                                name=f"faas-{name}")

    def _invoke(self, spec: FunctionSpec, record: Invocation,
                runtime: float | None, span=None):
        with self.concurrency.request() as slot:
            yield slot
            pool = self._pools[spec.name]
            warm = pool.take(self.sim.now, spec.keep_alive)
            record.cold = not warm
            if record.cold and spec.cold_start > 0:
                yield self.sim.timeout(spec.cold_start)
            record.start_time = self.sim.now
            service = spec.mean_runtime if runtime is None else runtime
            if service < 0:
                raise ValueError("runtime must be non-negative")
            yield self.sim.timeout(service)
            record.finish_time = self.sim.now
            pool.put(self.sim.now)
        self._bill(spec, record)
        self.invocations.append(record)
        self.latency.record(self.sim.now, record.latency)
        observer = self.sim.observer
        if observer is not None:
            if record.cold:
                observer.metrics.counter("faas.cold_starts").inc()
            observer.metrics.histogram("faas.latency").observe(record.latency)
            observer.metrics.counter("faas.billed_gb_seconds").inc(
                (record.finish_time - record.start_time) * spec.memory_gb)
            if span is not None:
                observer.tracer.end(span, attrs={"cold": record.cold})
        record.result = record
        return record

    def _bill(self, spec: FunctionSpec, record: Invocation) -> None:
        duration = record.finish_time - record.start_time
        gb_seconds = duration * spec.memory_gb
        self.billed_gb_seconds += gb_seconds
        self.billed_dollars += (gb_seconds * self.gb_second_price
                                + self.per_invocation_price)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def cold_start_fraction(self) -> float:
        """Fraction of completed invocations that paid a cold start."""
        if not self.invocations:
            return 0.0
        return sum(1 for i in self.invocations if i.cold) / len(self.invocations)

    def statistics(self) -> dict[str, float]:
        """Latency summary, cold-start fraction, and billing totals."""
        stats = self.latency.summary()
        return {
            "invocations": float(len(self.invocations)),
            "latency_mean": stats["mean"],
            "latency_p95": stats["p95"],
            "latency_p99": stats["p99"],
            "cold_start_fraction": self.cold_start_fraction(),
            "billed_gb_seconds": self.billed_gb_seconds,
            "billed_dollars": self.billed_dollars,
        }

