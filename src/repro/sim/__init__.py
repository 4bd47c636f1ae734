"""Discrete-event simulation kernel (substrate S1).

A minimal, deterministic, SimPy-style kernel: a :class:`Simulator` with a
virtual clock, generator-based :class:`Process` coroutines, composite
events, counted resources, containers, stores, seeded random streams,
and measurement monitors.  Everything else in :mod:`repro` is built on
top of this module.
"""

from .engine import Process, Simulator
from .experiment import (
    ExperimentRecipe,
    ExperimentRecord,
    ReproductionReport,
    check_reproduction,
    run_experiment,
)
from .events import AllOf, AnyOf, Event, Interrupt, SimulationError, Timeout
from .monitor import Monitor, TimeWeightedMonitor, summarize
from .resources import Container, Request, Resource, Store
from .rng import RandomStreams, substream_seed
from .sharding import (
    CompletionAck,
    RemoteSubmit,
    ShardConfigError,
    ShardedScenarioRuntime,
    ShardHarness,
)

__all__ = [
    "Simulator",
    "Process",
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
    "Resource",
    "Request",
    "Container",
    "Store",
    "Monitor",
    "TimeWeightedMonitor",
    "summarize",
    "RandomStreams",
    "substream_seed",
    "ExperimentRecipe",
    "ExperimentRecord",
    "ReproductionReport",
    "run_experiment",
    "check_reproduction",
    "ShardConfigError",
    "ShardHarness",
    "ShardedScenarioRuntime",
    "RemoteSubmit",
    "CompletionAck",
]
