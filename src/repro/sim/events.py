"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic event-driven design used by datacenter
simulators such as OpenDC and CloudSim: a simulator owns a time-ordered
event queue, and *processes* (Python generators) advance by yielding
events they want to wait for.  Events are one-shot: they are *triggered*
exactly once, either successfully (carrying a value) or with a failure
(carrying an exception), after which all registered callbacks run at the
event's scheduled time.

Performance notes: events are the kernel's unit of allocation — a
million-task simulation creates tens of millions of them — so the
classes here are deliberately lean.  All event types use ``__slots__``
(no per-instance ``__dict__``), and the callback store is *lazy*: it
starts as a shared empty-tuple sentinel, holds a bare callable while
exactly one callback is registered (the overwhelmingly common case of a
single waiting process), and only becomes a real list for two or more
callbacks.  ``Event.callbacks`` is still ``None`` once the event has
been processed, which external code may rely on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Simulator

__all__ = [
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
]

#: Shared sentinel marking "triggered or pending, no callbacks yet".
#: Distinct from ``None``, which marks "already processed".
NO_CALLBACKS: tuple = ()


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (e.g. double trigger)."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`repro.sim.engine.Process.interrupt`.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event has three observable states: *pending* (created, not yet
    triggered), *triggered* (scheduled onto the event queue), and
    *processed* (its callbacks have run).  Use :meth:`succeed` or
    :meth:`fail` to trigger it.

    The ``callbacks`` attribute is ``None`` once processed; before that
    it is the sentinel ``NO_CALLBACKS``, a single bare callable, or a
    list of callables.  Use :meth:`add_callback` rather than touching
    it directly.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_ok",
                 "defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Any = NO_CALLBACKS
        self._value: Any = None
        self._exception: BaseException | None = None
        self._ok: bool | None = None
        #: Set by the simulator once a failure was delivered to a waiter,
        #: so unhandled failures can be reported at the end of the run.
        self.defused = False

    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled for processing."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event carries (or the exception if it failed)."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._exception if self._exception is not None else self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, carrying ``value``."""
        if self._ok is not None:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._enqueue(self, delay=0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed, carrying ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._ok is not None:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._exception = exception
        self.sim._enqueue(self, delay=0.0)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event is processed.

        If the event was already processed the callback runs immediately,
        which keeps late waiters correct.
        """
        cbs = self.callbacks
        if cbs is None:
            callback(self)
        elif cbs is NO_CALLBACKS:
            self.callbacks = callback
        elif type(cbs) is list:
            cbs.append(callback)
        else:
            self.callbacks = [cbs, callback]

    def _run_callbacks(self) -> None:
        """Deliver the event: run the stored callbacks and mark processed."""
        callbacks = self.callbacks
        self.callbacks = None
        if callbacks is not NO_CALLBACKS:
            if type(callbacks) is list:
                for callback in callbacks:
                    callback(self)
            else:
                callbacks(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically after ``delay`` sim-time units."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not delay >= 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        # Inlined Event.__init__ plus immediate triggering: timeouts are
        # the hot path of every process loop, so they skip the generic
        # succeed() machinery entirely.
        self.sim = sim
        self.callbacks = NO_CALLBACKS
        self._value = value
        self._exception = None
        self._ok = True
        self.defused = False
        self.delay = delay
        sim._enqueue(self, delay=delay)


class _Condition(Event):
    """Base class for composite events over a set of child events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("cannot mix events from different simulators")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event.add_callback(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {e: e.value for e in self.events if e.processed and e.ok}

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_Condition):
    """Triggers as soon as any child event triggers."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defused = True
            self.fail(event.value)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Triggers once all child events have triggered."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defused = True
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())
