"""The discrete-event simulator and its process model.

A :class:`Simulator` owns the virtual clock and a priority queue of
triggered events.  A :class:`Process` wraps a Python generator; every
value the generator yields must be an :class:`~repro.sim.events.Event`,
and the process resumes when that event is processed.  This is the same
cooperative model used by SimPy and by datacenter simulators built on it.

Determinism: two events scheduled for the same time are processed in the
order they were scheduled (FIFO tie-breaking via a monotonically
increasing sequence number), so runs are exactly reproducible given the
same seed.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from time import perf_counter
from typing import Any, Callable, Generator, Iterable, Optional

from .events import (NO_CALLBACKS, AllOf, AnyOf, Event, Interrupt,
                     SimulationError, Timeout)

__all__ = ["Simulator", "Process", "Ticker"]

#: Type alias for the generators that drive processes.
ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running process; also an event that triggers when the process ends.

    The wrapped generator yields events; the process is resumed with the
    event's value (or the event's exception is thrown into it).  When the
    generator returns, the process event succeeds with the return value;
    when it raises, the process event fails with the exception.
    """

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: str | None = None) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(f"{generator!r} is not a generator")
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Event | None = None
        # Kick the process off via an immediately-succeeding event.
        starter = Event(sim)
        starter.add_callback(self._resume)
        starter.succeed()

    @property
    def is_alive(self) -> bool:
        """Whether the process has not yet finished."""
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process twice before it resumes queues both interrupts.
        """
        if not self.is_alive:
            raise SimulationError(f"{self.name} has already finished")
        event = Event(self.sim)
        event._ok = False
        event._exception = Interrupt(cause)
        event.defused = True
        event.add_callback(self._resume)
        self.sim._enqueue(event, delay=0.0)

    def _resume(self, event: Event) -> None:
        self.sim._active_process = self
        try:
            if event.ok:
                next_event = self._generator.send(event.value)
            else:
                event.defused = True
                next_event = self._generator.throw(event.value)
        except StopIteration as stop:
            self._finish_ok(stop.value)
            return
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self._finish_fail(exc)
            return
        finally:
            self.sim._active_process = None

        if not isinstance(next_event, Event):
            error = SimulationError(
                f"process {self.name!r} yielded {next_event!r}, "
                "which is not an Event")
            self._generator.close()
            self._finish_fail(error)
            return
        self._target = next_event
        next_event.add_callback(self._resume)

    def _finish_ok(self, value: Any) -> None:
        self._target = None
        if self._ok is None:
            self.succeed(value)

    def _finish_fail(self, exc: BaseException) -> None:
        self._target = None
        if self._ok is None:
            self.fail(exc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} alive={self.is_alive}>"


class Ticker:
    """The periodic tick :meth:`Simulator.every` returns.

    Its start event takes the FIFO place of a started process's first
    step.  Each tick's callback is bound to this object, so profiles
    attribute the ticks by :attr:`name`.
    """

    __slots__ = ("sim", "interval", "fn", "until", "name", "stopped",
                 "_due")

    def __init__(self, sim: "Simulator", interval: float, fn: Any,
                 until: float | None, name: str, at_start: bool) -> None:
        self.sim = sim
        self.interval = interval
        self.fn = fn
        self.until = until
        self.name = name
        self.stopped = False
        self._due = at_start  # whether the next delivery runs ``fn``
        self._post(0.0)

    def _post(self, delay: float) -> None:
        sim = self.sim
        if self.until is None:
            sim._daemons += 1
        elif sim.now + delay > self.until + 1e-9:
            return
        Timeout(sim, delay).add_callback(self._fire)

    def _fire(self, _timeout: Timeout) -> None:
        if self.until is None:
            self.sim._daemons -= 1
        if self._due and not self.stopped:
            self.fn(self.sim.now)
        self._due = True
        if not self.stopped:
            self._post(self.interval)

    def stop(self) -> None:
        """End the ticks; a tick already queued is delivered as a no-op."""
        self.stopped = True


class Simulator:
    """A deterministic discrete-event simulator.

    Events are delivered one per :meth:`step`, in ``(time, sequence)``
    order.  :meth:`call_soon` runs a function in the same-time FIFO
    place a zero-delay event posted now would take; inside a step,
    with nothing else due at this instant, that place is the end of
    the step, and the call runs there without an event of its own.

    Typical usage::

        sim = Simulator()

        def producer(sim):
            for i in range(3):
                yield sim.timeout(1.0)

        sim.process(producer(sim))
        sim.run()
    """

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current simulated time.  A plain attribute, so a read runs no
        #: Python frame; only the kernel writes it (:meth:`step` and
        #: :meth:`run` with a time bound).
        self.now = float(start_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = 0
        #: Set while :meth:`step` delivers; :meth:`call_soon` reads it.
        self._stepping = False
        #: ``(sequence, fn)`` calls the current step runs at its end.
        self._tail: deque[tuple[int, Callable[[Any], Any]]] = deque()
        self._active_process: Process | None = None
        #: Queued daemon ticks (those of :meth:`every` with no ``until``).
        self._daemons = 0
        #: Predicates that hold an open-ended run open while only daemon
        #: ticks are queued (a controller's: work waits for its tick).
        self.keep_alive: list[Callable[[], bool]] = []
        #: Count of events processed so far; useful for budget guards.
        self.events_processed = 0
        #: Optional :class:`~repro.observability.observer.Observer`.
        #: ``None`` (the default) keeps every instrumented code path —
        #: including :meth:`step`, which checks it for a profiler once
        #: per event — at its uninstrumented cost.
        self.observer: Any = None

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # ------------------------------------------------------------------
    # Event construction helpers
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator,
                name: str | None = None) -> Process:
        """Start a new process driven by ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when any of ``events`` does."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when all of ``events`` have."""
        return AllOf(self, events)

    def every(self, interval: float, fn: Callable[[float], Any],
              until: float | None = None, name: str = "tick",
              at_start: bool = False) -> Ticker:
        """Run ``fn(now)`` at ``now + k * interval`` for ``k = 1, 2, ...``.

        The one periodic primitive (controllers, streaming telemetry,
        samplers).  ``fn`` runs synchronously inside the tick event, so
        it may read state and schedule work but cannot itself consume
        simulated time.  ``at_start`` adds the tick at ``k = 0``.  No
        tick is scheduled past ``until``; without it the ticks are
        daemons, which an open-ended run does not wait for (see
        :meth:`idle`).  Returns the :class:`Ticker`; ``stop()`` ends it.
        """
        if not interval > 0:
            raise ValueError(f"interval must be positive, got {interval}")
        return Ticker(self, interval, fn, until, name, at_start)

    # ------------------------------------------------------------------
    # Scheduling and the main loop
    # ------------------------------------------------------------------
    def _enqueue(self, event: Event, delay: float) -> None:
        heapq.heappush(self._queue, (self.now + delay, self._sequence, event))
        self._sequence += 1

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def next_work(self) -> float:
        """:meth:`peek` for an open-ended run: ``inf`` once :meth:`idle`."""
        if self._daemons and self.idle():
            return float("inf")
        return self._queue[0][0] if self._queue else float("inf")

    def idle(self) -> bool:
        """Whether only daemon ticks are queued and no :attr:`keep_alive`
        predicate holds: where an open-ended run ends.  The ticks stay
        queued, so an event posted later gets them delivered first."""
        return (len(self._queue) <= self._daemons
                and not any(alive() for alive in self.keep_alive))

    def step(self) -> None:
        """Deliver exactly one event, then the calls it left for now.

        The event's callbacks run, then its unhandled-failure check,
        then every :meth:`call_soon` call queued for the end of this
        step, in order (a tail call may queue another).  Tail calls
        are not events: :attr:`events_processed` and the profiler's
        event counts leave them out.  If anything in the step raises,
        the tail calls that have not run are queued as zero-delay
        events in the places they reserved before the exception
        leaves, so a caller that steps on sees them where they were
        due.  Steps do not nest: a callback must not call ``step()``
        on its own simulator.
        """
        queue = self._queue
        if not queue:
            raise SimulationError("no scheduled events")
        observer = self.observer
        profiler = None if observer is None else observer.profiler
        self._stepping = True
        try:
            if profiler is None:
                self.now, _, event = heapq.heappop(queue)
                event._run_callbacks()
            else:
                event = self._step_profiled(profiler)
            self.events_processed += 1
            if event._ok is False and not event.defused:
                # A failure nobody waited for must not pass silently.
                raise event._exception  # type: ignore[misc]
            tail = self._tail
            while tail:
                fn = tail.popleft()[1]
                if profiler is None:
                    fn(None)
                else:
                    self._call_profiled(profiler, fn)
        except BaseException:
            self._requeue_tail()
            raise
        finally:
            self._stepping = False

    def call_soon(self, fn: Callable[[Event | None], Any]) -> None:
        """Run ``fn`` now, in the FIFO place of a zero-delay event.

        Inside a step, with no other event due at this instant, that
        place is the end of the step: ``fn(None)`` runs there, with no
        kernel event of its own.  Otherwise a zero-delay event posted
        now delivers it, and ``fn`` gets that event.  Either way no
        event moves in time or order.  ``fn`` should be a bound method
        of an object with a ``name``, so profiles attribute it.
        """
        queue = self._queue
        if self._stepping and (not queue or queue[0][0] > self.now):
            self._tail.append((self._sequence, fn))
            self._sequence += 1
        else:
            event = Event(self)
            event.callbacks = fn
            event.succeed()

    def _requeue_tail(self) -> None:
        """Queue the tail calls left behind by a raising step as
        zero-delay events, each at the sequence number it reserved."""
        tail = self._tail
        while tail:
            sequence, fn = tail.popleft()
            event = Event(self)
            event.callbacks = fn
            event._ok = True
            heapq.heappush(self._queue, (self.now, sequence, event))

    def _call_profiled(self, profiler, fn: Callable[[Any], Any]) -> None:
        """Run one tail call, charging its wall time to its owner.

        The bucket is found as :meth:`_step_profiled` finds a
        callback's; a tail call adds no event and no simulated time.
        """
        owner = getattr(fn, "__self__", None)
        label = getattr(owner, "name", None) or ""
        bucket = profiler.label_buckets.get(label)
        if bucket is None:
            bucket = profiler.bucket(label)
        started = perf_counter()
        fn(None)
        bucket.wall_time += perf_counter() - started

    def _step_profiled(self, profiler) -> Event:
        """Pop and deliver one event, attributing its cost per subsystem.

        The virtual-time advance is charged to the subsystem of the
        event that moved the clock; each callback's wall time is
        charged to the subsystem named by the callback's owner (the
        process it resumes, or the object it is a bound method of,
        such as the task execution it advances),
        falling back to the event's own name, then to the kernel.
        Each label resolves to its subsystem's bucket through the
        profiler's label map, and the bucket is updated in place.
        """
        previous = self.now
        self.now, _, event = heapq.heappop(self._queue)
        sim_dt = self.now - previous
        event_label = getattr(event, "name", "") or ""
        callbacks = event.callbacks
        event.callbacks = None
        label_buckets = profiler.label_buckets
        primary = None
        if callbacks is not NO_CALLBACKS:
            if type(callbacks) is not list:
                callbacks = (callbacks,)
            for callback in callbacks:
                owner = getattr(callback, "__self__", None)
                label = getattr(owner, "name", None) or event_label
                bucket = label_buckets.get(label)
                if bucket is None:
                    bucket = profiler.bucket(label)
                if primary is None:
                    primary = bucket
                started = perf_counter()
                callback(event)
                bucket.wall_time += perf_counter() - started
        if primary is None:
            primary = profiler.bucket(event_label)
        primary.events += 1
        primary.sim_time += sim_dt
        return event

    def advance_until(self, stop: float, bound: float | None = None,
                      before_step: Any = None) -> int:
        """Process events strictly before ``stop``: the kernel's run loop.

        Every way of advancing time goes through here — :meth:`run`,
        a scenario's drive, and each shard's epoch window.  Every event
        with time in ``[now, stop)`` — and, when ``bound`` is given, at
        most ``bound`` — is processed via :meth:`step`, so observer and
        profiler semantics are the same whoever drives.  The strict
        upper edge is what makes epoch windows composable: a message
        delivered *at* ``stop`` belongs to the next window on every
        shard, regardless of how the windows were cut.

        Args:
            stop: Exclusive upper edge of the window (``inf`` runs to
                exhaustion).
            bound: Optional inclusive cap (a scenario's ``duration``);
                events past it stay queued.  Without it the window is
                open-ended: it also ends once the simulator is
                :meth:`idle`.
            before_step: Optional ``fn(event_time)`` called before each
                step — the seam external telemetry drivers (streaming
                SLO pipelines) use to advance with the clock.

        Returns:
            The number of events processed.
        """
        if stop != stop or bound != bound:
            raise ValueError(
                f"cannot advance to stop={stop}, bound={bound}: "
                f"NaN is not a time")
        open_ended = bound is None
        if not open_ended and bound < stop:
            # ``when > bound`` is ``when >= nextafter(bound)``: one edge.
            stop = math.nextafter(bound, math.inf)
        queue = self._queue
        processed = 0
        while queue:
            when = queue[0][0]
            if when >= stop:
                break
            if self._daemons and open_ended and self.idle():
                break
            if before_step is not None:
                before_step(when)
            self.step()
            processed += 1
        return processed

    def inject(self, when: float, fn: Any) -> Timeout:
        """Schedule ``fn(event)`` at absolute time ``when``.

        The cross-shard injection seam: a coupling layer delivers a
        message generated on another shard by scheduling a callback at
        the message's deliver time.  Injection uses the ordinary event
        queue (a :class:`Timeout` relative to ``now``), so injected
        deliveries interleave with local events under the same FIFO
        tie-breaking rule that makes runs reproducible.

        Args:
            when: Absolute simulated time of delivery; must not lie in
                the past.
            fn: Callback invoked with the delivery event.

        Returns:
            The scheduled delivery event.
        """
        delay = when - self.now
        if not delay >= 0:
            raise ValueError(
                f"cannot inject at {when} (now={self.now}); conservative "
                f"coupling must deliver messages in the future")
        timeout = self.timeout(delay)
        timeout.add_callback(fn)
        return timeout

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, until a time, or until an event.

        ``until`` may be ``None`` (run until the queue drains or the
        simulator is :meth:`idle`), a number (run up to and including
        that time, daemon ticks included, then set the clock to it), or
        an :class:`Event` (run until it is processed, returning its
        value or raising its exception).  Time-bounded runs go through
        :meth:`advance_until`; every event is delivered by :meth:`step`.

        ``run(until=event)`` waits through daemon ticks, because a
        tick's callback may be what triggers the event.  So with an
        untimed :meth:`every` ticker queued and an event that never
        triggers, it never returns: ``sim.every(1.0, f);
        sim.run(until=sim.event())`` spins forever.  When the event may
        not come, bound the wait by time instead (``run(until=t)``,
        then check ``event.processed``).
        """
        stop_time = None
        if until is not None and not isinstance(until, Event):
            stop_time = float(until)
            if not stop_time >= self.now:
                raise ValueError(
                    f"until={until!r} is not a time at or after now "
                    f"({self.now})")
        observer = self.observer
        profiler = observer.profiler if observer is not None else None
        started = perf_counter()
        try:
            if isinstance(until, Event):
                while not until.processed:
                    if not self._queue:
                        raise SimulationError(
                            "simulation ran out of events before the "
                            f"awaited event {until!r} triggered")
                    self.step()
                if not until.ok:
                    raise until.value
                return until.value
            self.advance_until(float("inf"), bound=stop_time)
            if stop_time is not None and stop_time != float("inf"):
                self.now = stop_time
            return None
        finally:
            if profiler is not None:
                profiler.record_run_wall(perf_counter() - started)
