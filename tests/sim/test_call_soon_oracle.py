"""``Simulator.call_soon`` against a kernel that always posts an event.

``call_soon(fn)`` runs ``fn`` in the same-time FIFO place a zero-delay
event posted now would take.  Inside a step, with nothing else due at
this instant, that place is the end of the step, and the call runs
there without an event of its own.  The reference below is a simulator
whose ``call_soon`` always posts the zero-delay event.  Seeded random
programs mix zero-delay events, timeouts whose delay rounds to ``now``
(``1.0 + 1e-300 == 1.0``), later timeouts, and ``call_soon`` from
callbacks, from tail calls and from outside a step (before ``run()``
and after ``run(until=t)``), with and without a profiler.  Both
kernels must log the same ``(now, label)`` sequence, also when a
callback or a tail call raises and the caller runs on; the fast kernel
spends one event fewer per call it ran from a step's tail, and the
profiler files a tail call's wall time under its owner without
counting an event.
"""

from __future__ import annotations

import random
from time import perf_counter

import pytest

from repro.observability import Observer
from repro.sim import Event, Simulator


class _Posting(Simulator):
    """The reference: every ``call_soon`` posts a zero-delay event."""

    def call_soon(self, fn):
        event = Event(self)
        event.add_callback(fn)
        event.succeed()


class _Boom(Exception):
    """Raised by a call the program marked to raise."""


class _Call:
    """One call of a program, named so profiles attribute it."""

    __slots__ = ("program", "name")

    def __init__(self, program: "_Program", name: str) -> None:
        self.program = program
        self.name = name

    def fire(self, event: Event | None = None) -> None:
        self.program.fired(self, event)


class _Program:
    """Calls that log themselves and post up to two follow-ups each.

    Every decision comes from one seeded stream, drawn in call order,
    so two kernels that run the calls in the same order run the same
    program.
    """

    def __init__(self, sim: Simulator, seed: int, budget: int = 150,
                 raising: frozenset[str] = frozenset()) -> None:
        self.sim = sim
        self.rng = random.Random(seed)
        self.budget = budget
        self.raising = raising
        self.log: list[tuple[float, str]] = []
        #: Calls that ran from a step's tail (with no event).
        self.from_tail: set[str] = set()
        self._made = 0

    def post(self) -> None:
        """Post one follow-up call, of a kind the stream picks."""
        sim = self.sim
        self._made += 1
        fire = _Call(self, f"c{self._made}").fire
        kind = self.rng.randrange(6)
        if kind <= 1:
            sim.call_soon(fire)
        elif kind == 2:
            event = sim.event()
            event.add_callback(fire)
            event.succeed()
        elif kind == 3:
            # Rounds to ``now`` once the clock is at 1.0 or later.
            sim.timeout(1e-300).add_callback(fire)
        elif kind == 4:
            sim.timeout(0.0).add_callback(fire)
        else:
            sim.timeout(self.rng.choice((0.25, 0.5, 1.0))).add_callback(fire)

    def fired(self, call: _Call, event: Event | None) -> None:
        self.log.append((self.sim.now, call.name))
        if event is None:
            self.from_tail.add(call.name)
        for _ in range(self.rng.randrange(3)):
            if self.budget <= 0:
                break
            self.budget -= 1
            self.post()
        if call.name in self.raising:
            raise _Boom(call.name)


def _run(sim_cls, seed: int, raising: frozenset[str] = frozenset(),
         profiled: bool = False):
    sim = sim_cls(start_time=1.0)
    if profiled:
        Observer().attach(sim)
    program = _Program(sim, seed, raising=raising)
    errors: list[tuple[float, str]] = []

    def run(until=None):
        while True:
            try:
                sim.run(until=until)
                return
            except _Boom as exc:
                errors.append((sim.now, str(exc)))

    for _ in range(3):  # outside a step, before run()
        program.post()
    run(until=2.0)
    for _ in range(3):  # outside a step, after run(until=t)
        program.post()
    run()
    if profiled:
        report = sim.observer.profiler.report()
        assert sum(entry["events"] for entry in report.values()) \
            == sim.events_processed
    return program, errors, sim.events_processed


@pytest.mark.parametrize("profiled", [False, True],
                         ids=["plain", "profiled"])
@pytest.mark.parametrize("seed", range(40))
def test_random_programs_match_the_reference(seed, profiled):
    fast, fast_errors, fast_events = _run(Simulator, seed,
                                          profiled=profiled)
    reference, ref_errors, ref_events = _run(_Posting, seed,
                                             profiled=profiled)
    assert fast.log == reference.log
    assert fast_errors == ref_errors == []
    assert not reference.from_tail
    # Each call run from a step's tail is an event the reference spent.
    assert fast_events + len(fast.from_tail) == ref_events


@pytest.mark.parametrize("profiled", [False, True],
                         ids=["plain", "profiled"])
@pytest.mark.parametrize("seed", range(40))
def test_raising_calls_leave_the_rest_in_place(seed, profiled):
    picks = random.Random(1000 + seed)
    raising = frozenset(f"c{picks.randrange(1, 60)}" for _ in range(4))
    fast, fast_errors, fast_events = _run(Simulator, seed, raising,
                                          profiled)
    reference, ref_errors, ref_events = _run(_Posting, seed, raising,
                                             profiled)
    assert fast.log == reference.log
    assert fast_errors == ref_errors
    # Neither kernel counts a step that raised, so a call that raised
    # from a tail is not an event the reference counted either.
    raised = {name for _, name in fast_errors}
    assert fast_events + len(fast.from_tail - raised) == ref_events


def test_the_programs_reach_every_path():
    tail_calls = raised_in_tail = 0
    for seed in range(40):
        picks = random.Random(1000 + seed)
        raising = frozenset(f"c{picks.randrange(1, 60)}" for _ in range(4))
        for chosen in (frozenset(), raising):
            program, errors, _ = _run(Simulator, seed, chosen)
            tail_calls += len(program.from_tail)
            raised_in_tail += sum(1 for _, name in errors
                                  if name in program.from_tail)
    assert tail_calls > 300
    assert raised_in_tail > 0


# ---------------------------------------------------------------------------
# Direct cases
# ---------------------------------------------------------------------------
class _Recorder:
    """Calls that append ``(now, label)`` to one log, and keep the
    event each was called with (``None`` from a step's tail)."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.log: list[tuple[float, str]] = []
        self.got: list[Event | None] = []

    def call(self, label: str):
        def record(event=None):
            self.got.append(event)
            self.log.append((self.sim.now, label))
        return record


@pytest.mark.parametrize("sim_cls", [Simulator, _Posting])
def test_a_callback_raising_after_call_soon(sim_cls):
    sim = sim_cls()
    rec = _Recorder(sim)

    def boom(_event):
        sim.call_soon(rec.call("soon"))
        sim.timeout(0.0).add_callback(rec.call("after"))
        raise RuntimeError("boom")

    sim.timeout(1.0).add_callback(boom)
    sim.timeout(2.0).add_callback(rec.call("later"))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    # The call did not run in the raising step; it waits in its place.
    assert rec.log == []
    assert sim.peek() == 1.0
    sim.run()
    assert rec.log == [(1.0, "soon"), (1.0, "after"), (2.0, "later")]
    # Queued again as an event, it is delivered as one on both kernels
    # (the step that raised is not counted).
    assert sim.events_processed == 3
    assert all(isinstance(event, Event) for event in rec.got)


@pytest.mark.parametrize("sim_cls", [Simulator, _Posting])
def test_a_tail_call_that_raises(sim_cls):
    sim = sim_cls()
    rec = _Recorder(sim)

    def raiser(_event=None):
        sim.timeout(0.0).add_callback(rec.call("posted by the raiser"))
        raise RuntimeError("tail")

    def first(_event):
        sim.call_soon(raiser)
        sim.call_soon(rec.call("second"))

    sim.timeout(1.0).add_callback(first)
    with pytest.raises(RuntimeError, match="tail"):
        sim.run()
    assert sim.now == 1.0
    assert rec.log == []
    sim.run()
    assert rec.log == [(1.0, "second"), (1.0, "posted by the raiser")]
    # The raiser ran from the first step's tail on the fast kernel, and
    # from an event whose step raised, so went uncounted, on the other.
    assert sim.events_processed == 3


@pytest.mark.parametrize("sim_cls", [Simulator, _Posting])
def test_call_soon_outside_a_step_posts_an_event(sim_cls):
    sim = sim_cls()
    rec = _Recorder(sim)
    sim.call_soon(rec.call("before run"))
    assert sim.peek() == 0.0
    sim.run(until=5.0)
    sim.call_soon(rec.call("after run(until=5)"))
    assert sim.peek() == 5.0
    sim.run()
    assert rec.log == [(0.0, "before run"), (5.0, "after run(until=5)")]
    assert sim.events_processed == 2
    assert all(isinstance(event, Event) for event in rec.got)


def test_a_call_due_behind_another_event_is_an_event():
    sim = Simulator()
    rec = _Recorder(sim)

    def poke(_event):
        sim.call_soon(rec.call("soon"))

    sim.timeout(1.0).add_callback(poke)
    sim.timeout(1.0).add_callback(rec.call("same instant"))
    sim.run()
    # "same instant" was queued first, so the call must wait behind it.
    assert rec.log == [(1.0, "same instant"), (1.0, "soon")]
    assert sim.events_processed == 3
    assert isinstance(rec.got[1], Event)


class _Busy:
    """A named owner whose call spends measurable wall time."""

    def __init__(self, name: str, seconds: float) -> None:
        self.name = name
        self.seconds = seconds
        self.calls = 0

    def run(self, _event=None) -> None:
        self.calls += 1
        end = perf_counter() + self.seconds
        while perf_counter() < end:
            pass


class _Arrivals:
    """Named poker: each arrival asks the scheduler for a call."""

    name = "arrivals"

    def __init__(self, sim: Simulator, target: _Busy) -> None:
        self.sim = sim
        self.target = target

    def arrive(self, _event) -> None:
        self.sim.call_soon(self.target.run)


def _profiled(sim_cls, arrivals: int = 5):
    sim = sim_cls()
    observer = Observer()
    observer.attach(sim)
    scheduler = _Busy("scheduler", 0.002)
    poker = _Arrivals(sim, scheduler)
    for i in range(arrivals):
        sim.timeout(float(i + 1)).add_callback(poker.arrive)
    sim.run()
    assert scheduler.calls == arrivals
    return (observer.profiler.report(), observer.profiler.wall_report(),
            sim.events_processed)


def test_a_profiled_tail_call_charges_its_owner_and_no_event():
    report, wall, events = _profiled(Simulator)
    ref_report, ref_wall, ref_events = _profiled(_Posting)
    # Five arrivals; the reference also delivers five wake-up events.
    assert (events, ref_events) == (5, 10)
    assert sum(entry["events"] for entry in report.values()) == events
    assert report["workload"] == ref_report["workload"]
    assert report["scheduling"] == {"events": 0.0, "sim_time": 0.0}
    assert ref_report["scheduling"] == {"events": 5.0, "sim_time": 0.0}
    assert wall["scheduling"] >= 5 * 0.002
    assert ref_wall["scheduling"] >= 5 * 0.002
