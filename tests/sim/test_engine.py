"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import Interrupt, SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start_time=100.0)
    assert sim.now == 100.0


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc(sim):
        yield sim.timeout(5.0)
        seen.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert seen == [5.0]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_timeout_carries_value():
    sim = Simulator()
    got = []

    def proc(sim):
        value = yield sim.timeout(1.0, value="payload")
        got.append(value)

    sim.process(proc(sim))
    sim.run()
    assert got == ["payload"]


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()

    def proc(sim):
        while True:
            yield sim.timeout(3.0)

    sim.process(proc(sim))
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_past_time_rejected():
    sim = Simulator(start_time=50.0)
    with pytest.raises(ValueError):
        sim.run(until=10.0)


def test_run_until_event_returns_its_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.0)
        return "done"

    process = sim.process(proc(sim))
    assert sim.run(until=process) == "done"
    assert sim.now == 2.0


def test_same_time_events_fifo_order():
    sim = Simulator()
    order = []

    def proc(sim, label):
        yield sim.timeout(1.0)
        order.append(label)

    for label in "abc":
        sim.process(proc(sim, label))
    sim.run()
    assert order == ["a", "b", "c"]


def test_process_waits_on_another_process():
    sim = Simulator()
    results = []

    def worker(sim):
        yield sim.timeout(4.0)
        return 42

    def waiter(sim, target):
        value = yield target
        results.append((sim.now, value))

    target = sim.process(worker(sim))
    sim.process(waiter(sim, target))
    sim.run()
    assert results == [(4.0, 42)]


def test_process_exception_propagates_to_waiter():
    sim = Simulator()
    caught = []

    def failing(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    def waiter(sim, target):
        try:
            yield target
        except RuntimeError as exc:
            caught.append(str(exc))

    target = sim.process(failing(sim))
    sim.process(waiter(sim, target))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_failure_surfaces():
    sim = Simulator()

    def failing(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("unhandled")

    sim.process(failing(sim))
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad(sim):
        yield 123

    process = sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run(until=process)


def test_interrupt_delivers_cause():
    sim = Simulator()
    causes = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as interrupt:
            causes.append((sim.now, interrupt.cause))

    def interrupter(sim, victim):
        yield sim.timeout(3.0)
        victim.interrupt(cause="preempted")

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert causes == [(3.0, "preempted")]


def test_interrupting_finished_process_is_error():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    process = sim.process(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        process.interrupt()


def test_any_of_triggers_on_first():
    sim = Simulator()
    times = []

    def proc(sim):
        t_fast = sim.timeout(1.0, value="fast")
        t_slow = sim.timeout(9.0, value="slow")
        result = yield sim.any_of([t_fast, t_slow])
        times.append((sim.now, list(result.values())))

    sim.process(proc(sim))
    sim.run()
    assert times == [(1.0, ["fast"])]


def test_all_of_waits_for_all():
    sim = Simulator()
    times = []

    def proc(sim):
        events = [sim.timeout(d) for d in (1.0, 5.0, 3.0)]
        yield sim.all_of(events)
        times.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert times == [5.0]


def test_all_of_empty_succeeds_immediately():
    sim = Simulator()
    done = []

    def proc(sim):
        yield sim.all_of([])
        done.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert done == [0.0]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_requires_exception():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_event_value_before_trigger_is_error():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_late_callback_runs_immediately():
    sim = Simulator()
    event = sim.event()
    event.succeed("x")
    sim.run()
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    assert seen == ["x"]


def test_step_without_events_is_error():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(7.0)
    assert sim.peek() == 7.0


def test_events_processed_counter():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        yield sim.timeout(1.0)

    sim.process(proc(sim))
    sim.run()
    assert sim.events_processed > 0


def test_run_until_event_that_never_fires():
    sim = Simulator()
    never = sim.event()
    with pytest.raises(SimulationError):
        sim.run(until=never)


def test_nested_process_chains():
    sim = Simulator()
    log = []

    def leaf(sim, n):
        yield sim.timeout(n)
        return n * 10

    def middle(sim):
        a = yield sim.process(leaf(sim, 1))
        b = yield sim.process(leaf(sim, 2))
        return a + b

    process = sim.process(middle(sim))
    assert sim.run(until=process) == 30
    assert sim.now == 3.0


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda sim: sim.run(until=NAN),
    lambda sim: sim.timeout(NAN),
    lambda sim: sim.every(NAN, lambda now: None),
    lambda sim: sim.inject(NAN, lambda event: None),
    lambda sim: sim.advance_until(NAN),
], ids=["run-until", "timeout", "every", "inject", "advance-until"])
def test_nan_times_are_rejected(call):
    sim = Simulator()

    def ticker(sim):
        for _ in range(5):
            yield sim.timeout(1.0)

    sim.process(ticker(sim))
    with pytest.raises(ValueError, match="nan") as excinfo:
        call(sim)
    assert "past" not in str(excinfo.value)
    # Nothing ran and nothing was queued: the clock stays a number.
    assert sim.now == 0.0
    sim.run()
    assert sim.now == 5.0


def test_failed_process_raises_on_every_run_until_it():
    sim = Simulator()

    def doomed(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    process = sim.process(doomed(sim))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run(until=process)
    # The process is already processed; waiting on it again must raise
    # its exception again, not hand the exception back as a value.
    with pytest.raises(RuntimeError, match="boom"):
        sim.run(until=process)


# ---------------------------------------------------------------------------
# Periodic ticks: every() and the daemon rule
# ---------------------------------------------------------------------------


def test_every_until_ticks_to_its_bound():
    sim = Simulator()
    ticks = []
    sim.every(2.0, ticks.append, until=7.0)
    sim.run()
    assert ticks == [2.0, 4.0, 6.0]
    assert sim.now == 6.0
    assert sim.peek() == float("inf")


def test_every_at_start_ticks_in_a_zero_delay_event():
    sim = Simulator()
    ticks = []
    sim.every(5.0, ticks.append, until=12.0, at_start=True)
    assert ticks == []
    sim.run()
    assert ticks == [0.0, 5.0, 10.0]


def test_stopped_ticker_ticks_no_more():
    sim = Simulator()
    ticks = []
    ticker = sim.every(1.0, ticks.append)
    sim.run(until=2.5)
    ticker.stop()
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0]


def test_run_ends_while_untimed_ticks_are_queued():
    sim = Simulator()
    ticks = []
    sim.every(5.0, ticks.append)

    def work(sim):
        yield sim.timeout(12.0)

    sim.process(work(sim))
    sim.run()
    # The work ended at t=12; the tick due at t=15 is a daemon and
    # stays queued instead of ticking on forever.
    assert ticks == [5.0, 10.0]
    assert sim.now == 12.0
    assert sim.peek() == 15.0
    assert sim.idle()


def test_run_until_delivers_untimed_ticks():
    sim = Simulator()
    ticks = []
    sim.every(5.0, ticks.append)
    sim.run(until=22.0)
    assert ticks == [5.0, 10.0, 15.0, 20.0]
    assert sim.now == 22.0
    # A bounded window delivers them too; an open-ended one does not.
    assert sim.advance_until(float("inf"), bound=25.0) == 1
    assert sim.advance_until(float("inf")) == 0
    assert ticks[-1] == 25.0


def test_deferred_tick_is_delivered_in_time_order_behind_later_work():
    sim = Simulator()
    seen = []
    sim.every(5.0, lambda now: seen.append(("tick", now)))
    sim.run()
    assert seen == [] and sim.now == 0.0
    # Work queued behind the deferred ticks gets them delivered first.
    sim.inject(12.0, lambda event: seen.append(("work", sim.now)))
    sim.run()
    assert seen == [("tick", 5.0), ("tick", 10.0), ("work", 12.0)]
    assert sim.now == 12.0


def test_keep_alive_delivers_ticks_while_it_holds():
    sim = Simulator()
    waiting = [True]
    ticks = []

    def tick(now):
        ticks.append(now)
        if now >= 15.0:
            waiting[0] = False

    sim.every(5.0, tick)
    sim.keep_alive.append(lambda: waiting[0])
    sim.run()
    assert ticks == [5.0, 10.0, 15.0]
    assert sim.now == 15.0
