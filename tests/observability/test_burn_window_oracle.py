"""The bisected burn window against the reverse scan it replaced.

``SLOEngine._burn`` finds a window's start sample by bisecting a ring
of tick times kept beside the sample ring.  The reference below is the
reverse scan over the samples, kept verbatim.  On hypothesis-generated
rings (regular, irregular and duplicate tick times, windows longer
than the ring, cutoffs within 1e-9 of a sample, and evicted samples)
both must choose the same sample and return the same burn float.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.slo import (AvailabilityObjective, SLOEngine,
                                     _ObjectiveState)


# ---------------------------------------------------------------------------
# The reference: a reverse scan from the newest sample (verbatim)
# ---------------------------------------------------------------------------
def _burn(state: _ObjectiveState, now: float, window: float,
          budget: float) -> float:
    """Error fraction over the trailing window, as a budget multiple."""
    cutoff = now - window
    then = state.samples[0]
    for sample in reversed(state.samples):
        if sample[0] <= cutoff + 1e-9:
            then = sample
            break
    _, good_then, bad_then = then
    _, good_now, bad_now = state.samples[-1]
    delta_bad = bad_now - bad_then
    delta_total = (good_now - good_then) + delta_bad
    if delta_total <= 0:
        return 0.0
    return (delta_bad / delta_total) / budget


def _window_start(state: _ObjectiveState, now: float,
                  window: float) -> tuple[float, float, float]:
    """The sample the reference scan chooses."""
    cutoff = now - window
    then = state.samples[0]
    for sample in reversed(state.samples):
        if sample[0] <= cutoff + 1e-9:
            then = sample
            break
    return then


_OBJECTIVE = AvailabilityObjective("x", good="g", bad="b", target=0.9)

#: Tick spacings: regular (5 s), duplicates (0), sub-epsilon steps,
#: and irregular gaps.
_STEPS = st.one_of(st.just(5.0), st.just(0.0),
                   st.sampled_from([5e-10, 1e-9, 2e-9]),
                   st.floats(0.0, 60.0, allow_nan=False))
_COUNTS = st.floats(0.0, 50.0, allow_nan=False)


@st.composite
def _rings(draw):
    maxlen = draw(st.integers(1, 12))
    steps = draw(st.lists(_STEPS, min_size=0, max_size=30))
    increments = draw(st.lists(st.tuples(_COUNTS, _COUNTS),
                               min_size=len(steps), max_size=len(steps)))
    time = draw(st.floats(0.0, 1000.0, allow_nan=False))
    good = bad = 0.0
    state = _ObjectiveState(_OBJECTIVE, maxlen, (time, good, bad))
    for step, (more_good, more_bad) in zip(steps, increments):
        time += step
        good += more_good
        bad += more_bad
        state.append((time, good, bad))
    return state


@st.composite
def _windows(draw, state: _ObjectiveState):
    now = state.samples[-1][0]
    if draw(st.booleans()):
        # A cutoff within a few 1e-9 of a sample time.
        anchor = draw(st.sampled_from(list(state.times)))
        nudge = draw(st.sampled_from(
            [-2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9]))
        return (now - anchor) + nudge
    # Anything up to far beyond what the ring holds.
    return draw(st.floats(1e-3, 5000.0, allow_nan=False))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_bisected_window_matches_the_reverse_scan(data):
    state = data.draw(_rings())
    assert len(state.samples) == len(state.times)
    assert list(state.times) == [sample[0] for sample in state.samples]
    now = state.samples[-1][0]
    budget = data.draw(st.floats(1e-3, 0.5, allow_nan=False))
    for _ in range(3):
        window = data.draw(_windows(state))
        assert state.since(now - window) == _window_start(state, now,
                                                          window)
        assert (SLOEngine._burn(state, now, window, budget)
                == _burn(state, now, window, budget))
