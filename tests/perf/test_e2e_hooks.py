"""Every layer hook of the end-to-end benchmark still finds its method.

``benchmarks/e2e/tracer.py`` wraps program methods by name for the
traced pass.  A hook whose target was renamed or moved is skipped with
a warning, and its layer then reads zero in the per-layer metrics; this
test turns that into a failure.

The tracer counts kernel events (``sim.steps``) by wrapping
``Simulator.step``, and the subsystem profiler attributes events inside
it, so both rely on ``step`` delivering every event.  A second delivery
loop would silently zero the one and starve the other; the step-count
test below fails on it.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SPECS = REPO_ROOT / "examples" / "specs"

if str(REPO_ROOT) not in sys.path:  # make `benchmarks` importable
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.e2e.tracer import LAYER_HOOKS, Tracer, instrument  # noqa: E402
from repro.scenario import ScenarioSpec  # noqa: E402
from repro.sim import Simulator  # noqa: E402


def test_every_layer_hook_finds_its_method():
    assert LAYER_HOOKS
    with instrument(Tracer()) as missing:
        assert missing == []


@pytest.mark.parametrize("name, observed", [
    ("chaos_baseline.json", False),
    ("chaos_slo.json", True),
    ("planet_scale.json", False),
], ids=["plain", "observed", "sharded"])
def test_every_event_passes_through_step(monkeypatch, name, observed):
    steps = 0
    step = Simulator.step

    def counted(self):
        nonlocal steps
        steps += 1
        step(self)

    monkeypatch.setattr(Simulator, "step", counted)
    spec = dataclasses.replace(
        ScenarioSpec.from_json((SPECS / name).read_text()),
        observer=observed)
    result = spec.run()
    assert result.events_processed > 0
    assert steps == result.events_processed
    if observed:
        # The profiler attributes every event it was stepped through.
        assert sum(bucket["events"] for bucket
                   in result.profile["profile"].values()) == steps
