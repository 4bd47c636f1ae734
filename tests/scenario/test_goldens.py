"""Golden-pinned scenario digests: the kernel's determinism contract.

The committed golden (``goldens/scenario.json``) pins spec
fingerprints, single-run result digests, and a 2x2 sweep-report digest,
each beside its science digest (the same bytes without the kernel's
event counts).  ``goldens/science.json`` pins the science digests of the
gallery specs at three seeds, with and without an observer.

A moved science digest means the model computed something else: the
kernel's composition order, a builder's RNG draw order, same-time event
order leaking into the model, or the canonical serialization changed.
That is a breaking change to the reproducibility contract; explain or
fix it, never re-capture it to make a check pass.  A combined digest
whose science digest holds changed only in kernel counts, and is
re-captured with its reason.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.scenario import ScenarioSpec, sweep

from .conftest import full_spec, small_spec

GOLDEN_PATH = Path(__file__).parent / "goldens" / "scenario.json"
SCIENCE_PATH = Path(__file__).parent / "goldens" / "science.json"
SPEC_DIR = Path(__file__).resolve().parents[2] / "examples" / "specs"


@pytest.fixture(scope="module", name="golden")
def golden_fixture() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_schema(golden):
    assert golden["schema"] == "scenario-goldens/v1"
    assert set(golden) >= {"full", "small", "sweep",
                           "chaos_baseline_spec"}


def _assert_pinned(spec, pinned):
    assert spec.fingerprint() == pinned["fingerprint"]
    result = spec.run()
    assert result.science_digest() == pinned["science"]
    assert result.digest() == pinned["result"]


def test_full_spec_digest_pinned(golden):
    _assert_pinned(full_spec(), golden["full"])


def test_small_spec_digest_pinned(golden):
    _assert_pinned(small_spec(), golden["small"])


def test_sweep_digest_pinned_serial_and_parallel(golden):
    grid = golden["sweep"]["grid"]
    serial = sweep(small_spec(), workers=1, **grid)
    assert serial.science_digest() == golden["sweep"]["science"]
    assert serial.digest() == golden["sweep"]["digest"]
    parallel = sweep(small_spec(), workers=2, **grid)
    assert parallel.digest() == golden["sweep"]["digest"]


def test_committed_spec_file_digest_pinned(golden):
    spec = ScenarioSpec.from_json(
        (SPEC_DIR / "chaos_baseline.json").read_text())
    _assert_pinned(spec, golden["chaos_baseline_spec"])


def _science_cases():
    pinned = json.loads(SCIENCE_PATH.read_text())
    return [pytest.param(name, label, digest, id=f"{name}-{label}")
            for name, runs in sorted(pinned["specs"].items())
            for label, digest in sorted(runs.items())]


@pytest.mark.parametrize("name, label, pinned", _science_cases())
def test_gallery_science_digest_pinned(name, label, pinned):
    seed, mode = label.split("-")
    spec = dataclasses.replace(
        ScenarioSpec.from_json((SPEC_DIR / name).read_text()),
        seed=int(seed), observer=mode == "observed")
    assert spec.run().science_digest() == pinned


def test_science_golden_covers_every_gallery_scenario():
    pinned = json.loads(SCIENCE_PATH.read_text())
    scenarios = {path.name for path in SPEC_DIR.glob("*.json")
                 if not path.name.endswith(".wfformat.json")}
    assert set(pinned["specs"]) == scenarios
    labels = {f"{seed}-{mode}" for seed in pinned["seeds"]
              for mode in ("plain", "observed")}
    assert all(set(runs) == labels for runs in pinned["specs"].values())
