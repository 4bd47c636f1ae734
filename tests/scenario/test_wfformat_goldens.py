"""Golden-pinned WfFormat gallery replays, end to end through the CLI.

Every committed WfFormat instance must run via its compiled scenario
spec — ``python -m repro run <spec.json>`` — and reproduce the digest
pinned in ``goldens/wfformat.json``.  A mismatch means the importer's
compilation order, the data-transfer model, the ``data-local`` policy,
or the kernel's composition changed behaviorally; regenerate the
golden only for an intentional, called-out contract change.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.scenario import ScenarioSpec

GOLDEN_PATH = Path(__file__).parent / "goldens" / "wfformat.json"
SPEC_DIR = Path(__file__).resolve().parents[2] / "examples" / "specs"


@pytest.fixture(scope="module", name="golden")
def golden_fixture() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_compiled_gallery_spec(golden):
    on_disk = {p.name for p in SPEC_DIR.glob("*_scenario.json")}
    assert on_disk == set(golden["specs"])


@pytest.mark.parametrize("name", sorted(
    json.loads(GOLDEN_PATH.read_text())["specs"]))
def test_gallery_spec_digest_pinned(golden, name):
    pinned = golden["specs"][name]
    spec = ScenarioSpec.from_json((SPEC_DIR / name).read_text())
    assert spec.fingerprint() == pinned["fingerprint"]
    result = spec.run()
    assert result.science_digest() == pinned["science"]
    assert result.digest() == pinned["result"]
    assert result.tasks_finished == result.tasks_total == pinned["tasks"]


def test_montage_runs_end_to_end_via_the_cli(golden):
    pinned = golden["specs"]["montage_small_scenario.json"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["run", str(SPEC_DIR / "montage_small_scenario.json")])
    assert code == 0, err.getvalue()
    text = out.getvalue()
    assert f"digest: {pinned['result']}" in text
    assert f"fingerprint: {pinned['fingerprint']}" in text
    assert "datacenter_data_transfer_seconds" in text
