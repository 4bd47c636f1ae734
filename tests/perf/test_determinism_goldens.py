"""Bit-identical determinism regression tests.

Every hot-path optimization in this repository must preserve the
science exactly: same seeds, same scheduler statistics, same chaos
reports, same CSR arrays.  The goldens in ``goldens/determinism.json``
(see ``benchmarks/perf/run_benchmarks.py --capture-goldens``) pin
SHA-256 digests of each scenario at a small, test-friendly size.

Each record's science sha (``benchmarks.perf.harness.science_sha``)
leaves out its kernel fields: the events processed and the event-time
trace.  A kernel change that spends fewer events on the same model
changes those and keeps the science; re-capture the goldens with::

    PYTHONPATH=src python -m benchmarks.perf.run_benchmarks \
        --capture-goldens tests/perf/goldens/determinism.json

check that only kernel fields moved, and give the reason in
CHANGES.md.  A moved science sha means the model changed: explain or
fix it; never re-capture to paper over an *unintended* change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_PATH = Path(__file__).parent / "goldens" / "determinism.json"

if str(REPO_ROOT) not in sys.path:  # make `benchmarks` importable
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.perf import scenarios  # noqa: E402
from benchmarks.perf.harness import science_sha  # noqa: E402


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_schema(golden: dict) -> None:
    assert golden["schema"] == "determinism-goldens/v1"
    for name in ("scheduling", "event_core", "csr", "chaos", "alerts"):
        assert "sha" in golden[name], f"golden {name} lacks a digest"


def test_scheduling_trace_is_bit_identical(golden: dict) -> None:
    sizes = golden["sizes"]
    record = scenarios.digest_scheduling(sizes["sched_tasks"],
                                         sizes["sched_machines"])
    # The digest covers these too, but compare directly for a readable
    # failure before falling back to the opaque hashes.
    assert record["statistics"] == golden["scheduling"]["statistics"]
    assert record["makespan"] == golden["scheduling"]["makespan"]
    assert science_sha(record) == science_sha(golden["scheduling"]), (
        "scheduling science digest changed — an optimization altered "
        "what the scheduler computed")
    assert record["sha"] == golden["scheduling"]["sha"], (
        "scheduling event trace digest changed — the kernel spends "
        "other events on the same science")


def test_event_core_trace_is_bit_identical(golden: dict) -> None:
    sizes = golden["sizes"]
    record = scenarios.digest_event_core(sizes["event_count"])
    assert record["sha"] == golden["event_core"]["sha"], (
        "event-core trace digest changed — kernel event ordering moved")


def test_csr_arrays_are_bit_identical(golden: dict) -> None:
    sizes = golden["sizes"]
    record = scenarios.digest_csr(sizes["csr_vertices"],
                                  sizes["csr_degree"])
    assert record["sha"] == golden["csr"]["sha"], (
        "CSR indptr/indices/weights or PageRank digest changed — "
        "vectorized construction no longer reproduces the edge order")


def test_chaos_report_is_bit_identical(golden: dict) -> None:
    record = scenarios.digest_chaos()
    assert record["sha"] == golden["chaos"]["sha"], (
        "chaos experiment report digest changed — resilience event "
        "ordering moved")
    assert record["summary"] == golden["chaos"]["summary"]
    assert record["violations"] == golden["chaos"]["violations"]


def test_slo_alert_log_is_bit_identical(golden: dict) -> None:
    record = scenarios.digest_alerts()
    assert record["sha"] == golden["alerts"]["sha"], (
        "SLO report / alert-log digest changed — burn-rate evaluation "
        "or telemetry tick placement moved")
    assert record["alerts"] == golden["alerts"]["alerts"]
    assert record["slo_report"] == golden["alerts"]["slo_report"]
