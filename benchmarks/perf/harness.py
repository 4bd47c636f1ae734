"""Timing and determinism-digest utilities for the perf harness.

Wall-clock numbers are noisy and machine-dependent; the harness
therefore records three complementary kinds of evidence:

- **elapsed seconds** (best-of-N wall time) for local before/after
  comparisons on the same machine;
- **calibrated cost** — elapsed time divided by the duration of a
  fixed pure-Python calibration loop measured on the same host, which
  makes numbers roughly comparable across machines and CI runners;
- **determinism digests** — SHA-256 hashes of simulation outcomes
  (event-time traces, scheduler statistics, chaos reports, CSR
  arrays), which must match *exactly* across code changes that claim
  to preserve behavior.

A digest record's ``sha`` covers all of its fields.  Its *science*
sha (:func:`science_sha`) leaves out the :data:`KERNEL_FIELDS`, which
count the events the kernel spent rather than what the model computed:
a kernel change that posts fewer events for the same model moves
``sha`` and keeps the science sha.
"""

from __future__ import annotations

import hashlib
import json
import time
from array import array
from typing import Any, Callable, Sequence

__all__ = [
    "KERNEL_FIELDS",
    "best_of",
    "calibration_unit",
    "canonical_json",
    "digest",
    "digest_floats",
    "science_sha",
]

#: Record fields that count kernel events: how many the run processed,
#: and the length and SHA-256 of its event-time trace.
KERNEL_FIELDS = ("events_processed", "event_trace_len", "event_trace_sha")


def best_of(fn: Callable[[], Any], repeat: int = 3) -> tuple[float, Any]:
    """Run ``fn`` ``repeat`` times; return (best elapsed seconds, last result)."""
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    best = float("inf")
    result: Any = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result


def _calibration_workload() -> int:
    """A fixed mixed workload: attribute access, calls, list building."""

    class Cell:
        __slots__ = ("value",)

        def __init__(self, value: int) -> None:
            self.value = value

    cells = [Cell(i & 15) for i in range(512)]
    acc = 0
    out: list[int] = []
    append = out.append
    for _ in range(200):
        for cell in cells:
            value = cell.value
            if value & 1:
                acc += value
            else:
                append(value)
        del out[:]
    return acc


def calibration_unit(repeat: int = 5) -> float:
    """Seconds the host needs for the fixed calibration workload.

    Dividing a scenario's elapsed time by this unit yields a roughly
    machine-independent cost figure (the same trick pyperf uses for
    system calibration).
    """
    unit, _ = best_of(_calibration_workload, repeat=repeat)
    return unit


def canonical_json(obj: Any) -> str:
    """Deterministic JSON rendering (sorted keys, full float precision)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj: Any) -> str:
    """SHA-256 hex digest of an object's canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def digest_floats(values: Sequence[float]) -> str:
    """SHA-256 hex digest of a float sequence's exact binary image."""
    return hashlib.sha256(array("d", values).tobytes()).hexdigest()


def science_sha(record: dict) -> str:
    """SHA-256 of a digest record without ``sha`` and its kernel fields.

    Recomputed from the fields the record stores, so it works on any
    capture, including ones written before the split existed.  For a
    record with no kernel fields it equals the record's ``sha``.
    """
    return digest({key: value for key, value in record.items()
                   if key != "sha" and key not in KERNEL_FIELDS})
