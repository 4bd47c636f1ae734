"""Deterministic serialization of traces, metrics, and profiles.

Everything here is built for byte-identical output under fixed seeds
(the repository's determinism contract, see docs/PERFORMANCE.md):
:func:`dumps_deterministic` sorts keys and pins separators, and the
Chrome-trace conversion derives thread ids from sorted category names
rather than arrival order.  The resulting ``.json`` files load
directly into ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from .tracing import Tracer

__all__ = [
    "dumps_deterministic",
    "science_view",
    "science_digest",
    "chrome_trace",
    "write_chrome_trace",
    "write_trace_json",
]


def dumps_deterministic(obj: Any) -> str:
    """JSON-encode ``obj`` with stable key order and separators.

    Two structurally equal inputs always produce the same bytes, which
    is what the golden tests diff.  Non-finite floats are rejected —
    they have no portable JSON spelling.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def science_view(data: Any) -> Any:
    """``data`` without its kernel counts: what the model computed.

    The kernel counts say how many events the simulator spent on a
    run, not what the run computed, so a kernel that posts fewer events
    for the same model changes them and nothing else.  They are, at any
    depth of a result, sweep report or telemetry document:

    - every ``events_processed`` key (a result's total, and each shard
      result's under ``shards.by_shard``);
    - the ``events`` column of every per-subsystem profile bucket (a
      ``{"events", "sim_time"}`` object).

    Everything else stays, including each bucket's ``sim_time``: a
    callback that loses its profiler attribution moves it.
    """
    if isinstance(data, dict):
        if data.keys() == {"events", "sim_time"}:
            return {"sim_time": data["sim_time"]}
        return {key: science_view(value) for key, value in data.items()
                if key != "events_processed"}
    if isinstance(data, list):
        return [science_view(value) for value in data]
    return data


def science_digest(data: Any) -> str:
    """SHA-256 over the canonical JSON of :func:`science_view`."""
    return hashlib.sha256(dumps_deterministic(
        science_view(data)).encode("utf-8")).hexdigest()


def chrome_trace(tracer: Tracer, time_scale: float = 1e6) -> dict:
    """Convert a tracer's spans to the Chrome Trace Event format.

    Spans become complete (``"ph": "X"``) events, zero-duration spans
    become instant (``"ph": "i"``) events, and each span category is
    rendered as its own named thread row.  ``time_scale`` converts
    sim-seconds to trace microseconds; with the default, one simulated
    second reads as one millisecond-scale unit in the viewer's
    ``ms`` display.

    Open spans are exported with zero duration and an
    ``incomplete: true`` arg; call :meth:`Tracer.close_all` first if
    you prefer them stretched to the end of the run.
    """
    categories = sorted({span.category or "span" for span in tracer.spans})
    tids = {category: index + 1 for index, category in enumerate(categories)}
    events: list[dict] = [
        {"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
         "args": {"name": category}}
        for category, tid in sorted(tids.items())
    ]
    for span in sorted(tracer.spans, key=lambda s: (s.start, s.span_id)):
        category = span.category or "span"
        args = {key: span.attrs[key] for key in sorted(span.attrs)}
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        end = span.end
        if end is None:
            args["incomplete"] = True
            end = span.start
        record = {
            "name": span.name,
            "cat": category,
            "pid": 1,
            "tid": tids[category],
            "ts": span.start * time_scale,
            "args": args,
        }
        if end > span.start:
            record["ph"] = "X"
            record["dur"] = (end - span.start) * time_scale
        else:
            record["ph"] = "i"
            record["s"] = "t"
        events.append(record)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str,
                       time_scale: float = 1e6) -> None:
    """Write the Chrome trace of ``tracer`` to ``path`` (deterministic)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_deterministic(chrome_trace(tracer, time_scale)))


def write_trace_json(tracer: Tracer, path: str) -> None:
    """Write the raw span list of ``tracer`` to ``path`` (deterministic)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_deterministic(tracer.to_json()))
