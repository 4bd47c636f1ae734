"""Span-based causal tracing of event → task → machine chains.

A :class:`Span` is a named interval of *simulated* time with an
optional parent, forming the causal trees the paper's self-awareness
challenge (C2) asks operators to see: a task span opened at submission
parents the execution attempt spans the datacenter opens per placement,
which in turn sit next to the failure-burst and autoscaling instants
emitted around them.

Determinism contract: span ids come from a per-tracer monotonic
counter and every timestamp is read from the simulator's virtual
clock, so a fixed-seed simulation produces the identical span list —
ids, ordering, times, attributes — on every run.  Wall-clock time
never enters a span; that is the profiler's job
(:mod:`repro.observability.profiling`), kept separate precisely
because it cannot be deterministic.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

__all__ = ["Span", "Tracer"]


def _no_clock() -> float:
    raise RuntimeError(
        "tracer has no clock; attach the Observer to a Simulator "
        "(or call bind_clock) before tracing")


class Span:
    """One named interval of simulated time, with causal parentage."""

    __slots__ = ("span_id", "parent_id", "name", "category", "start",
                 "end", "attrs")

    def __init__(self, span_id: int, name: str, start: float,
                 category: str = "", parent_id: int | None = None,
                 attrs: dict[str, Any] | None = None) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.start = start
        self.end: float | None = None
        self.attrs: dict[str, Any] = attrs or {}

    @property
    def is_open(self) -> bool:
        """Whether the span has not been ended yet."""
        return self.end is None

    @property
    def duration(self) -> float:
        """Simulated-time length of the span (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        """JSON-able view of the span (attrs key-sorted for stable bytes)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "attrs": {k: self.attrs[k] for k in sorted(self.attrs)},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.is_open else f"end={self.end}"
        return f"<Span #{self.span_id} {self.name!r} start={self.start} {state}>"


class Tracer:
    """Creates, tracks, and exports spans against a virtual clock.

    The tracer is clock-agnostic until :meth:`bind_clock` is called
    (the :class:`~repro.observability.observer.Observer` does this on
    attach, binding the simulator's ``now``).  Spans may be addressed
    by an opaque ``key`` so that one subsystem can open a span and
    another can find or close it without sharing object references —
    the scheduler opens ``("task", id)`` and the datacenter parents its
    execution spans under whatever that key currently names.
    """

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = _no_clock if clock is None else clock
        self._next_id = 1
        #: All spans ever begun, in begin order (deterministic).
        self.spans: list[Span] = []
        self._by_key: dict[Hashable, Span] = {}

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Set the time source used for span begin/end stamps.

        Spans call ``clock()`` directly on every stamp, so a clock
        built from C callables (as the Observer binds) costs no Python
        frame.
        """
        self._clock = clock

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def begin(self, name: str, category: str = "",
              parent: Span | None = None, key: Hashable = None,
              attrs: dict[str, Any] | None = None) -> Span:
        """Open a span now; optionally register it under ``key``.

        Re-using a live key replaces the registration (the old span
        stays in the trace, merely unaddressed) — this is what makes
        retried tasks trace naturally as one span per attempt cycle.
        """
        span = Span(self._next_id, name, self._clock(), category=category,
                    parent_id=None if parent is None else parent.span_id,
                    attrs=attrs)
        self._next_id += 1
        self.spans.append(span)
        if key is not None:
            self._by_key[key] = span
        return span

    def end(self, span: Span, attrs: dict[str, Any] | None = None) -> Span:
        """Close ``span`` now, optionally merging final attributes."""
        if span.end is not None:
            raise RuntimeError(f"span #{span.span_id} {span.name!r} "
                               "already ended")
        span.end = self._clock()
        if attrs:
            span.attrs.update(attrs)
        return span

    def active(self, key: Hashable) -> Span | None:
        """The live span registered under ``key``, if any."""
        return self._by_key.get(key)

    def end_key(self, key: Hashable,
                attrs: dict[str, Any] | None = None) -> Span | None:
        """Close and deregister the span under ``key`` (no-op if absent)."""
        span = self._by_key.pop(key, None)
        if span is not None and span.end is None:
            self.end(span, attrs)
        return span

    def instant(self, name: str, category: str = "",
                parent: Span | None = None,
                attrs: dict[str, Any] | None = None) -> Span:
        """Record a zero-duration marker (failure burst, scale decision)."""
        span = self.begin(name, category=category, parent=parent, attrs=attrs)
        span.end = span.start
        return span

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def open_spans(self) -> list[Span]:
        """Spans begun but not yet ended, in begin order."""
        return [s for s in self.spans if s.end is None]

    def close_all(self) -> int:
        """End every open span at the current time; returns how many.

        Useful right before export when a simulation was stopped at a
        horizon with work still in flight.
        """
        pending = self.open_spans()
        for span in pending:
            self.end(span, attrs={"incomplete": True})
        self._by_key.clear()
        return len(pending)

    def to_json(self) -> list[dict[str, Any]]:
        """All spans as dicts, ordered by (start time, span id).

        Open spans are exported with ``end: null``; combined with
        :func:`repro.observability.export.dumps_deterministic` this
        yields byte-identical output for fixed-seed runs.
        """
        ordered = sorted(self.spans, key=lambda s: (s.start, s.span_id))
        return [span.to_dict() for span in ordered]

    def __len__(self) -> int:
        return len(self.spans)
