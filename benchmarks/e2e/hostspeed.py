"""Host-speed calibration of measured times.

The benchmark shares its host with other tenants, and their load slows
this process's CPU by up to ~70% for seconds at a time (CPU time grows
with wall time, so the slowdown is in the core itself, not in waiting).
A fixed pure-Python reference loop, which imports nothing from the
program under test, is timed between blocks of operations; every time
measured in a block is rescaled by :data:`REFERENCE_S` over the mean
of the reference times of that block.  The ratio of an operation to
the reference stays within a few percent while raw times swing by tens
of percent, so the benchmark reports host seconds *at reference
speed*: the time the operation takes on a host where the reference
loop takes exactly 5 ms (about this benchmark's quiet 2-CPU
development host).

A block's references are the loops just before and just after it, and,
when sampling is on, one every :data:`BLOCK_S` *during* it: a timer
signal runs the loop in between the operation's own bytecodes, so an
operation of several seconds is rescaled by the host's speed while it
ran, not by two 5 ms glimpses at its ends.  :meth:`HostSpeed.clock`
leaves the sampling pauses out of measured times.  Sampling suits
operations that compute in this process; an operation that waits for
another process (a service request) would keep being served during a
pause, so the service workloads do not sample.

The reference only speaks for the CPU it ran on.  A service request
hops between this process, the server and its pool worker; left free,
the operating system spreads them over CPUs the reference never saw,
and a tenant loading one of those stretched request latency by ~45%
after calibration.  :func:`pin_to_one_cpu` keeps the benchmark, and
every process it starts, on one CPU, where the same load moved the
calibrated latency by ~10%.
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import random
import signal
import statistics
from time import perf_counter
from typing import Callable

__all__ = ["REFERENCE_S", "BLOCK_S", "reference", "pin_to_one_cpu",
           "HostSpeed"]

#: Nominal duration of one :func:`reference` loop; the scale's unit.
REFERENCE_S = 0.005
#: Host seconds of operations between two reference measurements.
BLOCK_S = 0.2


def reference() -> str:
    """Fixed interpreter work: heap, dict, sort and JSON over 4,000 items."""
    rng = random.Random(7)
    heap: list[tuple[float, int]] = []
    table: dict[int, tuple[float, str]] = {}
    for i in range(4000):
        key = rng.random()
        heapq.heappush(heap, (key, i))
        table[i] = (key, str(i))
    ordered = []
    while heap:
        _, i = heapq.heappop(heap)
        ordered.append(table[i][1])
    return json.dumps(sorted(ordered))


def time_reference() -> float:
    """Host seconds one :func:`reference` loop takes right now.

    The cyclic garbage collector is paused meanwhile: a collection
    would charge the loop for the garbage operations left behind.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        reference()
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def pin_to_one_cpu() -> int | None:
    """Restrict this process (and its future children) to one CPU.

    Returns the CPU, or ``None`` where the platform cannot pin.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostSpeed:
    """Defers measured times until their block's references are in.

    Use as a context manager.  :meth:`defer` takes a callback that
    receives the block's scale (multiply host seconds by it); leaving
    the ``with`` block stops sampling and closes the last block.

    Args:
        sample: Also time the reference every :data:`BLOCK_S` while
            operations run (``SIGALRM``; main thread only).
    """

    def __init__(self, sample: bool = False) -> None:
        self.sample = sample
        #: Every reference time measured, host seconds.
        self.references: list[float] = []
        self._block: list[float] = []
        self._pending: list[Callable[[float], None]] = []
        self._paused = 0.0
        self._measuring = False
        self._previous_handler = None

    def __enter__(self) -> "HostSpeed":
        self._measure()
        self._opened = perf_counter()
        if self.sample:
            self._previous_handler = signal.signal(signal.SIGALRM,
                                                   self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, BLOCK_S, BLOCK_S)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous_handler)
        self.close()

    def clock(self) -> float:
        """Host seconds, less the time spent sampling the reference."""
        return perf_counter() - self._paused

    def _measure(self) -> float:
        self._measuring = True
        try:
            value = time_reference()
        finally:
            self._measuring = False
        self.references.append(value)
        self._block.append(value)
        return value

    def _on_timer(self, signum, frame) -> None:
        if self._measuring:
            # A loop timed around this one would read it as host slowness.
            return
        started = perf_counter()
        self._measure()
        self._paused += perf_counter() - started

    def defer(self, apply: Callable[[float], None]) -> None:
        """Queue ``apply(scale)``; closes the block once it is long enough."""
        self._pending.append(apply)
        if perf_counter() - self._opened >= BLOCK_S:
            self.close()

    def close(self) -> None:
        """Measure the reference and rescale the block's pending times."""
        after = self._measure()
        scale = REFERENCE_S / statistics.fmean(self._block)
        pending, self._pending = self._pending, []
        for apply in pending:
            apply(scale)
        self._block = [after]
        self._opened = perf_counter()
