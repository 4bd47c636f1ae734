"""A shared-resource primitive built on the event kernel.

:class:`Resource` is a counted semaphore with FIFO queueing (machines,
servers, slots).  Waiters are served in FIFO order, which keeps
simulations deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from .events import Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Simulator

__all__ = ["Resource", "Request"]


class Request(Event):
    """A pending claim on a :class:`Resource`; succeeds when granted.

    Supports use as a context manager so the common pattern reads::

        with resource.request() as req:
            yield req
            yield sim.timeout(service_time)
    """

    __slots__ = ("resource", "_granted")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim)
        self.resource = resource
        self._granted = False

    def release(self) -> None:
        """Give the claimed unit back (idempotent)."""
        if self._granted:
            self._granted = False
            self.resource._release_one()
        else:
            self.resource._cancel(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


class Resource:
    """A counted, FIFO-queued resource with ``capacity`` units."""

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiting: deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Units currently granted."""
        return self._in_use

    @property
    def available(self) -> int:
        """Units currently free."""
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a unit."""
        return len(self._waiting)

    def request(self) -> Request:
        """Claim one unit; the returned event succeeds when granted."""
        req = Request(self)
        if self._in_use < self.capacity:
            self._grant(req)
        else:
            self._waiting.append(req)
        return req

    def _grant(self, req: Request) -> None:
        self._in_use += 1
        req._granted = True
        req.succeed(req)

    def _release_one(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release without a matching grant")
        self._in_use -= 1
        while self._waiting and self._in_use < self.capacity:
            self._grant(self._waiting.popleft())

    def _cancel(self, req: Request) -> None:
        try:
            self._waiting.remove(req)
        except ValueError:
            pass

