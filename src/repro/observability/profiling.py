"""Per-subsystem cost attribution for simulation runs.

The question an operator asks after a slow run is "*where* did the
time go?" — and in a discrete-event simulation that question has two
distinct answers:

- **simulated time**: which subsystem's events moved the virtual clock
  (a property of the modelled scenario, fully deterministic);
- **wall time**: which subsystem's callbacks cost real CPU when the
  kernel delivered its events (a property of the implementation,
  inherently non-deterministic).

The :class:`SubsystemProfiler` collects both, attributed per event by
classifying the name of the callback's owner (a process, a task
execution, or another named driver such as the ``arrivals`` process)
against prefix rules ("exec-" is the datacenter, "faas-" the
serverless platform, ...).  The simulator only pays for any of
this while an :class:`~repro.observability.observer.Observer` with
profiling enabled is attached: :meth:`repro.sim.Simulator.step` then
attributes each event it delivers, so the profile is the same whoever
drives the run.

:meth:`SubsystemProfiler.report` deliberately returns only the
deterministic columns (event counts and simulated time) so it can sit
inside byte-identical golden files; wall-clock readings live behind
the separate :meth:`SubsystemProfiler.wall_report`.
"""

from __future__ import annotations

__all__ = ["SubsystemProfiler", "DEFAULT_RULES", "LABEL_CACHE_SIZE"]

#: Prefix → subsystem classification of process names, checked in
#: order.  Unmatched non-empty names fall into ``"other"``; events with
#: no owning process are the kernel's own.
DEFAULT_RULES: tuple[tuple[str, str], ...] = (
    ("exec-", "datacenter"),
    ("scheduler", "scheduling"),
    ("hedge-watch", "scheduling"),
    ("workflow", "scheduling"),
    ("provisioner", "scheduling"),
    ("faas-", "faas"),
    ("guarded-", "faas"),
    ("autoscaler", "autoscaling"),
    ("failure-injector", "resilience"),
    ("repair@", "resilience"),
    ("arrivals", "workload"),
    ("feeder", "workload"),
)

#: Most callback labels a profiler keeps resolved to their bucket.
#: Labels carry task names (``exec-<task>``, ``hedge-watch-<task>``),
#: so the map starts over when full instead of growing with the run.
LABEL_CACHE_SIZE = 1024


class _Bucket:
    """Accumulated cost of one subsystem.

    :meth:`repro.sim.Simulator.step` adds to these fields in place.
    """

    __slots__ = ("events", "sim_time", "wall_time")

    def __init__(self) -> None:
        self.events = 0
        self.sim_time = 0.0
        self.wall_time = 0.0


class SubsystemProfiler:
    """Attributes event counts, simulated time, and wall time.

    Args:
        rules: ``(prefix, subsystem)`` pairs tried in order against
            process names; extend or replace to teach the profiler
            about custom process naming schemes.
    """

    def __init__(self, rules: tuple[tuple[str, str], ...] = DEFAULT_RULES
                 ) -> None:
        self.rules = tuple(rules)
        self._buckets: dict[str, _Bucket] = {}
        #: Total wall-clock seconds spent inside ``Simulator.run``
        #: calls made while this profiler was attached (includes
        #: kernel overhead the per-callback timers cannot see).
        self.run_wall_time = 0.0
        #: Callback label -> its subsystem's bucket, so a profiled
        #: step classifies a label once; at most
        #: :data:`LABEL_CACHE_SIZE` entries.
        self.label_buckets: dict[str, _Bucket] = {}

    def classify(self, name: str) -> str:
        """Map a process name to its subsystem label."""
        if not name:
            return "kernel"
        for prefix, subsystem in self.rules:
            if name.startswith(prefix):
                return subsystem
        return "other"

    def bucket(self, label: str) -> _Bucket:
        """The bucket of ``label``'s subsystem, via :attr:`label_buckets`."""
        bucket = self.label_buckets.get(label)
        if bucket is None:
            bucket = self._bucket(self.classify(label))
            if len(self.label_buckets) >= LABEL_CACHE_SIZE:
                self.label_buckets.clear()
            self.label_buckets[label] = bucket
        return bucket

    def _bucket(self, subsystem: str) -> _Bucket:
        bucket = self._buckets.get(subsystem)
        if bucket is None:
            bucket = self._buckets[subsystem] = _Bucket()
        return bucket

    def record(self, subsystem: str, sim_dt: float = 0.0,
               wall_dt: float = 0.0, events: int = 0) -> None:
        """Add one attribution sample to ``subsystem``'s bucket."""
        bucket = self._bucket(subsystem)
        bucket.events += events
        bucket.sim_time += sim_dt
        bucket.wall_time += wall_dt

    def record_run_wall(self, seconds: float) -> None:
        """Account one profiled ``run()`` call's total wall time."""
        self.run_wall_time += seconds

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def subsystems(self) -> list[str]:
        """All subsystem labels seen so far, sorted."""
        return sorted(self._buckets)

    def report(self) -> dict[str, dict[str, float]]:
        """Deterministic profile: per-subsystem event count and sim time.

        Safe to embed in golden files — two fixed-seed runs yield the
        identical report.  ``sim_time`` is the virtual time the clock
        advanced *onto* that subsystem's events, so the values sum to
        the run's end time.
        """
        return {
            name: {"events": float(bucket.events),
                   "sim_time": bucket.sim_time}
            for name, bucket in sorted(self._buckets.items())
        }

    def wall_report(self) -> dict[str, float]:
        """Non-deterministic profile: per-subsystem callback wall seconds.

        Never include this in determinism goldens; it varies run to
        run with machine load.
        """
        return {name: bucket.wall_time
                for name, bucket in sorted(self._buckets.items())}
