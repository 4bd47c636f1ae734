#!/usr/bin/env python3
"""Profile the scheduling macro benchmark with the SubsystemProfiler.

"Profile ourselves before optimizing ourselves": this helper runs the
same scheduling scenario the perf harness times
(``benchmarks.perf.scenarios``), but under an attached
:class:`~repro.observability.observer.Observer` with profiling on, and
prints the per-subsystem attribution table — event counts, simulated
time, and (non-deterministic) wall time per subsystem — after the work
rate: tasks per second, beside events per second.  An event rate alone
reads lower when the kernel spends fewer events on the same tasks, so
the tasks rate leads.  Three budgets follow: kernel events per task,
overall and per subsystem; scheduling rounds per task; and Python
frames per task, the function calls into ``repro`` code that one run
makes.  Rounds and frames are counted in a separate pass.  Future perf
PRs start here: the table says which layer owns the wall clock, the
event budget which layer posts the events, the round budget how often
the scheduler runs, and the frame budget what each task costs in
interpreted calls, before anyone touches code.  The budgets are exact
counts for a given Python version.

The profiled run is *slower* than the benchmark run (profiling is the
one observability feature with per-event overhead), so the numbers are
for attribution, not for the BENCH record.  The unprofiled wall time
is measured separately first and printed alongside for scale.

Usage::

    PYTHONPATH=src python tools/profile_macro.py              # smoke size
    PYTHONPATH=src python tools/profile_macro.py --size full
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

import repro  # noqa: E402
from benchmarks.perf.scenarios import SIZES, scheduling_spec  # noqa: E402
from repro.observability.observer import Observer  # noqa: E402
from repro.reporting import render_profile  # noqa: E402
from repro.scheduling import ClusterScheduler  # noqa: E402

#: Source directory whose functions the frame budget counts.
REPRO_DIR = os.path.dirname(repro.__file__) + os.sep


def count_work(n_tasks: int, n_machines: int) -> tuple[int, int]:
    """Python frames entered in ``repro`` code, and scheduling rounds,
    during one run.

    Frames are the ``call`` events ``sys.setprofile`` reports for
    functions whose code lives under the ``repro`` package: every
    function or method call and every generator resumption, not
    builtins.  Rounds are counted by wrapping
    ``ClusterScheduler._schedule_round``; the wrapper lives outside
    ``repro``, so it adds no counted frame.
    """
    runtime = scheduling_spec(n_tasks, n_machines).build()
    frames = 0
    rounds = 0
    schedule_round = ClusterScheduler._schedule_round

    def counted_round(self):
        nonlocal rounds
        rounds += 1
        schedule_round(self)

    def on_event(frame, event, _arg):
        nonlocal frames
        if event == "call" and frame.f_code.co_filename.startswith(
                REPRO_DIR):
            frames += 1

    ClusterScheduler._schedule_round = counted_round
    sys.setprofile(on_event)
    try:
        runtime.sim.run()
    finally:
        sys.setprofile(None)
        ClusterScheduler._schedule_round = schedule_round
    runtime.finalize()
    return frames, rounds


def profile_scheduling(size: str) -> str:
    """Run the scheduling macro scenario profiled; return the table."""
    params = SIZES[size]
    n_tasks = params["sched_tasks"]
    n_machines = params["sched_machines"]

    # Pass 1 — unprofiled, for the headline number the BENCH record
    # tracks.
    runtime = scheduling_spec(n_tasks, n_machines).build()
    start = time.perf_counter()
    runtime.sim.run()
    plain_elapsed = time.perf_counter() - start
    events = runtime.sim.events_processed
    runtime.finalize()

    # Pass 2 — same spec, every call into repro code and every
    # scheduling round counted.
    frames, rounds = count_work(n_tasks, n_machines)

    # Pass 3 — same spec, observer attached, profiler on.
    observer = Observer(profiling=True)
    runtime = scheduling_spec(n_tasks, n_machines).build(observer=observer)
    start = time.perf_counter()
    runtime.sim.run()
    profiled_elapsed = time.perf_counter() - start
    runtime.finalize()

    assert observer.profiler is not None
    report = observer.profiler.report()
    budget = ", ".join(f"{name} {entry['events'] / n_tasks:.2f}"
                       for name, entry in report.items())
    lines = [
        f"scheduling macro scenario, size={size!r}: "
        f"{n_tasks} tasks / {n_machines} machines",
        f"unprofiled: {plain_elapsed:.3f}s wall, "
        f"{n_tasks / plain_elapsed:,.0f} tasks/sec "
        f"({events / plain_elapsed:,.0f} events/sec, {events} events, "
        f"{events / n_tasks:.2f} events/task)",
        f"rounds:     {rounds / n_tasks:.2f} scheduling rounds/task "
        f"({rounds} rounds, counted pass)",
        f"frames:     {frames / n_tasks:.2f} Python frames/task in repro "
        f"code ({frames} calls, counted pass)",
        f"profiled:   {profiled_elapsed:.3f}s wall "
        "(profiling overhead included — attribution only)",
        "",
        render_profile(report, wall=observer.profiler.wall_report(),
                       title="Per-subsystem attribution"),
        "",
        f"events/task by subsystem: {budget}",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=sorted(SIZES),
                        default="smoke",
                        help="scenario size from benchmarks.perf.scenarios")
    args = parser.parse_args(argv)
    print(profile_scheduling(args.size))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
