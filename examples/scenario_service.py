"""The scenario service surviving its own chaos drill (C4, C17).

Runs the deterministic incident script from
:class:`~repro.service.ServiceChaosDrill` against an in-process
:class:`~repro.service.ScenarioService`: an overload burst from three
tenants against a deliberately small service (bounded queue of 8,
quota 4 per tenant), worker crashes injected into the first admitted
jobs to trip the circuit breaker, a submission against the open
breaker, then recovery.  The drill verifies the dogfooding claim end
to end — shed requests get 429/503 with ``Retry-After``, every
admitted run completes with a digest byte-identical to serial
execution, a post-storm re-submission is a pure cache hit, and the
service's own availability SLO stays green in its alert log.

The same service runs over HTTP with::

    python -m repro serve --port 8765

(see docs/SERVICE.md for the endpoints and semantics).

Run with:  python examples/scenario_service.py
"""

from repro.reporting import render_table
from repro.scenario import (ClusterSpec, ScenarioSpec, TopologySpec,
                            WorkloadSpec)
from repro.service import ServiceChaosDrill

BASE = ScenarioSpec(
    name="service-demo",
    seed=0,
    topology=TopologySpec(
        clusters=(ClusterSpec("s", 4, cores=2, machines_per_rack=2),),
        datacenter="service-dc"),
    workload=WorkloadSpec("uniform-tasks", {
        "n_tasks": 10, "runtime": [5.0, 20.0], "cores": 1,
        "submit": [0.0, 15.0], "prefix": "t"}),
    horizon=200.0)


def main() -> None:
    """Run the drill twice and print the (identical) incident report."""
    report = ServiceChaosDrill(BASE).run()

    rows = [
        ("submissions offered", str(report.submissions)),
        ("admitted", str(report.admitted)),
        ("shed with 429 + Retry-After", str(report.shed_429)),
        ("rejected 503 (breaker open)", str(report.breaker_503)),
        ("worker crashes injected", str(report.injected_crashes)),
        ("deterministic retries", str(report.retries)),
        ("admitted runs completed", str(report.completed)),
        ("digest mismatches vs serial", str(len(report.digest_mismatches))),
        ("post-storm cache hit", "yes" if report.cache_hit_ok else "NO"),
        ("availability compliance",
         f"{report.availability.get('compliance', 0.0):.3f} "
         f"(target {report.availability.get('target', 0.0):.2f})"),
        ("burn-rate alerts firing", str(report.alerts_active)),
    ]
    print(render_table(["What the drill observed", "Value"], rows,
                       title="One scripted incident: overload burst + "
                             "worker crashes"))
    print()
    verdict = "PASSED" if report.passed else "FAILED"
    print(f"  drill verdict: {verdict}")

    again = ServiceChaosDrill(BASE).run()
    assert again.to_dict() == report.to_dict()
    print("  re-run of the drill produced an identical report "
          "(deterministic incident)")


if __name__ == "__main__":
    main()
