"""Planet-scale sharding (C7, P4): three regions, one deterministic run.

Loads the three-region composite from the spec gallery
(``examples/specs/planet_scale.json``) — a gaming region (``eu``,
bursty MMPP match/lobby jobs), a banking region (``us``, Poisson
transaction/batch jobs), and a FaaS edge region (``ap``, short
independent function invocations) — and runs it sharded: one event
loop per region, coupled only through explicit cross-shard messages
under a conservative epoch barrier whose lookahead is the minimum
wide-area link latency (0.25 s).  The ``ap`` edge offloads overflow
functions to ``us`` over its declared link, so real tasks cross the
shard boundary mid-run.

The merged result digest is the one pinned in
``tests/scenario/goldens/sharding.json`` (see ``docs/ARCHITECTURE.md``,
"Sharding", for the rules that make it a pure function of the spec).
The same scenario runs from the command line via::

    python -m repro run examples/specs/planet_scale.json

Run with:  python examples/planet_scale.py
"""

from pathlib import Path

from repro.reporting import render_table
from repro.scenario import ScenarioSpec

SPEC = Path(__file__).parent / "specs" / "planet_scale.json"


def main() -> None:
    """Run the three-region scenario and print its per-region roll-up."""
    spec = ScenarioSpec.from_json(SPEC.read_text(encoding="utf-8"))
    result = spec.run()
    rows = []
    for shard, entry in sorted(result.shards["by_shard"].items()):
        shard_result = entry["result"]
        rows.append((shard,
                     f"{shard_result['tasks_finished']}"
                     f"/{shard_result['tasks_total']}",
                     f"{shard_result['makespan']:.1f}",
                     f"{entry['offloads_sent']}",
                     f"{entry['offloads_run']}"))
    print(render_table(
        ("region", "finished", "makespan", "offloaded", "ran remote"),
        rows,
        title=f"Planet-scale run of {spec.name!r} "
              f"(seed {spec.seed}, 3 regions)"))
    coupling = result.shards["coupling"]
    print(f"\n  epoch barrier: {coupling['epochs']} epochs at lookahead "
          f"{coupling['lookahead']}s, {coupling['offloaded']} task(s) "
          f"crossed a shard boundary")
    print(f"  merged digest: {result.digest()}")


if __name__ == "__main__":
    main()
