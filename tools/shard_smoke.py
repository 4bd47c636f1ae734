#!/usr/bin/env python3
"""CI smoke check for the sharded planet-scale run on a fresh host.

Runs the committed three-region gallery spec
(``examples/specs/planet_scale.json``) twice — plain, then with
per-shard telemetry capture — and demands:

* the merged ``ScenarioResult`` digest and the merged fleet
  ``TelemetrySnapshot`` digest, and the science digests of both (the
  same bytes without the kernel's event counts), equal the goldens
  pinned in ``tests/scenario/goldens/sharding.json``, so a fresh host
  computes the same bytes;
* observation did not change the result bytes (the plain run must
  produce the same result JSON as the observed one);
* real cross-shard traffic flowed (the spec's ``ap`` region offloads
  functions to ``us``), so the epoch barrier and message path were
  actually exercised, not skipped.

Exit status 0 on success, 1 on any violation — one readable line per
check either way.  See docs/ARCHITECTURE.md ("Sharding") for the
contract this pins.

Usage:
    PYTHONPATH=src python tools/shard_smoke.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = REPO_ROOT / "examples" / "specs" / "planet_scale.json"
GOLDEN_PATH = REPO_ROOT / "tests" / "scenario" / "goldens" / "sharding.json"


def main() -> int:
    """Run the smoke check; return a process exit code."""
    from repro.observability import science_digest
    from repro.observability.federation import fleet_digest
    from repro.scenario import ScenarioSpec
    from repro.sim.sharding import ShardedScenarioRuntime

    spec = ScenarioSpec.from_json(SPEC_PATH.read_text(encoding="utf-8"))
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    pinned = golden["planet_scale"]
    print(f"spec {SPEC_PATH.name}: {spec.name!r}, "
          f"{len(spec.shards.shards)} shards, "
          f"fingerprint {spec.fingerprint()}")

    plain = spec.run()
    observed = ShardedScenarioRuntime(spec, capture=True)
    result = observed.execute()
    fleet = fleet_digest(observed.telemetry)
    failures = []

    def check(label: str, ok: bool, detail: str) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {label}: {detail}")
        if not ok:
            failures.append(label)

    check("spec fingerprint matches the golden",
          spec.fingerprint() == pinned["fingerprint"],
          f"{spec.fingerprint()} (golden {pinned['fingerprint']})")
    check("result science digest matches the golden",
          result.science_digest() == pinned["science"],
          f"{result.science_digest()[:16]} (golden "
          f"{pinned['science'][:16]})")
    science = science_digest(observed.telemetry)
    check("fleet telemetry science digest matches the golden",
          science == pinned["fleet_science"],
          f"{science[:16]} (golden {pinned['fleet_science'][:16]})")
    check("result digest matches the golden",
          result.digest() == pinned["result"],
          f"{result.digest()[:16]} (golden {pinned['result'][:16]})")
    check("fleet telemetry digest matches the golden",
          fleet == pinned["fleet"],
          f"{fleet[:16]} (golden {pinned['fleet'][:16]})")
    check("observation leaves result bytes unchanged",
          plain.to_json() == result.to_json(),
          plain.digest()[:16])
    coupling = result.shards["coupling"]
    check("cross-shard traffic flowed",
          coupling["offloaded"] > 0
          and coupling["acked"] == coupling["offloaded"],
          f"{coupling['offloaded']} offloaded over {coupling['epochs']} "
          f"epochs at lookahead {coupling['lookahead']}s")
    if failures:
        print(f"shard smoke FAILED: {failures}")
        return 1
    print("shard smoke passed: golden digests, observation-invariant")
    return 0


if __name__ == "__main__":
    sys.exit(main())
