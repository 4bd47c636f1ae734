#!/usr/bin/env python3
"""Validator for the committed spec gallery (examples/specs).

Every ``*.json`` under the given directories must be one of the two
committed document kinds, and each is fully exercised:

- **ScenarioSpec** (``"schema": "scenario-spec/v1"``): parsed with
  :meth:`ScenarioSpec.from_dict`, fingerprinted, and composed into a
  live runtime (topology, workload, policies all resolve).  When the
  spec's directory has a ``MANIFEST.json`` (as ``benchmarks/e2e/specs``
  does) that lists the spec, its fingerprint must equal the listed one;
  the manifest itself is only read, never validated as a document.
- **WfFormat** (top-level ``"workflow"`` section): loaded with
  :func:`load_wfformat`, compiled with :func:`wfformat_workflow`,
  DAG-validated, and fingerprinted over its canonical JSON form.

Exit status is the number of invalid documents, so CI fails on any.

Usage:
    PYTHONPATH=src python tools/validate_specs.py examples/specs
    PYTHONPATH=src python tools/validate_specs.py benchmarks/e2e/specs
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

#: The fingerprint list a spec directory may carry (name -> entry).
MANIFEST = "MANIFEST.json"


def listed_fingerprint(path: Path) -> str | None:
    """The fingerprint ``path``'s directory manifest pins, if any."""
    manifest = path.parent / MANIFEST
    if not manifest.is_file():
        return None
    entry = json.loads(manifest.read_text()).get(path.name)
    return None if entry is None else entry["fingerprint"]


def validate_scenario_spec(path: Path, data: dict) -> str:
    """Parse, fingerprint, and compose one scenario spec."""
    from repro.scenario import ScenarioSpec

    spec = ScenarioSpec.from_dict(data)
    fingerprint = spec.fingerprint()
    listed = listed_fingerprint(path)
    if listed is not None and fingerprint != listed:
        raise ValueError(f"fingerprint {fingerprint} differs from "
                         f"{listed} listed in {MANIFEST}")
    runtime = spec.build()
    runtime.finalize()
    return (f"scenario-spec  {path.name}: {len(runtime.tasks)} tasks, "
            f"fingerprint {fingerprint}")


def validate_wfformat(path: Path, data: dict) -> str:
    """Load, compile, and fingerprint one WfFormat instance."""
    from repro.workload import load_wfformat, wfformat_workflow

    document = load_wfformat(data)
    workflow = wfformat_workflow(document)
    workflow.validate()
    canonical = json.dumps(document, sort_keys=True,
                           separators=(",", ":")).encode("utf-8")
    fingerprint = hashlib.sha256(canonical).hexdigest()[:16]
    return (f"wfformat       {path.name}: {len(workflow)} tasks, "
            f"fingerprint {fingerprint}")


def validate(path: Path) -> str:
    """Dispatch one gallery document to its validator."""
    data = json.loads(path.read_text())
    if isinstance(data, dict) and "workflow" in data:
        return validate_wfformat(path, data)
    if isinstance(data, dict) and data.get("schema") == "scenario-spec/v1":
        return validate_scenario_spec(path, data)
    raise ValueError("neither a scenario spec nor a WfFormat document")


def main(argv: list[str]) -> int:
    """Validate every gallery JSON; return the failure count."""
    roots = [Path(a) for a in argv] or [Path("examples/specs")]
    paths = sorted(p for root in roots
                   for p in (root.rglob("*.json") if root.is_dir()
                             else [root])
                   if p.name != MANIFEST)
    if not paths:
        print("no spec documents found", file=sys.stderr)
        return 1
    failures = 0
    for path in paths:
        try:
            print(validate(path))
        except Exception as exc:  # noqa: BLE001 - report and count
            failures += 1
            print(f"INVALID        {path}: {exc}", file=sys.stderr)
    print(f"{len(paths) - failures}/{len(paths)} gallery documents valid")
    return failures


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
