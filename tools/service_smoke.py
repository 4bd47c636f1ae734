"""CI smoke test for ``python -m repro serve``.

Boots the real server in a subprocess (inline executor — no process
pool inside CI's container), submits the bundled
``examples/specs/chaos_baseline.json`` spec over HTTP, polls it to
completion, re-submits it and requires a *cached* response carrying
the identical result digest (the provable-cache contract from
docs/SERVICE.md), re-submits it once more re-serialized with other
formatting and requires the same cached digest (so both hit paths run:
a known request body, and a new body of a known spec), checks the
health and SLO endpoints, scrapes
``/v1/metrics?format=openmetrics`` and validates every line against
the exposition grammar (requiring both the service and the federated
fleet plane — the server runs with ``--observe``), then shuts the
server down cleanly with SIGTERM and requires exit code 0.

Usage::

    PYTHONPATH=src python tools/service_smoke.py
"""

from __future__ import annotations

import json
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SPEC_PATH = REPO_ROOT / "examples" / "specs" / "chaos_baseline.json"
BOOT_DEADLINE = 30.0
RUN_DEADLINE = 120.0

#: The OpenMetrics sample grammar: ``name{labels} value`` (labels
#: optional, values numeric).  Comment lines are checked separately.
SAMPLE_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? '
    r'[0-9eE.+-]+(in)?f?$')


def check_openmetrics(text: str) -> int:
    """Strict line-format check of one exposition; returns sample count."""
    assert text.endswith("# EOF\n"), "exposition must end with '# EOF'"
    lines = text.splitlines()
    assert lines[-1] == "# EOF"
    samples = 0
    for line in lines[:-1]:
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        assert SAMPLE_LINE.match(line), f"bad OpenMetrics line: {line!r}"
        samples += 1
    assert samples, "exposition carried no samples"
    return samples


def free_port() -> int:
    """A currently-free loopback port for the server to bind."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def wait_for_boot(process: subprocess.Popen) -> str:
    """Block until the server prints its listening line; returns it."""
    deadline = time.monotonic() + BOOT_DEADLINE
    assert process.stdout is not None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if "listening on" in line:
            return line.strip()
        if process.poll() is not None:
            raise SystemExit(f"server died during boot "
                             f"(exit {process.returncode})")
    raise SystemExit("server did not boot within deadline")


def main() -> int:
    """Run the smoke sequence; returns a process exit code."""
    from repro.service import ServiceClient

    port = free_port()
    client = ServiceClient(f"http://127.0.0.1:{port}", tenant="ci-smoke")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--inline",
         "--observe", "--port", str(port)],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    try:
        print(wait_for_boot(process))
        spec_json = SPEC_PATH.read_text(encoding="utf-8")

        outcome = client.submit(spec_json)
        assert outcome["status"] == 202, outcome
        job_id = outcome["job_id"]
        print(f"submitted {SPEC_PATH.name} as {job_id}")

        digest, result_json = client.wait(job_id, timeout=RUN_DEADLINE)
        assert digest and result_json, "empty result"
        print(f"completed with digest {digest}")

        again = client.submit(spec_json)
        assert again["status"] == 200, again
        assert again.get("cached") is True, again
        assert again["result_digest"] == digest, (
            f"cached digest {again['result_digest']} != first-run "
            f"digest {digest}")
        print("re-submit served from cache with identical digest")

        compact = json.dumps(json.loads(spec_json), separators=(",", ":"))
        assert compact != spec_json
        again = client.submit(compact)
        assert again["status"] == 200, again
        assert again.get("cached") is True, again
        assert again["result_digest"] == digest, (
            f"re-serialized spec's cached digest "
            f"{again['result_digest']} != first-run digest {digest}")
        print("re-serialized re-submit served from cache with identical "
              "digest")

        assert client.result_by_digest(digest) == result_json
        health = client.health()
        assert health["status"] == "ok", health
        slo = client.slo()
        assert slo["slo"]["service-availability"]["ok"] == 1.0, slo
        print("health ok, availability SLO green")

        exposition = client.metrics_openmetrics()
        samples = check_openmetrics(exposition)
        assert 'plane="service"' in exposition, "service plane missing"
        assert 'plane="fleet"' in exposition, (
            "fleet plane missing — did the observed run federate?")
        _, telemetry_json = client.run_telemetry(job_id)
        assert telemetry_json, "observed run has no telemetry snapshot"
        print(f"openmetrics scrape valid ({samples} samples, both "
              f"planes present)")
    finally:
        client.close()
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            raise SystemExit("server did not exit on SIGTERM")
        finally:
            assert process.stdout is not None
            process.stdout.close()
    if process.returncode != 0:
        raise SystemExit(f"server exited {process.returncode}")
    print("clean shutdown (exit 0) — service smoke PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
