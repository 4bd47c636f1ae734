"""Every layer hook of the end-to-end benchmark still finds its method.

``benchmarks/e2e/tracer.py`` wraps program methods by name for the
traced pass.  A hook whose target was renamed or moved is skipped with
a warning, and its layer then reads zero in the per-layer metrics; this
test turns that into a failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

if str(REPO_ROOT) not in sys.path:  # make `benchmarks` importable
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.e2e.tracer import LAYER_HOOKS, Tracer, instrument  # noqa: E402


def test_every_layer_hook_finds_its_method():
    assert LAYER_HOOKS
    with instrument(Tracer()) as missing:
        assert missing == []
