"""tools/validate_specs.py reads a spec directory's MANIFEST.json as the
list of pinned fingerprints, never as a document to validate."""

import json
import shutil
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SPEC = REPO_ROOT / "benchmarks" / "e2e" / "specs" / "chaos_baseline.json"

if str(REPO_ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "tools"))

import validate_specs  # noqa: E402

PINNED = json.loads((SPEC.parent / "MANIFEST.json").read_text())[
    SPEC.name]["fingerprint"]


@pytest.mark.parametrize("fingerprint, failures",
                         [(PINNED, 0), ("0" * 16, 1)])
def test_manifest_fingerprints_are_checked(tmp_path, capsys, fingerprint,
                                           failures):
    shutil.copy(SPEC, tmp_path)
    (tmp_path / "MANIFEST.json").write_text(json.dumps(
        {SPEC.name: {"fingerprint": fingerprint}}))
    assert validate_specs.main([str(tmp_path)]) == failures
    out, err = capsys.readouterr()
    assert out.endswith(f"{1 - failures}/1 gallery documents valid\n")
    assert "MANIFEST" not in out
    if failures:
        assert f"differs from {fingerprint} listed in MANIFEST.json" in err
