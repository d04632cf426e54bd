"""The committed DIGESTS.json against a rebuild of a fast subset of its outputs."""

import importlib.util
import json
from pathlib import Path

import pytest

from weakpair import data

ROOT = Path(__file__).resolve().parents[1]
# The legs rebuilt here: the default gen, train, eval and diag, and the
# degenerate leg's dataset and its three training runs.
LEGS = ("default/", "degenerate/")


def byte_identity():
    spec = importlib.util.spec_from_file_location(
        "byte_identity", ROOT / "scripts" / "byte_identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_and_degenerate_legs_match_the_committed_digests(tmp_path, monkeypatch):
    """Every file of the two legs has the sha256 that DIGESTS.json records.
    The digests hold for the builds the manifest names; on another Python,
    numpy or BLAS build the test is skipped, naming both."""
    script = byte_identity()
    manifest = json.loads((ROOT / "DIGESTS.json").read_text())
    here = script.environment()
    if here != manifest["environment"]:
        pytest.skip(f"DIGESTS.json was recorded on {manifest['environment']}, "
                    f"this build is {here}")
    want = {path: digest for path, digest in manifest["files"].items()
            if path.startswith(LEGS)}
    assert len(want) == 45
    # Relative paths, as the script runs, so the console lines match too.
    monkeypatch.chdir(tmp_path)
    run = Path("default")
    script.default_leg(run)
    script.degenerate_leg(Path("degenerate"), data.read(run / "data" / "train.tsv"))
    assert script.file_digests(Path(".")) == want
