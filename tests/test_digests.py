"""The committed DIGESTS.json against a rebuild of a fast subset of its outputs."""

import importlib.util
import json
from pathlib import Path

import pytest

from weakpair import data

ROOT = Path(__file__).resolve().parents[1]
# The legs rebuilt here, with the number of files DIGESTS.json records for
# each: all but gradcheck and criterion 07.
LEGS = {"default/": 28, "degenerate/": 17, "tsv-only/": 18, "json-only/": 18,
        "mappings/": 44, "gallery/": 28, "resume/": 15}


def byte_identity():
    spec = importlib.util.spec_from_file_location(
        "byte_identity", ROOT / "scripts" / "byte_identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def rebuilt(tmp_path_factory):
    """The committed digests of the legs, and those of the legs rebuilt by the
    script's own functions, in its order.  The digests hold for the builds
    the manifest names; on another Python, numpy or BLAS build the tests are
    skipped, naming both."""
    script = byte_identity()
    manifest = json.loads((ROOT / "DIGESTS.json").read_text())
    here = script.environment()
    if here != manifest["environment"]:
        pytest.skip(f"DIGESTS.json was recorded on {manifest['environment']}, "
                    f"this build is {here}")
    out = tmp_path_factory.mktemp("digests")
    # Relative paths, as the script runs, so the console lines match too.
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(out)
        run = Path("default")
        script.default_leg(run)
        script.text_only_leg(Path("."), run, "tsv-only", "data")
        script.text_only_leg(Path("."), run, "json-only", "checkpoint")
        script.mapping_leg(Path("mappings"), run / "data")
        script.gallery_leg(Path("gallery"))
        train_d = data.read(run / "data" / "train.tsv")
        script.resume_leg(Path("resume"), train_d)
        script.degenerate_leg(Path("degenerate"), train_d)
    return manifest["files"], script.file_digests(out)


def leg_digests(files, legs):
    return {path: digest for path, digest in files.items() if path.startswith(legs)}


def test_default_and_degenerate_legs_match_the_committed_digests(rebuilt):
    """Every file of the default gen, train, eval and diag, and of the
    degenerate leg's dataset and three training runs."""
    committed, got = rebuilt
    legs = ("default/", "degenerate/")
    want = leg_digests(committed, legs)
    assert len(want) == LEGS["default/"] + LEGS["degenerate/"]
    assert leg_digests(got, legs) == want


@pytest.mark.parametrize("leg", ["tsv-only/", "json-only/", "mappings/", "gallery/", "resume/"])
def test_leg_matches_the_committed_digests(rebuilt, leg):
    """Every file of one more leg: eval and diag read from the text form of
    the test set or of the checkpoint, the linear and power mappings, bench
    eval_gallery's 1000-record gallery at seed 21, and each ablation mode
    stopped mid-epoch and resumed."""
    committed, got = rebuilt
    want = leg_digests(committed, leg)
    assert len(want) == LEGS[leg]
    assert leg_digests(got, leg) == want
