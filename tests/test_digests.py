"""The committed DIGESTS.json against a rebuild of a fast subset of its outputs,
and scripts/compare_digests.py on small manifests."""

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


def script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def rebuilt(tmp_path_factory):
    """The committed digests of the legs, and those of the legs rebuilt by the
    script's own functions, in its order.  The digests hold for the builds
    the manifest names; on another Python, numpy or BLAS build the tests are
    skipped, naming both."""
    byte_identity = script("byte_identity")
    manifest = json.loads((ROOT / "DIGESTS.json").read_text())
    here = byte_identity.environment()
    if here != manifest["environment"]:
        pytest.skip(f"DIGESTS.json was recorded on {manifest['environment']}, "
                    f"this build is {here}")
    out = tmp_path_factory.mktemp("digests")
    # Relative paths, as the script runs, so the console lines match too.
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(out)
        run = Path("default")
        byte_identity.default_leg(run)
        byte_identity.text_only_leg(Path("."), run, "tsv-only", "data")
        byte_identity.text_only_leg(Path("."), run, "json-only", "checkpoint")
        byte_identity.mapping_leg(Path("mappings"), run / "data")
        byte_identity.gallery_leg(Path("gallery"))
        train_d = data.read(run / "data" / "train.tsv")
        byte_identity.resume_leg(Path("resume"), train_d)
        byte_identity.degenerate_leg(Path("degenerate"), train_d)
    return manifest["files"], byte_identity.file_digests(out)


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


ENVIRONMENT = {"python": "3.11.7", "numpy": "2.4.6", "blas": {"name": "openblas"}}


def test_compare_digests_lists_every_differing_missing_and_new_path(
        tmp_path, capsys, monkeypatch):
    """The script against a small committed manifest under a stand-in root."""
    compare = script("compare_digests")
    monkeypatch.setattr(compare, "ROOT", tmp_path)
    committed = {"environment": ENVIRONMENT,
                 "files": {"a/x.csv": "11", "a/y.csv": "22", "b/z.txt": "33"}}
    (tmp_path / "DIGESTS.json").write_text(json.dumps(committed))
    argv = [str(tmp_path / "fresh.json")]

    (tmp_path / "fresh.json").write_text(json.dumps(committed))
    assert compare.main(argv) == 0
    assert capsys.readouterr().out == \
        f"3 digests and the environment match {tmp_path / 'DIGESTS.json'}\n"

    fresh = {"environment": ENVIRONMENT,
             "files": {"a/x.csv": "11", "a/y.csv": "2f", "c/w.txt": "44"}}
    (tmp_path / "fresh.json").write_text(json.dumps(fresh))
    assert compare.main(argv) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs a/y.csv", "missing b/z.txt", "new c/w.txt"]


def test_compare_digests_checks_the_environment_first():
    compare = script("compare_digests")
    files = {"a/x.csv": "11"}
    other = {**ENVIRONMENT, "numpy": "2.5.0"}
    lines = compare.compare({"environment": ENVIRONMENT, "files": files},
                            {"environment": other, "files": {**files, "a/v.csv": "55"}})
    assert lines[0].startswith("environment differs:") and "2.5.0" in lines[0]
    assert lines[1:] == ["new a/v.csv"]
