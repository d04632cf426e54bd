"""The committed DIGESTS.json against a rebuild of a fast subset of its outputs;
scripts/compare_digests.py on small manifests; scripts/paired_study.py's
summary and seed range; and the scripts' criterion 07 against the acceptance
battery's constants."""

import argparse
import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from test_acceptance import EVAL_SEED, GEN, SEEDS, TRAIN
from weakpair import cli, data

ROOT = Path(__file__).resolve().parents[1]
# The legs rebuilt here, with the number of files DIGESTS.json records for
# each: all but criterion 07.
LEGS = {"default/": 28, "degenerate/": 17, "tsv-only/": 18, "json-only/": 18,
        "mappings/": 44, "gallery/": 28, "resume/": 15, "ablate/": 9, "gradcheck/": 3}


def script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def rebuilt(tmp_path_factory):
    """The committed digests of the legs, and those of the legs rebuilt by the
    script's own fast_legs.  The digests hold for the builds
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
        byte_identity.fast_legs(Path("."))
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


@pytest.mark.parametrize("leg", ["tsv-only/", "json-only/", "mappings/", "gallery/", "resume/",
                                 "ablate/", "gradcheck/"])
def test_leg_matches_the_committed_digests(rebuilt, leg):
    """Every file of one more leg: eval and diag read from the text form of
    the test set or of the checkpoint, the linear and power mappings, bench
    eval_gallery's 1000-record gallery at seed 21, each ablation mode
    stopped mid-epoch and resumed, three small ablate runs, and the default
    gradient battery."""
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


def paired_study(monkeypatch):
    """scripts/paired_study.py, which imports byte_identity from its own
    directory as it does when run."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    return script("paired_study")


def test_paired_summary_of_fixed_deltas(monkeypatch):
    """Deltas 0.25, -0.25 and 0.5: mean 1/6, sample SD sqrt(7/48) over sqrt(3)
    seeds; one seed has no standard error."""
    paired = paired_study(monkeypatch)
    assert paired.paired_summary([0.5, 0.25, 0.75], [0.25, 0.5, 0.25]) == (
        "+0.166667 (SE 0.220479, positive on 2/3 seeds, "
        "range -0.250000 to +0.500000)")
    assert paired.paired_summary([0.5], [0.75]) == (
        "-0.250000 (SE nan, positive on 0/1 seeds, range -0.250000 to -0.250000)")


def test_seed_range_is_inclusive_and_rejects_an_empty_range(monkeypatch):
    paired = paired_study(monkeypatch)
    assert paired.seed_range("3") == [3]
    assert paired.seed_range("1-20") == list(range(1, 21))
    with pytest.raises(argparse.ArgumentTypeError, match="empty seed range '5-1'"):
        paired.seed_range("5-1")


def test_criterion_07_is_the_acceptance_battery_configuration(monkeypatch):
    """The scripts' criterion 07 trains test_acceptance's TRAIN per mode and
    seed on its GEN split 5/6 at seed 100, evaluated at its EVAL_SEED; the
    scripts no longer read those constants, so this keeps the two together."""
    byte_identity = script("byte_identity")
    resolved = byte_identity.CRITERION_07
    assert cli.gen_config_from(resolved) == GEN
    assert (resolved["gen"]["train_fraction"], resolved["gen"]["split_seed"]) == (5.0 / 6.0, 100)
    assert resolved["eval"]["eval_seed"] == EVAL_SEED
    assert tuple(cli.ablation_seeds(resolved["ablate"]["seeds"])) == SEEDS

    trained = []

    def no_training(cfg, dataset):
        trained.append(dataset)
        raise ValueError("not trained")

    monkeypatch.setattr(cli, "train", no_training)
    runs = list(cli.run_grid(resolved, byte_identity.CRITERION_07_CELLS, list(SEEDS)))
    modes = ("baseline", "uitc", "uitc_gitm")
    assert [(run.cell, run.seed, run.config) for run in runs] == [
        (mode, seed, dataclasses.replace(TRAIN, seed=seed, ablation_mode=mode))
        for mode in modes for seed in SEEDS]
    want = data.split(data.generate(GEN), 5.0 / 6.0, seed=100)[0]
    assert len(trained) == len(runs)
    assert all(np.array_equal(dataset.identity, want.identity)
               and np.array_equal(dataset.image, want.image)
               and np.array_equal(dataset.text, want.text) for dataset in trained)
