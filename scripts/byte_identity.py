"""Write every deterministic output of this checkout under one directory.

Run it on two checkouts (for example ``git archive`` exports of two commits)
and compare the trees; a change that claims identical numerics must leave
no difference:

    python3 scripts/byte_identity.py /tmp/before     # in the first checkout
    python3 scripts/byte_identity.py /tmp/after      # in the second
    diff -r /tmp/before /tmp/after

The run covers the default ``weakpair gen``, ``train``, ``eval`` and ``diag``;
a TSV-only leg (``eval`` and ``diag`` again, on a copy of the default
``test.tsv`` without its binary ``.npy`` companion, so ``data.read`` parses
the text, written under ``tsv-only/default``) and a JSON-only leg (the same
on a copy of the default ``checkpoint.json`` without its companion, so
``load_checkpoint`` parses the JSON, written under ``json-only/default``):
``diff -r OUT/default/eval OUT/tsv-only/default/eval``, the same for
``diag`` and for ``json-only`` must be empty, showing that both reading
paths of each file agree; a mapping leg (a 2-epoch ``train`` with
``train.mapping=linear`` and one with ``power`` on the default data, each
followed by ``eval`` and ``diag``); a gallery leg (the set-up of bench
``eval_gallery`` at seed 21 through the CLI: ``gen`` with 400 identities,
``train_fraction=0.375`` and ``split_seed=21``, a 5-epoch ``train``, then
``eval`` and ``diag`` on its 1000-record test gallery, which the ranking
passes over in many blocks of query rows); a
resume leg per ablation mode of the default config (stopped mid-epoch,
then resumed from the in-memory checkpoint, writing both checkpoints and the
joined ``train_log.csv``); a degenerate leg (a 3-epoch ``train`` per ablation
mode on a dataset whose single-record identities are their own weak
counterparts and whose epochs end on a short batch); ``weakpair gradcheck
--out`` at its default 100 points; acceptance criterion 07's runs (the
default config at 60 epochs, seeds 1-5 x baseline/uitc/uitc_gitm, through
``cli.run_grid``; ``tests/test_digests.py`` pins this definition to
``tests/test_acceptance.py``'s ``GEN``, ``TRAIN``, split, ``SEEDS`` and
``EVAL_SEED``), each writing its checkpoint, ``train_log.csv``, the
``weakpair eval`` outputs and the held-out mAP, plus the three medians; and
an ablate leg (``weakpair ablate`` on the default config: the losses and
the mappings grid at seeds 1,2 for 2 epochs, and the losses grid at
``train.batch_size=2``, whose neg3v6 run is an error row).  Console output
(with paths relative to the output directory) and the ``resolved.cfg``
files are written too; none holds a timing.  Takes under a minute on one
core.

Last, ``OUT_DIR/DIGESTS.json`` records the sha256 of every file written, by
path relative to ``OUT_DIR`` in sorted order, with the Python and numpy
versions and the BLAS numpy was built with (from ``np.show_config``).  The
repository keeps the manifest of its own revision as ``/DIGESTS.json``: a
change that keeps every output leaves it unchanged, and one that moves
outputs shows in its diff which.  Another numpy or BLAS build may
legitimately give other digests; compare its ``environment`` first.
``python3 scripts/compare_digests.py OUT_DIR/DIGESTS.json`` does both
comparisons against ``/DIGESTS.json`` and names every file that differs.
``tests/test_digests.py`` rebuilds every leg but criterion 07 through
``fast_legs`` and compares them with the manifest.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from weakpair import cli, data  # noqa: E402
from weakpair.training import (ABLATION_MODES, TrainLog, save_checkpoint,  # noqa: E402
                               train)


def weakpair(out: Path, *argv: str) -> None:
    """One CLI command in process; its stdout goes to <out>/stdout.txt."""
    out.mkdir(parents=True, exist_ok=True)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    (out / "stdout.txt").write_text(buffer.getvalue())
    if code != 0:
        raise SystemExit(f"weakpair {' '.join(argv)} exited {code}")


def resume_leg(out: Path, train_d: data.DatasetManifest) -> None:
    """Each ablation mode of the default config, stopped mid-epoch and resumed."""
    base = cli.train_config_from(cli.load_config(None, []))
    for mode in ABLATION_MODES:
        cfg = dataclasses.replace(base, ablation_mode=mode)
        steps = math.ceil(len(train_d.identities()) / cfg.batch_size)
        mid, first = train(cfg, train_d, stop_at_step=steps * (cfg.epochs // 2) + steps // 2)
        ckpt, rest = train(cfg, train_d, resume=mid)
        cell = out / mode
        cell.mkdir(parents=True)
        save_checkpoint(mid, cell / "mid_checkpoint.json")
        save_checkpoint(ckpt, cell / "checkpoint.json")
        cli.write_csv(cell / "train_log.csv",
                      *cli.train_log_rows(TrainLog(first.steps + rest.steps)))


def default_leg(run: Path) -> None:
    """The default gen, then train on its train.tsv, eval and diag on its test.tsv."""
    weakpair(run / "data", "gen", "--out", str(run / "data"))
    weakpair(run / "train", "train", "--data", str(run / "data" / "train.tsv"),
             "--out", str(run / "train"))
    for command in ("eval", "diag"):
        weakpair(run / command, command, "--data", str(run / "data" / "test.tsv"),
                 "--checkpoint", str(run / "train" / "checkpoint.json"),
                 "--out", str(run / command))


def text_only_leg(out: Path, run: Path, name: str, copied: str) -> None:
    """eval and diag again, with one default input copied without its companion.

    copied is "data" (test.tsv, which data.read then parses) or "checkpoint"
    (checkpoint.json, which load_checkpoint then parses).  They run inside
    out/<name> with run's relative output paths, so every file under
    out/<name>/<run> must equal its counterpart under <run>, console lines
    included."""
    leg = out / name
    leg.mkdir()
    inputs = {"data": run / "data" / "test.tsv", "checkpoint": run / "train" / "checkpoint.json"}
    argv = {key: str(".." / path) for key, path in inputs.items()}
    shutil.copyfile(inputs[copied], leg / inputs[copied].name)
    argv[copied] = inputs[copied].name
    cwd = os.getcwd()
    os.chdir(leg)
    try:
        for command in ("eval", "diag"):
            weakpair(run / command, command, "--data", argv["data"], "--checkpoint",
                     argv["checkpoint"], "--out", str(run / command))
    finally:
        os.chdir(cwd)


def mapping_leg(out: Path, data_dir: Path) -> None:
    """The non-default uncertainty mappings: a short run, then eval and diag."""
    for mapping in ("linear", "power"):
        cell = out / mapping
        weakpair(cell / "train", "train", "--data", str(data_dir / "train.tsv"),
                 "--out", str(cell / "train"), "--set", "train.epochs=2",
                 "--set", f"train.mapping={mapping}")
        for command in ("eval", "diag"):
            weakpair(cell / command, command, "--data", str(data_dir / "test.tsv"),
                     "--checkpoint", str(cell / "train" / "checkpoint.json"),
                     "--out", str(cell / command))


def gallery_leg(out: Path, seed: int = 21) -> None:
    """bench eval_gallery's set-up at one seed, then eval and diag on its gallery."""
    weakpair(out / "data", "gen", "--out", str(out / "data"), "--seed", str(seed),
             "--set", "gen.num_identities=400", "--set", "gen.train_fraction=0.375",
             "--set", f"gen.split_seed={seed}")
    weakpair(out / "train", "train", "--data", str(out / "data" / "train.tsv"),
             "--out", str(out / "train"), "--seed", str(seed), "--set", "train.epochs=5")
    for command in ("eval", "diag"):
        weakpair(out / command, command, "--data", str(out / "data" / "test.tsv"),
                 "--checkpoint", str(out / "train" / "checkpoint.json"),
                 "--out", str(out / command))


def degenerate_leg(out: Path, train_d: data.DatasetManifest) -> None:
    """Each ablation mode on a dataset cut from the default training set: 181
    identities (each epoch ends on a batch of 5), every third of them left
    with one record, which stands in as its own weak counterpart."""
    out.mkdir(parents=True)
    kept, seen, rows = set(train_d.identities()[:16 * 11 + 5]), set(), []
    for row, identity in enumerate(train_d.identity.tolist()):
        if identity in kept and (identity % 3 or identity not in seen):
            rows.append(row)
            seen.add(identity)
    data.write(train_d.take(rows), out / "train.tsv")
    for mode in ABLATION_MODES:
        weakpair(out / mode, "train", "--data", str(out / "train.tsv"), "--out",
                 str(out / mode), "--set", "train.epochs=3",
                 "--set", f"train.ablation_mode={mode}")


# Acceptance criterion 07 for cli.run_grid: the default config at 60 epochs,
# one cell per ablation mode (tests/test_digests.py pins it to the battery's).
CRITERION_07 = cli.load_config(None, ["train.epochs=60"])
CRITERION_07_CELLS = [(mode, {"ablation_mode": mode}) for mode in ABLATION_MODES]


def criterion_07_runs(seeds: list[int]):
    """cli.run_grid over criterion 07's cells; a run's error is raised."""
    for run in cli.run_grid(CRITERION_07, CRITERION_07_CELLS, seeds):
        if run.error is not None:
            raise run.error
        yield run


def ablate_leg(out: Path) -> None:
    """``weakpair ablate`` on the default config: both grids at seeds 1,2 for
    2 epochs, and the losses grid at batch size 2, where neg3v6 cannot mine
    and its one run is an error row."""
    for name, *settings in (("losses", "ablate.seeds=1,2", "train.epochs=2"),
                            ("mappings", "ablate.grid=mappings", "ablate.seeds=1,2",
                             "train.epochs=2"),
                            ("batch2", "train.batch_size=2", "ablate.seeds=1",
                             "train.epochs=2")):
        argv = [arg for setting in settings for arg in ("--set", setting)]
        weakpair(out / name, "ablate", "--out", str(out / name), *argv)


def environment() -> dict:
    """The Python, numpy and BLAS builds that the digests were taken on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")}}


def file_digests(out: Path) -> dict[str, str]:
    """Every file's sha256 under out, by path relative to out, sorted."""
    files = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
             for path in out.rglob("*") if path.is_file()}
    return dict(sorted(files.items()))


def write_digests(out: Path) -> None:
    """out/DIGESTS.json: the environment and every file's sha256 under out."""
    manifest = {"environment": environment(), "files": file_digests(out)}
    (out / "DIGESTS.json").write_text(json.dumps(manifest, indent=1) + "\n")


def fast_legs(out: Path) -> None:
    """Every leg but criterion 07, under out."""
    run = out / "default"
    default_leg(run)
    text_only_leg(out, run, "tsv-only", "data")
    text_only_leg(out, run, "json-only", "checkpoint")
    mapping_leg(out / "mappings", run / "data")
    gallery_leg(out / "gallery")
    train_d = data.read(run / "data" / "train.tsv")
    resume_leg(out / "resume", train_d)
    degenerate_leg(out / "degenerate", train_d)
    weakpair(out / "gradcheck", "gradcheck", "--out", str(out / "gradcheck"))
    ablate_leg(out / "ablate")


def main(out: Path) -> None:
    """Writes under out, with paths relative to it so console lines match."""
    out.mkdir(parents=True)
    os.chdir(out)
    out = Path(".")
    fast_legs(out)

    leg = out / "criterion07"
    leg.mkdir()
    data.write(cli.generated_split(CRITERION_07)[1], leg / "test.tsv")
    maps: dict[str, list[float]] = {}
    for run in criterion_07_runs(cli.ablation_seeds(CRITERION_07["ablate"]["seeds"])):
        cell = leg / f"{run.cell}-seed{run.seed}"
        cell.mkdir()
        save_checkpoint(run.checkpoint, cell / "checkpoint.json")
        cli.write_csv(cell / "train_log.csv", *cli.train_log_rows(run.log))
        (cell / "map.txt").write_text(repr(run.result.mean_ap) + "\n")
        maps.setdefault(run.cell, []).append(run.result.mean_ap)
        weakpair(cell / "eval", "eval", "--data", str(leg / "test.tsv"),
                 "--checkpoint", str(cell / "checkpoint.json"), "--out", str(cell / "eval"))
    (leg / "medians.txt").write_text("".join(
        f"{mode} {float(np.median(values))!r}\n" for mode, values in maps.items()))
    write_digests(out)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python3 scripts/byte_identity.py OUT_DIR")
    target = Path(sys.argv[1])
    if target.exists():
        raise SystemExit(f"{target} exists; give a new directory")
    main(target)
