"""Command-line entry point: gen, train, eval, ablate, gradcheck, diag.

Runs are driven by an INI-style config (flat key=value sections) plus
``--set section.key=value`` overrides; unknown keys are rejected, and every
command writes its fully resolved config next to its outputs so any result
can be reproduced from the output directory alone.

Exit codes: 0 success, 1 config error, 2 runtime or numeric error, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import functools
import itertools
import json
import math
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import data as datamod
from .autograd import EPS_RANGE
from .data import DatasetFormatError, GenConfig
from .losses import LossReport, MAPPINGS
from .metrics import EvalResult, evaluate_model
from .mining import MiningStarvationError
from .training import (Checkpoint, CheckpointFormatError, NumericAbort, TrainConfig,
                       TrainLog, load_checkpoint, save_checkpoint, train)
from .verify import run_battery


class ConfigError(ValueError):
    """Bad config file, unknown key, or unparsable value."""


EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME, EXIT_IO = 0, 1, 2, 3

# Defaults double as the key/type schema for every section.
DEFAULTS: dict[str, dict] = {
    # GenConfig's fields, then the split's own keys.
    "gen": {**dataclasses.asdict(GenConfig()), "train_fraction": 5.0 / 6.0, "split_seed": 100},
    "train": dataclasses.asdict(TrainConfig()),
    "eval": {"eval_seed": 7},
    "ablate": {"grid": "losses", "seeds": "1,2,3,4,5"},
    "gradcheck": {"points": 100, "eps": 1e-5, "tol": 1e-4, "seed": 0},
}


def _convert(section: str, key: str, raw: str):
    try:
        default = DEFAULTS[section][key]
    except KeyError:
        raise ConfigError(f"unknown config key {section}.{key}") from None
    try:
        return type(default)(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: {exc}") from exc


def load_config(path: str | None, overrides: list[str],
                seed: int | None = None, seed_target: str | None = None) -> dict[str, dict]:
    """Defaults, then config file, then --set overrides, then --seed."""
    resolved = {section: dict(values) for section, values in DEFAULTS.items()}
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            with open(path) as handle:
                parser.read_file(handle)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        for section in parser.sections():
            if section not in resolved:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                resolved[section][key] = _convert(section, key, raw)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        section, _, key = dotted.partition(".")
        if section not in resolved:
            raise ConfigError(f"unknown config section [{section}]")
        resolved[section][key] = _convert(section, key, raw)
    if seed is not None and seed_target is not None:
        resolved[seed_target]["seed"] = seed
    return resolved


def write_resolved(resolved: dict[str, dict], out_dir: Path) -> None:
    parser = configparser.ConfigParser()
    for section, values in resolved.items():
        parser[section] = {k: repr(v) if isinstance(v, float) else str(v)
                           for k, v in values.items()}
    with open(out_dir / "resolved.cfg", "w") as handle:
        parser.write(handle)


def gen_config_from(resolved: dict[str, dict]) -> GenConfig:
    """The generator's config; also rejects split settings data.split cannot use."""
    if resolved["gen"]["split_seed"] < 0:
        raise ConfigError(f"gen.split_seed must be >= 0, got {resolved['gen']['split_seed']}")
    if not 0.0 < resolved["gen"]["train_fraction"] < 1.0:
        raise ConfigError("gen.train_fraction must be in (0, 1), "
                          f"got {resolved['gen']['train_fraction']}")
    return GenConfig(**{f.name: resolved["gen"][f.name] for f in dataclasses.fields(GenConfig)})


def generated_split(resolved: dict[str, dict]
                    ) -> tuple[datamod.DatasetManifest, datamod.DatasetManifest]:
    """The generated dataset, split into its train and test sets."""
    full = datamod.generate(gen_config_from(resolved))
    return datamod.split(full, resolved["gen"]["train_fraction"],
                         resolved["gen"]["split_seed"])


def train_config_from(resolved: dict[str, dict]) -> TrainConfig:
    return TrainConfig(**resolved["train"])


def gradcheck_config_from(resolved: dict[str, dict]) -> dict:
    """The gradcheck section, rejected before any check runs if it could
    not check anything."""
    section = resolved["gradcheck"]
    lo, hi = EPS_RANGE
    if section["points"] < 1:
        raise ConfigError(f"gradcheck.points must be >= 1, got {section['points']}")
    if not (math.isfinite(section["tol"]) and section["tol"] > 0):
        raise ConfigError(f"gradcheck.tol must be finite and positive, got {section['tol']}")
    if not lo <= section["eps"] <= hi:
        raise ConfigError(f"gradcheck.eps must be in [{lo:g}, {hi:g}], got {section['eps']}")
    if section["seed"] < 0:
        raise ConfigError(f"gradcheck.seed must be >= 0, got {section['seed']}")
    return section


def _fmt(value) -> str:
    # repr of a numpy float reads "np.float64(0.05)" under numpy 2.
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_eval_outputs(result: EvalResult, out_dir: Path,
                       include_metrics: bool = True) -> None:
    if include_metrics:
        rows = [["recall", k, v] for k, v in sorted(result.recalls.items())]
        rows += [["map", "", result.mean_ap],
                 ["pr_auc", "", result.pr.auc],
                 ["mean_u_correct", "", result.reliability.mean_u_correct],
                 ["mean_u_incorrect", "", result.reliability.mean_u_incorrect],
                 ["margin_mean_pos", "", result.margins.mean_pos],
                 ["margin_mean_weak", "", result.margins.mean_weak],
                 ["excluded_queries", "", result.ranking.excluded]]
        write_csv(out_dir / "metrics.csv", ["metric", "param", "value"], rows)
    write_csv(out_dir / "pr_curve.csv", ["recall", "precision"],
              [[r, p] for r, p in zip(result.pr.recalls, result.pr.precisions)])
    write_csv(out_dir / "risk_coverage.csv", ["coverage", "risk"],
              [[c, r] for c, r in zip(result.risk.coverages, result.risk.risks)])
    write_csv(out_dir / "reliability.csv", ["group", "mean_uncertainty"],
              [["correct", result.reliability.mean_u_correct],
               ["incorrect", result.reliability.mean_u_incorrect]])
    for name, hist in (("margins_weak", result.margins.weak_hist),
                       ("margins_pos", result.margins.pos_hist)):
        write_csv(out_dir / f"{name}.csv", ["bin_left", "count"],
                  [[edge, int(count)] for edge, count
                   in zip(result.margins.bin_edges[:-1], hist)])


def write_summary(path: Path, result: EvalResult, identities: int, mapping: str,
                  eval_seed: int) -> None:
    """The counts behind an evaluation as JSON; no timings, so reruns match."""
    summary = {
        "records": len(result.uncertainties),
        "identities": identities,
        "ranked_queries": len(result.ranking.query_ids),
        "excluded_queries": result.ranking.excluded,
        "zero_norm_rows": result.zero_norm_rows,
        "mapping": mapping,
        "eval_seed": eval_seed,
    }
    path.write_text(json.dumps(summary, indent=2) + "\n")


# -- commands -----------------------------------------------------------------


def cmd_gen(args) -> int:
    resolved = load_config(args.config, args.set, args.seed, "gen")
    train_split, test_split = generated_split(resolved)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    datamod.write(train_split, out_dir / "train.tsv")
    datamod.write(test_split, out_dir / "test.tsv")
    write_resolved(resolved, out_dir)
    print(f"wrote {len(train_split.identity)} train / {len(test_split.identity)} "
          f"test records to {out_dir}")
    return EXIT_OK


def train_log_rows(log) -> tuple[list[str], list[list]]:
    """One row per step: step, lr, every LossReport field, the u range and
    the degenerate weak picks."""
    terms = [f.name for f in dataclasses.fields(LossReport)]
    header = ["step", "lr", *terms, "u_min", "u_max", "degenerate_weak"]
    rows = [[rec.step, rec.lr, *(getattr(rec.report, t) for t in terms),
             rec.u_min, rec.u_max, rec.degenerate_weak] for rec in log.steps]
    return header, rows


def _read_dataset(path) -> datamod.DatasetManifest:
    """datamod.read, plus the two identities that training and evaluation need."""
    dataset = datamod.read(path)
    count = len(dataset.identities())
    if count < 2:
        raise DatasetFormatError(f"{path}: need at least 2 identities, found {count}")
    return dataset


def cmd_train(args) -> int:
    resolved = load_config(args.config, args.set, args.seed, "train")
    cfg = train_config_from(resolved)
    cfg.validate()
    dataset = _read_dataset(args.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt, log = train(cfg, dataset)
    save_checkpoint(ckpt, out_dir / "checkpoint.json")
    header, rows = train_log_rows(log)
    write_csv(out_dir / "train_log.csv", header, rows)
    write_resolved(resolved, out_dir)
    last = log.steps[-1].report.total if log.steps else float("nan")
    print(f"trained {ckpt.step} steps; final total loss {last:.6f}; "
          f"outputs in {out_dir}")
    return EXIT_OK


def _evaluate_checkpoint(args, include_metrics: bool, train_data=None) -> EvalResult:
    """Evaluate --checkpoint on --data and write the curves into --out."""
    resolved = load_config(args.config, args.set)
    ckpt = load_checkpoint(args.checkpoint)
    dataset = _read_dataset(args.data)
    for side, key, width in (("image", "img.w1", dataset.gen_config.raw_dim_image),
                             ("text", "txt.w1", dataset.gen_config.raw_dim_text)):
        takes = ckpt.params[key].shape[0]
        if takes != width:
            raise CheckpointFormatError(
                f"{args.data}: {side} raw width {width}, but checkpoint "
                f"{args.checkpoint} {key} takes {takes}")
    if train_data is not None:
        train_ids = set(datamod.read(train_data).identities())
        overlap = train_ids & set(dataset.identities())
        if overlap:
            print(f"warning: {len(overlap)} identities appear in both the "
                  f"training and evaluation datasets", file=sys.stderr)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    eval_seed = resolved["eval"]["eval_seed"]
    result = evaluate_model(ckpt.params, dataset, ckpt.config.mapping, eval_seed=eval_seed)
    write_eval_outputs(result, out_dir, include_metrics)
    write_summary(out_dir / "summary.json", result, len(dataset.identities()),
                  ckpt.config.mapping, eval_seed)
    write_resolved(resolved, out_dir)
    return result


def cmd_eval(args) -> int:
    result = _evaluate_checkpoint(args, include_metrics=True, train_data=args.train_data)
    recalls = " ".join(f"R@{k}={v:.4f}" for k, v in sorted(result.recalls.items()))
    print(f"{recalls} mAP={result.mean_ap:.4f} PR-AUC={result.pr.auc:.4f}")
    return EXIT_OK


def ablation_cells(grid: str) -> list[tuple[str, dict]]:
    """Config patches for each ablation cell."""
    if grid == "losses":
        return [("baseline", {"ablation_mode": "baseline"}),
                ("uitc", {"ablation_mode": "uitc"}),
                ("uitc_gitm_neg3v4", {"ablation_mode": "uitc_gitm",
                                      "mining_mode": "neg3v4", "mining_k": 1}),
                ("uitc_gitm_neg3v6", {"ablation_mode": "uitc_gitm",
                                      "mining_mode": "neg3v6", "mining_k": 2})]
    if grid == "mappings":
        return [(f"mapping_{m}", {"ablation_mode": "uitc_gitm", "mapping": m})
                for m in MAPPINGS]
    raise ConfigError(f"unknown ablation grid {grid!r}")


def ablation_seeds(raw) -> list[int]:
    """The comma-separated ablate.seeds, distinct non-negative integers."""
    try:
        seeds = [int(s) for s in str(raw).split(",") if s]
    except ValueError as exc:
        raise ConfigError(f"ablate.seeds: {exc}") from None
    if not seeds:
        raise ConfigError("ablate.seeds must name at least one seed")
    if min(seeds) < 0:
        raise ConfigError(f"ablate.seeds must be >= 0, got {min(seeds)}")
    repeated = next((s for i, s in enumerate(seeds) if s in seeds[:i]), None)
    if repeated is not None:
        raise ConfigError(f"ablate.seeds names seed {repeated} twice")
    return seeds


@dataclasses.dataclass
class GridRun:
    """One (cell, seed) of run_grid: its config, then its outputs, or the
    error that stopped it."""
    cell: str
    seed: int
    config: TrainConfig
    checkpoint: Checkpoint | None = None
    log: TrainLog | None = None
    result: EvalResult | None = None
    error: Exception | None = None


def run_grid(resolved: dict[str, dict], cells: list[tuple[str, dict]],
             seeds: list[int]) -> Iterator[GridRun]:
    """Train resolved["train"], patched by each cell and seed, on the generated
    train split and evaluate it on the test split, cell by cell.  Every config
    is validated before the first training; a run that then fails carries its
    error, and the remaining runs still go."""
    configs = [(cell, seed, TrainConfig(**{**resolved["train"], **patch, "seed": seed}))
               for cell, patch in cells for seed in seeds]
    for *_, cfg in configs:
        cfg.validate()
    train_split, test_split = generated_split(resolved)
    for cell, seed, cfg in configs:
        run = GridRun(cell, seed, cfg)
        try:
            run.checkpoint, run.log = train(cfg, train_split)
            run.result = evaluate_model(run.checkpoint.params, test_split, cfg.mapping,
                                        eval_seed=resolved["eval"]["eval_seed"])
        except (ValueError, NumericAbort, MiningStarvationError) as exc:
            run.error = exc
        yield run


def run_ablation(resolved: dict[str, dict]) -> list[list]:
    """A row per run of the ablate grid, a failed run as an error row, and
    after each cell's runs its median row, if any run of it succeeded."""
    seeds = ablation_seeds(resolved["ablate"]["seeds"])
    runs = run_grid(resolved, ablation_cells(resolved["ablate"]["grid"]), seeds)
    rows: list[list] = []
    for cell, cell_runs in itertools.groupby(runs, key=lambda run: run.cell):
        scores = []
        for run in cell_runs:
            if run.error is not None:
                rows.append([cell, run.seed, "error", "error", "error", str(run.error)])
                continue
            scores.append([run.result.recalls[1], run.result.recalls[5],
                           run.result.recalls[10], run.result.mean_ap])
            rows.append([cell, run.seed, *scores[-1]])
        if scores:
            rows.append([cell, "median", *(float(np.median(column)) for column in zip(*scores))])
    return rows


def cmd_ablate(args) -> int:
    resolved = load_config(args.config, args.set)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = run_ablation(resolved)
    write_csv(out_dir / "ablation.csv",
              ["cell", "seed", "r1", "r5", "r10", "map"], rows)
    write_resolved(resolved, out_dir)
    for cell, cell_rows in itertools.groupby(rows, key=lambda row: row[0]):
        *runs, last = cell_rows
        if last[1] == "median":
            print(f"{cell:22s} median R@1={last[2]:.4f} mAP={last[5]:.4f}")
        else:
            failed = len(runs) + 1
            print(f"{cell:22s} no median: {failed}/{failed} seeds failed")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    resolved = load_config(args.config, args.set, args.seed, "gradcheck")
    section = gradcheck_config_from(resolved)
    report = run_battery(points=section["points"], seed=section["seed"],
                         eps=section["eps"], tol=section["tol"])
    rows = [[r.name, r.max_rel_error, r.tol, "pass" if r.passed else "FAIL"]
            for r in report.ops + report.losses]
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(out_dir / "gradcheck.csv",
                  ["check", "max_rel_error", "tol", "status"], rows)
        write_resolved(resolved, out_dir)
    for name, err, tol, status in rows:
        print(f"{status:4s} {name:22s} max_rel_error={err:.3e} (tol {tol:g})")
    if not report.passed:
        failing = ", ".join(r.name for r in report.failures())
        print(f"gradient check FAILED: {failing}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_diag(args) -> int:
    _evaluate_checkpoint(args, include_metrics=False)
    print(f"diagnostic curves written to {Path(args.out)}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged, so
    in-process callers of main share it."""
    parser = argparse.ArgumentParser(
        prog="weakpair",
        description="Uncertainty-aware weak-pair metric learning workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name, help, data=False, checkpoint=False, out_required=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--set", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="override one config key")
        # Only a command whose section has a seed key takes --seed.
        if "seed" in DEFAULTS.get(name, {}):
            p.add_argument("--seed", type=int, default=None, help=f"override {name}.seed")
        if data:
            p.add_argument("--data", required=True, help="dataset file")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="checkpoint file")
        if out_required:
            p.add_argument("--out", required=True, help="output directory")
        else:
            p.add_argument("--out", default=None, help="output directory")
        return p

    common("gen", "generate and split a synthetic dataset")
    common("train", "train a model on a dataset", data=True)
    common("eval", "evaluate a checkpoint", data=True, checkpoint=True).add_argument(
        "--train-data", default=None,
        help="cross-check for identity leakage against this training dataset")
    common("ablate", "run an ablation grid")
    common("gradcheck", "verify gradients", out_required=False)
    common("diag", "re-emit diagnostic curves", data=True, checkpoint=True)
    return parser


_HANDLERS = {"gen": cmd_gen, "train": cmd_train, "eval": cmd_eval,
             "ablate": cmd_ablate, "gradcheck": cmd_gradcheck, "diag": cmd_diag}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (DatasetFormatError, CheckpointFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericAbort, MiningStarvationError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        # covers ConfigError and config/dataclass validation failures
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
