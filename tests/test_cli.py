"""End-to-end command behavior: outputs, determinism, exit codes."""

import csv
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from weakpair import cli, data
from weakpair.autograd import Graph
from weakpair.cli import (DEFAULTS, EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_RUNTIME,
                          ablation_cells, build_parser, load_config, main)
from weakpair.encoders import embed_manifest
from weakpair.metrics import evaluate_model
from weakpair.training import NumericAbort, load_checkpoint


SMALL_GEN = ["--set", "gen.num_identities=24", "--set", "gen.views_per_identity=3",
             "--set", "gen.latent_dim=4", "--set", "gen.raw_dim_image=10",
             "--set", "gen.raw_dim_text=8"]
SMALL_TRAIN = ["--set", "train.epochs=2", "--set", "train.batch_size=5",
               "--set", "train.embed_dim=6", "--set", "train.hidden_dim=8"]


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset plus one trained checkpoint, shared by tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["gen", "--out", str(root / "data"), *SMALL_GEN]) == EXIT_OK
    assert main(["train", "--data", str(root / "data" / "train.tsv"),
                 "--out", str(root / "run"), *SMALL_TRAIN]) == EXIT_OK
    return root


class TestGen:
    def test_outputs_and_counts(self, workspace):
        data = workspace / "data"
        assert (data / "train.tsv").exists()
        assert (data / "test.tsv").exists()
        assert (data / "resolved.cfg").exists()
        n_train = len((data / "train.tsv").read_text().splitlines()) - 1
        n_test = len((data / "test.tsv").read_text().splitlines()) - 1
        assert n_train + n_test == 24 * 3

    def test_repeat_is_byte_identical(self, workspace, tmp_path):
        main(["gen", "--out", str(tmp_path / "again"), *SMALL_GEN])
        for name in ("train.tsv", "test.tsv"):
            assert (tmp_path / "again" / name).read_bytes() == \
                   (workspace / "data" / name).read_bytes()

    def test_invalid_mask_rate_is_config_error(self, tmp_path, capsys):
        code = main(["gen", "--out", str(tmp_path / "x"),
                     "--set", "gen.annotation_mask_rate=1.2"])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "x"),
                     "--set", "gen.bogus=1"]) == EXIT_CONFIG

    def test_unknown_section_rejected(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "x"),
                     "--set", "nope.key=1"]) == EXIT_CONFIG

    def test_malformed_set(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "x"),
                     "--set", "no-equals"]) == EXIT_CONFIG


class TestTrain:
    def test_outputs(self, workspace):
        run = workspace / "run"
        assert (run / "checkpoint.json").exists()
        rows = read_csv(run / "train_log.csv")
        assert rows[0][:3] == ["step", "lr", "itc"]
        assert len(rows) - 1 == 2 * 4  # 2 epochs x ceil(20/5) steps

    def test_same_seed_identical_outputs(self, workspace, tmp_path):
        args = ["train", "--data", str(workspace / "data" / "train.tsv"), *SMALL_TRAIN]
        main([*args, "--out", str(tmp_path / "a")])
        main([*args, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "train_log.csv").read_bytes() == \
               (tmp_path / "b" / "train_log.csv").read_bytes()
        assert (tmp_path / "a" / "checkpoint.json").read_bytes() == \
               (tmp_path / "b" / "checkpoint.json").read_bytes()

    def test_baseline_log_zeroes_unused_columns(self, workspace, tmp_path):
        main(["train", "--data", str(workspace / "data" / "train.tsv"),
              "--out", str(tmp_path / "base"), *SMALL_TRAIN,
              "--set", "train.ablation_mode=baseline"])
        rows = read_csv(tmp_path / "base" / "train_log.csv")
        header, body = rows[0], rows[1:]
        for col in ("uitc", "gitm_txt", "gitm_img"):
            idx = header.index(col)
            assert all(float(r[idx]) == 0.0 for r in body)

    def test_missing_dataset_is_io_error(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope.tsv"),
                     "--out", str(tmp_path / "x")]) == EXIT_IO

    def test_small_run_is_fast(self, tmp_path):
        """32 identities, 200 steps, single core, well under a minute."""
        main(["gen", "--out", str(tmp_path / "d"), "--set", "gen.num_identities=39",
              "--set", "gen.views_per_identity=2", "--set", "gen.latent_dim=4",
              "--set", "gen.raw_dim_image=10", "--set", "gen.raw_dim_text=8"])
        started = time.perf_counter()
        code = main(["train", "--data", str(tmp_path / "d" / "train.tsv"),
                     "--out", str(tmp_path / "r"), *SMALL_TRAIN,
                     "--set", "train.epochs=50", "--set", "train.batch_size=8"])
        elapsed = time.perf_counter() - started
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "r" / "train_log.csv")
        assert len(rows) - 1 == 200
        assert elapsed < 60.0


class TestEval:
    def test_metrics_schema(self, workspace, tmp_path):
        code = main(["eval", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--data", str(workspace / "data" / "test.tsv"),
                     "--out", str(tmp_path / "ev")])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "ev" / "metrics.csv")
        assert rows[0] == ["metric", "param", "value"]
        metrics = {r[0] for r in rows[1:]}
        assert {"recall", "map", "pr_auc", "mean_u_correct",
                "mean_u_incorrect"} <= metrics
        curve = read_csv(tmp_path / "ev" / "pr_curve.csv")
        assert curve[0] == ["recall", "precision"] and len(curve) == 101
        risk = read_csv(tmp_path / "ev" / "risk_coverage.csv")
        assert len(risk) == 21

    def test_curve_cells_are_numbers(self, workspace, tmp_path):
        assert main(["eval", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--data", str(workspace / "data" / "test.tsv"),
                     "--out", str(tmp_path / "ev")]) == EXIT_OK
        for name in ("pr_curve.csv", "risk_coverage.csv", "margins_weak.csv",
                     "margins_pos.csv"):
            for row in read_csv(tmp_path / "ev" / name)[1:]:
                for cell in row:
                    float(cell)  # raises on text such as "np.float64(0.05)"

    @pytest.mark.parametrize("case, named", [
        ("missing_param", "head.w_out"),
        ("nan_param", "img.b1"),
        ("string_param", "params['img.w1']: entry 0 is '0.123', not a number"),
        ("boolean_moment", "opt_m['txt.b1']: entry 0 is True, not a number"),
        ("unreshapable_record", "txt.w2"),
        ("transposed_shape", "txt.w2"),
        ("nan_dataset_entry", "record 3"),
        ("raw_width_mismatch", "image raw width 12, but checkpoint"),
        ("config_mapping", "config: unknown mapping 'cubic'"),
        ("config_step", "step must be an integer >= 0, got 'x'"),
        ("huge_hidden_dim", "params['img.w1']: shape (10, 8), expected (10, 1000000000000)"),
        ("zero_raw_width", "params['img.w1']: shape (0, 8), expected (1, 8)"),
        ("header_not_a_number", "header view_noise: could not convert"),
        ("header_out_of_range", "header: raw_dim_image must be >= 1, got -1"),
        ("header_unknown_key", "unknown header key 'colour'"),
        ("header_repeated_key", "repeated header key 'seed'"),
        ("dataset_not_utf8", "test.tsv: record 3: not UTF-8 (byte 0xff"),
        ("checkpoint_not_utf8", "checkpoint.json: not a checkpoint file (not UTF-8"),
    ])
    def test_malformed_input_exits_io_naming_it(self, workspace, tmp_path, capsys,
                                                case, named):
        checkpoint = workspace / "run" / "checkpoint.json"
        dataset = workspace / "data" / "test.tsv"
        if case == "nan_dataset_entry":
            lines = dataset.read_text().splitlines()
            fields = lines[4].split("\t")
            fields[2] = "nan," + fields[2].split(",", 1)[1]
            lines[4] = "\t".join(fields)
            dataset = tmp_path / "test.tsv"
            dataset.write_text("\n".join(lines) + "\n")
        elif case.startswith("header_"):
            pattern, replacement = {
                "header_not_a_number": (r"view_noise=\S+", "view_noise=xyz"),
                "header_out_of_range": (r"raw_dim_image=\S+", "raw_dim_image=-1"),
                "header_unknown_key": (r"seed=\S+", r"\g<0> colour=red"),
                "header_repeated_key": (r"seed=\S+", r"\g<0> seed=5")}[case]
            text = re.sub(pattern, replacement, dataset.read_text(), count=1)
            dataset = tmp_path / "test.tsv"
            dataset.write_text(text)
        elif case == "dataset_not_utf8":
            lines = dataset.read_bytes().split(b"\n")
            lines[4] += b"\xff"
            dataset = tmp_path / "test.tsv"
            dataset.write_bytes(b"\n".join(lines))
        elif case == "checkpoint_not_utf8":
            damaged = tmp_path / "checkpoint.json"
            damaged.write_bytes(checkpoint.read_bytes() + b"\xff")
            checkpoint = damaged
        elif case == "raw_width_mismatch":
            assert main(["gen", "--out", str(tmp_path / "wide"), *SMALL_GEN,
                         "--set", "gen.raw_dim_image=12"]) == EXIT_OK
            dataset = tmp_path / "wide" / "test.tsv"
        else:
            payload = json.loads(checkpoint.read_text())
            params = payload["params"]
            if case == "config_mapping":
                payload["config"]["mapping"] = "cubic"
            elif case == "config_step":
                payload["step"] = "x"
            elif case == "huge_hidden_dim":
                payload["config"]["hidden_dim"] = 10 ** 12
            elif case == "zero_raw_width":
                for section in ("params", "opt_m", "opt_v"):
                    payload[section]["img.w1"] = {"shape": [0, 8], "data": []}
            elif case == "missing_param":
                del params["head.w_out"]
            elif case == "nan_param":
                params["img.b1"]["data"][0] = float("nan")
            elif case == "string_param":
                params["img.w1"]["data"][0] = "0.123"
            elif case == "boolean_moment":
                payload["opt_m"]["txt.b1"]["data"][0] = True
            elif case == "unreshapable_record":
                params["txt.w2"]["shape"] = [3, 3]
            else:
                params["txt.w2"]["shape"] = params["txt.w2"]["shape"][::-1]
            checkpoint = tmp_path / "checkpoint.json"
            checkpoint.write_text(json.dumps(payload))
        code = main(["eval", "--checkpoint", str(checkpoint), "--data", str(dataset),
                     "--out", str(tmp_path / "ev")])
        assert code == EXIT_IO
        assert named in capsys.readouterr().err

    def test_missing_checkpoint_is_io_error(self, workspace, tmp_path):
        assert main(["eval", "--checkpoint", str(tmp_path / "none.json"),
                     "--data", str(workspace / "data" / "test.tsv"),
                     "--out", str(tmp_path / "x")]) == EXIT_IO

    @pytest.mark.parametrize("command", ["eval", "diag"])
    def test_summary_matches_the_evaluation(self, workspace, tmp_path, command):
        checkpoint = workspace / "run" / "checkpoint.json"
        dataset = workspace / "data" / "test.tsv"
        for out in ("a", "b"):
            assert main([command, "--checkpoint", str(checkpoint), "--data", str(dataset),
                         "--out", str(tmp_path / out), "--set", "eval.eval_seed=11"]) == EXIT_OK
        text = (tmp_path / "a" / "summary.json").read_text()
        assert (tmp_path / "b" / "summary.json").read_text() == text
        ckpt, manifest = load_checkpoint(checkpoint), data.read(dataset)
        result = evaluate_model(ckpt.params, manifest,
                                ckpt.config.mapping, eval_seed=11)
        assert json.loads(text) == {
            "records": len(manifest.records),
            "identities": len({r.identity for r in manifest.records}),
            "ranked_queries": len(result.ranking.queries),
            "excluded_queries": result.ranking.excluded,
            "zero_norm_rows": result.zero_norm_rows,
            "mapping": ckpt.config.mapping,
            "eval_seed": 11,
        }
        assert len(result.uncertainties) == len(manifest.records)

    def test_diag_emits_curves_only(self, workspace, tmp_path):
        code = main(["diag", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--data", str(workspace / "data" / "test.tsv"),
                     "--out", str(tmp_path / "dg")])
        assert code == EXIT_OK
        names = {p.name for p in (tmp_path / "dg").iterdir()}
        assert {"pr_curve.csv", "risk_coverage.csv", "reliability.csv",
                "margins_weak.csv", "margins_pos.csv"} <= names
        assert "metrics.csv" not in names


class TestAblate:
    def test_default_grid_structure(self, tmp_path):
        code = main(["ablate", "--out", str(tmp_path / "abl"), *SMALL_GEN,
                     *SMALL_TRAIN, "--set", "ablate.seeds=1,2"])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "abl" / "ablation.csv")[1:]
        cells = [name for name, _ in ablation_cells("losses")]
        assert [r[0] for r in rows] == [c for c in cells for _ in range(3)]
        per_seed = [r for r in rows if r[1] != "median"]
        assert len(per_seed) == 4 * 2
        medians = [r for r in rows if r[1] == "median"]
        assert len(medians) == 4

    def test_mapping_grid(self, tmp_path):
        code = main(["ablate", "--out", str(tmp_path / "maps"), *SMALL_GEN,
                     *SMALL_TRAIN, "--set", "ablate.grid=mappings",
                     "--set", "ablate.seeds=3"])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "maps" / "ablation.csv")[1:]
        assert [r[0] for r in rows[::2]] == ["mapping_exponential",
                                             "mapping_linear", "mapping_power"]
        for row in rows:
            assert 0.0 <= float(row[5]) <= 1.0

    def test_failed_cell_recorded_remaining_run(self, tmp_path):
        # batch_size 2 starves neg3v6 mining (k=2 needs 3+ identities per batch)
        code = main(["ablate", "--out", str(tmp_path / "partial"), *SMALL_GEN,
                     *SMALL_TRAIN, "--set", "train.batch_size=2",
                     "--set", "ablate.seeds=1"])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "partial" / "ablation.csv")[1:]
        by_cell = {r[0]: r for r in rows}
        assert by_cell["uitc_gitm_neg3v6"][2] == "error"
        assert float(by_cell["baseline"][5]) >= 0.0


    def test_cell_whose_every_seed_failed_still_prints_a_line(self, tmp_path, capsys,
                                                              monkeypatch):
        """A cell with no median row prints how many of its seeds failed in
        its place; a cell with one failed seed of two keeps its median."""
        trained = cli.train

        def failing_train(cfg, dataset):
            if cfg.ablation_mode == "uitc" or (cfg.ablation_mode, cfg.seed) == ("baseline", 2):
                raise NumericAbort("step 0: diverged")
            return trained(cfg, dataset)

        monkeypatch.setattr(cli, "train", failing_train)
        code = main(["ablate", "--out", str(tmp_path / "abl"), *SMALL_GEN,
                     *SMALL_TRAIN, "--set", "ablate.seeds=1,2"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == [
            name for name, _ in ablation_cells("losses")]
        assert lines[1] == f"{'uitc':22s} no median: 2/2 seeds failed"
        assert all(re.fullmatch(r"\S+ +median R@1=\d\.\d{4} mAP=\d\.\d{4}", line)
                   for line in lines[:1] + lines[2:])
        rows = read_csv(tmp_path / "abl" / "ablation.csv")[1:]
        assert [r[1:3] for r in rows if r[0] == "uitc"] == [["1", "error"], ["2", "error"]]


class TestGradcheckCommand:
    def test_passes_and_reports(self, capsys):
        assert main(["gradcheck", "--set", "gradcheck.points=1"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("loss:itc", "loss:uitc", "loss:itm", "loss:gitm", "loss:total"):
            assert name in out

    def test_injected_sign_bug_is_caught_and_named(self, monkeypatch, capsys):
        original = Graph.tower

        def broken_tower(self, *args):
            node = original(self, *args)
            true_vjp = node._vjp
            node._vjp = lambda g: tuple(None if c is None else -c
                                        for c in true_vjp(g))
            return node

        monkeypatch.setattr(Graph, "tower", broken_tower)
        assert main(["gradcheck", "--set", "gradcheck.points=1"]) == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert "op:tower" in captured.err
        assert "FAIL op:tower" in captured.out

    @pytest.mark.parametrize("setting", [
        "points=0", "points=-1", "tol=nan", "tol=inf", "tol=-1", "tol=0",
        "eps=1", "eps=1e-9", "eps=nan", "seed=-1"])
    def test_section_rejected_before_any_check(self, setting, capsys):
        """A battery of no points, a tolerance nothing can meet (or everything
        meets), an eps outside grad_check's range and a seed numpy cannot
        take are config errors."""
        assert main(["gradcheck", "--set", f"gradcheck.{setting}"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"gradcheck.{setting.split('=')[0]}" in captured.err


class TestConfigPlumbing:
    def test_resolved_config_written_and_reloadable(self, workspace, tmp_path):
        resolved = load_config(str(workspace / "data" / "resolved.cfg"), [])
        assert resolved["gen"]["num_identities"] == 24

    def test_config_file_roundtrip_drives_gen(self, workspace, tmp_path):
        code = main(["gen", "--config", str(workspace / "data" / "resolved.cfg"),
                     "--out", str(tmp_path / "re")])
        assert code == EXIT_OK
        assert (tmp_path / "re" / "train.tsv").read_bytes() == \
               (workspace / "data" / "train.tsv").read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        main(["gen", "--out", str(tmp_path / "s1"), *SMALL_GEN, "--seed", "9"])
        main(["gen", "--out", str(tmp_path / "s2"), *SMALL_GEN, "--seed", "9"])
        main(["gen", "--out", str(tmp_path / "s3"), *SMALL_GEN, "--seed", "10"])
        a = (tmp_path / "s1" / "train.tsv").read_bytes()
        assert a == (tmp_path / "s2" / "train.tsv").read_bytes()
        assert a != (tmp_path / "s3" / "train.tsv").read_bytes()

    @pytest.mark.parametrize("command", ["gen", "train", "gradcheck"])
    def test_seed_flag_sets_the_command_seed(self, workspace, tmp_path, command):
        argv = {"gen": SMALL_GEN,
                "train": ["--data", str(workspace / "data" / "train.tsv"), *SMALL_TRAIN,
                          "--set", "train.epochs=1"],
                "gradcheck": ["--set", "gradcheck.points=1"]}[command]
        assert main([command, *argv, "--seed", "5", "--out", str(tmp_path / "o")]) == EXIT_OK
        assert load_config(str(tmp_path / "o" / "resolved.cfg"), [])[command]["seed"] == 5

    @pytest.mark.parametrize("command", ["eval", "diag", "ablate"])
    def test_seed_flag_rejected_without_a_seed_key(self, workspace, tmp_path, command, capsys):
        inputs = ["--checkpoint", str(workspace / "run" / "checkpoint.json"),
                  "--data", str(workspace / "data" / "test.tsv")]
        with pytest.raises(SystemExit) as exc:
            main([command, *(inputs if command != "ablate" else []),
                  "--out", str(tmp_path / "o"), "--seed", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_back_to_back_calls_share_no_overrides(self, tmp_path):
        """main reuses one parser; a --set given to one call is absent from
        the next, and a call without --set leaves the parser's empty list
        empty for the one after it."""
        assert build_parser() is build_parser()
        assert main(["gen", "--out", str(tmp_path / "a"), *SMALL_GEN,
                     "--set", "gen.seed=9"]) == EXIT_OK
        assert main(["gen", "--out", str(tmp_path / "b"), "--seed", "4"]) == EXIT_OK
        first = load_config(str(tmp_path / "a" / "resolved.cfg"), [])
        second = load_config(str(tmp_path / "b" / "resolved.cfg"), [])
        assert first["gen"]["seed"] == 9 and first["gen"]["num_identities"] == 24
        assert second["gen"] == {**DEFAULTS["gen"], "seed": 4}
        args = build_parser().parse_args(["gen", "--out", str(tmp_path / "c")])
        assert args.set == [] and args.seed is None

    def test_usage_error_leaves_the_next_call_working(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", *SMALL_GEN, "--set", "gen.seed=3"])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert main(["gen", "--out", str(tmp_path / "ok"), *SMALL_GEN]) == EXIT_OK
        resolved = load_config(str(tmp_path / "ok" / "resolved.cfg"), [])
        assert resolved["gen"]["seed"] == DEFAULTS["gen"]["seed"]


class TestLeakageCrossCheck:
    def test_disjoint_data_is_quiet(self, workspace, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--data", str(workspace / "data" / "test.tsv"),
                     "--train-data", str(workspace / "data" / "train.tsv"),
                     "--out", str(tmp_path / "ev")])
        assert code == EXIT_OK
        assert "warning" not in capsys.readouterr().err

    def test_overlap_warns(self, workspace, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
                     "--data", str(workspace / "data" / "train.tsv"),
                     "--train-data", str(workspace / "data" / "train.tsv"),
                     "--out", str(tmp_path / "ev")])
        assert code == EXIT_OK
        assert "identities appear in both" in capsys.readouterr().err


def test_eval_outputs_deterministic(workspace, tmp_path):
    args = ["eval", "--checkpoint", str(workspace / "run" / "checkpoint.json"),
            "--data", str(workspace / "data" / "test.tsv")]
    main([*args, "--out", str(tmp_path / "a")])
    main([*args, "--out", str(tmp_path / "b")])
    for name in ("metrics.csv", "pr_curve.csv", "risk_coverage.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("command, key, value", [
    ("train", "alpha", "nan"), ("train", "beta", "inf"), ("train", "base_lr", "nan"),
    ("train", "weight_decay", "nan"), ("train", "tau_init", "inf"),
    ("gen", "view_noise", "nan"), ("gen", "view_noise", "inf")])
def test_non_finite_float_is_config_error_naming_the_key(workspace, tmp_path, capsys,
                                                         command, key, value):
    """Rejected at load time, before any step runs or any file is written."""
    argv = [command, "--out", str(tmp_path / "x"), "--set", f"{command}.{key}={value}"]
    if command == "train":
        argv += ["--data", str(workspace / "data" / "train.tsv")]
    assert main(argv) == EXIT_CONFIG
    assert f"config error: {key} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_negative_weight_decay_is_config_error_naming_the_key(workspace, tmp_path, capsys):
    """A negative decay would grow every decayed weight; rejected before any step."""
    argv = ["train", "--out", str(tmp_path / "x"), "--set", "train.weight_decay=-1",
            "--data", str(workspace / "data" / "train.tsv")]
    assert main(argv) == EXIT_CONFIG
    assert "config error: weight_decay must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["eval", "diag"])
def test_overflowing_encoder_is_runtime_error_naming_the_record(workspace, tmp_path,
                                                                capsys, command):
    """A finite checkpoint whose image tower overflows is a numeric failure of
    the run, not a config error."""
    payload = json.loads((workspace / "run" / "checkpoint.json").read_text())
    w2 = payload["params"]["img.w2"]
    w2["data"] = [1e308] * len(w2["data"])
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(payload))
    dataset = workspace / "data" / "test.tsv"
    img, txt, *_ = embed_manifest(load_checkpoint(checkpoint).params,
                                  data.read(dataset))
    first = np.flatnonzero(~(np.isfinite(img).all(axis=1) & np.isfinite(txt).all(axis=1)))[0]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--checkpoint", str(checkpoint), "--data", str(dataset),
                     "--out", str(tmp_path / "ev")])
    assert code == EXIT_RUNTIME
    # The error line alone: no numpy warning ahead of it.
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"runtime error: record {first}: non-finite embedding\n"


@pytest.mark.parametrize("command", ["gen", "ablate"])
@pytest.mark.parametrize("fraction", ["1.5", "0", "nan"])
def test_bad_train_fraction_is_config_error_before_generating(tmp_path, capsys, monkeypatch,
                                                              command, fraction):
    """Rejected with the key's full name before any data is generated; gen
    leaves no output directory behind."""
    def no_generation(*args, **kwargs):
        raise AssertionError("dataset generated")

    monkeypatch.setattr("weakpair.cli.datamod.generate", no_generation)
    argv = [command, "--out", str(tmp_path / "x"), "--set", f"gen.train_fraction={fraction}"]
    assert main(argv) == EXIT_CONFIG
    assert "config error: gen.train_fraction must be in (0, 1)" in capsys.readouterr().err
    if command == "gen":
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, setting, named", [
    ("train", "train.embed_dim=0", "embed_dim must be >= 1"),
    ("train", "train.hidden_dim=-2", "hidden_dim must be >= 1"),
    ("train", "train.seed=-1", "seed must be >= 0"),
    ("train", "train.epochs=-1", "epochs must be >= 0, got -1"),
    ("train", "train.base_lr=0", "base_lr must be positive, got 0.0"),
    ("train", "train.warmup_steps=-1", "warmup_steps must be >= 0, got -1"),
    ("train", "train.alpha=-0.5", "alpha must be >= 0, got -0.5"),
    ("train", "train.beta=-1", "beta must be >= 0, got -1.0"),
    ("gen", "gen.seed=-5", "seed must be >= 0"),
    ("gen", "gen.split_seed=-5", "gen.split_seed must be >= 0"),
    ("ablate", "ablate.seeds=1,x", "ablate.seeds: invalid literal"),
    ("ablate", "ablate.seeds=-3", "ablate.seeds must be >= 0"),
    ("ablate", "ablate.seeds=1,1,2", "ablate.seeds names seed 1 twice"),
    ("ablate", "ablate.seeds=", "ablate.seeds must name at least one seed"),
    ("ablate", "ablate.grid=nope", "unknown ablation grid 'nope'"),
    ("ablate", "train.mining_k=0", "mining_mode/mining_k"),
])
def test_bad_setting_is_config_error_before_any_training(workspace, tmp_path, capsys,
                                                         monkeypatch, command, setting, named):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr("weakpair.cli.train", no_training)
    argv = [command, "--out", str(tmp_path / "x"), "--set", setting]
    if command == "train":
        argv += ["--data", str(workspace / "data" / "train.tsv")]
    assert main(argv) == EXIT_CONFIG
    assert f"config error: {named}" in capsys.readouterr().err
    assert not (tmp_path / "x" / "ablation.csv").exists()


def test_diverging_train_is_one_runtime_error_line(workspace, tmp_path, capsys):
    """A learning rate that blows the step up overflows exp: the run exits with
    the finite-loss check's line alone, no numpy warning ahead of it."""
    argv = ["train", "--data", str(workspace / "data" / "train.tsv"),
            "--out", str(tmp_path / "x"), *SMALL_TRAIN, "--set", "train.base_lr=1000",
            "--set", "train.warmup_steps=0", "--set", "train.epochs=3"]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code == EXIT_RUNTIME
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert re.fullmatch(r"runtime error: step \d+: non-finite (loss|parameter)[^\n]*\n", err), err


@pytest.mark.parametrize("command,kept", [("eval", "header"), ("eval", "record"),
                                          ("diag", "header"), ("train", "record"),
                                          ("train", "identity")])
def test_dataset_under_two_identities_is_io_error_naming_it(workspace, tmp_path, capsys,
                                                            command, kept):
    """A header-only file, one record, or one identity's records: exit 3 with
    the file and its identity count, before any output is written."""
    header, *records = (workspace / "data" / "train.tsv").read_text().splitlines()
    first = records[0].split("\t")[0]
    lines = {"header": [], "record": records[:1],
             "identity": [r for r in records if r.split("\t")[0] == first]}[kept]
    dataset = tmp_path / "small.tsv"
    dataset.write_text("\n".join([header, *lines]) + "\n")
    argv = [command, "--data", str(dataset), "--out", str(tmp_path / "x")]
    if command != "train":
        argv += ["--checkpoint", str(workspace / "run" / "checkpoint.json")]
    assert main(argv) == EXIT_IO
    count = 0 if kept == "header" else 1
    assert capsys.readouterr().err == (
        f"i/o error: {dataset}: need at least 2 identities, found {count}\n")
    assert not (tmp_path / "x").exists()


def test_commands_leave_numpy_ma_unimported(tmp_path):
    """No command imports numpy.ma, which a plain np.unique does (~15 ms and
    ~1.2 MB per process): gen, train, eval and diag in one process."""
    commands = [["gen", "--out", "data", *SMALL_GEN],
                ["train", "--data", "data/train.tsv", "--out", "run", *SMALL_TRAIN],
                *([command, "--data", "data/test.tsv", "--checkpoint", "run/checkpoint.json",
                   "--out", command] for command in ("eval", "diag"))]
    script = ("import contextlib, io, sys\n"
              "from weakpair.cli import main\n"
              f"for argv in {commands!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        code = main(argv)\n"
              "    print(argv[0], code, 'numpy.ma' in sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [f"{argv[0]} 0 False" for argv in commands]
