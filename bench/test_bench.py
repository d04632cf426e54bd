"""Fast tests of the benchmark itself: its arithmetic, its checks, its chunking.

Run with ``python -m pytest -q bench`` from the repository root.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from weakpair import autograd, cli, training, verify
from weakpair.losses import LossReport
from weakpair.training import StepRecord

import checks
import measure
import run
import tracing
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# -- arithmetic -------------------------------------------------------------------


def test_lower_quartile_on_known_inputs():
    # Exclusive method: position (n + 1) / 4 = 2.25 between 2 and 3.
    assert measure.lower_quartile([8, 1, 7, 2, 6, 3, 5, 4]) == 2.25
    assert measure.lower_quartile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]) == 2.0
    with pytest.raises(ValueError):
        measure.lower_quartile([1.0])


def test_blocked_lower_quartile_on_known_inputs():
    # Blocks [1..4] and [5..10] (the trailing two join the second): 1.25 and 5.75.
    assert measure.blocked_lower_quartile([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 4) == 3.5
    assert measure.blocked_lower_quartile([1, 2, 3, 4, 5, 6, 7, 8], 4) == 3.25
    # Fewer values than one block: one block of all of them.
    assert measure.blocked_lower_quartile([1.0, 2.0, 3.0], 4) == 1.0
    with pytest.raises(ValueError):
        measure.blocked_lower_quartile([1.0, 2.0], 1)


def test_rate_on_known_inputs():
    assert measure.rate(10, 4.0) == 2.5
    with pytest.raises(ValueError):
        measure.rate(3, 0.0)


def test_end_to_end_metrics_from_item_times():
    out = measure.end_to_end([0.1, 0.2, 0.3, 0.4], setup_s=1.5, block=4)
    assert out["setup_s"] == {"value": 1.5, "unit": "s"}
    assert out["items_per_s"]["value"] == pytest.approx(4.0)
    # (n + 1) / 4 = 1.25: a quarter of the way from 0.1 to 0.2 seconds.
    assert out["item_ms_p25"]["value"] == pytest.approx(125.0)
    assert out["peak_rss_mb"]["value"] > 0.0
    assert [m["unit"] for m in out.values()] == ["s", "1/s", "ms", "MB"]


def test_printed_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    printed = measure.end_to_end([0.1, 0.2], setup_s=1.0, block=2)
    assert declared == {name: m["unit"] for name, m in printed.items()}
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


# -- training checks --------------------------------------------------------------


def _step(total_offset=0.0, u_min=0.5, u_max=2.0, itc=1.2):
    parts = dict(itc=itc, uitc=2.5, itm=0.7, gitm_txt=0.4, gitm_img=0.3)
    total = (parts["itc"] + parts["itm"] + 0.5 * parts["uitc"]
             + 0.1 * (parts["gitm_txt"] + parts["gitm_img"]))
    report = LossReport(**parts, total=total + total_offset, mean_s_w=0.3, mean_u_w=0.8)
    return StepRecord(0, 1e-3, report, u_min, u_max, 0, 0.0)


def test_train_check_accepts_a_consistent_step():
    assert checks.train_log_problems([_step()], 0.5, 0.1) == []


@pytest.mark.parametrize("step", [_step(total_offset=1e-6), _step(u_min=0.3),
                                  _step(u_max=2.8), _step(itc=math.nan)])
def test_train_check_rejects_a_wrong_step(step):
    assert checks.train_log_problems([step], 0.5, 0.1)


def test_improvement_check():
    assert checks.improvement_problems(0.10, 0.11) == []
    assert checks.improvement_problems(0.10, 0.10)


class SmallTrain(workloads.TrainGitm):
    OVERRIDES = ["gen.num_identities=24", "gen.views_per_identity=3"]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cfg = dataclasses.replace(self.cfg, epochs=3, batch_size=8)
        self.round_items = self.block_items = self.cfg.epochs


def test_chunked_training_reproduces_one_train_call(tmp_path):
    w = SmallTrain(3, tmp_path)
    w.setup()
    chunked = []
    for index in range(w.round_items):
        w.run_item(index)
        chunked += w.log.steps
    whole, log = training.train(w.cfg, w.train_set)
    assert w.ckpt.step == whole.step == 3 * w.steps_per_epoch
    assert training.checkpoints_equal(w.ckpt, whole)
    assert [(s.step, s.lr, s.report, s.u_min, s.u_max) for s in chunked] == \
        [(s.step, s.lr, s.report, s.u_min, s.u_max) for s in log.steps]


# -- retrieval checks -------------------------------------------------------------


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    """A small trained checkpoint, its test split and its eval outputs."""
    root = tmp_path_factory.mktemp("eval")
    argvs = [["gen", "--out", str(root / "data"), "--set", "gen.num_identities=30"],
             ["train", "--data", str(root / "data" / "train.tsv"),
              "--out", str(root / "model"), "--set", "train.epochs=2"],
             ["eval", "--checkpoint", str(root / "model" / "checkpoint.json"),
              "--data", str(root / "data" / "test.tsv"), "--out", str(root / "eval")]]
    for argv in argvs:
        assert cli.main(argv) == cli.EXIT_OK
    images, texts, ids = checks.read_dataset(root / "data" / "test.tsv")
    params = checks.read_checkpoint_params(root / "model" / "checkpoint.json")
    expected = checks.retrieval(params, images, texts, ids)
    reported, _, _ = checks.read_eval_outputs(root / "eval")
    return expected, reported


def test_recomputed_metrics_match_the_program(evaluated):
    expected, reported = evaluated
    assert checks.eval_problems(reported, 1.0 - reported["r1"], expected) == []


def test_eval_check_rejects_a_perturbed_map(evaluated):
    expected, reported = evaluated
    wrong = {**reported, "map": reported["map"] + 1e-6}
    assert checks.eval_problems(wrong, 1.0 - wrong["r1"], expected)


def test_eval_check_rejects_non_monotone_recalls(evaluated):
    expected, reported = evaluated
    wrong = {**reported, "r5": reported["r1"] - 0.01}
    problems = checks.eval_problems(wrong, 1.0 - wrong["r1"], expected)
    assert any("monotone" in p for p in problems)


def test_eval_check_rejects_a_wrong_full_coverage_risk(evaluated):
    expected, reported = evaluated
    assert checks.eval_problems(reported, 0.5 - reported["r1"], expected)


def test_eval_reader_rejects_cells_that_are_not_numbers(tmp_path):
    (tmp_path / "metrics.csv").write_text("metric,param,value\nmap,,0.5\nrecall,1,0.25\n")
    (tmp_path / "risk_coverage.csv").write_text(
        "coverage,risk\n0.5,0.5\nnp.float64(1.0),0.75\n")
    metrics, full_risk, problems = checks.read_eval_outputs(tmp_path)
    assert metrics == {"map": 0.5, "r1": 0.25}
    assert math.isnan(full_risk)
    assert problems == ["risk_coverage.csv: 1 of 2 coverage cells are not numbers, "
                        "e.g. 'np.float64(1.0)'"]


def test_brute_force_ranks_break_ties_by_gallery_index():
    # Identity towers: rows 0 and 1 embed alike, so query 1 ties gallery 0 and 1.
    params = {f"{t}.{k}": v for t in ("img", "txt") for k, v in
              (("w1", np.eye(2)), ("b1", np.zeros(2)), ("w2", np.eye(2)), ("b2", np.zeros(2)))}
    raw = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    out = checks.retrieval(params, raw, raw, np.array([0, 1, 2]))
    # The tie ranks the lower index first, so query 1 finds its item at rank 2.
    assert out["r1"] == pytest.approx(2 / 3)
    assert out["map"] == pytest.approx((1 + 0.5 + 1) / 3)


# -- gradient checks --------------------------------------------------------------


def test_battery_check_rejects_an_error_at_tolerance():
    good = [verify.CheckResult(f"loss:{n}", 1e-7, 1e-4) for n in verify.LOSS_NAMES]
    assert checks.battery_problems(good, verify.LOSS_NAMES) == []
    bad = good[:-1] + [verify.CheckResult("loss:total", 1e-4, 1e-4)]
    assert checks.battery_problems(bad, verify.LOSS_NAMES)
    assert checks.battery_problems(good[:-1], verify.LOSS_NAMES)


def test_directional_check_rejects_a_sign_flipped_gradient():
    rng = np.random.default_rng(np.random.SeedSequence([11, 1]))
    inst = verify.random_instance(rng)
    build = verify.loss_builder("total", inst)
    params = verify.loss_params("total", inst)

    g = autograd.Graph()
    leaves = {k: g.leaf(v, trainable=True) for k, v in params.items()}
    grads = g.backward(build(g, leaves))
    analytic = {k: grads[leaves[k]] for k in params}

    def loss_at(point):
        g = autograd.Graph()
        return float(build(g, {k: g.leaf(v, trainable=True) for k, v in point.items()}).value)

    assert checks.directional_problems(loss_at, params, analytic,
                                       np.random.default_rng(5)) == []
    flipped = {k: -v for k, v in analytic.items()}
    assert checks.directional_problems(loss_at, params, flipped,
                                       np.random.default_rng(5))
