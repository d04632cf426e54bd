"""The benchmark's workloads, driven through weakpair's public functions.

A workload makes its inputs from the run seed in ``setup`` and then runs
items in whole rounds: ``run_item`` is the timed program call, and
``check_item`` checks its outputs afterwards, off the clock.  ``block_items``
is the block length of the ``item_ms_p25`` quartiles.  ``finish``
holds the checks made once per run.  Each returns a list of problems, empty
when the outputs are correct.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

from weakpair import autograd, cli, data, training, verify

import checks


def _cli(argv: list[str]) -> int:
    """cli.main with its progress lines kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class TrainGitm:
    """The full objective (uitc_gitm, neg3v6 K=2, batch 16) on default data.

    An item is one epoch, a ``train`` call resumed from the previous item's
    checkpoint; a round is one whole 30-epoch schedule from the set-up
    checkpoint.  Exact resume makes every round the same trajectory.
    """

    name = "train_gitm"
    OVERRIDES: list[str] = []  # section.key=value changes to the default config

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cfg = training.TrainConfig(seed=seed)
        self.round_items = self.block_items = self.cfg.epochs

    def setup(self) -> None:
        resolved = cli.load_config(None, self.OVERRIDES, seed=self.seed, seed_target="gen")
        full = data.generate(cli.gen_config_from(resolved))
        self.train_set, self.test_set = data.split(
            full, resolved["gen"]["train_fraction"], self.seed)
        self.steps_per_epoch = math.ceil(len(self.train_set.identities())
                                         / self.cfg.batch_size)
        self.start, _ = training.train(self.cfg, self.train_set, stop_at_step=0)
        self.final_params = None
        self.ckpt = self.start
        self.run_item(0)  # warm-up epoch, discarded

    def held_out_map(self, params) -> float:
        recs = self.test_set.records
        return checks.retrieval(params, np.stack([r.image_raw for r in recs]),
                                np.stack([r.text_raw for r in recs]),
                                np.array([r.identity for r in recs]))["map"]

    def run_item(self, index: int) -> None:
        resume = self.start if index == 0 else self.ckpt
        self.ckpt, self.log = training.train(
            self.cfg, self.train_set, resume=resume,
            stop_at_step=(index + 1) * self.steps_per_epoch)

    def check_item(self, index: int) -> list[str]:
        problems = checks.train_log_problems(self.log.steps, self.cfg.alpha, self.cfg.beta)
        if len(self.log.steps) != self.steps_per_epoch:
            problems.append(f"epoch logged {len(self.log.steps)} steps")
        if index == self.round_items - 1:
            params = self.ckpt.params
            if self.final_params is None:
                self.final_params = params
                problems += checks.improvement_problems(
                    self.held_out_map(self.start.params), self.held_out_map(params))
            elif any(not np.array_equal(params[k], self.final_params[k]) for k in params):
                problems.append("round ended on different parameters than the first")
        return problems

    def finish(self) -> list[str]:
        return []


class Gradcheck:
    """The loss half of the gradient battery, one point per item.

    Seeds come from a fixed list derived from the run seed; every point
    builds the same graph shapes, so items cost the same.
    """

    name = "gradcheck"
    round_items = 1
    block_items = 4
    SEEDS_PER_RUN = 64

    def __init__(self, seed: int, workdir: Path):
        first = seed * self.SEEDS_PER_RUN
        self.seeds = list(range(first, first + self.SEEDS_PER_RUN))
        self.warm_seed = first + self.SEEDS_PER_RUN

    def setup(self) -> None:
        self.done = 0
        verify.check_losses(points=1, seed=self.warm_seed)  # warm-up point

    def run_item(self, index: int) -> None:
        seed = self.seeds[self.done % len(self.seeds)]
        self.results = verify.check_losses(points=1, seed=seed)
        self.done += 1

    def check_item(self, index: int) -> list[str]:
        return checks.battery_problems(self.results, verify.LOSS_NAMES)

    def finish(self) -> list[str]:
        """The battery's analytic gradient of the total loss, checked once."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seeds[0], 1]))
        inst = verify.random_instance(rng)
        build = verify.loss_builder("total", inst)
        params = verify.loss_params("total", inst)
        analytic = autograd.grad_check(build, params).analytic

        def loss_at(point):
            g = autograd.Graph()
            return float(build(g, {k: g.leaf(v, trainable=True) for k, v in point.items()}).value)

        return checks.directional_problems(loss_at, params, analytic, rng)


class EvalGallery:
    """``weakpair eval`` in-process on a 1000-record test gallery.

    Set-up generates 400 identities with 4 views each and keeps 250 of them
    (1000 records) for testing; training on the other 150 for 5 epochs
    makes the checkpoint.
    """

    name = "eval_gallery"
    round_items = 1
    block_items = 4
    GEN = ["--set", "gen.num_identities=400", "--set", "gen.train_fraction=0.375"]
    TRAIN_EPOCHS = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.data_dir, self.model_dir = workdir / "data", workdir / "model"
        self.out_dir = workdir / "eval"
        self.argv = ["eval", "--checkpoint", str(self.model_dir / "checkpoint.json"),
                     "--data", str(self.data_dir / "test.tsv"), "--out", str(self.out_dir)]

    def setup(self) -> None:
        seed = str(self.seed)
        for argv in (["gen", "--out", str(self.data_dir), "--seed", seed, *self.GEN,
                      "--set", f"gen.split_seed={seed}"],
                     ["train", "--data", str(self.data_dir / "train.tsv"),
                      "--out", str(self.model_dir), "--seed", seed,
                      "--set", f"train.epochs={self.TRAIN_EPOCHS}"]):
            if _cli(argv) != cli.EXIT_OK:
                raise RuntimeError(f"set-up command failed: weakpair {' '.join(argv)}")
        self.expected = None
        self.run_item(0)  # warm-up evaluation

    def run_item(self, index: int) -> None:
        self.exit_code = _cli(self.argv)

    def check_item(self, index: int) -> list[str]:
        if self.exit_code != cli.EXIT_OK:
            return [f"eval exited {self.exit_code}"]
        if self.expected is None:
            images, texts, ids = checks.read_dataset(self.data_dir / "test.tsv")
            params = checks.read_checkpoint_params(self.model_dir / "checkpoint.json")
            self.expected = checks.retrieval(params, images, texts, ids)
        reported, full_risk, problems = checks.read_eval_outputs(self.out_dir)
        return problems + checks.eval_problems(reported, full_risk, self.expected)

    def finish(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (TrainGitm, Gradcheck, EvalGallery)}
