"""End-to-end metamorphic relations: training and evaluation do not depend on
how identities are numbered or on how rows are laid out.

Two transformations of a generated dataset, each written with data.write and
read back before use:
- identities relabelled by a strictly increasing map (id -> 3 * id + 7);
- an order-keeping row interleave: rows shuffled, each identity's records
  kept in their order.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from weakpair import cli, data
from weakpair.metrics import evaluate_model
from weakpair.training import ABLATION_MODES, TrainConfig, checkpoints_equal, train

SMALL = dict(views_per_identity=3, latent_dim=4, raw_dim_image=10, raw_dim_text=8)


def relabelled(d: data.DatasetManifest) -> data.DatasetManifest:
    return data.DatasetManifest(d.version, d.gen_config, 3 * d.identity + 7, d.view,
                                d.image, d.text, d.split_tag)


def interleaved(d: data.DatasetManifest, seed: int) -> data.DatasetManifest:
    """The rows in a random order that keeps each identity's records in order."""
    slots = d.identity[np.random.default_rng(seed).permutation(d.identity.shape[0])]
    order = np.empty_like(slots)
    order[np.argsort(slots, kind="stable")] = np.argsort(d.identity, kind="stable")
    return d.take(order)


def through_files(d: data.DatasetManifest, root: Path, name: str) -> data.DatasetManifest:
    data.write(d, root / name)
    return data.read(root / name)


def train_log_bytes(log, root: Path) -> bytes:
    cli.write_csv(root / "train_log.csv", *cli.train_log_rows(log))
    return (root / "train_log.csv").read_bytes()


def eval_csvs(result, root: Path) -> dict[str, bytes]:
    (root / "eval").mkdir(exist_ok=True)
    cli.write_eval_outputs(result, root / "eval")
    return {path.name: path.read_bytes() for path in sorted((root / "eval").glob("*.csv"))}


@pytest.mark.parametrize("mode", ABLATION_MODES)
@given(gen_seed=st.integers(0, 2 ** 16), layout_seed=st.integers(0, 2 ** 16))
# Seeds shrink to nothing more telling, so a failure reports its first example.
@settings(max_examples=5, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_training_and_eval_ignore_identity_numbers_and_row_layout(mode, gen_seed, layout_seed):
    train_set = data.generate(data.GenConfig(num_identities=21, seed=gen_seed, **SMALL))
    eval_set = data.generate(data.GenConfig(num_identities=8, seed=gen_seed + 1, **SMALL))
    cfg = TrainConfig(epochs=2, batch_size=7, embed_dim=6, hidden_dim=8,
                      ablation_mode=mode, seed=gen_seed)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ckpt, log = train(cfg, train_set)
        result = evaluate_model(ckpt.params, eval_set, cfg.mapping)
        log_bytes = train_log_bytes(log, root)
        csvs = eval_csvs(result, root)

        # Relabelled identities: every output byte for byte.
        ckpt_r, log_r = train(cfg, through_files(relabelled(train_set), root, "train_r.tsv"))
        assert checkpoints_equal(ckpt_r, ckpt)
        assert train_log_bytes(log_r, root) == log_bytes
        result_r = evaluate_model(ckpt_r.params,
                                  through_files(relabelled(eval_set), root, "eval_r.tsv"),
                                  cfg.mapping)
        assert eval_csvs(result_r, root) == csvs

        # Interleaved training rows: the same checkpoint and log.
        ckpt_i, log_i = train(cfg, through_files(interleaved(train_set, layout_seed),
                                                 root, "train_i.tsv"))
        assert checkpoints_equal(ckpt_i, ckpt)
        assert train_log_bytes(log_i, root) == log_bytes

        # Interleaved eval rows: the same retrieval and reliability figures.
        # Margins draw their tuples per record in record order, so they may move.
        result_i = evaluate_model(ckpt.params,
                                  through_files(interleaved(eval_set, layout_seed),
                                                root, "eval_i.tsv"),
                                  cfg.mapping)
        assert result_i.recalls == result.recalls
        assert result_i.mean_ap == result.mean_ap
        assert result_i.pr.auc == result.pr.auc
        assert result_i.reliability == result.reliability


def test_interleave_keeps_each_identity_in_order():
    d = data.generate(data.GenConfig(num_identities=6, seed=3, **SMALL))
    for seed in range(5):
        moved = interleaved(d, seed)
        assert sorted(map(tuple, moved.image.tolist())) == sorted(map(tuple, d.image.tolist()))
        for identity in range(6):
            assert moved.view[moved.identity == identity].tolist() == [0, 1, 2]
    assert any(not np.array_equal(interleaved(d, s).identity, d.identity) for s in range(5))
