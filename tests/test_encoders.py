"""Encoder towers, fusion head, and parameter plumbing."""

import numpy as np
import pytest

from weakpair.autograd import Graph, GraphError, grad_check
from weakpair.encoders import (EmbeddingBatch, ModelDims, dict_to_params,
                               encode, init_model, leaf_group, match_logit,
                               param_shapes)

DIMS = ModelDims(raw_dim_image=6, raw_dim_text=5, hidden_dim=4, embed_dim=3)


def tower_nodes(g, model, prefix):
    leaves = {k: g.constant(v, name=k) for k, v in model.items()}
    return leaf_group(leaves, prefix), leaves


class TestEncode:
    def test_output_is_unit_norm(self):
        rng = np.random.default_rng(0)
        model = init_model(1, DIMS)
        g = Graph()
        tower, _ = tower_nodes(g, model, "img")
        out = encode(g, tower, g.constant(rng.normal(size=(10, 6))))
        np.testing.assert_allclose(np.linalg.norm(out.value, axis=1), 1.0,
                                   rtol=0, atol=1e-12)

    def test_zero_parameters_raise_flag(self):
        model = init_model(1, DIMS)
        for field in ("w1", "b1", "w2", "b2"):
            model[f"img.{field}"] = np.zeros_like(model[f"img.{field}"])
        g = Graph()
        tower, _ = tower_nodes(g, model, "img")
        encode(g, tower, g.constant(np.ones((2, 6))))
        assert g.zero_norm_rows

    def test_deterministic(self):
        model = init_model(3, DIMS)
        raw = np.random.default_rng(1).normal(size=(4, 6))
        outs = []
        for _ in range(2):
            g = Graph()
            tower, _ = tower_nodes(g, model, "img")
            outs.append(encode(g, tower, g.constant(raw)).value)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_dim_mismatch(self):
        model = init_model(1, DIMS)
        g = Graph()
        tower, _ = tower_nodes(g, model, "img")
        with pytest.raises(GraphError):
            encode(g, tower, g.constant(np.ones((2, 7))))


class TestInit:
    def test_same_seed_identical(self):
        a = init_model(9, DIMS)
        b = init_model(9, DIMS)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_biases_zero(self):
        model = init_model(4, DIMS)
        for key in ("img.b1", "img.b2", "txt.b1", "txt.b2", "head.b_hidden", "head.b_out"):
            assert not model[key].any()

    def test_temperature_and_gamma(self):
        model = init_model(4, DIMS, tau_init=0.2)
        assert model["log_tau"] == np.log(0.2) and model["log_tau"].shape == ()
        assert model["log_gamma"] == 0.0 and model["log_gamma"].shape == ()

    def test_forward_finite_at_init(self):
        rng = np.random.default_rng(2)
        model = init_model(5, DIMS)
        g = Graph()
        leaves = {k: g.constant(v) for k, v in model.items()}
        f_img = encode(g, leaf_group(leaves, "img"), g.constant(rng.normal(size=(8, 6))))
        f_txt = encode(g, leaf_group(leaves, "txt"), g.constant(rng.normal(size=(8, 5))))
        z = match_logit(g, leaf_group(leaves, "head"), f_img, f_txt)
        assert z.shape == (8, 1) and np.all(np.isfinite(z.value))

    def test_weight_scale_follows_fan_in(self):
        model = init_model(0, ModelDims(100, 100, 50, 8))
        assert np.abs(model["img.w1"]).max() <= 1.0 / np.sqrt(100)

    @pytest.mark.parametrize("dims", [DIMS, ModelDims(7, 2, 9, 5)])
    def test_keys_and_shapes_follow_param_shapes(self, dims):
        model = init_model(3, dims)
        assert list(model) == list(param_shapes(dims))
        assert {k: v.shape for k, v in model.items()} == param_shapes(dims)

    def test_dict_to_params_keeps_key_order(self):
        model = init_model(7, DIMS)
        shuffled = {k: model[k] for k in reversed(model)}
        out = dict_to_params({**shuffled, "extra": np.zeros(2)})
        assert list(out) == list(model)
        assert all(out[k] is model[k] for k in model)
        del shuffled["head.w_out"]
        with pytest.raises(KeyError, match="head.w_out"):
            dict_to_params(shuffled)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class TestMatchProbability:
    """The match probability is sigmoid(match_logit)."""

    def test_zero_head_gives_half(self):
        model = init_model(1, DIMS)
        for key in param_shapes(DIMS):
            if key.startswith("head."):
                model[key] = np.zeros_like(model[key])
        g = Graph()
        head, _ = tower_nodes(g, model, "head")
        f = g.constant(np.eye(3)[:2])
        z = match_logit(g, head, f, f).value
        np.testing.assert_array_equal(z, [[0.0], [0.0]])
        np.testing.assert_array_equal(sigmoid(z), [[0.5], [0.5]])

    def test_bounded_open_interval(self):
        rng = np.random.default_rng(8)
        model = init_model(2, DIMS)
        g = Graph()
        head, _ = tower_nodes(g, model, "head")
        rows = rng.normal(size=(1000, 3))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        p = sigmoid(match_logit(g, head, g.constant(rows), g.constant(rows)).value)
        assert p.min() > 0.0 and p.max() < 1.0

    def test_order_matters(self):
        # No symmetry is promised: swapping the embeddings changes the logit.
        rng = np.random.default_rng(9)
        model = init_model(3, DIMS)
        g = Graph()
        head, _ = tower_nodes(g, model, "head")
        a = g.constant(rng.normal(size=(1, 3)))
        b = g.constant(rng.normal(size=(1, 3)))
        z_ab = match_logit(g, head, a, b).value
        z_ba = match_logit(g, head, b, a).value
        assert not np.array_equal(z_ab, z_ba)

    def test_head_gradients(self):
        rng = np.random.default_rng(10)
        f_img = rng.normal(size=(3, 3))
        f_img /= np.linalg.norm(f_img, axis=1, keepdims=True)
        f_txt = rng.normal(size=(3, 3))
        f_txt /= np.linalg.norm(f_txt, axis=1, keepdims=True)
        head_params = leaf_group(init_model(4, DIMS), "head")
        perturbed = {k: v + rng.normal(0.0, 0.3, size=v.shape)
                     for k, v in head_params.items()}
        labels = np.array([[1.0], [0.0], [1.0]])

        def loss_fn(g, lv):
            z = match_logit(g, lv, g.constant(f_img), g.constant(f_txt))
            return g.mean(g.bce_logits(z, labels))

        report = grad_check(loss_fn, perturbed, eps=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_error


def test_embedding_batch_row_counts_checked():
    with pytest.raises(ValueError):
        EmbeddingBatch(np.ones((2, 3)), np.ones((3, 3)), np.ones((2, 3)),
                       np.ones((2, 3)), np.arange(2))


@pytest.mark.parametrize("position", range(4))
def test_embedding_batch_rejects_a_non_unit_row_in_each_matrix(position):
    rng = np.random.default_rng(position)
    matrices = []
    for _ in range(4):
        rows = rng.normal(size=(3, 4))
        matrices.append(rows / np.linalg.norm(rows, axis=1, keepdims=True))
    matrices[position][2] *= 1.0 + 1e-5
    with pytest.raises(ValueError, match="unit-norm"):
        EmbeddingBatch(*matrices, np.arange(3))
    matrices[position][2] /= 1.0 + 1e-5
    EmbeddingBatch(*matrices, np.arange(3))
