"""Encoder towers, fusion head, and parameter plumbing."""

import numpy as np
import pytest

from weakpair.autograd import Graph, GraphError, grad_check
from weakpair.encoders import (EmbeddingBatch, ModelDims, dict_to_params,
                               encode, init_model, init_params, leaf_group,
                               match_logit, params_to_dict)

DIMS = ModelDims(raw_dim_image=6, raw_dim_text=5, hidden_dim=4, embed_dim=3)


def tower_nodes(g, model, prefix):
    leaves = {k: g.constant(v, name=k) for k, v in params_to_dict(model).items()}
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
            setattr(model.image_tower, field, np.zeros_like(getattr(model.image_tower, field)))
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
        a = params_to_dict(init_model(9, DIMS))
        b = params_to_dict(init_model(9, DIMS))
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_biases_zero(self):
        img, txt, head = init_params(4, DIMS)
        for arr in (img.b1, img.b2, txt.b1, txt.b2, head.b_hidden, head.b_out):
            assert not arr.any()

    def test_forward_finite_at_init(self):
        rng = np.random.default_rng(2)
        model = init_model(5, DIMS)
        g = Graph()
        leaves = {k: g.constant(v) for k, v in params_to_dict(model).items()}
        f_img = encode(g, leaf_group(leaves, "img"), g.constant(rng.normal(size=(8, 6))))
        f_txt = encode(g, leaf_group(leaves, "txt"), g.constant(rng.normal(size=(8, 5))))
        z = match_logit(g, leaf_group(leaves, "head"), f_img, f_txt)
        assert z.shape == (8, 1) and np.all(np.isfinite(z.value))

    def test_weight_scale_follows_fan_in(self):
        img, _, _ = init_params(0, ModelDims(100, 100, 50, 8))
        assert np.abs(img.w1).max() <= 1.0 / np.sqrt(100)

    def test_round_trip_dict(self):
        model = init_model(7, DIMS)
        d = params_to_dict(model)
        again = params_to_dict(dict_to_params(d))
        assert all(np.array_equal(d[k], again[k]) for k in d)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class TestMatchProbability:
    """The match probability is sigmoid(match_logit)."""

    def test_zero_head_gives_half(self):
        import dataclasses
        model = init_model(1, DIMS)
        for field in dataclasses.fields(model.head):
            setattr(model.head, field.name,
                    np.zeros_like(getattr(model.head, field.name)))
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
        head_params = {k[5:]: v for k, v in params_to_dict(init_model(4, DIMS)).items()
                       if k.startswith("head.")}
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
