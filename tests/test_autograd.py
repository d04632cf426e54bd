"""Kernel contracts: op semantics, backward correctness, stop-gradient."""

import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakpair.autograd import (Evaluator, Graph, GraphError, _cosine, _l2_normalize,
                               _log_softmax_at, _log_softmax_at_vjp, grad_check,
                               relative_error)
from weakpair.verify import LOSS_NAMES, loss_builder, loss_params, random_instance


def unit_rows(rng, n, d):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def l2_rows(x):
    return _l2_normalize(np.asarray(x, dtype=float))[0]


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_rows([3.0, 4.0]), [0.6, 0.8], rtol=0, atol=1e-15)

    def test_already_unit(self):
        np.testing.assert_array_equal(l2_rows([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_random_row_has_unit_norm(self):
        rng = np.random.default_rng(7)
        assert abs(np.linalg.norm(l2_rows(rng.normal(size=8))) - 1.0) <= 1e-12

    def test_zero_row_is_flagged_not_fixed(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        _, safe, zero = _l2_normalize(x)
        np.testing.assert_array_equal(zero, [[True], [False]])
        np.testing.assert_array_equal(safe, [[1.0], [5.0]])
        g = Graph()
        out = g.tower(g.constant(x), np.eye(2), np.zeros(2), np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(out.value[0], [0.0, 0.0])
        assert g.zero_norm_rows == [(out.id, (0,))]

    def test_tower_backward_gives_zero_rows_no_gradient(self):
        """w2 = b2 = 0 makes every row zero; backward through the flagged rows
        must give w2 and b2 exactly 0, not h.T @ g and g's column sums."""
        rng = np.random.default_rng(3)
        g = Graph()
        leaves = [g.leaf(v, trainable=True, name=name) for name, v in (
            ("x", rng.normal(size=(3, 4))), ("w1", rng.normal(size=(4, 5))),
            ("b1", rng.normal(size=5)), ("w2", np.zeros((5, 2))), ("b2", np.zeros(2)))]
        out = g.tower(*leaves)
        assert g.zero_norm_rows == [(out.id, (0, 1, 2))]
        grads = g.backward(g.sum(g.mul(out, g.constant(rng.normal(size=(3, 2))))))
        for leaf in leaves:
            assert np.all(grads[leaf] == 0.0), leaf.name


class TestCosineMatrix:
    def test_orthogonal(self):
        np.testing.assert_array_equal(_cosine(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])),
                                      [[0.0]])

    def test_identical(self):
        np.testing.assert_array_equal(_cosine(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])),
                                      [[1.0]])

    def test_self_similarity_diagonal(self):
        rows = unit_rows(np.random.default_rng(0), 3, 2)
        np.testing.assert_allclose(np.diag(_cosine(rows, rows)), 1.0, rtol=0, atol=1e-9)

    def test_dimension_mismatch(self):
        """itc, the op that takes the cosines, rejects embeddings of two widths."""
        g = Graph()
        with pytest.raises(GraphError):
            g.itc(g.constant(np.ones((2, 3))), g.constant(np.ones((2, 4))), g.constant(0.0))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bounded_on_unit_rows(self, seed):
        rows = unit_rows(np.random.default_rng(seed), 5, 4)
        out = _cosine(rows, rows)
        assert out.min() >= -1.0 - 1e-9 and out.max() <= 1.0 + 1e-9


def log_softmax_at(logits, cols):
    logits = np.asarray(logits, dtype=float)
    return _log_softmax_at(logits, np.arange(logits.shape[0]), np.asarray(cols))[0]


def softmax_from_log(logits):
    """Every column's probability, one log_softmax_at per column."""
    n, m = logits.shape
    return np.stack([np.exp(log_softmax_at(logits, np.full(n, c))) for c in range(m)], axis=1)


class TestSoftmaxRows:
    """The row softmax, as the log-softmax-at formula of itc gives it in log space."""

    def test_symmetry(self):
        for col in (0, 1):
            np.testing.assert_array_equal(log_softmax_at([[0.0, 0.0]], [col]), [-math.log(2.0)])

    def test_large_logits_stable(self):
        out = log_softmax_at([[1000.0, 0.0], [1000.0, 0.0]], [0, 1])
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out, [0.0, -1000.0])

    def test_random_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = softmax_from_log(rng.normal(size=(4, 4)))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-9)

    @given(st.integers(0, 2 ** 32 - 1), st.floats(1e-3, 1e6))
    @settings(max_examples=25, deadline=None)
    def test_rows_sum_to_one_up_to_huge_entries(self, seed, scale):
        logits = scale * np.random.default_rng(seed).uniform(-1, 1, size=(3, 5))
        cols = np.random.default_rng(seed).integers(0, 5, size=3)
        assert np.all(np.isfinite(log_softmax_at(logits, cols)))
        out = softmax_from_log(logits)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-9)

    def test_gradient_is_onehot_minus_probabilities(self):
        logits = np.array([[0.5, -1.0, 2.0], [0.0, 0.0, 0.0]])
        rows, cols = np.arange(2), np.array([2, 0])
        _, p = _log_softmax_at(logits, rows, cols)
        grad = _log_softmax_at_vjp(np.array([3.0, -1.0]), p, rows, cols)
        want_p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        want = np.array([[3.0], [-1.0]]) * (np.array([[0, 0, 1], [1, 0, 0]]) - want_p)
        np.testing.assert_allclose(grad, want, rtol=1e-15, atol=1e-15)


class TestBackward:
    def test_square(self):
        g = Graph()
        x = g.leaf(3.0, trainable=True)
        assert g.backward(g.mul(x, x))[x] == 6.0

    def test_unused_leaf_gets_zero_gradient(self):
        g = Graph()
        x = g.leaf(2.0, trainable=True)
        y = g.leaf([1.0, 1.0], trainable=True)
        grads = g.backward(g.mul(x, x))
        np.testing.assert_array_equal(grads[y], [0.0, 0.0])

    def test_non_scalar_loss_rejected(self):
        g = Graph()
        x = g.leaf([1.0, 2.0], trainable=True)
        with pytest.raises(GraphError):
            g.backward(g.mul(x, x))

    def test_two_layer_encoder_contrastive_gradient(self):
        """Encoder + contrastive loss matches finite differences."""
        rng = np.random.default_rng(11)
        raw = rng.normal(size=(3, 4))
        params = {"w1": rng.normal(0.0, 0.5, size=(4, 5)), "b1": rng.normal(size=5),
                  "w2": rng.normal(0.0, 0.5, size=(5, 3)), "b2": rng.normal(size=3),
                  "log_tau": np.asarray(math.log(0.2))}

        def loss_fn(g, lv):
            emb = g.tower(g.constant(raw), lv["w1"], lv["b1"], lv["w2"], lv["b2"])
            return g.itc(emb, emb, lv["log_tau"])

        report = grad_check(loss_fn, params, eps=1e-5, tol=1e-4)
        assert report.passed, report.max_rel_error


class TestGradCheck:
    def test_linear_model_squared_loss_is_near_exact(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(6, 3)), rng.normal(size=6)

        def loss_fn(g, lv):
            # x @ w + b, with w's one row gathered once per row of x.
            xw = g.sum_rows(g.mul(g.constant(x), g.take_rows((lv["w"],), np.zeros(6, int))))
            r = g.add(g.add(xw, lv["b"]), g.constant(-y))
            return g.mean(g.mul(r, r))

        report = grad_check(loss_fn, {"w": rng.normal(size=(1, 3)),
                                      "b": np.asarray(rng.normal())})
        assert report.max_rel_error < 1e-8

    def test_eps_range_enforced(self):
        with pytest.raises(ValueError):
            grad_check(lambda g, lv: g.sum(lv["x"]), {"x": np.ones(2)}, eps=1e-2)


class TestShapesAndSugar:
    def test_scalar_broadcast(self):
        g = Graph()
        x = g.leaf([[1.0, 2.0], [3.0, 4.0]], trainable=True)
        out = g.add(g.mul(x, 2.0), 1.0)
        np.testing.assert_array_equal(out.value, [[3.0, 5.0], [7.0, 9.0]])
        np.testing.assert_array_equal(g.backward(g.sum(out))[x], np.full((2, 2), 2.0))

    def test_value_operands_are_not_recorded(self):
        """A float or array operand is a constant of the op alone: one node
        per op, and a non-finite value is still rejected."""
        g = Graph()
        x = g.leaf([1.0, 2.0], trainable=True)
        out = g.add(g.mul(x, -1.0), np.array([0.5, 1.5]))
        assert [node.op for node in g.nodes] == ["leaf", "mul", "add"]
        assert not out.inputs[1].needs_grad
        np.testing.assert_array_equal(g.backward(g.sum(out))[x], [-1.0, -1.0])
        with pytest.raises(GraphError, match="non-finite"):
            g.mul(x, math.inf)

    @pytest.mark.parametrize("value", [math.nan, -math.inf, 1.5])
    def test_float_constants_checked_on_both_fronts(self, value):
        """A Python float skips the array pass of the finiteness check, not
        the check: a non-finite one is named, a finite one takes the dtype."""
        for front in (Graph(), Evaluator(np.longdouble)):
            if math.isfinite(value):
                leaf = front.constant(value, name="c")
                assert leaf.value.dtype == front.dtype and leaf.value == value
                continue
            with pytest.raises(GraphError, match=re.escape("non-finite leaf 'c'")):
                front.constant(value, name="c")

    def test_shape_mismatch_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add(g.constant(np.ones(3)), g.constant(np.ones((3, 1))))

    def test_cross_graph_use_rejected(self):
        a, b = Graph(), Graph()
        with pytest.raises(GraphError):
            b.add(a.constant(1.0), b.constant(1.0))


class TestTakeRows:
    def test_matches_one_hot_matmul_exactly(self):
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(2, 4))
        rows = [4, 0, 4, 2, 0, 4, 1]
        upstream = rng.normal(size=(len(rows), 4))
        g = Graph()
        la, lb = g.leaf(a, trainable=True), g.leaf(b, trainable=True)
        out = g.take_rows((la, lb), rows)
        grads = g.backward(g.sum(g.mul(out, g.constant(upstream))))
        one_hot = np.eye(5)[rows]
        np.testing.assert_array_equal(out.value, one_hot @ np.concatenate([a, b]))
        reference = one_hot.T @ upstream
        assert np.array_equal(grads[la], reference[:3])
        assert np.array_equal(grads[lb], reference[3:])

    def test_index_out_of_range_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.take_rows((g.constant(np.ones((2, 3))),), [2])


# Upstream gradients whose sums round, overflow, cancel to signed zeros or
# meet opposite infinities.
_scatter_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 3.0, 1e308, -1e308,
                                   np.inf, -np.inf])


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_take_rows_scatter_equals_add_at_bit_for_bit(data):
    """take_rows' vjp against np.add.at into zeros, split per source: repeated
    rows, one to three sources, signed zeros, infinities, and no rows."""
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    width = data.draw(st.integers(1, 3))
    rows = np.array(data.draw(st.lists(st.integers(0, sum(sizes) - 1), max_size=12)),
                    dtype=np.intp)
    upstream = np.array(data.draw(st.lists(_scatter_values, min_size=rows.size * width,
                                           max_size=rows.size * width)),
                        dtype=np.float64).reshape(rows.size, width)
    g = Graph()
    sources = [g.leaf(np.zeros((size, width)), trainable=True) for size in sizes]
    got = g.take_rows(sources, rows)._vjp(upstream)
    want = np.zeros((sum(sizes), width))
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(want, rows, upstream)
    want = np.split(want, np.cumsum(sizes)[:-1])
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_finished_graph_freed_by_reference_counting():
    inst = random_instance(np.random.default_rng(3))
    build = loss_builder("total", inst)
    gc.disable()
    try:
        g = Graph()
        leaves = {k: g.leaf(v, trainable=True, name=k) for k, v in inst.params.items()}
        g.backward(build(g, leaves))
        freed = weakref.ref(g)
        del g, leaves
        assert freed() is None
    finally:
        gc.enable()


def test_relative_error_floor():
    err = relative_error(np.array([0.0]), np.array([5e-9]))
    np.testing.assert_allclose(err, [0.5])


class TrainableConstants(Graph):
    """Every constant a trainable leaf, so every op input needs a gradient."""

    def constant(self, value, name=None):
        return self.leaf(value, trainable=True, name=name)


class TestSkippedAdjoints:
    @pytest.mark.parametrize("loss", LOSS_NAMES)
    def test_trainable_constants_leave_parameter_gradients_unchanged(self, loss):
        for seed in range(3):
            inst = random_instance(np.random.default_rng(seed))
            params = loss_params(loss, inst)
            grads = []
            for graph_type in (Graph, TrainableConstants):
                g = graph_type()
                leaves = {k: g.leaf(v, trainable=True, name=k) for k, v in params.items()}
                out = g.backward(loss_builder(loss, inst)(g, leaves))
                grads.append({k: out[leaves[k]] for k in params})
            assert len(out) > len(params)  # the constants did become leaves
            for k in params:
                assert np.array_equal(grads[0][k], grads[1][k]), (loss, seed, k)

    def test_vjps_return_none_for_inputs_that_need_no_gradient(self):
        g = Graph()
        x = g.exp(g.leaf(np.full((2, 3), 0.5), trainable=True))  # needs a gradient
        c = g.constant(np.full((2, 3), 2.0))
        d23 = np.ones((2, 3))

        def skipped(node, seed):
            return [part is None for part in node._vjp(seed)]

        def params(shapes, trainable):
            return [g.leaf(np.full(s, 0.1), trainable=t) for s, t in zip(shapes, trainable)]

        assert skipped(g.add(x, c), d23) == [False, True]
        assert skipped(g.add(c, x), d23) == [True, False]
        assert skipped(g.mul(x, c), d23) == [False, True]
        assert skipped(g.mul(3.0, x), d23) == [True, False]
        # tower lists (w2, b2, x, w1, b1); the inner affine's adjoints are
        # skipped as one when none of x, w1, b1 needs a gradient.
        tower = [(3, 4), (4,), (4, 2), (2,)]
        d22 = np.ones((2, 2))
        assert skipped(g.tower(c, *params(tower, [1, 1, 1, 1])), d22) == [0, 0, 1, 0, 0]
        assert skipped(g.tower(x, *params(tower, [0, 0, 0, 0])), d22) == [1, 1, 0, 1, 1]
        assert skipped(g.tower(c, *params(tower, [0, 0, 1, 1])), d22) == [0, 0, 1, 1, 1]
        assert skipped(g.tower(c, *params(tower, [1, 0, 0, 1])), d22) == [1, 0, 1, 0, 1]
        # match_head lists (v_prod, f_txt, v_txt, f_img, v_img, w_out, b_out,
        # w_prod, f_txt, w_txt, f_img, w_img, b_hidden, f_img, f_txt); the
        # hidden layer's eight adjoints go when nothing below w_out needs one.
        head = [(3, 4)] * 3 + [(4,), (4, 1)] + [(3, 1)] * 3 + [(1,)]
        d21 = np.ones((2, 1))
        assert skipped(g.match_head(c, c, *params(head, [1] * 9)), d21) == \
            [0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1]
        assert skipped(g.match_head(x, x, *params(head, [0] * 9)), d21) == \
            [1, 0, 1, 0, 1, 1, 1, 1, 0, 1, 0, 1, 1, 0, 0]
        assert skipped(g.match_head(c, x, *params(head, [0] * 9)), d21) == \
            [1, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 0]
        assert skipped(g.match_head(c, c, *params(head, [0] * 4 + [1] * 5)), d21) == \
            [0, 1, 0, 1, 0, 0, 0] + [1] * 8
