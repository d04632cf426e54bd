"""Fused kernels against the chains of formula ops they replace, bit for bit.

Each kernel (tower, itc, match_head) must give the chain's value and, for
every input, the gradient the chain's nodes would have accumulated, in the
same order, also when the kernel's inputs feed other nodes or alias each
other.  The chains below are the reference: each kernel's formula composed
from ChainOps, one node per formula helper the kernels call.
"""

import numpy as np
import pytest

from weakpair.autograd import (Evaluator, Graph, GraphError, _affine, _affine_vjp, _cosine,
                               _cosine_vjp, _l2_normalize, _l2_normalize_vjp, _log_softmax_at,
                               _log_softmax_at_vjp, _tanh_vjp)
from weakpair.encoders import ModelDims
from weakpair.training import TrainConfig, assemble_losses, encode_step
from weakpair.verify import random_instance


def tower_chain(g, x, w1, b1, w2, b2):
    hidden = g.tanh(g.affine(x, w1, b1))
    return g.l2_normalize(g.affine(hidden, w2, b2))


def itc_chain(g, f_img, f_txt, log_tau):
    inv_tau = g.exp(g.mul(log_tau, -1.0))
    diagonal = np.arange(f_img.shape[0])
    log_it = g.log_softmax_at(g.mul(g.cosine_matrix(f_img, f_txt), inv_tau), diagonal)
    log_ti = g.log_softmax_at(g.mul(g.cosine_matrix(f_txt, f_img), inv_tau), diagonal)
    return g.mul(g.add(g.mean(log_it), g.mean(log_ti)), -1.0)


def match_head_chain(g, f_img, f_txt, w_img, w_txt, w_prod, b_hidden, w_out,
                     v_img, v_txt, v_prod, b_out):
    prod = g.mul(f_img, f_txt)
    pre = g.add(g.add(g.affine(f_img, w_img, b_hidden), g.affine(f_txt, w_txt)),
                g.affine(prod, w_prod))
    hidden = g.affine(g.tanh(pre), w_out, b_out)
    direct = g.add(g.add(g.affine(f_img, v_img), g.affine(f_txt, v_txt)),
                   g.affine(prod, v_prod))
    return g.add(hidden, direct)


class ChainOps:
    """The kernels' formulas as one-node ops on a front end's hooks, and each
    kernel recorded as its chain of them."""

    def affine(self, x, w, b=None):
        inputs = tuple(map(self._wrap, (x, w) if b is None else (x, w, b)))
        x, w = inputs[:2]

        def vjp(g):
            return _affine_vjp(g, x.value, w.value, x.needs_grad, w.needs_grad,
                               b is not None and inputs[2].needs_grad)[:len(inputs)]

        return self._emit("affine", inputs, _affine(*self._values(*inputs)), vjp)

    def tanh(self, x):
        x = self._wrap(x)
        y = np.tanh(x.value)
        return self._emit("tanh", (x,), y, lambda g: (_tanh_vjp(g, y),))

    def l2_normalize(self, x):
        x = self._wrap(x)
        y, safe, zero = _l2_normalize(x.value)
        out = self._emit("l2_normalize", (x,), y,
                         lambda g: (_l2_normalize_vjp(g, y, safe, zero),))
        self._flag_zero_rows(out, zero)
        return out

    def cosine_matrix(self, a, b):
        a, b = self._wrap(a), self._wrap(b)
        return self._emit("cosine_matrix", (a, b), _cosine(*self._values(a, b)),
                          lambda g: _cosine_vjp(g, a.value, b.value))

    def log_softmax_at(self, x, cols):
        x, cols = self._wrap(x), np.asarray(cols)
        rows = np.arange(cols.shape[0])
        y, p = _log_softmax_at(x.value, rows, cols)
        return self._emit("log_softmax_at", (x,), y,
                          lambda g: (_log_softmax_at_vjp(g, p, rows, cols),))

    tower = tower_chain
    itc = itc_chain
    match_head = match_head_chain


class ChainGraph(ChainOps, Graph):
    pass


class ChainEvaluator(ChainOps, Evaluator):
    pass


def formula_cases(rng):
    """(name, params, loss_fn) triples, one scalar probe per formula op: its
    output weighted by a fixed array and summed."""
    a, b, w, bias = (rng.normal(size=shape) for shape in ((3, 4), (3, 4), (4, 2), 2))
    cases = [("affine", {"x": a, "w": w, "b": bias}, lambda g, lv: g.affine(*lv.values())),
             ("tanh", {"x": a}, lambda g, lv: g.tanh(lv["x"])),
             ("l2_normalize", {"x": a}, lambda g, lv: g.l2_normalize(lv["x"])),
             ("cosine_matrix", {"a": a, "b": b}, lambda g, lv: g.cosine_matrix(*lv.values())),
             ("log_softmax_at", {"x": a}, lambda g, lv: g.log_softmax_at(lv["x"], [3, 0, 3]))]
    weights = [rng.normal(size=shape) for shape in ((3, 2), (3, 4), (3, 4), (3, 3), 3)]
    return [(name, params, lambda g, lv, op=op, c=c: g.sum(g.mul(op(g, lv), g.constant(c))))
            for (name, params, op), c in zip(cases, weights)]


TRAINER = ModelDims(raw_dim_image=48, raw_dim_text=40, hidden_dim=32, embed_dim=16)
BATTERY = ModelDims(raw_dim_image=4, raw_dim_text=3, hidden_dim=4, embed_dim=3)
# (dims, batch, K) of the trainer's default step and of a battery instance.
SHAPES = {"trainer": (TRAINER, 16, 2), "battery": (BATTERY, 3, 1)}


def kernel_inputs(kernel, dims, n, k, rng):
    """Named inputs, in the kernel's argument order, at a step's shapes: a
    tower over the image features, the itc of n row pairs, and the head over
    every pair the three matching branches score, (3 + 2(1 + K)) n rows."""
    e, h = dims.embed_dim, dims.hidden_dim
    if kernel == "tower":
        shapes = {"x": (n, dims.raw_dim_image), "w1": (dims.raw_dim_image, h), "b1": (h,),
                  "w2": (h, e), "b2": (e,)}
    elif kernel == "itc":
        rows = rng.normal(size=(2, n, e))
        rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
        return {"f_img": rows[0], "f_txt": rows[1], "log_tau": np.asarray(np.log(0.07))}
    else:
        m = (3 + 2 * (1 + k)) * n
        shapes = {"f_img": (m, e), "f_txt": (m, e), "w_img": (e, h), "w_txt": (e, h),
                  "w_prod": (e, h), "b_hidden": (h,), "w_out": (h, 1), "v_img": (e, 1),
                  "v_txt": (e, 1), "v_prod": (e, 1), "b_out": (1,)}
    return {name: rng.normal(0.0, 0.5, size=shape) for name, shape in shapes.items()}


def differentiate(graph_type, kernel, inputs, trainable, alias, rng_seed):
    """The kernel's value, the loss and every trainable input's gradient.

    Every trainable input also feeds an exp recorded before the kernel and
    one recorded after it, so backward adds the kernel's contributions
    between two others; with alias, the first input is passed for the
    second as well."""
    g = graph_type()
    leaves = {k: g.leaf(v, trainable=k in trainable, name=k) for k, v in inputs.items()}
    rng = np.random.default_rng(rng_seed)
    args = list(leaves.values())
    if alias:
        args[1] = args[0]

    def side_terms():
        return [g.sum(g.mul(g.exp(leaves[k]), rng.normal(size=leaves[k].shape)))
                for k in trainable]

    terms = side_terms()
    out = getattr(g, kernel)(*args)
    terms.append(g.sum(g.mul(out, rng.normal(size=out.shape))))
    terms += side_terms()
    loss = terms[0]
    for term in terms[1:]:
        loss = g.add(loss, term)
    grads = g.backward(loss)
    return out.value, loss.value, {k: grads[leaves[k]] for k in trainable}


def assert_bitwise_equal(got, want):
    # Equal values with equal signs are equal bits (no NaN arises here);
    # tobytes() would also compare long double's padding bytes.
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), \
        (got, want)


def assert_same_run(kernel, inputs, trainable, alias=False, seed=0):
    fused = differentiate(Graph, kernel, inputs, trainable, alias, seed)
    chain = differentiate(ChainGraph, kernel, inputs, trainable, alias, seed)
    assert_bitwise_equal(fused[0], chain[0])
    assert_bitwise_equal(fused[1], chain[1])
    assert fused[2].keys() == chain[2].keys()
    for name in fused[2]:
        assert_bitwise_equal(fused[2][name], chain[2][name])


KERNELS = ("tower", "itc", "match_head")


@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_equals_chain_with_shared_inputs(kernel, shape):
    dims, n, k = SHAPES[shape]
    for seed in range(5):
        inputs = kernel_inputs(kernel, dims, n, k, np.random.default_rng(seed))
        assert_same_run(kernel, inputs, list(inputs), seed=seed)


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_equals_chain_for_each_trainable_subset(kernel):
    """Constant inputs get no adjoint and leave the others' bits unchanged:
    every input alone, every input but one, and none."""
    dims, n, k = SHAPES["battery"]
    inputs = kernel_inputs(kernel, dims, n, k, np.random.default_rng(7))
    names = list(inputs)
    subsets = [[name] for name in names] + [[m for m in names if m != name] for name in names]
    for seed, subset in enumerate(subsets + [[]]):
        assert_same_run(kernel, inputs, subset, seed=seed)


@pytest.mark.parametrize("kernel", ["itc", "match_head"])
def test_aliased_inputs_accumulate_in_chain_order(kernel):
    """One node as both embeddings: its four (itc) or three (match_head)
    contributions add in the chain's order."""
    for dims, n, k in SHAPES.values():
        inputs = kernel_inputs(kernel, dims, n, k, np.random.default_rng(11))
        assert_same_run(kernel, inputs, [name for name in inputs if name != "f_txt"],
                        alias=True)


@pytest.mark.parametrize("mode", ["baseline", "uitc", "uitc_gitm"])
def test_step_gradients_equal_the_chains(mode):
    """A whole trainer-shaped step: every loss value and every parameter's
    gradient, kernels against chains.  The embeddings feed the strong and
    weak itc kernels, the uncertainty estimate and the head's row gathers."""
    for seed in range(3):
        inst = random_instance(np.random.default_rng(seed), dims=TRAINER, n=16, k=2)
        results = []
        for graph_type in (Graph, ChainGraph):
            g = graph_type()
            leaves = {k: g.leaf(v, trainable=True, name=k) for k, v in inst.params.items()}
            enc = encode_step(g, leaves, inst.data, need_weak=mode != "baseline")
            nodes, _, _ = assemble_losses(g, leaves, enc, inst.groups,
                                          TrainConfig(ablation_mode=mode))
            grads = g.backward(nodes["total"])
            results.append(({k: v.value for k, v in nodes.items()},
                             {k: grads[leaves[k]] for k in inst.params}))
        (values, grads), (chain_values, chain_grads) = results
        assert values.keys() == chain_values.keys()
        for name in values:
            assert_bitwise_equal(values[name], chain_values[name])
        for name in grads:
            assert_bitwise_equal(grads[name], chain_grads[name])


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("kernel", KERNELS)
def test_stacked_kernel_equals_stacked_chain(kernel, dtype):
    """The Evaluator's kernels: every input stacked, and each input alone
    stacked with the rest shared."""
    dims, n, k = SHAPES["battery"]
    rng = np.random.default_rng(5)
    inputs = kernel_inputs(kernel, dims, n, k, rng)
    copies = {name: v + rng.normal(0.0, 1e-3, size=(4,) + np.shape(v))
              for name, v in inputs.items()}
    for stacked in [list(inputs)] + [[name] for name in inputs]:
        values = []
        for ev in (Evaluator(dtype), ChainEvaluator(dtype)):
            args = [ev.stack(copies[name]) if name in stacked else ev.leaf(v)
                    for name, v in inputs.items()]
            values.append(getattr(ev, kernel)(*args).value)
        assert_bitwise_equal(*values)


@pytest.mark.parametrize("kernel, shapes", [
    ("tower", [(2, 4), (5, 3), (3,), (3, 2), (2,)]),
    ("tower", [(2, 4), (4, 3), (2,), (3, 2), (2,)]),
    ("tower", [(2, 4), (4, 3), (3,), (2, 2), (2,)]),
    ("itc", [(2, 3), (3, 3), ()]),
    ("itc", [(0, 3), (0, 3), ()]),
    ("itc", [(2, 3), (2, 3), (1,)]),
    ("match_head", [(2, 3), (2, 3)] + [(3, 4)] * 3 + [(4,), (4, 1)] + [(3, 2)] * 3 + [(1,)]),
    ("match_head", [(2, 3), (2, 3)] + [(3, 4)] * 2 + [(4, 4), (4,), (4, 1)]
     + [(3, 1)] * 3 + [(1,)]),
])
def test_kernel_contract_violations_rejected(kernel, shapes):
    for ops in (Graph(), Evaluator()):
        with pytest.raises(GraphError):
            getattr(ops, kernel)(*(ops.leaf(np.zeros(s)) for s in shapes))
