"""Reverse-mode automatic differentiation over dense float64 tensors.

The op set is the minimal closure needed by the losses in this package, 12
ops.  Primitives: elementwise add, mul, exp and log, cross-entropy from
logits (bce_logits), row gathers (take_rows) and sum/mean/sum_rows
reductions.  Kernels, each one node for a chain of formulas the model
repeats: tower (an encoder tower: affine, tanh, affine, row-wise L2
normalization), itc (the symmetric in-batch contrastive loss of one
pairing: row-cosine matrices and each row's log-softmax at its diagonal
column) and match_head (the fusion head's logit).

Every op is written once, in _Ops: it checks its contract on each input's
.shape (per replica, for a stacked value), computes its value over trailing
axes, builds its vjp and hands both to _emit.  Each formula the kernels
repeat (affine, tanh, l2_normalize, cosine, log-softmax-at and their vjps)
is one private helper.  A kernel makes its chain's numpy calls in the
chain's order and keeps its bits in backward too: its inputs list an input
once per use in the chain, in the order backward reaches those uses, and
its vjp returns one contribution per entry, so Graph.backward adds them in
the order and grouping a graph of one node per formula would add them.
itc(f_img, f_txt, t), for one, lists (f_txt, f_img, f_img, f_txt, t):
cos(f_txt, f_img)'s two contributions, then cos(f_img, f_txt)'s, then the
temperature's.  The two front ends share that surface and differ in _emit:

Graph      records a node with the vjp, for backward().  Graphs are eager: a
           node's value is computed when the op is recorded, so callers can
           inspect intermediate values (e.g. for hard-negative mining) while
           the graph is still being built.  Backward walks the node list in
           reverse insertion order, a valid topological order because every
           op can only consume previously created nodes.  Graphs hold no
           back-references (nodes and vjps refer only to their inputs), so
           reference counting frees a finished graph without the cyclic
           collector.
Evaluator  keeps the value and drops the vjp, for many parameter points at
           once: a stacked value carries a leading replica axis ahead of its
           own shape.  grad_check_losses evaluates the perturbed copies of
           the parameters in such passes, one per block of one parameter
           group's coordinates with every other parameter shared, for every
           loss its builder returns; grad_check is its one-loss form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Collection, Mapping

import numpy as np

Array = np.ndarray

# Identical values appear in several contracts; keep them in one place.
REL_ERR_FLOOR = 1e-8
# The finite-difference steps grad_check accepts.
EPS_RANGE = (1e-7, 1e-3)
# The most perturbed replicas one long-double pass of grad_check_losses holds.
BLOCK_REPLICAS = 256


class GraphError(ValueError):
    """Contract violation while building or differentiating a graph."""


def _sum(v: Array, ndim: int) -> Array:
    """Sum over the trailing ndim axes, added in C order whatever the layout."""
    lead = v.shape[:v.ndim - ndim]
    return np.asarray(v.reshape(lead + (-1,)).sum(axis=-1))


def _finite(value, name: str | None, dtype=np.float64) -> Array:
    if type(value) is float and math.isfinite(value):  # a constant needs no array pass
        return np.asarray(value, dtype=dtype)
    arr = np.asarray(value, dtype=dtype)
    if not np.isfinite(arr).all():
        raise GraphError(f"non-finite leaf {name or ''!r}")
    return arr


def _reduce_to(grad: Array, shape: tuple[int, ...]) -> Array:
    if shape == () and grad.shape != ():
        return np.asarray(grad.sum())
    return grad


# -- formulas, each written once for the kernels ----------------------------


def _affine(x: Array, w: Array, b: Array | None = None) -> Array:
    y = np.matmul(x, w)
    return y if b is None else y + b


def _affine_vjp(g: Array, x: Array, w: Array, need_x: bool, need_w: bool,
                need_b: bool) -> tuple[Array | None, Array | None, Array | None]:
    return (g @ w.swapaxes(-1, -2) if need_x else None,
            x.swapaxes(-1, -2) @ g if need_w else None,
            g.sum(axis=-2) if need_b else None)


def _tanh_vjp(g: Array, y: Array) -> Array:
    return g * (1.0 - y * y)


def _l2_normalize(x: Array) -> tuple[Array, Array, Array]:
    """(rows / norms, the divisor, the zero-row mask); zero rows divide by 1."""
    norms = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    return x / safe, safe, zero


def _l2_normalize_vjp(g: Array, y: Array, safe: Array, zero: Array) -> Array:
    inner = (g * y).sum(axis=-1, keepdims=True)
    gx = (g - y * inner) / safe
    if zero.any():
        gx = np.where(zero, 0.0, gx)
    return gx


def _cosine(a: Array, b: Array) -> Array:
    return np.matmul(a, b.swapaxes(-1, -2))


def _cosine_vjp(g: Array, a: Array, b: Array) -> tuple[Array, Array]:
    return g @ b, g.swapaxes(-1, -2) @ a


def _log_softmax_at(x: Array, rows: Array, cols: Array) -> tuple[Array, Array]:
    """(each row's log-softmax at its column, the softmax probabilities)."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1)
    # The log of a picked probability could underflow to -inf; this cannot.
    return shifted[..., rows, cols] - np.log(total), e / total[..., None]


def _log_softmax_at_vjp(g: Array, p: Array, rows: Array, cols: Array) -> Array:
    onehot = np.zeros_like(p)
    onehot[..., rows, cols] = 1.0
    return g[..., None] * (onehot - p)


# -- the op surface -------------------------------------------------------------


class _Ops:
    """Every op, once.  A front end supplies _wrap, _values (input values
    aligned for a multi-input op), _emit and _flag_zero_rows; contracts read
    each input's own .shape."""

    # -- elementwise ops -------------------------------------------------

    @staticmethod
    def _match(a, b) -> None:
        # Same shape, or one side is a scalar; anything else is out of scope.
        sa, sb = a.shape, b.shape
        if sa != sb and sa != () and sb != ():
            raise GraphError(f"shape mismatch {sa} vs {sb}")

    def add(self, a, b):
        a, b = self._wrap(a), self._wrap(b)
        self._match(a, b)

        def vjp(g):
            return (_reduce_to(g, a.shape) if a.needs_grad else None,
                    _reduce_to(g, b.shape) if b.needs_grad else None)

        return self._emit("add", (a, b), np.add(*self._values(a, b)), vjp)

    def mul(self, a, b):
        a, b = self._wrap(a), self._wrap(b)
        self._match(a, b)

        def vjp(g):
            return (_reduce_to(g * b.value, a.shape) if a.needs_grad else None,
                    _reduce_to(g * a.value, b.shape) if b.needs_grad else None)

        return self._emit("mul", (a, b), np.multiply(*self._values(a, b)), vjp)

    def exp(self, x):
        x = self._wrap(x)
        y = np.exp(x.value)
        return self._emit("exp", (x,), y, lambda g: (g * y,))

    def log(self, x):
        x = self._wrap(x)
        return self._emit("log", (x,), np.log(x.value), lambda g: (g / x.value,))

    def bce_logits(self, z, labels):
        """max(z, 0) + log1p(exp(-|z|)) - labels * z: the binary cross-entropy
        of sigmoid(z) against fixed labels of z's shape, elementwise.  exp
        sees only non-positive arguments, so both tails stay finite."""
        z = self._wrap(z)
        labels = np.asarray(labels)
        if labels.shape != z.shape:
            raise GraphError(f"bce_logits labels shape {labels.shape} vs logits {z.shape}")
        e = np.exp(-np.abs(z.value))
        y = np.maximum(z.value, 0.0) + np.log1p(e) - labels * z.value
        p = np.where(z.value >= 0, 1.0 / (1.0 + e), e / (1.0 + e))  # sigmoid(z)
        return self._emit("bce_logits", (z,), y, lambda g: (g * (p - labels),))

    # -- row gathers ---------------------------------------------------------

    def take_rows(self, sources, rows):
        """Listed rows of the row-stacked sources; repeats scatter-add in backward."""
        sources = tuple(self._wrap(s) for s in sources)
        if len({s.shape[1:] for s in sources}) != 1 or len(sources[0].shape) != 2:
            raise GraphError(f"take_rows needs same-width matrices: {[s.shape for s in sources]}")
        sizes = [s.shape[0] for s in sources]
        ends = list(itertools.accumulate(sizes))
        total, width = ends[-1], sources[0].shape[1]
        rows = np.asarray(rows, dtype=np.intp)
        if rows.ndim != 1 or (rows.size and (rows.min() < 0 or rows.max() >= total)):
            raise GraphError(f"take_rows indices outside {total} rows")
        values = self._values(*sources)
        if len(values) == 1:
            stacked = values[0]
        else:
            if any(v.ndim > 2 for v in values):
                # np.concatenate needs the replica axis on every source.
                lead = max(v.shape[:-2] for v in values)
                values = [np.broadcast_to(v, lead + v.shape[-2:]) for v in values]
            stacked = np.concatenate(values, axis=-2)
        # np.take keeps the result C-contiguous, as each replica's own gather
        # is; stacked[..., rows, :] would not be.
        y = np.take(stacked, rows, axis=-2)

        def vjp(g):
            # bincount adds each cell's contributions in index order onto 0.0,
            # as np.add.at into zeros does: the same bits, signed zeros too.
            # With no rows it returns integer zeros, hence the astype.
            cells = (rows[:, None] * width + np.arange(width)).ravel()
            grad = np.bincount(cells, weights=g.ravel(), minlength=total * width)
            grad = grad.astype(np.float64, copy=False).reshape(total, width)
            return tuple(grad[end - size:end] for size, end in zip(sizes, ends))

        return self._emit("take_rows", sources, y, vjp)

    # -- reductions ----------------------------------------------------------

    def sum(self, x):
        x = self._wrap(x)
        shape = x.shape
        return self._emit("sum", (x,), _sum(x.value, len(shape)),
                          lambda g: (np.full(shape, g),))

    def mean(self, x):
        x = self._wrap(x)
        shape, size = x.shape, math.prod(x.shape)
        return self._emit("mean", (x,), _sum(x.value, len(shape)) / size,
                          lambda g: (np.full(shape, g / size),))

    def sum_rows(self, x):
        """(n,m) -> (n,): per-row sums."""
        x = self._wrap(x)
        if len(x.shape) != 2:
            raise GraphError("sum_rows expects a matrix")
        cols = x.shape[1]
        return self._emit("sum_rows", (x,), x.value.sum(axis=-1),
                          lambda g: (np.repeat(g[..., None], cols, axis=-1),))

    # -- kernels: one node for a chain of the formulas above ----------------

    def tower(self, x, w1, b1, w2, b2):
        """l2_normalize(affine(tanh(affine(x, w1, b1)), w2, b2)): unit-norm
        rows, zero rows flagged.  x: (n,p), w1: (p,q), b1: (q,), w2: (q,e),
        b2: (e,)."""
        x, w1, b1, w2, b2 = (self._wrap(v) for v in (x, w1, b1, w2, b2))
        if (len(x.shape) != 2 or len(w1.shape) != 2 or len(w2.shape) != 2
                or x.shape[1] != w1.shape[0] or b1.shape != w1.shape[1:]
                or w2.shape[0] != w1.shape[1] or b2.shape != w2.shape[1:]):
            raise GraphError(f"tower shapes x {x.shape}, w1 {w1.shape}, b1 {b1.shape}, "
                             f"w2 {w2.shape}, b2 {b2.shape}")
        xv, w1v, b1v, w2v, b2v = self._values(x, w1, b1, w2, b2)
        h = np.tanh(_affine(xv, w1v, b1v))
        y, safe, zero = _l2_normalize(_affine(h, w2v, b2v))

        def vjp(g):
            need_h = x.needs_grad or w1.needs_grad or b1.needs_grad
            g_h, g_w2, g_b2 = _affine_vjp(_l2_normalize_vjp(g, y, safe, zero), h, w2.value,
                                          need_h, w2.needs_grad, b2.needs_grad)
            if not need_h:
                return g_w2, g_b2, None, None, None
            return (g_w2, g_b2) + _affine_vjp(_tanh_vjp(g_h, h), x.value, w1.value,
                                              x.needs_grad, w1.needs_grad, b1.needs_grad)

        out = self._emit("tower", (w2, b2, x, w1, b1), y, vjp)
        self._flag_zero_rows(out, zero)
        return out

    def itc(self, f_img, f_txt, log_tau):
        """-(mean(log_softmax_at(cos(f_img, f_txt) / tau, diagonal))
        + mean(log_softmax_at(cos(f_txt, f_img) / tau, diagonal))) with
        tau = exp(log_tau): the symmetric in-batch contrastive loss of n >= 1
        row pairs, (n,d) x (n,d) x () -> ()."""
        f_img, f_txt, log_tau = self._wrap(f_img), self._wrap(f_txt), self._wrap(log_tau)
        if (len(f_img.shape) != 2 or f_txt.shape != f_img.shape or f_img.shape[0] == 0
                or log_tau.shape != ()):
            raise GraphError(f"itc needs two nonempty (n,d) matrices and a scalar, got "
                             f"{f_img.shape}, {f_txt.shape}, {log_tau.shape}")
        n = f_img.shape[0]
        img, txt, lt = self._values(f_img, f_txt, log_tau)
        diagonal = np.arange(n)
        inv_tau = np.exp(np.multiply(lt, -1.0))
        cos_it = _cosine(img, txt)
        log_it, p_it = _log_softmax_at(np.multiply(cos_it, inv_tau), diagonal, diagonal)
        cos_ti = _cosine(txt, img)
        log_ti, p_ti = _log_softmax_at(np.multiply(cos_ti, inv_tau), diagonal, diagonal)
        y = np.multiply(np.add(_sum(log_it, 1) / n, _sum(log_ti, 1) / n), -1.0)

        def vjp(g):
            g_log = np.full((n,), g * -1.0 / n)
            g_ti = _log_softmax_at_vjp(g_log, p_ti, diagonal, diagonal)
            g_it = _log_softmax_at_vjp(g_log, p_it, diagonal, diagonal)
            grads = ((*_cosine_vjp(g_ti * inv_tau, f_txt.value, f_img.value),
                      *_cosine_vjp(g_it * inv_tau, f_img.value, f_txt.value))
                     if f_img.needs_grad or f_txt.needs_grad else (None,) * 4)
            if not log_tau.needs_grad:
                return grads + (None,)
            g_inv_tau = np.asarray((g_ti * cos_ti).sum()) + np.asarray((g_it * cos_it).sum())
            return grads + (g_inv_tau * inv_tau * -1.0,)

        return self._emit("itc", (f_txt, f_img, f_img, f_txt, log_tau), y, vjp)

    def match_head(self, f_img, f_txt, w_img, w_txt, w_prod, b_hidden, w_out,
                   v_img, v_txt, v_prod, b_out):
        """tanh(f_img@w_img + b_hidden + f_txt@w_txt + prod@w_prod)@w_out + b_out
        + f_img@v_img + f_txt@v_txt + prod@v_prod, prod = f_img * f_txt: one
        logit row per (n,e) row pair.  w_*: (e,h), b_hidden: (h,), w_out:
        (h,o), v_*: (e,o), b_out: (o,)."""
        f_img, f_txt, w_img, w_txt, w_prod, b_hidden, w_out, v_img, v_txt, v_prod, b_out = (
            self._wrap(v) for v in (f_img, f_txt, w_img, w_txt, w_prod, b_hidden, w_out,
                                    v_img, v_txt, v_prod, b_out))
        e = f_img.shape[1:]
        h, o = w_out.shape[:1], w_out.shape[1:]
        if (len(f_img.shape) != 2 or f_txt.shape != f_img.shape or len(w_out.shape) != 2
                or any(w.shape != e + h for w in (w_img, w_txt, w_prod))
                or any(v.shape != e + o for v in (v_img, v_txt, v_prod))
                or b_hidden.shape != h or b_out.shape != o):
            raise GraphError(
                f"match_head shapes f {f_img.shape}/{f_txt.shape}, w {w_img.shape}/"
                f"{w_txt.shape}/{w_prod.shape}, b_hidden {b_hidden.shape}, w_out "
                f"{w_out.shape}, v {v_img.shape}/{v_txt.shape}/{v_prod.shape}, "
                f"b_out {b_out.shape}")
        fi, ft, wi, wt, wp, bh, wo, vi, vt, vp, bo = self._values(
            f_img, f_txt, w_img, w_txt, w_prod, b_hidden, w_out, v_img, v_txt, v_prod, b_out)
        prod = np.multiply(fi, ft)
        act = np.tanh(np.add(np.add(_affine(fi, wi, bh), _affine(ft, wt)), _affine(prod, wp)))
        y = np.add(_affine(act, wo, bo),
                   np.add(np.add(_affine(fi, vi), _affine(ft, vt)), _affine(prod, vp)))

        def vjp(g):
            need_f = f_img.needs_grad or f_txt.needs_grad
            g_prod, g_vp, _ = _affine_vjp(g, prod, vp, need_f, v_prod.needs_grad, False)
            g_ft1, g_vt, _ = _affine_vjp(g, ft, vt, f_txt.needs_grad, v_txt.needs_grad, False)
            g_fi1, g_vi, _ = _affine_vjp(g, fi, vi, f_img.needs_grad, v_img.needs_grad, False)
            need_act = need_f or any(p.needs_grad for p in (w_img, w_txt, w_prod, b_hidden))
            g_act, g_wo, g_bo = _affine_vjp(g, act, wo, need_act, w_out.needs_grad,
                                            b_out.needs_grad)
            grads = (g_vp, g_ft1, g_vt, g_fi1, g_vi, g_wo, g_bo)
            if not need_act:
                return grads + (None,) * 8
            g_pre = _tanh_vjp(g_act, act)
            g_prod2, g_wp, _ = _affine_vjp(g_pre, prod, wp, need_f, w_prod.needs_grad, False)
            g_ft2, g_wt, _ = _affine_vjp(g_pre, ft, wt, f_txt.needs_grad, w_txt.needs_grad, False)
            g_fi2, g_wi, g_bh = _affine_vjp(g_pre, fi, wi, f_img.needs_grad, w_img.needs_grad,
                                            b_hidden.needs_grad)
            if need_f:
                g_prod = g_prod + g_prod2
            return grads + (g_wp, g_ft2, g_wt, g_fi2, g_wi, g_bh,
                            g_prod * ft if f_img.needs_grad else None,
                            g_prod * fi if f_txt.needs_grad else None)

        return self._emit("match_head", (v_prod, f_txt, v_txt, f_img, v_img, w_out, b_out,
                                         w_prod, f_txt, w_txt, f_img, w_img, b_hidden,
                                         f_img, f_txt), y, vjp)


# -- recorded graphs -----------------------------------------------------------


class Node:
    """One leaf or op record: kind, input nodes, and the computed value."""

    __slots__ = ("id", "op", "inputs", "value", "shape", "trainable",
                 "needs_grad", "_vjp", "name")

    def __init__(self, id: int, op: str, inputs: tuple["Node", ...],
                 value: Array, trainable: bool, needs_grad: bool,
                 vjp: Callable[[Array], tuple[Array | None, ...]] | None,
                 name: str | None = None):
        self.id = id
        self.op = op
        self.inputs = inputs
        self.value = value
        self.shape: tuple[int, ...] = value.shape
        self.trainable = trainable
        self.needs_grad = needs_grad
        self._vjp = vjp
        self.name = name

    def __repr__(self) -> str:
        label = self.name or self.op
        return f"Node({label}, id={self.id}, shape={self.shape})"


class Graph(_Ops):
    """Ordered op records plus the set of trainable leaves.

    Values are float64.  Single-threaded per instance; distinct graphs share
    no state.
    """

    def __init__(self):
        self.dtype = np.float64
        self.nodes: list[Node] = []
        # (node id, row indices) for every zero-norm row a tower normalized.
        self.zero_norm_rows: list[tuple[int, tuple[int, ...]]] = []

    # -- leaves ----------------------------------------------------------

    def leaf(self, value, trainable: bool = False, name: str | None = None) -> Node:
        return self._append("leaf", (), _finite(value, name), trainable, trainable, None, name)

    def constant(self, value, name: str | None = None) -> Node:
        return self.leaf(value, trainable=False, name=name)

    def checked_leaf(self, value: Array, name: str) -> Node:
        """A trainable leaf of a float64 array the caller has already checked
        finite, taken as is: the trainer's parameters, which it checks after
        every update."""
        return self._append("leaf", (), value, True, True, None, name)

    def _append(self, *fields) -> Node:
        node = Node(len(self.nodes), *fields)
        self.nodes.append(node)
        return node

    def _owns(self, node: Node) -> bool:
        return node.id < len(self.nodes) and self.nodes[node.id] is node

    def _wrap(self, value) -> Node:
        """A node as is; a value as an unrecorded constant (no gradient, so
        backward never looks it up)."""
        if isinstance(value, Node):
            if not self._owns(value):
                raise GraphError("node belongs to a different graph")
            return value
        return Node(-1, "leaf", (), _finite(value, None), False, False, None)

    # -- the op surface's hooks ------------------------------------------

    @staticmethod
    def _values(*inputs: Node) -> list[Array]:
        return [inp.value for inp in inputs]

    def _emit(self, op: str, inputs: tuple[Node, ...], value: Array, vjp) -> Node:
        for inp in inputs:
            if inp.needs_grad:
                return self._append(op, inputs, value, False, True, vjp)
        return self._append(op, inputs, value, False, False, vjp)

    def _flag_zero_rows(self, out: Node, zero: Array) -> None:
        if zero.any():
            self.zero_norm_rows.append((out.id, tuple(np.flatnonzero(zero))))

    # -- differentiation ------------------------------------------------------

    def backward(self, loss: Node) -> dict[Node, Array]:
        """Gradients of a scalar loss for every trainable leaf.

        A vjp may return None for an input that needs no gradient (add, mul
        and the kernels do, rather than compute an adjoint for a constant);
        such inputs, and None entries, are skipped.
        """
        if not self._owns(loss):
            raise GraphError("loss node belongs to a different graph")
        if loss.shape != ():
            raise GraphError("backward requires a scalar loss node")
        adjoints: dict[int, Array] = {loss.id: np.ones(())}
        grads: dict[Node, Array] = {}
        for node in reversed(self.nodes):
            g = adjoints.pop(node.id, None)
            if node.trainable:
                grads[node] = np.zeros(node.shape) if g is None else +g
            if g is None or node._vjp is None:
                continue
            for inp, contrib in zip(node.inputs, node._vjp(g)):
                if contrib is None or not inp.needs_grad:
                    continue
                acc = adjoints.get(inp.id)
                adjoints[inp.id] = contrib if acc is None else acc + contrib
        return grads


# -- value-only evaluation -------------------------------------------------------


class Stacked:
    """An Evaluator value: one array per replica along a leading axis, or,
    when not stacked, one array shared by every replica.  Its shape is the
    per-replica one, the shape a Graph node of the same op has."""

    __slots__ = ("value", "stacked", "shape")

    def __init__(self, value: Array, stacked: bool):
        self.value = value
        self.stacked = stacked
        self.shape: tuple[int, ...] = value.shape[1:] if stacked else value.shape


class Evaluator(_Ops):
    """Graph's op surface, forward values only, at many parameter points at once.

    Leaves made by stack() hold one copy per replica along a leading axis;
    every other leaf is a constant shared by all replicas.  Ops are Graph's
    own, contracts included, so each replica's value is, bit for bit, the
    value a graph computes at that replica's parameters in the evaluator's
    dtype.  Nothing is recorded (no nodes, no vjps, no node list), so
    intermediate values are freed as soon as the caller drops them.
    """

    def __init__(self, dtype=np.float64):
        self.dtype = dtype

    # -- leaves ----------------------------------------------------------

    def stack(self, copies, name: str | None = None) -> Stacked:
        """A leaf whose leading axis indexes the replicas."""
        return self._leaf(copies, True, name)

    def leaf(self, value, trainable: bool = False, name: str | None = None) -> Stacked:
        return self._leaf(value, False, name)

    def constant(self, value, name: str | None = None) -> Stacked:
        return self._leaf(value, False, name)

    def _leaf(self, value, stacked: bool, name: str | None) -> Stacked:
        return Stacked(_finite(value, name, self.dtype), stacked)

    def _wrap(self, value) -> Stacked:
        return value if isinstance(value, Stacked) else self.constant(value)

    # -- the op surface's hooks ------------------------------------------

    @staticmethod
    def _values(*inputs: Stacked) -> list[Array]:
        """Values lined up replica by replica: a stacked value of lower rank
        gets unit axes after its replica axis, and numpy broadcasts shared
        values over the replicas."""
        rank = max([len(x.shape) for x in inputs])
        return [x.value.reshape(x.value.shape[:1] + (1,) * (rank - len(x.shape)) + x.shape)
                if x.stacked and len(x.shape) < rank else x.value for x in inputs]

    @staticmethod
    def _emit(op: str, inputs: tuple[Stacked, ...], value: Array, vjp) -> Stacked:
        for x in inputs:
            if x.stacked:
                return Stacked(value, True)
        return Stacked(value, False)

    @staticmethod
    def _flag_zero_rows(out: Stacked, zero: Array) -> None:
        pass


# -- gradient verification ----------------------------------------------------


@dataclass
class GradReport:
    """Analytic-vs-numeric comparison for one loss at one parameter point."""

    analytic: dict[str, Array]
    numeric: dict[str, Array]
    max_rel_error: float
    worst_param: str | None
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol


def relative_error(a: Array, n: Array) -> Array:
    """|a - n| / max(|a|, |n|, 1e-8), elementwise."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), REL_ERR_FLOOR)
    return np.abs(a - n) / denom


def _blocks(params: Mapping[str, Array]) -> list[dict[str, Array]]:
    """The coordinates each long-double pass perturbs, key -> flat coordinates
    within the key, in params order.  A pass takes whole coordinates of one
    group, the keys that share a dotted prefix or else every undotted key, up
    to BLOCK_REPLICAS // 2 of them; groups come in the order of their first
    key."""
    groups: dict[str | None, list[str]] = {}
    for k in params:
        groups.setdefault(k.split(".")[0] if "." in k else None, []).append(k)
    width = BLOCK_REPLICAS // 2
    blocks = []
    for keys in groups.values():
        block, free = {}, width
        for k in keys:
            done, size = 0, np.size(params[k])
            while done < size:
                take = min(free, size - done)
                block[k] = np.arange(done, done + take)
                done, free = done + take, free - take
                if not free:
                    blocks.append(block)
                    block, free = {}, width
        if block:
            blocks.append(block)
    return blocks


def grad_check_losses(build: Callable[[Graph | Evaluator, Mapping],
                                      Mapping[str, Node | Stacked]],
                      params: Mapping[str, Array],
                      subsets: Mapping[str, Collection[str]],
                      eps: float = 1e-5, tol: float = 1e-4) -> dict[str, GradReport]:
    """Compare backward() against central finite differences, for every loss
    one builder makes.

    ``build(graph, leaves)`` must return the same name -> scalar-loss mapping
    from any parameter assignment, on a Graph or on an Evaluator, through the
    op surface the two share; discrete choices (mined indices, weak picks)
    and the uncertainty weight must be frozen by the caller so each loss is
    smooth in the parameters.  ``subsets[name]`` names the parameters that
    loss's report covers; its partials keep ``params`` order.

    The analytic gradients come from one float64 Graph, one backward per
    loss.  The numeric ones come from long-double Evaluator passes, one per
    block of coordinates (_blocks): a block's pass stacks a +eps and a -eps
    replica of each of its coordinates (replicas 2j and 2j+1 for its j-th)
    and takes every other parameter as one shared leaf, so an op reading no
    perturbed parameter runs once, and at most BLOCK_REPLICAS replicas are
    alive at once.  Each replica's loss is the value one pass over all 2P
    replicas would give it, bit for bit, and every loss is read off the same
    replicas; the quotients are placed at their coordinates' numbers
    through ``params``, so the partials keep its order.  Long double keeps the
    difference quotients clear of float64 rounding of the loss value, which
    at step 1e-5 leaves ~5e-12 of noise on every numeric partial and would
    swamp true gradients near the 1e-8 relative-error floor.
    """
    if not EPS_RANGE[0] <= eps <= EPS_RANGE[1]:
        raise ValueError(f"eps {eps} outside [{EPS_RANGE[0]:g}, {EPS_RANGE[1]:g}]")
    graph = Graph()
    leaves = {k: graph.leaf(v, trainable=True, name=k) for k, v in params.items()}
    losses = build(graph, leaves)

    sizes = [np.size(v) for v in params.values()]
    starts = dict(zip(params, np.cumsum([0] + sizes[:-1])))
    wide = {k: np.asarray(v, dtype=np.longdouble) for k, v in params.items()}
    eps_wide = np.longdouble(eps)
    evaluator = Evaluator(np.longdouble)
    quotients = {name: np.zeros(sum(sizes)) for name in losses}
    for block in _blocks(params):
        replicas = 2 * sum(coords.size for coords in block.values())
        lv, first = {}, 0
        for k, base in wide.items():
            if k not in block:
                lv[k] = evaluator.leaf(base, name=k)
                continue
            coords, size = block[k], base.size
            rows = 2 * (first + np.arange(coords.size))
            copies = np.repeat(base.reshape(1, size), replicas, axis=0)
            copies[rows, coords] += eps_wide
            copies[rows + 1, coords] -= eps_wide
            lv[k] = evaluator.stack(copies.reshape((replicas,) + base.shape), name=k)
            first += coords.size
        values = build(evaluator, lv)
        numbers = np.concatenate([starts[k] + coords for k, coords in block.items()])
        for name in losses:
            f = np.broadcast_to(values[name].value, (replicas,))
            quotients[name][numbers] = ((f[0::2] - f[1::2]) / (2.0 * eps_wide)).astype(np.float64)

    reports = {}
    for name, loss in losses.items():
        grads = graph.backward(loss)
        parts = dict(zip(params, np.split(quotients[name], np.cumsum(sizes)[:-1])))
        analytic = {k: grads[leaves[k]] for k in params if k in subsets[name]}
        numeric = {k: parts[k].reshape(np.shape(params[k])) for k in analytic}
        max_err, worst = 0.0, None
        for k in analytic:
            err = relative_error(analytic[k], numeric[k])
            local = float(err.max()) if err.size else 0.0
            if local > max_err:
                max_err, worst = local, k
        reports[name] = GradReport(analytic, numeric, max_err, worst, tol)
    return reports


def grad_check(loss_fn: Callable[[Graph | Evaluator, Mapping], Node | Stacked],
               params: Mapping[str, Array],
               eps: float = 1e-5, tol: float = 1e-4) -> GradReport:
    """grad_check_losses for one loss, ``loss_fn(graph, leaves)``, over every
    parameter."""
    return grad_check_losses(lambda g, lv: {"loss": loss_fn(g, lv)}, params,
                             {"loss": params}, eps=eps, tol=tol)["loss"]
