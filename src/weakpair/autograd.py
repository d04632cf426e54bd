"""Reverse-mode automatic differentiation over dense float64 tensors.

The op set is the minimal closure needed by the losses in this package:
affine maps, elementwise add/multiply, tanh, exp, log, cross-entropy from
logits (bce_logits), row gathers (take_rows), row-wise L2 normalization,
row-cosine matrices, each row's log-softmax at one column
(log_softmax_at) and sum/mean reductions.

Every op is written once, in _Ops: it checks its contract on each input's
.shape (per replica, for a stacked value), computes its value over trailing
axes, builds its vjp and hands both to _emit.  The two front ends share
that surface and differ in _emit:

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
           own shape.  grad_check_losses evaluates every perturbed copy of
           the parameters in one such pass, for every loss its builder
           returns; grad_check is its one-loss form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Collection, Mapping

import numpy as np

Array = np.ndarray

# Identical values appear in several contracts; keep them in one place.
REL_ERR_FLOOR = 1e-8
# The finite-difference steps grad_check accepts.
EPS_RANGE = (1e-7, 1e-3)


class GraphError(ValueError):
    """Contract violation while building or differentiating a graph."""


def _sum(v: Array, ndim: int) -> Array:
    """Sum over the trailing ndim axes, added in C order whatever the layout."""
    lead = v.shape[:v.ndim - ndim]
    return np.asarray(v.reshape(lead + (-1,)).sum(axis=-1))


def _finite(value, name: str | None, dtype=np.float64) -> Array:
    arr = np.asarray(value, dtype=dtype)
    if not np.all(np.isfinite(arr)):
        raise GraphError(f"non-finite leaf {name or ''!r}")
    return arr


def _reduce_to(grad: Array, shape: tuple[int, ...]) -> Array:
    if shape == () and grad.shape != ():
        return np.asarray(grad.sum())
    return grad


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

    def tanh(self, x):
        x = self._wrap(x)
        y = np.tanh(x.value)
        return self._emit("tanh", (x,), y, lambda g: (g * (1.0 - y * y),))

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

    # -- linear / row-wise ops ---------------------------------------------

    def affine(self, x, w, b=None):
        """x @ w (+ b broadcast over rows).  x: (n,p), w: (p,q), b: (q,)."""
        x, w = self._wrap(x), self._wrap(w)
        if len(x.shape) != 2 or len(w.shape) != 2:
            raise GraphError("affine expects 2-d x and w")
        if x.shape[1] != w.shape[0]:
            raise GraphError(f"affine inner dims {x.shape} @ {w.shape}")
        inputs = (x, w) if b is None else (x, w, self._wrap(b))
        if b is not None and inputs[2].shape != (w.shape[1],):
            raise GraphError(f"affine bias shape {inputs[2].shape}")
        values = self._values(*inputs)
        y = np.matmul(values[0], values[1])
        if b is not None:
            y = y + values[2]

        def vjp(g):
            grads = (g @ w.value.swapaxes(-1, -2) if x.needs_grad else None,
                     x.value.swapaxes(-1, -2) @ g if w.needs_grad else None)
            return grads if b is None else grads + (
                g.sum(axis=-2) if inputs[2].needs_grad else None,)

        return self._emit("affine", inputs, y, vjp)

    def take_rows(self, sources, rows):
        """Listed rows of the row-stacked sources; repeats scatter-add in backward."""
        sources = tuple(self._wrap(s) for s in sources)
        if len({s.shape[1:] for s in sources}) != 1 or len(sources[0].shape) != 2:
            raise GraphError(f"take_rows needs same-width matrices: {[s.shape for s in sources]}")
        bounds = np.cumsum([s.shape[0] for s in sources])
        rows = np.asarray(rows, dtype=np.intp)
        if rows.ndim != 1 or np.any((rows < 0) | (rows >= bounds[-1])):
            raise GraphError(f"take_rows indices outside {bounds[-1]} rows")
        values = self._values(*sources)
        if any(v.ndim > 2 for v in values):
            # np.concatenate needs the replica axis on every source.
            lead = max(v.shape[:-2] for v in values)
            values = [np.broadcast_to(v, lead + v.shape[-2:]) for v in values]
        # np.take keeps the result C-contiguous, as each replica's own gather
        # is; stacked[..., rows, :] would not be.
        y = np.take(np.concatenate(values, axis=-2), rows, axis=-2)

        def vjp(g):
            grad = np.zeros((bounds[-1], sources[0].shape[1]))
            np.add.at(grad, rows, g)
            return tuple(np.split(grad, bounds[:-1]))

        return self._emit("take_rows", sources, y, vjp)

    def l2_normalize(self, x):
        """Rows scaled to unit Euclidean norm; zero rows pass through flagged."""
        x = self._wrap(x)
        if len(x.shape) not in (1, 2):
            raise GraphError("l2_normalize expects a row or a row matrix")
        norms = np.sqrt((x.value * x.value).sum(axis=-1, keepdims=True))
        zero = norms == 0.0
        safe = np.where(zero, 1.0, norms)
        y = x.value / safe

        def vjp(g):
            inner = (g * y).sum(axis=-1, keepdims=True)
            gx = (g - y * inner) / safe
            if zero.any():
                gx = np.where(zero, 0.0, gx)
            return (gx,)

        out = self._emit("l2_normalize", (x,), y, vjp)
        self._flag_zero_rows(out, zero)
        return out

    def cosine_matrix(self, a, b):
        """Row-by-row dot products: (n,d) x (m,d) -> (n,m).

        Equals cosine similarity when rows are unit-norm, which is the
        caller's contract.
        """
        a, b = self._wrap(a), self._wrap(b)
        if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[1] != b.shape[1]:
            raise GraphError(f"cosine_matrix shapes {a.shape} vs {b.shape}")
        av, bv = self._values(a, b)

        def vjp(g):
            return (g @ b.value, g.swapaxes(-1, -2) @ a.value)

        return self._emit("cosine_matrix", (a, b), np.matmul(av, bv.swapaxes(-1, -2)), vjp)

    def log_softmax_at(self, x, cols):
        """(n,m) -> (n,): row i's log-softmax at column cols[i]."""
        x = self._wrap(x)
        cols = np.asarray(cols)
        if (len(x.shape) != 2 or cols.shape != x.shape[:1] or cols.dtype.kind not in "iu"
                or np.any((cols < 0) | (cols >= x.shape[1]))):
            raise GraphError(f"log_softmax_at needs one column of {x.shape} per row, "
                             f"got {cols.tolist()}")
        rows = np.arange(cols.shape[0])
        shifted = x.value - x.value.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        total = e.sum(axis=-1)
        # The log of a picked probability could underflow to -inf; this cannot.
        y = shifted[..., rows, cols] - np.log(total)
        p = e / total[..., None]

        def vjp(g):
            onehot = np.zeros_like(p)
            onehot[..., rows, cols] = 1.0
            return (g[..., None] * (onehot - p),)

        return self._emit("log_softmax_at", (x,), y, vjp)

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
        # (node id, row indices) for every zero-norm row seen by l2_normalize.
        self.zero_norm_rows: list[tuple[int, tuple[int, ...]]] = []

    # -- leaves ----------------------------------------------------------

    def leaf(self, value, trainable: bool = False, name: str | None = None) -> Node:
        return self._append("leaf", (), _finite(value, name), trainable, trainable, None, name)

    def constant(self, value, name: str | None = None) -> Node:
        return self.leaf(value, trainable=False, name=name)

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
        and affine do, rather than compute an adjoint for a constant); such
        inputs, and None entries, are skipped.
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
    loss.  The numeric ones come from one long-double Evaluator pass over 2P
    replicas for the P parameter coordinates (numbered through ``params`` in
    order): replica 2j moves coordinate j by +eps and replica 2j+1 by -eps,
    and every loss is read off the same replicas.  Long double keeps the
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
    replicas = 2 * sum(sizes)
    eps_wide = np.longdouble(eps)
    evaluator = Evaluator(np.longdouble)
    stacked, first = {}, 0
    for (k, v), size in zip(params.items(), sizes):
        base = np.asarray(v, dtype=np.longdouble)
        copies = np.repeat(base.reshape(1, size), replicas, axis=0)
        coords = np.arange(size)
        copies[2 * (first + coords), coords] += eps_wide
        copies[2 * (first + coords) + 1, coords] -= eps_wide
        stacked[k] = evaluator.stack(copies.reshape((replicas,) + base.shape), name=k)
        first += size
    values = build(evaluator, stacked)

    reports = {}
    for name, loss in losses.items():
        grads = graph.backward(loss)
        f = np.broadcast_to(values[name].value, (replicas,))
        quotients = ((f[0::2] - f[1::2]) / (2.0 * eps_wide)).astype(np.float64)
        parts = dict(zip(params, np.split(quotients, np.cumsum(sizes)[:-1])))
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
