"""Reverse-mode automatic differentiation over dense float64 tensors.

The op set is the minimal closure needed by the losses in this package:
affine maps, elementwise add/multiply, tanh, exp, log, sigmoid, row gathers
(take_rows), row-wise L2 normalization, row-cosine matrices, row softmax,
sum/mean reductions, and detach (stop-gradient).

Graphs are eager: a node's value is computed when the op is recorded, so
callers can inspect intermediate values (e.g. for hard-negative mining)
while the graph is still being built.  Backward walks the node list in
reverse insertion order, which is a valid topological order because every
op can only consume previously created nodes.
Graphs hold no back-references (nodes and vjps refer only to their inputs),
so reference counting frees a finished graph without the cyclic collector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

Array = np.ndarray

# Identical values appear in several contracts; keep them in one place.
REL_ERR_FLOOR = 1e-8


class GraphError(ValueError):
    """Contract violation while building or differentiating a graph."""


def _reduce_to(grad: Array, shape: tuple[int, ...]) -> Array:
    if shape == () and grad.shape != ():
        return np.asarray(grad.sum())
    return grad


class Node:
    """One leaf or op record: kind, input nodes, and the computed value."""

    __slots__ = ("id", "op", "inputs", "value", "trainable", "needs_grad",
                 "_vjp", "name")

    def __init__(self, id: int, op: str, inputs: tuple["Node", ...],
                 value: Array, trainable: bool, needs_grad: bool,
                 vjp: Callable[[Array], tuple[Array | None, ...]] | None,
                 name: str | None = None):
        self.id = id
        self.op = op
        self.inputs = inputs
        self.value = value
        self.trainable = trainable
        self.needs_grad = needs_grad
        self._vjp = vjp
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        label = self.name or self.op
        return f"Node({label}, id={self.id}, shape={self.shape})"


class Graph:
    """Ordered op records plus the set of trainable leaves.

    Single-threaded per instance; distinct graphs share no state.  The graph
    dtype is float64 for all real work; grad_check builds throwaway
    extended-precision graphs so its difference quotients are not limited by
    float64 rounding of the loss value.
    """

    def __init__(self, dtype=np.float64):
        self.dtype = dtype
        self.nodes: list[Node] = []
        # (node id, row indices) for every zero-norm row seen by l2_normalize.
        self.zero_norm_rows: list[tuple[int, tuple[int, ...]]] = []

    # -- leaves ----------------------------------------------------------

    def leaf(self, value, trainable: bool = False, name: str | None = None) -> Node:
        arr = np.asarray(value, dtype=self.dtype)
        if not np.all(np.isfinite(arr)):
            raise GraphError(f"non-finite leaf {name or ''!r}")
        return self._append("leaf", (), arr, trainable, trainable, None, name)

    def constant(self, value, name: str | None = None) -> Node:
        return self.leaf(value, trainable=False, name=name)

    def _append(self, *fields) -> Node:
        node = Node(len(self.nodes), *fields)
        self.nodes.append(node)
        return node

    def _owns(self, node: Node) -> bool:
        return node.id < len(self.nodes) and self.nodes[node.id] is node

    def _wrap(self, value) -> Node:
        if isinstance(value, Node):
            if not self._owns(value):
                raise GraphError("node belongs to a different graph")
            return value
        return self.constant(value)

    def _record(self, op: str, inputs: tuple[Node, ...], value: Array,
                vjp) -> Node:
        needs = any(inp.needs_grad for inp in inputs)
        return self._append(op, inputs, value, False, needs, vjp)

    # -- elementwise ops -------------------------------------------------

    @staticmethod
    def _match(a: Node, b: Node) -> None:
        # Same shape, or one side is a scalar; anything else is out of scope.
        if a.shape != b.shape and a.shape != () and b.shape != ():
            raise GraphError(f"shape mismatch {a.shape} vs {b.shape}")

    def add(self, a, b) -> Node:
        a, b = self._wrap(a), self._wrap(b)
        self._match(a, b)

        def vjp(g):
            return (_reduce_to(g, a.shape), _reduce_to(g, b.shape))

        return self._record("add", (a, b), a.value + b.value, vjp)

    def mul(self, a, b) -> Node:
        a, b = self._wrap(a), self._wrap(b)
        self._match(a, b)

        def vjp(g):
            return (_reduce_to(g * b.value, a.shape),
                    _reduce_to(g * a.value, b.shape))

        return self._record("mul", (a, b), a.value * b.value, vjp)

    def tanh(self, x) -> Node:
        x = self._wrap(x)
        y = np.tanh(x.value)
        return self._record("tanh", (x,), y, lambda g: (g * (1.0 - y * y),))

    def exp(self, x) -> Node:
        x = self._wrap(x)
        y = np.exp(x.value)
        return self._record("exp", (x,), y, lambda g: (g * y,))

    def log(self, x) -> Node:
        x = self._wrap(x)
        return self._record("log", (x,), np.log(x.value),
                            lambda g: (g / x.value,))

    def sigmoid(self, x) -> Node:
        x = self._wrap(x)
        # Stable in both tails: exp of a non-positive argument only.
        v = x.value
        y = np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.abs(v))),
                     np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))
        return self._record("sigmoid", (x,), y,
                            lambda g: (g * y * (1.0 - y),))

    # -- linear / row-wise ops ---------------------------------------------

    def affine(self, x, w, b=None) -> Node:
        """x @ w (+ b broadcast over rows).  x: (n,p), w: (p,q), b: (q,)."""
        x, w = self._wrap(x), self._wrap(w)
        if x.value.ndim != 2 or w.value.ndim != 2:
            raise GraphError("affine expects 2-d x and w")
        if x.shape[1] != w.shape[0]:
            raise GraphError(f"affine inner dims {x.shape} @ {w.shape}")
        y = x.value @ w.value
        if b is None:
            def vjp(g):
                return (g @ w.value.T, x.value.T @ g)

            return self._record("affine", (x, w), y, vjp)
        b = self._wrap(b)
        if b.shape != (w.shape[1],):
            raise GraphError(f"affine bias shape {b.shape}")

        def vjp(g):
            return (g @ w.value.T, x.value.T @ g, g.sum(axis=0))

        return self._record("affine", (x, w, b), y + b.value, vjp)

    def take_rows(self, sources, rows) -> Node:
        """Listed rows of the row-stacked sources; repeats scatter-add in backward."""
        sources = tuple(self._wrap(s) for s in sources)
        if len({s.shape[1:] for s in sources}) != 1 or sources[0].value.ndim != 2:
            raise GraphError(f"take_rows needs same-width matrices: {[s.shape for s in sources]}")
        stacked = np.concatenate([s.value for s in sources])
        rows = np.asarray(rows, dtype=np.intp)
        if rows.ndim != 1 or np.any((rows < 0) | (rows >= len(stacked))):
            raise GraphError(f"take_rows indices outside {len(stacked)} rows")
        bounds = np.cumsum([s.shape[0] for s in sources])[:-1]

        def vjp(g):
            grad = np.zeros_like(stacked)
            np.add.at(grad, rows, g)
            return tuple(np.split(grad, bounds))

        return self._record("take_rows", sources, stacked[rows], vjp)

    def l2_normalize(self, x) -> Node:
        """Rows scaled to unit Euclidean norm; zero rows pass through flagged."""
        x = self._wrap(x)
        v = x.value
        single = v.ndim == 1
        m = v.reshape(1, -1) if single else v
        if m.ndim != 2:
            raise GraphError("l2_normalize expects a row or a row matrix")
        norms = np.sqrt((m * m).sum(axis=1, keepdims=True))
        zero = norms[:, 0] == 0.0
        safe = np.where(zero[:, None], 1.0, norms)
        y = m / safe

        def vjp(g):
            gm = g.reshape(1, -1) if single else g
            inner = (gm * y).sum(axis=1, keepdims=True)
            gx = (gm - y * inner) / safe
            if zero.any():
                gx = np.where(zero[:, None], 0.0, gx)
            return (gx.reshape(v.shape),)

        out = self._record("l2_normalize", (x,), y.reshape(v.shape), vjp)
        if zero.any():
            self.zero_norm_rows.append((out.id, tuple(np.nonzero(zero)[0])))
        return out

    def cosine_matrix(self, a, b) -> Node:
        """Row-by-row dot products: (n,d) x (m,d) -> (n,m).

        Equals cosine similarity when rows are unit-norm, which is the
        caller's contract.
        """
        a, b = self._wrap(a), self._wrap(b)
        if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[1]:
            raise GraphError(f"cosine_matrix shapes {a.shape} vs {b.shape}")

        def vjp(g):
            return (g @ b.value, g.T @ a.value)

        return self._record("cosine_matrix", (a, b), a.value @ b.value.T, vjp)

    def softmax_rows(self, x) -> Node:
        x = self._wrap(x)
        v = x.value
        if v.ndim != 2:
            raise GraphError("softmax_rows expects a matrix")
        shifted = v - v.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=1, keepdims=True)

        def vjp(g):
            return ((g - (g * y).sum(axis=1, keepdims=True)) * y,)

        return self._record("softmax_rows", (x,), y, vjp)

    # -- reductions ----------------------------------------------------------

    def sum(self, x) -> Node:
        x = self._wrap(x)
        shape = x.shape
        return self._record("sum", (x,), np.asarray(x.value.sum()),
                            lambda g: (np.full(shape, g),))

    def mean(self, x) -> Node:
        x = self._wrap(x)
        shape, size = x.shape, x.value.size
        return self._record("mean", (x,), np.asarray(x.value.mean()),
                            lambda g: (np.full(shape, g / size),))

    def sum_rows(self, x) -> Node:
        """(n,m) -> (n,): per-row sums."""
        x = self._wrap(x)
        if x.value.ndim != 2:
            raise GraphError("sum_rows expects a matrix")
        cols = x.shape[1]
        return self._record("sum_rows", (x,), x.value.sum(axis=1),
                            lambda g: (np.repeat(g[:, None], cols, axis=1),))

    def detach(self, x) -> Node:
        """Value passes through; gradient through this node is exactly zero."""
        x = self._wrap(x)
        node = self._record("detach", (x,), x.value, None)
        node.needs_grad = False
        return node

    # -- differentiation ------------------------------------------------------

    def backward(self, loss: Node) -> dict[Node, Array]:
        """Gradients of a scalar loss for every trainable leaf.

        Detached paths contribute exactly zero: their vjp is never invoked,
        so the result is bit-identical to differentiating a graph where the
        detached value is a constant.
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


def grad_check(loss_fn: Callable[[Graph, Mapping[str, Node]], Node],
               params: Mapping[str, Array],
               eps: float = 1e-5, tol: float = 1e-4) -> GradReport:
    """Compare backward() against central finite differences.

    ``loss_fn(graph, leaves)`` must rebuild the same scalar loss from any
    parameter assignment; discrete choices (mined indices, weak picks,
    values behind detach) must be frozen by the caller so the rebuilt
    function is smooth in the parameters.

    The difference quotients are evaluated on extended-precision graphs:
    float64 evaluation rounds the loss to ~1 ulp, which at step 1e-5 leaves
    ~5e-12 of noise on every numeric partial and would swamp true gradients
    near the 1e-8 relative-error floor.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")
    graph = Graph()
    leaves = {k: graph.leaf(v, trainable=True, name=k) for k, v in params.items()}
    loss = loss_fn(graph, leaves)
    grads = graph.backward(loss)
    analytic = {k: grads[leaves[k]] for k in params}

    work = {k: np.array(v, dtype=np.longdouble) for k, v in params.items()}
    eps_wide = np.longdouble(eps)

    def value_at():
        g = Graph(dtype=np.longdouble)
        lv = {k: g.leaf(v, trainable=True, name=k) for k, v in work.items()}
        return loss_fn(g, lv).value

    numeric: dict[str, Array] = {}
    for k in params:
        flat = work[k].reshape(-1)
        num = np.zeros(flat.shape[0])
        for i in range(flat.shape[0]):
            keep = flat[i]
            flat[i] = keep + eps_wide
            f_plus = value_at()
            flat[i] = keep - eps_wide
            f_minus = value_at()
            flat[i] = keep
            num[i] = float((f_plus - f_minus) / (2.0 * eps_wide))
        numeric[k] = num.reshape(work[k].shape)

    max_err, worst = 0.0, None
    for k in params:
        err = relative_error(analytic[k], numeric[k])
        local = float(err.max()) if err.size else 0.0
        if local > max_err:
            max_err, worst = local, k
    return GradReport(analytic, numeric, max_err, worst, tol)
