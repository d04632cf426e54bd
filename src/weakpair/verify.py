"""Gradient verification battery: every op first, then every loss.

Op-level checks pin down which backward rule is wrong when something fails;
the kernels (tower, itc, match_head) carry the affine, tanh, normalization,
cosine and log-softmax formulas.  Loss-level checks then validate the graph
the trainer actually builds, at many random parameter points.  Each point
takes all five losses (itc, uitc, itm, gitm = gitm_txt + gitm_img, total)
from one uitc_gitm training.assemble_losses: one float64 Graph with one
backward per loss, and long-double stacked passes over the total loss's
parameters, one per block of a parameter group's coordinates, each loss over
its own subset (loss_params).  The uncertainty weight carries no gradient,
so the checks fix it at its value (the frozen form); a separate bit-exactness
check confirms the two forms agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .autograd import Graph, grad_check, grad_check_losses
from .encoders import EmbeddingBatch, ModelDims, param_shapes
from .losses import batch_uncertainty
from .mining import MiningConfig, PairGroups, build_groups
from .training import StepData, TrainConfig, assemble_losses, encode_step

_CHECK_DIMS = ModelDims(raw_dim_image=4, raw_dim_text=3, hidden_dim=4, embed_dim=3)
_CHECK_BATCH = 3
_CHECK_K = 1
# The trainer's default loss settings: uitc_gitm, its mapping and alpha, beta.
_TRAIN = TrainConfig()


@dataclass
class CheckResult:
    name: str
    max_rel_error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol


@dataclass
class BatteryReport:
    ops: list[CheckResult] = field(default_factory=list)
    losses: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.ops + self.losses)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.ops + self.losses if not r.passed]


# -- op checks -----------------------------------------------------------------


def _op_cases(rng: np.random.Generator):
    """(name, params, loss_fn) triples, one scalar probe per op."""
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    # Unused draws are kept so the draws after them keep their values.
    rng.normal(size=(4, 2))
    rng.normal(size=2)
    pos = rng.uniform(0.5, 2.0, size=(3, 4))
    c34 = rng.normal(size=(3, 4))
    rng.normal(size=(3, 2))
    c33 = rng.normal(size=(3, 3))
    c3 = rng.normal(size=3)
    rng.normal(size=(3, 4))
    c64 = rng.normal(size=(6, 4))
    labels = (c64[:3] > 0.0).astype(np.float64)
    # The kernels' own draws come last, so every draw above keeps its value.
    w1, b1 = rng.normal(size=(4, 5)), rng.normal(size=5)
    w2, b2 = rng.normal(size=(5, 3)), rng.normal(size=3)
    log_tau = np.asarray(rng.normal(np.log(0.5), 0.2))
    head = {k: rng.normal(size=shape) for k, shape in (
        ("w_img", (4, 2)), ("w_txt", (4, 2)), ("w_prod", (4, 2)), ("b_hidden", 2),
        ("w_out", (2, 1)), ("v_img", (4, 1)), ("v_txt", (4, 1)), ("v_prod", (4, 1)),
        ("b_out", 1))}
    c31 = rng.normal(size=(3, 1))

    def weighted(build, const):
        return lambda g, lv: g.sum(g.mul(build(g, lv), g.constant(const)))

    return [
        ("add", {"a": a, "b": b}, weighted(lambda g, lv: g.add(lv["a"], lv["b"]), c34)),
        ("mul", {"a": a, "b": b}, weighted(lambda g, lv: g.mul(lv["a"], lv["b"]), c34)),
        ("exp", {"x": a}, weighted(lambda g, lv: g.exp(lv["x"]), c34)),
        ("log", {"x": pos}, weighted(lambda g, lv: g.log(lv["x"]), c34)),
        ("bce_logits", {"x": a},
         weighted(lambda g, lv: g.bce_logits(lv["x"], labels), c34)),
        ("sum_rows", {"x": a},
         lambda g, lv: g.sum(g.mul(g.sum_rows(lv["x"]), g.constant(c3)))),
        ("sum", {"x": a}, lambda g, lv: g.mul(g.sum(lv["x"]), 0.7)),
        ("mean", {"x": a}, lambda g, lv: g.mul(g.mean(lv["x"]), 1.3)),
        # Repeated rows from both sources: backward must scatter-add.
        ("take_rows", {"a": a, "b": b},
         weighted(lambda g, lv: g.take_rows((lv["a"], lv["b"]), [4, 0, 4, 2, 5, 0]), c64)),
        ("tower", {"x": a, "w1": w1, "b1": b1, "w2": w2, "b2": b2},
         weighted(lambda g, lv: g.tower(*lv.values()), c33)),
        ("itc", {"a": a, "b": b, "log_tau": log_tau},
         lambda g, lv: g.itc(lv["a"], lv["b"], lv["log_tau"])),
        ("match_head", {"a": a, "b": b, **head},
         weighted(lambda g, lv: g.match_head(*lv.values()), c31)),
    ]


def check_ops(seed: int = 0, points: int = 5, eps: float = 1e-5,
              tol: float = 1e-4) -> list[CheckResult]:
    worst: dict[str, float] = {}
    for point in range(points):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 404, point]))
        for name, params, fn in _op_cases(rng):
            report = grad_check(fn, params, eps=eps, tol=tol)
            worst[name] = max(worst.get(name, 0.0), report.max_rel_error)
    return [CheckResult(f"op:{name}", err, tol) for name, err in worst.items()]


# -- loss-level checks ---------------------------------------------------------


@dataclass
class LossInstance:
    """One frozen random problem: parameters, raw batch, mined groups, u value."""

    params: dict[str, np.ndarray]
    data: StepData
    groups: PairGroups
    u_mean: float


def random_instance(rng: np.random.Generator, dims: ModelDims = _CHECK_DIMS,
                    n: int = _CHECK_BATCH, k: int = _CHECK_K) -> LossInstance:
    """Draw parameters and a batch, then freeze mining and uncertainty.

    Temperatures are drawn near 0.5 rather than the training init: sharper
    softmaxes raise third derivatives and with them the finite-difference
    truncation error, which is noise here, not signal.
    """
    params = {kk: rng.normal(0.0, 0.5, size=shape) for kk, shape in param_shapes(dims).items()}
    params["log_tau"] = np.asarray(np.log(0.5) + rng.normal(0.0, 0.2))
    params["log_gamma"] = np.asarray(rng.normal(0.0, 0.3))
    data = StepData(
        raw_image=rng.normal(size=(n, dims.raw_dim_image)),
        raw_text=rng.normal(size=(n, dims.raw_dim_text)),
        weak_raw_image=rng.normal(size=(n, dims.raw_dim_image)),
        weak_raw_text=rng.normal(size=(n, dims.raw_dim_text)),
        identities=np.arange(n),
    )
    g = Graph()
    leaves = {kk: g.leaf(v, name=kk) for kk, v in params.items()}
    enc = encode_step(g, leaves, data, need_weak=True)
    batch = EmbeddingBatch(enc[0].value, enc[1].value, enc[2].value, enc[3].value,
                           data.identities)
    groups = build_groups(batch, MiningConfig("custom", k))
    _, _, u_mean = batch_uncertainty(*(e.value for e in enc), _TRAIN.mapping)
    return LossInstance(params, data, groups, u_mean)


# Loss name -> the parameter prefixes its check covers.
_LOSSES = {
    "itc": ("img", "txt", "log_tau"),
    "uitc": ("img", "txt", "log_tau", "log_gamma"),
    "itm": ("img", "txt", "head"),
    "gitm": ("img", "txt", "head"),
    "total": ("img", "txt", "head", "log_tau", "log_gamma"),
}
LOSS_NAMES = tuple(_LOSSES)


def _loss_spec(name: str):
    if name not in _LOSSES:
        raise ValueError(f"unknown loss {name!r}")
    return _LOSSES[name]


def losses_builder(inst: LossInstance):
    """(graph, leaves) -> every checked loss, from the trainer's own uitc_gitm
    assembly at the frozen uncertainty."""

    def build(g, lv):
        # Parameters outside the checked subset stay at their frozen values.
        full = {k: (lv[k] if k in lv else g.constant(v, name=k))
                for k, v in inst.params.items()}
        nodes, _, _ = assemble_losses(g, full, encode_step(g, full, inst.data, need_weak=True),
                                      inst.groups, _TRAIN, u_override=inst.u_mean)
        return {"itc": nodes["itc"], "uitc": nodes["uitc"], "itm": nodes["itm"],
                "gitm": g.add(nodes["gitm_txt"], nodes["gitm_img"]),
                "total": nodes["total"]}

    return build


def loss_builder(name: str, inst: LossInstance):
    """A grad_check-compatible (graph, leaves) -> scalar node builder."""
    _loss_spec(name)
    build = losses_builder(inst)

    def fn(g, lv):
        return build(g, lv)[name]

    return fn


def loss_params(name: str, inst: LossInstance) -> dict[str, np.ndarray]:
    prefixes = _loss_spec(name)
    return {k: v for k, v in inst.params.items()
            if any(k == p or k.startswith(p + ".") for p in prefixes)}


def check_losses(points: int = 100, seed: int = 0, eps: float = 1e-5,
                 tol: float = 1e-4) -> list[CheckResult]:
    """Every loss at each point, from one graph and one stacked pass per block
    of the total loss's parameters; each loss is reported over its own
    subset."""
    worst = {name: 0.0 for name in LOSS_NAMES}
    for point in range(points):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 505, point]))
        inst = random_instance(rng)
        reports = grad_check_losses(
            losses_builder(inst), loss_params("total", inst),
            {name: loss_params(name, inst) for name in LOSS_NAMES}, eps=eps, tol=tol)
        for name, report in reports.items():
            worst[name] = max(worst[name], report.max_rel_error)
    return [CheckResult(f"loss:{name}", worst[name], tol) for name in LOSS_NAMES]


def uitc_gradients(inst: LossInstance, frozen: bool):
    """Gradients of the weak-pair loss, with the uncertainty weight estimated
    in the step or fixed at inst.u_mean."""
    g = Graph()
    leaves = {k: g.leaf(v, trainable=True, name=k) for k, v in inst.params.items()}
    enc = encode_step(g, leaves, inst.data, need_weak=True)
    nodes, _, _ = assemble_losses(g, leaves, enc, inst.groups,
                                  replace(_TRAIN, ablation_mode="uitc"),
                                  u_override=inst.u_mean if frozen else None)
    grads = g.backward(nodes["uitc"])
    return {k: grads[leaves[k]] for k in inst.params}


def stop_gradient_bitexact(inst: LossInstance) -> bool:
    """Estimated and frozen forms must agree to the last bit, per parameter."""
    estimated = uitc_gradients(inst, frozen=False)
    frozen = uitc_gradients(inst, frozen=True)
    return all(np.array_equal(estimated[k], frozen[k]) for k in estimated)


def run_battery(points: int = 100, seed: int = 0, eps: float = 1e-5,
                tol: float = 1e-4) -> BatteryReport:
    return BatteryReport(ops=check_ops(seed=seed, eps=eps, tol=tol),
                         losses=check_losses(points=points, seed=seed, eps=eps, tol=tol))
