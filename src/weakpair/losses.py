"""Training objectives: contrastive, uncertainty-regularized, and matching.

All losses are assembled on an autograd Graph from unit-norm embedding rows
and are minimized.

itc_loss       temperature-scaled softmax cross-entropy over in-batch
               cosines, both retrieval directions, positives on the diagonal,
               one itc kernel node (Graph.itc) per pairing.
consistency_uncertainty
               per-anchor consistency s_w = (cos(f_I, f_Iw) + cos(f_T, f_Tw)) / 2
               and its uncertainty u_w under a selectable monotone mapping;
               batch_uncertainty gives both, and u_w's mean, as values.
weak_itc_loss  contrastive loss of the two weak pairings, (I, T_w) and (I_w, T).
uitc_loss      weak-pair contrastive loss regularized by uncertainty:
               L / (gamma * u_w) + gamma * u_w, with u_w read by value so the
               model cannot game the weighting path, and gamma = exp(log_gamma)
               kept positive structurally.
matching_losses
               binary match/non-match cross-entropy from the head's logits
               (Graph.bce_logits), one head evaluation and one cross-entropy
               per step for every branch, on PairGroups.pair_rows' indices:
               itm over each strong pair plus its two directional hard
               negatives, and the group-wise gitm_txt and gitm_img, each
               averaging its weak-positive term with K mined negatives.
total_loss     itc + itm + alpha * uitc + beta * (gitm_txt + gitm_img).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Array, Evaluator, Graph, Node, Stacked
from .encoders import match_logit
from .mining import MATCHING_BRANCHES, PairGroups  # noqa: F401  (re-exported)

MAPPINGS = ("exponential", "linear", "power")


@dataclass
class LossWeights:
    alpha: float
    beta: float


@dataclass
class UncertaintyScore:
    """Consistency and uncertainty nodes for a batch of weak pairs."""

    s_w: Node
    u_w: Node


@dataclass
class LossReport:
    itc: float
    uitc: float
    itm: float
    gitm_txt: float
    gitm_img: float
    total: float
    mean_s_w: float
    mean_u_w: float


def uncertainty(ops, s, mapping: str):
    """u = exp(-s), 1.5 - s or (1.5 - s)^2 of consistency s, on an op surface.

    The one definition of the mapping: the trainer calls it on its Graph,
    evaluation and U_BOUNDS through mapping_value's float64 Evaluator, so
    all three get the same bits.
    """
    if mapping not in MAPPINGS:
        raise ValueError(f"unknown uncertainty mapping {mapping!r}")
    if mapping == "exponential":
        return ops.exp(ops.mul(s, -1.0))
    diff = ops.add(ops.mul(s, -1.0), 1.5)
    return diff if mapping == "linear" else ops.mul(diff, diff)


def mapping_value(s, mapping: str):
    """uncertainty() of a float or an array of consistencies, in numpy."""
    return uncertainty(Evaluator(), s, mapping).value


# u_w value ranges implied by s_w in [-1, 1], per mapping (each is decreasing).
U_BOUNDS = {m: (float(mapping_value(1.0, m)), float(mapping_value(-1.0, m)))
            for m in MAPPINGS}


def itc_loss(g: Graph, f_img: Node, f_txt: Node, log_tau: Node) -> Node:
    """Contrastive loss with diagonal positives, both directions, batch mean.

    Row i of cos(f_img, f_txt) / tau holds the logits of image i over the
    batch of texts, and its log-softmax at column i is the log-likelihood of
    the true text; the text-to-image direction swaps the arguments.  One itc
    node; an empty batch is rejected.
    """
    return g.itc(f_img, f_txt, log_tau)


def consistency_uncertainty(g: Graph, f_img: Node, f_txt: Node,
                            f_img_w: Node, f_txt_w: Node,
                            mapping: str = "exponential") -> UncertaintyScore:
    """Per-anchor weak-pair consistency and its mapped uncertainty."""
    sim_img = g.sum_rows(g.mul(f_img, f_img_w))
    sim_txt = g.sum_rows(g.mul(f_txt, f_txt_w))
    s_w = g.mul(g.add(sim_img, sim_txt), 0.5)
    return UncertaintyScore(s_w=s_w, u_w=uncertainty(g, s_w, mapping))


def batch_uncertainty(f_img: Array, f_txt: Array, f_img_w: Array, f_txt_w: Array,
                      mapping: str) -> tuple[Array, Array, float]:
    """s_w, u_w and u_w's batch mean from embedding values: the bits a graph
    would record, off the graph (a float64 Evaluator), so no gradient flows."""
    ev = Evaluator()
    unc = consistency_uncertainty(ev, f_img, f_txt, f_img_w, f_txt_w, mapping)
    return unc.s_w.value, unc.u_w.value, float(ev.mean(unc.u_w).value)


def weak_itc_loss(g: Graph, f_img: Node, f_txt: Node, f_img_w: Node,
                  f_txt_w: Node, log_tau: Node) -> Node:
    """Mean of itc over (anchor image, weak text) and (weak image, anchor text)."""
    return g.mul(g.add(itc_loss(g, f_img, f_txt_w, log_tau),
                       itc_loss(g, f_img_w, f_txt, log_tau)), 0.5)


def uitc_loss(g: Graph, itc_weak: Node, u_w: Node | float, log_gamma: Node) -> Node:
    """itc_weak / (gamma * u_w) + gamma * u_w, with u_w read by value.

    u_w, a float or a constant node, enters as a value operand in the front
    end's dtype, so no gradient reaches it; 1/u_w is exp(-log(u_w)).  gamma
    is structurally positive and u_w must be (all three mappings guarantee
    it; anything else is a caller bug, not a numeric accident).
    """
    u = np.asarray(u_w.value if isinstance(u_w, (Node, Stacked)) else u_w, dtype=g.dtype)
    if np.any(u <= 0.0):
        raise ValueError("uncertainty must be positive")
    inv_gamma = g.exp(g.mul(log_gamma, -1.0))
    gamma = g.exp(log_gamma)
    return g.add(g.mul(g.mul(itc_weak, inv_gamma), np.exp(-np.log(u))),
                 g.mul(gamma, u))


def itm_term(g: Graph, p_hat: Node, labels) -> Node:
    """Negated log-likelihood -(p log p_hat + (1-p) log(1-p_hat)), elementwise.

    The matching loss written on probabilities, as a reference: the trainer
    scores logits with g.bce_logits, which equals this at p_hat = sigmoid(logit)
    and stays finite where p_hat would round to 0 or 1.
    """
    y = np.asarray(labels, dtype=np.float64)
    log_p = g.log(p_hat)
    log_1mp = g.log(g.add(g.constant(1.0), g.mul(p_hat, -1.0)))
    ll = g.add(g.mul(g.constant(y), log_p),
               g.mul(g.constant(1.0 - y), log_1mp))
    return g.mul(ll, -1.0)


def _rows(g: Graph, rows: np.ndarray, strong: Node, weak: Node | None) -> Node:
    """Rows of [strong; weak] (n + j is weak row j); no weak row, no weak source."""
    if rows.max(initial=0) < strong.shape[0]:
        return g.take_rows((strong,), rows)
    return g.take_rows((strong, weak), rows)


def matching_losses(g: Graph, head, groups: PairGroups, enc,
                    branches: tuple[str, ...]) -> dict[str, Node]:
    """Mean matching loss of each branch, every pair scored in one head evaluation.

    enc is (f_img, f_txt, f_img_w, f_txt_w); groups.pair_rows gives each
    branch's rows of [f_img; f_img_w] and [f_txt; f_txt_w], and its labels.
    itm classifies each strong pair against its two directional hard
    negatives.  gitm_txt scores (anchor image, weak text) against the anchor
    image's K mined texts, and gitm_img mirrors it; every group adds 1+K
    equally weighted terms per branch, so a branch's flat mean equals the
    mean of its per-group 1/(1+K)-weighted means.
    """
    f_img, f_txt, f_img_w, f_txt_w = enc
    rows = [groups.pair_rows(b) for b in branches]
    img, txt, labels = (np.concatenate(column) for column in zip(*rows))
    logit = match_logit(g, head, _rows(g, img, f_img, f_img_w), _rows(g, txt, f_txt, f_txt_w))
    term = g.bce_logits(logit, labels.astype(np.float64)[:, None])
    if len(branches) == 1:
        return {branches[0]: g.mean(term)}
    bounds = np.cumsum([0] + [len(branch_labels) for *_, branch_labels in rows])
    return {b: g.mean(g.take_rows((term,), np.arange(start, end)))
            for b, start, end in zip(branches, bounds[:-1], bounds[1:])}


def total_loss(g: Graph, itc: Node, itm: Node, uitc: Node | None,
               gitm_txt: Node | None, gitm_img: Node | None,
               weights: LossWeights) -> Node:
    """Weighted sum of the enabled objectives (absent terms contribute zero)."""
    total = g.add(itc, itm)
    if uitc is not None:
        total = g.add(total, g.mul(uitc, weights.alpha))
    if gitm_txt is not None:
        total = g.add(total, g.mul(g.add(gitm_txt, gitm_img), weights.beta))
    return total
