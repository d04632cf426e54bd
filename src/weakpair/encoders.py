"""Two-tower embedding encoders and the pair-scoring fusion head.

Each modality gets its own two-layer tower (affine, tanh, affine) whose
output rows are L2-normalized, so downstream cosine scores are plain dot
products.  The fusion head maps a pair of embeddings, together with their
elementwise product, through a hidden tanh layer (w_*, b_hidden, w_out) and
a direct affine path (v_*, b_out) to a single match logit; its sigmoid is
the match probability.  The product term gives the head the second-order
interaction needed to separate hard negatives, and through the direct path
match supervision acts on the embedding dot products themselves.

The model is one flat name -> array mapping, in key order: img.* and txt.*
(w1, b1, w2, b2 per tower), head.*, log_tau (tau = exp(log_tau)) and
log_gamma (gamma = exp(log_gamma)).  Training, checkpoints and evaluation
all use that one form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, TypeVar

import numpy as np

from .autograd import Array, Graph, Node
from .data import DatasetManifest

T = TypeVar("T")


@dataclass(frozen=True)
class ModelDims:
    raw_dim_image: int
    raw_dim_text: int
    hidden_dim: int
    embed_dim: int


_TOWER_KEYS = ("w1", "b1", "w2", "b2")
_HEAD_KEYS = ("w_img", "w_txt", "w_prod", "b_hidden", "w_out",
              "v_img", "v_txt", "v_prod", "b_out")
# The model's keys, in order.
_KEYS = (*(f"{tower}.{k}" for tower in ("img", "txt") for k in _TOWER_KEYS),
         *(f"head.{k}" for k in _HEAD_KEYS), "log_tau", "log_gamma")


def dict_to_params(d: Mapping[str, Array]) -> dict[str, Array]:
    """The model's arrays from d, in key order; a missing key raises KeyError
    and any other key is dropped."""
    return {k: d[k] for k in _KEYS}


def leaf_group(leaves: Mapping[str, T], prefix: str) -> dict[str, T]:
    cut = len(prefix) + 1
    return {k[cut:]: v for k, v in leaves.items() if k.startswith(prefix + ".")}


def _layout(dims: ModelDims) -> dict[str, tuple[tuple[int, ...], int]]:
    """Every parameter's (shape, fan-in), in the model's key order.  A
    weight's fan-in is the width it reads (the head's but w_out's is the
    3 * embed_dim pair); fan-in 0 marks a zero-initialised bias or scalar."""
    e, h = dims.embed_dim, dims.hidden_dim
    pair, score = ((e, h), 3 * e), ((e, 1), 3 * e)
    layout = {"head.w_img": pair, "head.w_txt": pair, "head.w_prod": pair,
              "head.b_hidden": ((h,), 0), "head.w_out": ((h, 1), h),
              "head.v_img": score, "head.v_txt": score, "head.v_prod": score,
              "head.b_out": ((1,), 0), "log_tau": ((), 0), "log_gamma": ((), 0)}
    for prefix, raw in (("img", dims.raw_dim_image), ("txt", dims.raw_dim_text)):
        layout.update({f"{prefix}.w1": ((raw, h), raw), f"{prefix}.b1": ((h,), 0),
                       f"{prefix}.w2": ((h, e), h), f"{prefix}.b2": ((e,), 0)})
    return dict_to_params(layout)


def param_shapes(dims: ModelDims) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in the model's key order."""
    return {key: shape for key, (shape, _) in _layout(dims).items()}


def init_model(seed: int, dims: ModelDims, tau_init: float = 0.07) -> dict[str, Array]:
    """The initial model, in key order: symmetric 1/sqrt(fan_in) weights drawn
    in key order, deterministic per seed; zero biases; tau = tau_init and
    gamma = 1."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 17]))
    params = {}
    for key, (shape, fan_in) in _layout(dims).items():
        if fan_in:
            bound = 1.0 / np.sqrt(fan_in)
            params[key] = rng.uniform(-bound, bound, size=shape)
        else:
            params[key] = np.zeros(shape)
    params["log_tau"] = np.asarray(np.log(tau_init))
    return params


def encode(g: Graph, tower: Mapping[str, Node], raw: Node) -> Node:
    """Unit-norm embedding rows: l2_normalize(affine2(tanh(affine1(raw)))),
    one tower node."""
    return g.tower(raw, *(tower[k] for k in _TOWER_KEYS))


def match_logit(g: Graph, head: Mapping[str, Node],
                f_img: Node, f_txt: Node) -> Node:
    """Match logit per row, (n, 1), one match_head node; order of arguments
    matters."""
    return g.match_head(f_img, f_txt, *(head[k] for k in _HEAD_KEYS))


@dataclass
class EmbeddingBatch:
    """Unit-norm embedding values for one mini-batch.

    Row i of every matrix refers to anchor i; the weak matrices hold each
    anchor's same-identity other-view counterpart.
    """

    image: Array
    text: Array
    weak_image: Array
    weak_text: Array
    identities: np.ndarray

    def __post_init__(self):
        matrices = (self.image, self.text, self.weak_image, self.weak_text)
        if (any(m.shape != self.image.shape for m in matrices)
                or self.identities.shape != self.image.shape[:1]):
            raise ValueError(f"embedding batch shapes disagree: {[m.shape for m in matrices]}, "
                             f"identities {self.identities.shape}")
        norms = np.linalg.norm(np.stack(matrices), axis=-1)
        if not np.all((np.abs(norms - 1.0) <= 1e-6) | (norms == 0.0)):
            raise ValueError("embedding rows must be unit-norm (or flagged zero)")


def embed_manifest(params: Mapping[str, Array],
                   manifest: DatasetManifest) -> tuple[Array, Array, int]:
    """Embed every record with the model's towers; returns (image, text, zero_rows)."""
    g = Graph()
    leaves = {k: g.constant(v, name=k) for k, v in params.items()}
    # An overflowing tower yields non-finite rows; the caller's check names
    # the first such record, so numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        f_img = encode(g, leaf_group(leaves, "img"), g.constant(manifest.image))
        f_txt = encode(g, leaf_group(leaves, "txt"), g.constant(manifest.text))
    zero_rows = sum(len(rows) for _, rows in g.zero_norm_rows)
    return f_img.value, f_txt.value, zero_rows
