"""Two-tower embedding encoders and the pair-scoring fusion head.

Each modality gets its own two-layer tower (affine, tanh, affine) whose
output rows are L2-normalized, so downstream cosine scores are plain dot
products.  The fusion head maps a pair of embeddings, together with their
elementwise product, through a hidden tanh layer to a single match logit;
its sigmoid is the match probability.  The product term gives the head the
second-order interaction needed to separate hard negatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .autograd import Array, Graph, Node
from .data import DatasetManifest


@dataclass
class EncoderParams:
    """One tower: hidden affine + tanh, then output affine."""

    w1: Array
    b1: Array
    w2: Array
    b2: Array


@dataclass
class FusionHeadParams:
    """Pair scorer over (f_a, f_b, f_a*f_b); affine maps stored blockwise.

    The logit is the sum of a tanh hidden path (w_*, b_hidden, w_out) and a
    direct affine path (v_*) from the same concatenation.  The direct
    product-block path matters: through it, match supervision acts on the
    embedding dot products themselves, not only on head internals.
    """

    w_img: Array
    w_txt: Array
    w_prod: Array
    b_hidden: Array
    w_out: Array
    v_img: Array
    v_txt: Array
    v_prod: Array
    b_out: Array


@dataclass(frozen=True)
class ModelDims:
    raw_dim_image: int
    raw_dim_text: int
    hidden_dim: int
    embed_dim: int


@dataclass
class ModelParams:
    image_tower: EncoderParams
    text_tower: EncoderParams
    head: FusionHeadParams
    log_tau: Array   # temperature, tau = exp(log_tau)
    log_gamma: Array  # uncertainty scale, gamma = exp(log_gamma)


# Parameter dicts use dotted keys so optimizers and checkpoints can treat
# the model as a flat name -> array mapping.
_TOWER_KEYS = ("w1", "b1", "w2", "b2")
_HEAD_KEYS = ("w_img", "w_txt", "w_prod", "b_hidden", "w_out",
              "v_img", "v_txt", "v_prod", "b_out")


def params_to_dict(model: ModelParams) -> dict[str, Array]:
    out: dict[str, Array] = {}
    for prefix, tower in (("img", model.image_tower), ("txt", model.text_tower)):
        for key in _TOWER_KEYS:
            out[f"{prefix}.{key}"] = getattr(tower, key)
    for key in _HEAD_KEYS:
        out[f"head.{key}"] = getattr(model.head, key)
    out["log_tau"] = model.log_tau
    out["log_gamma"] = model.log_gamma
    return out


def dict_to_params(d: Mapping[str, Array]) -> ModelParams:
    img = EncoderParams(*(d[f"img.{k}"] for k in _TOWER_KEYS))
    txt = EncoderParams(*(d[f"txt.{k}"] for k in _TOWER_KEYS))
    head = FusionHeadParams(*(d[f"head.{k}"] for k in _HEAD_KEYS))
    return ModelParams(img, txt, head, d["log_tau"], d["log_gamma"])


def leaf_group(leaves: Mapping[str, Node], prefix: str) -> dict[str, Node]:
    cut = len(prefix) + 1
    return {k[cut:]: v for k, v in leaves.items() if k.startswith(prefix + ".")}


def _layout(dims: ModelDims) -> dict[str, tuple[tuple[int, ...], int]]:
    """Every parameter's (shape, fan-in), in params_to_dict's key order.  A
    weight's fan-in is the width it reads (the head's but w_out's is the
    3 * embed_dim pair); fan-in 0 marks a zero-initialised bias or scalar."""
    e, h = dims.embed_dim, dims.hidden_dim
    pair, score = ((e, h), 3 * e), ((e, 1), 3 * e)
    head = {"w_img": pair, "w_txt": pair, "w_prod": pair, "b_hidden": ((h,), 0),
            "w_out": ((h, 1), h), "v_img": score, "v_txt": score, "v_prod": score,
            "b_out": ((1,), 0)}
    layout = {}
    for prefix, raw in (("img", dims.raw_dim_image), ("txt", dims.raw_dim_text)):
        tower = {"w1": ((raw, h), raw), "b1": ((h,), 0), "w2": ((h, e), h), "b2": ((e,), 0)}
        layout.update({f"{prefix}.{k}": tower[k] for k in _TOWER_KEYS})
    layout.update({f"head.{k}": head[k] for k in _HEAD_KEYS})
    return {**layout, "log_tau": ((), 0), "log_gamma": ((), 0)}


def param_shapes(dims: ModelDims) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in params_to_dict's key order."""
    return {key: shape for key, (shape, _) in _layout(dims).items()}


def init_params(seed: int, dims: ModelDims
                ) -> tuple[EncoderParams, EncoderParams, FusionHeadParams]:
    """Symmetric 1/sqrt(fan_in) weights, zero biases, deterministic per seed;
    weights are drawn in key order."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 17]))
    arrays = {}
    for key, (shape, fan_in) in _layout(dims).items():
        if fan_in:
            bound = 1.0 / np.sqrt(fan_in)
            arrays[key] = rng.uniform(-bound, bound, size=shape)
        else:
            arrays[key] = np.zeros(shape)
    model = dict_to_params(arrays)
    return model.image_tower, model.text_tower, model.head


def init_model(seed: int, dims: ModelDims, tau_init: float = 0.07) -> ModelParams:
    image_tower, text_tower, head = init_params(seed, dims)
    return ModelParams(image_tower, text_tower, head,
                       log_tau=np.asarray(np.log(tau_init)),
                       log_gamma=np.asarray(0.0))


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


def embed_manifest(params: ModelParams, manifest: DatasetManifest) -> tuple[Array, Array, int]:
    """Embed every record; returns (image, text, zero_rows)."""
    g = Graph()
    leaves = {k: g.constant(v, name=k) for k, v in params_to_dict(params).items()}
    # An overflowing tower yields non-finite rows; the caller's check names
    # the first such record, so numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        f_img = encode(g, leaf_group(leaves, "img"), g.constant(manifest.image))
        f_txt = encode(g, leaf_group(leaves, "txt"), g.constant(manifest.text))
    zero_rows = sum(len(rows) for _, rows in g.zero_norm_rows)
    return f_img.value, f_txt.value, zero_rows
