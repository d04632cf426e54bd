"""Weak-positive sampling, in-batch hard-negative mining, group assembly.

A group for anchor i bundles the strong pair (I_i, T_i), the two weak pairs
(I_i, T_i_w) and (I_i_w, T_i), the two directional hard negatives used by
plain pair matching, and the top-K mined negatives attached to each weak
branch: 3 matched pairs versus 2 + 2K negatives in total.

Mining only ever considers candidates whose identity differs from the
anchor's, scores them with the current cross-modal cosines, and breaks ties
by preferring the lower batch index so results are reproducible.  A step
ranks every anchor's candidates in one lexsort per direction (identity
clash, then descending score, then index) and keeps each row's first k
columns; mining for a single anchor is the one-row case of the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PairRecord
from .encoders import EmbeddingBatch

MODES = ("neg3v4", "neg3v6", "custom")
# Pair matching over strong pairs, and the two group-wise weak branches.
MATCHING_BRANCHES = ("itm", "gitm_txt", "gitm_img")


class MiningStarvationError(RuntimeError):
    """Batch has too few different-identity candidates to mine."""


@dataclass(frozen=True)
class MiningConfig:
    mode: str = "neg3v6"
    k: int = 2

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mining mode {self.mode!r}")
        expected = {"neg3v4": 1, "neg3v6": 2}.get(self.mode)
        if expected is not None and self.k != expected:
            raise ValueError(f"mode {self.mode} requires k={expected}, got {self.k}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    @classmethod
    def from_mode(cls, mode: str, k: int | None = None) -> "MiningConfig":
        if mode == "neg3v4":
            return cls("neg3v4", 1)
        if mode == "neg3v6":
            return cls("neg3v6", 2)
        if k is None:
            raise ValueError("custom mining mode needs an explicit k")
        return cls("custom", k)


@dataclass
class WeakSelection:
    """An anchor record paired with a same-identity counterpart.

    degenerate is set when the identity has no other record and the anchor
    had to stand in for itself.
    """

    anchor: PairRecord
    weak: PairRecord
    degenerate: bool

    def __post_init__(self):
        if self.anchor.identity != self.weak.identity:
            raise ValueError("weak selection crossed identities")


def sample_weak(anchor: PairRecord, pool: dict[int, list[PairRecord]],
                rng: np.random.Generator) -> WeakSelection:
    """Uniform draw among the anchor identity's other records."""
    try:
        candidates = pool[anchor.identity]
    except KeyError:
        raise KeyError(f"identity {anchor.identity} not in pool") from None
    others = [r for r in candidates
              if (r.identity, r.view) != (anchor.identity, anchor.view)]
    if not others:
        return WeakSelection(anchor, anchor, degenerate=True)
    return WeakSelection(anchor, others[int(rng.integers(len(others)))], False)


def _mine(batch: EmbeddingBatch, anchors: np.ndarray, direction: str,
          k: int) -> np.ndarray:
    """(anchors, k) top-k different-identity candidates per anchor, ties by lower index.

    Raises MiningStarvationError for the first anchor with fewer than k
    different-identity candidates.
    """
    if direction == "image_to_text":
        anchor_rows, candidates = batch.image, batch.text
    elif direction == "text_to_image":
        anchor_rows, candidates = batch.text, batch.image
    else:
        raise ValueError(f"unknown mining direction {direction!r}")
    ids = batch.identities
    same = ids[anchors, None] == ids[None, :]
    eligible = ids.shape[0] - np.count_nonzero(same, axis=1)
    if eligible.min() < k:
        first = np.argmax(eligible < k)
        raise MiningStarvationError(
            f"anchor {anchors[first]} needs {k} negatives but only {eligible[first]} "
            f"eligible candidates exist (batch of {ids.shape[0]} "
            f"records over {np.unique(ids).shape[0]} identities)")
    # Stacked per-anchor products: one matrix product can differ from them in
    # the last bits, which could flip a near-tie.
    scores = np.stack([candidates @ anchor_rows[a] for a in anchors])
    index = np.broadcast_to(np.arange(ids.shape[0]), same.shape)
    # lexsort's last key is its primary: same-identity candidates sort last,
    # the rest by descending score, then by index.
    return np.lexsort((index, -scores, same), axis=-1)[:, :k]


def mine_hard_negatives(batch: EmbeddingBatch, anchor: int, direction: str,
                        k: int) -> list[int]:
    """Top-k most similar different-identity candidates, ties by lower index.

    direction "image_to_text" scores candidate texts against the anchor
    image; "text_to_image" scores candidate images against the anchor text.
    """
    return _mine(batch, np.array([anchor]), direction, k)[0].tolist()


@dataclass
class PairGroup:
    """Index structure of one anchor's matched pairs and mined negatives."""

    anchor: int
    itm_neg_text: int
    itm_neg_image: int
    neg_texts: list[int]
    neg_images: list[int]

    def branch_pairs(self, branch: str) -> list[tuple[str, int, str, int, int]]:
        """(image source, image index, text source, text index, label) of each pair
        the group adds to a branch; a "weak" index i is record i's weak counterpart."""
        i, texts, images = self.anchor, self.neg_texts, self.neg_images
        if branch == "itm":
            return [("batch", i, "batch", i, 1), ("batch", i, "batch", self.itm_neg_text, 0),
                    ("batch", self.itm_neg_image, "batch", i, 0)]
        if branch == "gitm_txt":
            return [("batch", i, "weak", i, 1)] + [("batch", i, "batch", j, 0) for j in texts]
        if branch == "gitm_img":
            return [("weak", i, "batch", i, 1)] + [("batch", j, "batch", i, 0) for j in images]
        raise ValueError(f"unknown matching branch {branch!r}")

    def matched_pairs(self) -> list[tuple[str, int, str, int, int]]:
        return [p for b in MATCHING_BRANCHES for p in self.branch_pairs(b) if p[4] == 1]

    def negative_pairs(self) -> list[tuple[str, int, str, int, int]]:
        return [p for b in MATCHING_BRANCHES for p in self.branch_pairs(b) if p[4] == 0]

    def validate(self, identities: np.ndarray, k: int) -> None:
        negatives = self.negative_pairs()
        if len(negatives) != 2 + 2 * k:
            raise ValueError(f"group must hold {2 + 2 * k} negatives, has {len(negatives)}")
        anchor_id = identities[self.anchor]
        for _, img, _, txt, _ in negatives:
            other = txt if img == self.anchor else img
            if identities[other] == anchor_id:
                raise ValueError(f"negative {other} shares anchor identity {anchor_id}")


def build_group(anchor: int, batch: EmbeddingBatch, cfg: MiningConfig) -> PairGroup:
    """Assemble one anchor's group from the current embeddings.

    The pair-matching negatives are the top-1 mined candidates, so they
    coincide with the first entries of the weak-branch top-k lists.
    """
    neg_texts = mine_hard_negatives(batch, anchor, "image_to_text", cfg.k)
    neg_images = mine_hard_negatives(batch, anchor, "text_to_image", cfg.k)
    group = PairGroup(anchor, itm_neg_text=neg_texts[0], itm_neg_image=neg_images[0],
                      neg_texts=neg_texts, neg_images=neg_images)
    group.validate(batch.identities, cfg.k)
    return group


def build_groups(batch: EmbeddingBatch, cfg: MiningConfig) -> list[PairGroup]:
    """Every anchor's group, equal to build_group per anchor, mined in one pass."""
    ids = batch.identities
    anchors = np.arange(ids.shape[0])
    neg_texts = _mine(batch, anchors, "image_to_text", cfg.k)
    neg_images = _mine(batch, anchors, "text_to_image", cfg.k)
    # PairGroup.validate's identity exclusion, once for the whole step.
    negatives = np.concatenate([neg_texts, neg_images], axis=1)
    clash = ids[negatives] == ids[:, None]
    if clash.any():
        anchor, col = np.argwhere(clash)[0]
        raise ValueError(
            f"negative {negatives[anchor, col]} shares anchor identity {ids[anchor]}")
    return [PairGroup(i, itm_neg_text=texts[0], itm_neg_image=images[0],
                      neg_texts=texts, neg_images=images)
            for i, (texts, images) in enumerate(zip(neg_texts.tolist(),
                                                     neg_images.tolist()))]
