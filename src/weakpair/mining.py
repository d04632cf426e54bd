"""Weak-positive sampling, in-batch hard-negative mining, group assembly.

A group for anchor i bundles the strong pair (I_i, T_i), the two weak pairs
(I_i, T_i_w) and (I_i_w, T_i), the two directional hard negatives used by
plain pair matching, and the top-K mined negatives attached to each weak
branch: 3 matched pairs versus 2 + 2K negatives in total.  A step's groups
are its two mined (n, K) index arrays; PairGroups.pair_rows defines the
rows each matching branch scores.

Mining only ever considers candidates whose identity differs from the
anchor's, scores them with the current cross-modal cosines, and breaks ties
by preferring the lower batch index so results are reproducible.  A step
ranks every anchor's candidates in both directions in one lexsort over a
leading direction axis (identity clash, then descending score, then index)
and keeps each row's first k columns; mining for a single anchor in one
direction is the one-row case of the same kernel.  A batch's weak picks
are dataset rows, drawn in one call from ``data.identity_groups``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import IdentityGroups
from .encoders import EmbeddingBatch

# The group size k that each fixed mining mode implies; custom takes any k.
_MODE_K = {"neg3v4": 1, "neg3v6": 2}
MODES = (*_MODE_K, "custom")
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
        expected = _MODE_K.get(self.mode)
        if expected is not None and self.k != expected:
            raise ValueError(f"mode {self.mode} requires k={expected}, got {self.k}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    @classmethod
    def from_mode(cls, mode: str, k: int | None = None) -> "MiningConfig":
        if mode == "custom" and k is None:
            raise ValueError("custom mining mode needs an explicit k")
        return cls(mode, _MODE_K.get(mode, k))


def sample_weak_batch(rows: np.ndarray, groups: IdentityGroups,
                      rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Each anchor row's uniform draw among its identity's other records, and
    the count of anchors with none, which stand in as their own weak row.

    One rng.integers call takes every draw, bounded by each non-degenerate
    anchor's count of other records, in anchor order: the same stream as
    one scalar call per such anchor.
    """
    others = groups.counts[groups.inverse[rows]] - 1
    drawn = others > 0
    weak = rows.copy()
    weak[drawn] = groups.other(rows[drawn], rng.integers(others[drawn]))
    return weak, int(np.count_nonzero(~drawn))


# The mining directions: (anchor rows, candidate rows) of each, as indexes
# into the stacked (image, text) embeddings.
_DIRECTIONS = {"image_to_text": (0, 1), "text_to_image": (1, 0)}


def _scores(anchor_rows: np.ndarray, candidates: np.ndarray,
            anchors: np.ndarray) -> np.ndarray:
    """(..., anchors, candidates) scores, row i with the bits of
    candidates @ anchor_rows[anchors[i]]: one batched matrix-vector product
    per anchor, over any leading axes.  A single matrix product can differ
    from them in the last bits, which could flip a near-tie."""
    return np.matmul(candidates[..., None, :, :], anchor_rows[..., anchors, :, None])[..., 0]


def _mine(batch: EmbeddingBatch, anchors: np.ndarray, directions: tuple[str, ...],
          k: int) -> np.ndarray:
    """(directions, anchors, k) top-k different-identity candidates per anchor,
    ties by lower index, every direction ranked in one lexsort.

    Raises MiningStarvationError for the first anchor with fewer than k
    different-identity candidates.
    """
    try:
        sides = np.array([_DIRECTIONS[d] for d in directions])
    except KeyError as exc:
        raise ValueError(f"unknown mining direction {exc.args[0]!r}") from None
    ids = batch.identities
    same = ids[anchors, None] == ids[None, :]
    eligible = ids.shape[0] - np.count_nonzero(same, axis=1)
    if eligible.min() < k:
        first = np.argmax(eligible < k)
        raise MiningStarvationError(
            f"anchor {anchors[first]} needs {k} negatives but only {eligible[first]} "
            f"eligible candidates exist (batch of {ids.shape[0]} "
            f"records over {len(set(ids.tolist()))} identities)")
    views = np.stack([batch.image, batch.text])
    scores = _scores(views[sides[:, 0]], views[sides[:, 1]], anchors)
    # lexsort's last key is its primary: same-identity candidates sort last,
    # the rest by descending score.  Its sort is stable, so ties keep index
    # order.
    return np.lexsort((-scores, np.broadcast_to(same, scores.shape)), axis=-1)[..., :k]


def mine_hard_negatives(batch: EmbeddingBatch, anchor: int, direction: str,
                        k: int) -> list[int]:
    """Top-k most similar different-identity candidates, ties by lower index.

    direction "image_to_text" scores candidate texts against the anchor
    image; "text_to_image" scores candidate images against the anchor text.
    """
    return _mine(batch, np.array([anchor]), (direction,), k)[0, 0].tolist()


@dataclass(frozen=True)
class PairGroups:
    """One step's mined negatives and the pairs each anchor's group scores.

    Row i of neg_texts holds the top-k texts mined against image i, row i of
    neg_images the top-k images mined against text i; column 0 is the pair
    matching negative.  anchors selects the groups to score: every anchor,
    unless indexed, sliced or iterated into one-group views.  Rows always
    index the whole batch of n, so anchor i's weak counterpart is row n + i.
    """

    neg_texts: np.ndarray
    neg_images: np.ndarray
    anchors: np.ndarray

    def __getitem__(self, key) -> "PairGroups":
        return PairGroups(self.neg_texts, self.neg_images, np.atleast_1d(self.anchors[key]))

    @property
    def anchor(self) -> int:
        return self.anchors.item()

    def pair_rows(self, branch: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(image rows, text rows, labels) of a branch's pairs, group by group.

        Each group's matched pair comes first, then its negatives.  itm pairs
        (I_i, T_i) with (I_i, top text) and (top image, T_i); gitm_txt pairs
        (I_i, T_i_w) with (I_i, each mined text); gitm_img mirrors gitm_txt.
        """
        a = self.anchors
        n, k = self.neg_texts.shape
        texts, images = self.neg_texts[a], self.neg_images[a]
        if branch == "itm":
            img = np.stack([a, a, images[:, 0]], axis=1)
            txt = np.stack([a, texts[:, 0], a], axis=1)
        elif branch == "gitm_txt":
            img = np.repeat(a[:, None], 1 + k, axis=1)
            txt = np.concatenate([a[:, None] + n, texts], axis=1)
        elif branch == "gitm_img":
            img = np.concatenate([a[:, None] + n, images], axis=1)
            txt = np.repeat(a[:, None], 1 + k, axis=1)
        else:
            raise ValueError(f"unknown matching branch {branch!r}")
        labels = np.zeros(img.shape, dtype=int)
        labels[:, 0] = 1
        return img.ravel(), txt.ravel(), labels.ravel()

    def branch_pairs(self, branch: str) -> list[tuple[str, int, str, int, int]]:
        """pair_rows as (image source, image index, text source, text index, label)
        tuples, a "weak" index i standing for row n + i."""
        n, source = self.neg_texts.shape[0], ("batch", "weak")
        return [(source[img // n], img % n, source[txt // n], txt % n, label)
                for img, txt, label in zip(*(c.tolist() for c in self.pair_rows(branch)))]

    def matched_pairs(self) -> list[tuple[str, int, str, int, int]]:
        return [p for b in MATCHING_BRANCHES for p in self.branch_pairs(b) if p[4] == 1]

    def negative_pairs(self) -> list[tuple[str, int, str, int, int]]:
        return [p for b in MATCHING_BRANCHES for p in self.branch_pairs(b) if p[4] == 0]


def build_groups(batch: EmbeddingBatch, cfg: MiningConfig) -> PairGroups:
    """Every anchor's group, mined in one pass from the current embeddings."""
    ids = batch.identities
    anchors = np.arange(ids.shape[0])
    neg_texts, neg_images = _mine(batch, anchors, tuple(_DIRECTIONS), cfg.k)
    # The identity exclusion mining promises, checked once for the whole step.
    negatives = np.concatenate([neg_texts, neg_images], axis=1)
    clash = ids[negatives] == ids[:, None]
    if clash.any():
        anchor, col = np.argwhere(clash)[0]
        raise ValueError(
            f"negative {negatives[anchor, col]} shares anchor identity {ids[anchor]}")
    return PairGroups(neg_texts, neg_images, anchors)
