"""Ranking evaluation and reliability diagnostics for retrieval runs.

Queries are texts, galleries are images, and an item is relevant iff it
shares the query's identity.  Rankings order by descending score with ties
broken by lower gallery index, so every metric is a pure function of the
scores and flags regardless of input order.  A query keeps only the ranks of
its relevant items, read off its score row sorted once as float32; the few
relevant items whose float32 value another item of the row shares are
recounted in float64 (``rank_queries`` says why that is exact).  Every metric
here is a function of those ranks.

Each stage is one pass over whole arrays rather than a loop over queries:
ranks are bisected for every (query, relevant item) pair of a block of
queries at once, a ranking is held as arrays over its queries, the
precision-recall curve takes each group of queries with equal relevant
counts as one block and sums each distinct precision column once, and
embedding dot products are taken for all pairs of a stage together by
``_row_dots``.  The passes keep the per-query arithmetic bit for bit:

- every precision is one int/int division m / r_m (``_hit_precisions``, or
  its flat form over all of a ranking's pairs in ``rank_queries``);
- every dot product is matmul's vector-by-vector case, which numpy routes
  through the same dot kernel as a one-pair ``a @ b`` (tests pin this);
- every sum that leaves numpy -- AP, mAP, the macro precision columns, the
  consistencies behind uncertainty, the mean margins -- is math.fsum, which
  returns the correctly rounded sum independent of summation order, so a
  column gathered group by group sums as the per-query table's column does.

A record's same-identity others, for relevance, weak margins and
uncertainty, come from ``data.identity_groups``, as training's batch plans
and weak picks do.

That is what lets the per-query references and the brute-force oracles in
the tests match these implementations exactly rather than to a tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import DatasetManifest, identity_groups
from .encoders import embed_manifest
from .losses import mapping_value
from .training import NumericAbort

DEFAULT_RECALL_GRID = tuple(i / 100 for i in range(1, 100)) + (1.0,)
RISK_COVERAGE_POINTS = 20
MARGIN_HIST_BINS = 40  # fixed-width bins over [-2, 2]
# Gallery rows held at once: query rows sorted as float32, or the float64
# rows of pairs recounted because their float32 value is shared.
RANK_CHUNK = 128


@dataclass
class QueryRanking:
    query: int
    hit_ranks: np.ndarray   # ascending 1-based ranks of the relevant items
    uncertainty: float
    ap: float

    @property
    def first_hit(self) -> int:
        """1-based rank of the first relevant item."""
        return int(self.hit_ranks[0])


@dataclass
class RankingResult:
    """Every rankable query's relevant ranks, as arrays over those queries.

    The i-th rankable query holds hit_ranks[starts[i]:starts[i] + counts[i]].
    """
    query_ids: np.ndarray      # rankable queries, ascending
    counts: np.ndarray         # relevant items per rankable query
    hit_ranks: np.ndarray      # each query's ascending 1-based ranks, concatenated
    aps: np.ndarray            # average precision per rankable query
    uncertainties: np.ndarray  # uncertainty per rankable query
    excluded: int  # queries dropped for having no relevant gallery item

    @property
    def starts(self) -> np.ndarray:
        return np.cumsum(self.counts) - self.counts

    @property
    def first_hits(self) -> np.ndarray:
        return self.hit_ranks[self.starts]

    @property
    def queries(self) -> list[QueryRanking]:
        """One view per rankable query; its hit_ranks share this result's array."""
        return [QueryRanking(query=q, hit_ranks=self.hit_ranks[start:start + count],
                             uncertainty=u, ap=ap)
                for q, start, count, u, ap in zip(
                    self.query_ids.tolist(), self.starts.tolist(), self.counts.tolist(),
                    self.uncertainties.tolist(), self.aps.tolist())]


def _rankable(result: RankingResult) -> int:
    """The number of rankable queries; metrics are undefined without one."""
    if result.query_ids.shape[0] == 0:
        raise ValueError("no rankable queries")
    return result.query_ids.shape[0]


@dataclass
class PRCurve:
    recalls: np.ndarray
    precisions: np.ndarray  # macro-averaged over queries
    auc: float


@dataclass
class RiskCoverage:
    coverages: np.ndarray
    risks: np.ndarray  # top-1 error among the retained lowest-u queries


@dataclass
class ReliabilityStats:
    mean_u_correct: float | None
    mean_u_incorrect: float | None

    @property
    def complete(self) -> bool:
        return self.mean_u_correct is not None and self.mean_u_incorrect is not None


@dataclass
class MarginStats:
    weak_margins: np.ndarray  # s(T, I_weak) - s(T, I_neg) per query
    pos_margins: np.ndarray   # s(T, I_pos) - s(T, I_neg) per query
    mean_weak: float
    mean_pos: float
    bin_edges: np.ndarray
    weak_hist: np.ndarray
    pos_hist: np.ndarray


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for every row i, as one stacked vector-by-vector matmul."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _hit_precisions(hit_ranks: np.ndarray) -> np.ndarray:
    """Precision m / r_m at the m-th relevant rank r_m along the last axis,
    each one int/int division."""
    return np.arange(1, hit_ranks.shape[-1] + 1) / hit_ranks


def _at_most(rows: np.ndarray, row: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """#{i: rows[row[p], i] <= keys[p]} for every p, by one bisection of the
    ascending rows over all p at once.  Each pair's count stays within
    [lo, lo + n] of its row while the shared window n halves, one gather and
    one compare per halving; at n == 1 the value at lo decides."""
    width = rows.shape[1]
    flat, base = rows.ravel(), row * width
    pos, n = base.copy(), width  # pos = base + lo
    while n > 1:
        half = n >> 1
        np.add(pos, half, out=pos, where=flat[pos + half] <= keys)
        n -= half
    return pos - base + (flat[pos] <= keys)


def rank_queries(scores: np.ndarray, relevance: np.ndarray,
                 uncertainties: np.ndarray) -> RankingResult:
    """Rank the relevant items of every query; zero-relevance queries are counted out.

    Relevant item j of query q ranks 1 + #{i: s_qi > s_qj} + #{i: s_qi == s_qj,
    i < j}, its position in the descending order with ties to the lower
    index.  Query rows are sorted as float32 copies RANK_CHUNK at a time and
    each pair's #{i: f32(s_qi) <= f32(s_qj)} is bisected from its sorted row.
    Rounding to float32 is monotone, so f32(s_qi) > f32(s_qj) implies
    s_qi > s_qj and f32(s_qi) < f32(s_qj) implies s_qi < s_qj: a pair whose
    float32 value is alone in its row takes its exact rank from that count.
    Pairs whose float32 value is shared -- true ties, signed zeros, scores
    closer than float32 resolves, subnormals, and finite scores beyond
    float32's range, which cast to +-inf -- are recounted exactly over their
    float64 gallery rows.
    """
    n_queries, n_gallery = scores.shape
    if relevance.shape != scores.shape:
        raise ValueError(f"relevance shape {relevance.shape} differs from "
                         f"scores shape {scores.shape}")
    u = np.asarray(uncertainties, dtype=np.float64)
    if u.shape != (n_queries,):
        raise ValueError(f"uncertainties shape {u.shape} is not one entry per query "
                         f"of scores shape {scores.shape}")
    finite = np.isfinite(scores).all(axis=1)
    if not finite.all():
        raise ValueError(f"query {int(np.argmin(finite))}: non-finite score")
    pair_q, pair_j = np.divmod(np.flatnonzero(relevance), n_gallery)
    keys = scores[pair_q, pair_j]
    # Scores beyond float32's range round to +-inf: intended, and still monotone.
    with np.errstate(over="ignore"):
        keys32 = keys.astype(np.float32)
    ranks = np.empty(pair_q.shape[0], dtype=np.intp)
    shared = np.zeros(pair_q.shape[0], dtype=bool)
    for lo in range(0, n_queries, RANK_CHUNK):
        # Pairs arrive grouped by query, so a block's pairs are one slice.
        a, b = np.searchsorted(pair_q, (lo, lo + RANK_CHUNK)).tolist()
        if a == b:
            continue
        with np.errstate(over="ignore"):
            rows = scores[lo:lo + RANK_CHUNK].astype(np.float32)
        rows.sort(axis=1)
        row, key = pair_q[a:b] - lo, keys32[a:b]
        at_most = _at_most(rows, row, key)
        ranks[a:b] = 1 + n_gallery - at_most
        # The key is the last value <= itself; an equal value before it shares it.
        shared[a:b] = (at_most >= 2) & (rows[row, np.maximum(at_most - 2, 0)] == key)
    shared = np.flatnonzero(shared)
    indices = np.arange(n_gallery)
    for lo in range(0, shared.shape[0], RANK_CHUNK):
        pairs = shared[lo:lo + RANK_CHUNK]
        row, key = scores[pair_q[pairs]], keys[pairs, None]
        ahead = row == key
        ahead &= indices < pair_j[pairs, None]
        ahead |= row > key
        ranks[pairs] = 1 + np.count_nonzero(ahead, axis=1)
    # Order each query's ranks ascending: ranks lie in [1, n_gallery].
    stride = n_gallery + 1
    ranks = np.sort(pair_q * stride + ranks) - pair_q * stride
    counts = np.bincount(pair_q, minlength=n_queries)
    ranked = np.flatnonzero(counts)
    counts = counts[ranked]
    ends = np.cumsum(counts)
    starts = ends - counts
    # Precision m / r_m at each query's m-th rank, and its fsum per query.
    precisions = ((np.arange(ranks.shape[0]) - np.repeat(starts, counts) + 1) / ranks).tolist()
    sums = [math.fsum(precisions[a:b]) for a, b in zip(starts.tolist(), ends.tolist())]
    return RankingResult(query_ids=ranked, counts=counts, hit_ranks=ranks,
                         aps=np.array(sums, dtype=np.float64) / counts,
                         uncertainties=u[ranked], excluded=n_queries - ranked.shape[0])


def recall_at_k(result: RankingResult, k: int) -> float:
    """Fraction of queries whose first relevant item appears in the top k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = _rankable(result)
    return np.count_nonzero(result.first_hits <= k) / n


def mean_average_precision(result: RankingResult) -> float:
    n = _rankable(result)
    return math.fsum(result.aps.tolist()) / n


def pr_curve(result: RankingResult, grid=DEFAULT_RECALL_GRID) -> PRCurve:
    """Macro-averaged precision over a fixed recall grid, plus trapezoid AUC.

    The area integrates from recall 0, extending the first grid value left,
    so a ranker with precision 1 everywhere scores exactly 1.  A level's
    column of per-query precisions depends only on the rank index each
    relevant-count group picks there, so levels that pick alike share one
    fsum: with 4 relevant items per query, 4 sums serve the 100 levels.
    """
    n = _rankable(result)
    grid = list(grid)
    if not grid or any(not 0.0 < r <= 1.0 for r in grid):
        raise ValueError("recall grid must lie in (0, 1]")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("recall grid must be strictly increasing")
    # A level's precision is m / r_m for the first m with recall m / R >= level;
    # R / R == 1.0 reaches every level in the grid.  Queries with equal R
    # share the level -> m lookup.
    levels = np.array(grid)
    starts = result.starts
    blocks, picks = [], []
    # The distinct counts from bincount: a plain np.unique imports numpy.ma.
    for count in np.flatnonzero(np.bincount(result.counts)).tolist():
        rows = np.flatnonzero(result.counts == count)
        block = result.hit_ranks[starts[rows, None] + np.arange(count)]
        recalls = np.arange(1, count + 1) / count
        blocks.append(_hit_precisions(block))
        picks.append(np.searchsorted(recalls, levels).tolist())
    keys = list(zip(*picks))  # each level's m in every group
    sums = {key: math.fsum(itertools.chain.from_iterable(
                block[:, m].tolist() for block, m in zip(blocks, key)))
            for key in dict.fromkeys(keys)}
    macro = [sums[key] / n for key in keys]
    xs = [0.0] + grid
    ys = [macro[0]] + macro
    auc = math.fsum((xs[i] - xs[i - 1]) * (ys[i] + ys[i - 1]) / 2
                    for i in range(1, len(xs)))
    return PRCurve(levels, np.array(macro), auc)


def risk_coverage(result: RankingResult,
                  n_points: int = RISK_COVERAGE_POINTS) -> RiskCoverage:
    """Top-1 error among the lowest-uncertainty fraction, per coverage level.

    Retention counts come from integer ceilings of the rational coverages,
    so no float rounding can off-by-one the cut.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    n = _rankable(result)
    order = np.lexsort((np.arange(n), result.uncertainties))
    correct = np.cumsum(result.first_hits[order] == 1)
    points = np.arange(1, n_points + 1)
    retained = -((-points * n) // n_points)  # ceil(i * n / n_points)
    return RiskCoverage(points / n_points, (retained - correct[retained - 1]) / retained)


def reliability_stats(result: RankingResult) -> ReliabilityStats:
    """Mean uncertainty grouped by top-1 correctness; None flags empty groups."""
    correct = result.first_hits == 1

    def mean(values: np.ndarray) -> float | None:
        return math.fsum(values.tolist()) / values.shape[0] if values.shape[0] else None

    return ReliabilityStats(mean(result.uncertainties[correct]),
                            mean(result.uncertainties[~correct]))


def margin_stats(txt_emb: np.ndarray, img_emb: np.ndarray,
                 tuples: list[tuple[int, int, int, int]]) -> MarginStats:
    """Cosine margins for (query, positive, weak, negative) index tuples."""
    q, p, w, neg = np.array(tuples, dtype=np.intp).reshape(-1, 4).T
    text = txt_emb[q]
    base = _row_dots(text, img_emb[neg])
    weak_arr = _row_dots(text, img_emb[w]) - base
    pos_arr = _row_dots(text, img_emb[p]) - base
    edges = np.linspace(-2.0, 2.0, MARGIN_HIST_BINS + 1)
    return MarginStats(
        weak_margins=weak_arr, pos_margins=pos_arr,
        mean_weak=math.fsum(weak_arr.tolist()) / len(tuples),
        mean_pos=math.fsum(pos_arr.tolist()) / len(tuples),
        bin_edges=edges,
        weak_hist=np.histogram(weak_arr, bins=edges)[0],
        pos_hist=np.histogram(pos_arr, bins=edges)[0],
    )


def margin_tuples(identities: np.ndarray,
                  rng: np.random.Generator) -> list[tuple[int, int, int, int]]:
    """One (query, positive, weak, negative) tuple per record.

    The weak pick is a same-identity other record (the record itself when
    the identity is a singleton); the negative is any other identity.  Both
    are uniform draws over ascending record indices, weak first.
    """
    groups = identity_groups(identities)
    if groups.counts.shape[0] == 1:
        raise ValueError("margin tuples need at least two identities")
    n = identities.shape[0]
    if n == 0:
        return []
    group, grouped = groups.inverse, groups.grouped
    size = groups.counts[group]
    # One generator call for every draw, in per-record order: the weak index
    # among the other members (singletons draw none), then the negative.
    has_weak = size > 1
    neg_at = np.cumsum(1 + has_weak) - 1
    weak_at = neg_at[has_weak] - 1
    bounds = np.empty(neg_at[-1] + 1, dtype=np.int64)
    bounds[weak_at] = size[has_weak] - 1
    bounds[neg_at] = n - size
    draws = rng.integers(bounds)
    weak = np.arange(n)
    weak[has_weak] = groups.other(np.flatnonzero(has_weak), draws[weak_at])
    # The k-th record outside the identity: k plus the members ahead of it.
    # A member's count of other-identity records before it (r - member[r])
    # ascends within its identity; offset by identity, one sorted key list.
    stride = n + 1
    before = group[grouped] * stride + grouped - groups.member[grouped]
    k = draws[neg_at]
    neg = k + np.searchsorted(before, group * stride + k, side="right") - groups.first[group]
    q = range(n)
    return list(zip(q, q, weak.tolist(), neg.tolist()))


def query_uncertainty(img_emb: np.ndarray, txt_emb: np.ndarray,
                      identities: np.ndarray, mapping: str) -> np.ndarray:
    """Per-record uncertainty from mean cross-view embedding consistency.

    Each record's consistency is averaged over all other records of its
    identity; singleton identities are perfectly consistent by convention,
    which pins their uncertainty to the mapping's floor.  The consistencies
    are mapped together, by the trainer's own mapping (losses.uncertainty).
    """
    groups = identity_groups(identities)
    others = groups.counts[groups.inverse] - 1
    ends = np.cumsum(others)
    pair_q, pair_o = groups.other_pairs()
    sims = (0.5 * (_row_dots(img_emb[pair_q], img_emb[pair_o])
                   + _row_dots(txt_emb[pair_q], txt_emb[pair_o]))).tolist()
    consistency = [math.fsum(sims[end - k:end]) / k if k else 1.0
                   for k, end in zip(others.tolist(), ends.tolist())]
    return mapping_value(np.array(consistency), mapping)


@dataclass
class EvalResult:
    recalls: dict[int, float]
    mean_ap: float
    pr: PRCurve
    risk: RiskCoverage
    reliability: ReliabilityStats
    margins: MarginStats
    ranking: RankingResult
    uncertainties: np.ndarray
    zero_norm_rows: int


def evaluate_model(params: Mapping[str, np.ndarray], manifest: DatasetManifest, mapping: str,
                   eval_seed: int = 0, recall_ks=(1, 5, 10)) -> EvalResult:
    """Embed a dataset and run the full diagnostic battery on it.

    An encoder that overflows on a record raises NumericAbort naming it.
    """
    img, txt, zero_rows = embed_manifest(params, manifest)
    identities = manifest.identity
    finite = np.isfinite(img).all(axis=1) & np.isfinite(txt).all(axis=1)
    if not finite.all():
        raise NumericAbort(f"record {int(np.argmin(finite))}: non-finite embedding")
    scores = txt @ img.T
    # A query's relevant items: itself and its identity's other records.
    relevance = np.eye(identities.shape[0], dtype=bool)
    relevance[identity_groups(identities).other_pairs()] = True
    uncertainties = query_uncertainty(img, txt, identities, mapping)
    ranking = rank_queries(scores, relevance, uncertainties)
    rng = np.random.default_rng(np.random.SeedSequence([eval_seed & ((1 << 64) - 1), 77]))
    tuples = margin_tuples(identities, rng)
    return EvalResult(
        recalls={k: recall_at_k(ranking, k) for k in recall_ks},
        mean_ap=mean_average_precision(ranking),
        pr=pr_curve(ranking),
        risk=risk_coverage(ranking),
        reliability=reliability_stats(ranking),
        margins=margin_stats(txt, img, tuples),
        ranking=ranking,
        uncertainties=uncertainties,
        zero_norm_rows=zero_rows,
    )
