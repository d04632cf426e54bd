"""Ranking evaluation and reliability diagnostics for retrieval runs.

Queries are texts, galleries are images, and an item is relevant iff it
shares the query's identity.  Rankings order by descending score with ties
broken by lower gallery index, so every metric is a pure function of the
scores and flags regardless of input order.  A query keeps only the ranks of
its relevant items, counted rather than sorted: every metric here is a
function of those ranks.

Each stage is one pass over whole arrays rather than a loop over queries:
ranks are counted for every (query, relevant item) pair at once, the
precision table is filled per group of queries with equal relevant counts,
and embedding dot products are taken for all pairs of a stage together by
``_row_dots``.  The passes keep the per-query arithmetic bit for bit:

- every precision is one int/int division m / r_m (``_hit_precisions``);
- every dot product is matmul's vector-by-vector case, which numpy routes
  through the same dot kernel as a one-pair ``a @ b`` (tests pin this);
- every sum that leaves numpy -- AP, mAP, the macro precision columns, the
  consistencies behind uncertainty, the mean margins -- is math.fsum, which
  returns the correctly rounded sum independent of summation order.

That is what lets the per-query references and the brute-force oracles in
the tests match these implementations exactly rather than to a tolerance.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .data import DatasetManifest
from .encoders import ModelParams, embed_manifest
from .losses import mapping_value
from .training import NumericAbort

DEFAULT_RECALL_GRID = tuple(i / 100 for i in range(1, 100)) + (1.0,)
RISK_COVERAGE_POINTS = 20
MARGIN_HIST_BINS = 40  # fixed-width bins over [-2, 2]
RANK_CHUNK = 64  # (query, relevant item) pairs compared against the gallery at once


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
    queries: list[QueryRanking]
    excluded: int  # queries dropped for having no relevant gallery item


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


def _groups_by_count(counts: np.ndarray):
    """(count, positions holding it) for every distinct count, ascending."""
    for count in np.unique(counts).tolist():
        yield count, np.flatnonzero(counts == count)


def average_precision(flags) -> float:
    """Non-interpolated AP of ranked flags: mean precision at each relevant rank."""
    hit_ranks = np.flatnonzero(np.asarray(flags, dtype=bool)) + 1
    if hit_ranks.shape[0] == 0:
        raise ValueError("average precision undefined without relevant items")
    return math.fsum(_hit_precisions(hit_ranks).tolist()) / hit_ranks.shape[0]


def rank_queries(scores: np.ndarray, relevance: np.ndarray,
                 uncertainties: np.ndarray) -> RankingResult:
    """Rank the relevant items of every query; zero-relevance queries are counted out.

    Relevant item j of query q ranks 1 + #{i: s_qi > s_qj} + #{i: s_qi == s_qj,
    i < j}, its position in the descending order with ties to the lower
    index.  Every (q, j) pair is counted against its gallery row, RANK_CHUNK
    pairs at a time, so the pass allocates no (pairs x gallery) array.
    """
    finite = np.isfinite(scores).all(axis=1)
    if not finite.all():
        raise ValueError(f"query {int(np.argmin(finite))}: non-finite score")
    n_queries, n_gallery = scores.shape
    pair_q, pair_j = np.divmod(np.flatnonzero(relevance), n_gallery)
    keys = scores[pair_q, pair_j][:, None]
    indices = np.arange(n_gallery)
    ranks = np.empty(pair_q.shape[0], dtype=np.intp)
    for lo in range(0, pair_q.shape[0], RANK_CHUNK):
        rows, key = scores[pair_q[lo:lo + RANK_CHUNK]], keys[lo:lo + RANK_CHUNK]
        ahead = (rows == key) & (indices < pair_j[lo:lo + RANK_CHUNK, None])
        ahead |= rows > key
        ranks[lo:lo + RANK_CHUNK] = 1 + np.count_nonzero(ahead, axis=1)
    # Pairs arrive grouped by query; order each query's ranks ascending.
    ranks = ranks[np.lexsort((ranks, pair_q))]
    counts = np.bincount(pair_q, minlength=n_queries)
    ranked = np.flatnonzero(counts)
    counts = counts[ranked]
    starts = np.cumsum(counts) - counts
    hit_ranks: list = [None] * ranked.shape[0]
    aps: list = [None] * ranked.shape[0]
    for count, rows in _groups_by_count(counts):
        block = ranks[starts[rows, None] + np.arange(count)]
        for row, ranks_row, precisions in zip(rows.tolist(), block, _hit_precisions(block)):
            hit_ranks[row] = ranks_row
            aps[row] = math.fsum(precisions.tolist()) / count
    u = np.asarray(uncertainties, dtype=np.float64)[ranked].tolist()
    queries = [QueryRanking(query=q, hit_ranks=h, uncertainty=v, ap=ap)
               for q, h, v, ap in zip(ranked.tolist(), hit_ranks, u, aps)]
    return RankingResult(queries, n_queries - ranked.shape[0])


def recall_at_k(result: RankingResult, k: int) -> float:
    """Fraction of queries whose first relevant item appears in the top k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not result.queries:
        raise ValueError("no rankable queries")
    hits = [1.0 if q.first_hit <= k else 0.0 for q in result.queries]
    return math.fsum(hits) / len(hits)


def mean_average_precision(result: RankingResult) -> float:
    if not result.queries:
        raise ValueError("no rankable queries")
    return math.fsum(q.ap for q in result.queries) / len(result.queries)


def pr_curve(result: RankingResult, grid=DEFAULT_RECALL_GRID) -> PRCurve:
    """Macro-averaged precision over a fixed recall grid, plus trapezoid AUC.

    The area integrates from recall 0, extending the first grid value left,
    so a ranker with precision 1 everywhere scores exactly 1.
    """
    if not result.queries:
        raise ValueError("no rankable queries")
    grid = list(grid)
    if not grid or any(not 0.0 < r <= 1.0 for r in grid):
        raise ValueError("recall grid must lie in (0, 1]")
    # A level's precision is m / r_m for the first m with recall m / R >= level;
    # R / R == 1.0 reaches every level in the grid.  Queries with equal R
    # share the level -> m lookup, so each group fills its rows at once.
    levels = np.array(grid)
    queries = result.queries
    counts = np.array([q.hit_ranks.shape[0] for q in queries])
    table = np.empty((len(queries), levels.shape[0]))
    for count, rows in _groups_by_count(counts):
        block = np.stack([queries[row].hit_ranks for row in rows.tolist()])
        recalls = np.arange(1, count + 1) / count
        table[rows] = _hit_precisions(block)[:, np.searchsorted(recalls, levels)]
    macro = [math.fsum(column.tolist()) / table.shape[0] for column in table.T]
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
    if not result.queries:
        raise ValueError("no rankable queries")
    n = len(result.queries)
    u = np.array([q.uncertainty for q in result.queries])
    order = np.lexsort((np.arange(n), u))
    correct = np.array([q.first_hit == 1 for q in result.queries])[order]
    coverages, risks = [], []
    for i in range(1, n_points + 1):
        retained = -((-i * n) // n_points)  # ceil(i * n / n_points)
        errors = int(retained - correct[:retained].sum())
        coverages.append(i / n_points)
        risks.append(errors / retained)
    return RiskCoverage(np.array(coverages), np.array(risks))


def reliability_stats(result: RankingResult) -> ReliabilityStats:
    """Mean uncertainty grouped by top-1 correctness; None flags empty groups."""
    correct = [q.uncertainty for q in result.queries if q.first_hit == 1]
    incorrect = [q.uncertainty for q in result.queries if q.first_hit != 1]

    def mean(values: list[float]) -> float | None:
        return math.fsum(values) / len(values) if values else None

    return ReliabilityStats(mean(correct), mean(incorrect))


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


def _members(ids: list) -> dict:
    """Identity -> ascending indices of its records."""
    members: dict = {}
    for index, identity in enumerate(ids):
        members.setdefault(identity, []).append(index)
    return members


def margin_tuples(identities: np.ndarray,
                  rng: np.random.Generator) -> list[tuple[int, int, int, int]]:
    """One (query, positive, weak, negative) tuple per record.

    The weak pick is a same-identity other record (the record itself when
    the identity is a singleton); the negative is any other identity.  Both
    are uniform draws over ascending record indices, weak first.
    """
    ids = identities.tolist()
    members = _members(ids)
    if len(members) == 1:
        raise ValueError("margin tuples need at least two identities")
    groups = [members[identity] for identity in ids]
    # One generator call for every draw, in per-record order: the weak index
    # among the other members (singletons draw none), then the negative.
    bounds = []
    for rows in groups:
        if len(rows) > 1:
            bounds.append(len(rows) - 1)
        bounds.append(len(ids) - len(rows))
    draws = iter(rng.integers(bounds).tolist() if bounds else [])
    # before[identity][j]: records of other identities ahead of member j.
    before = {identity: [m - j for j, m in enumerate(rows)] for identity, rows in members.items()}
    tuples = []
    for q, rows in enumerate(groups):
        weak = q
        if len(rows) > 1:
            # The k-th member other than q: members from q on shift by one.
            k = next(draws)
            weak = rows[k] if rows[k] < q else rows[k + 1]
        # The k-th record outside the identity: k plus the members ahead of it.
        k = next(draws)
        neg = k + bisect.bisect_right(before[ids[q]], k)
        tuples.append((q, q, weak, neg))
    return tuples


def query_uncertainty(img_emb: np.ndarray, txt_emb: np.ndarray,
                      identities: np.ndarray, mapping: str) -> np.ndarray:
    """Per-record uncertainty from mean cross-view embedding consistency.

    Each record's consistency is averaged over all other records of its
    identity; singleton identities are perfectly consistent by convention,
    which pins their uncertainty to the mapping's floor.  The consistencies
    are mapped together, by the trainer's own mapping (losses.uncertainty).
    """
    ids = identities.tolist()
    members = _members(ids)
    groups = [members[identity] for identity in ids]
    others = [len(rows) - 1 for rows in groups]
    # Every same-identity pair (q, o != q), q ascending, then o ascending.
    pair_q = np.repeat(np.arange(len(ids)), others)
    pair_o = np.array([o for q, rows in enumerate(groups) for o in rows if o != q],
                      dtype=np.intp)
    sims = (0.5 * (_row_dots(img_emb[pair_q], img_emb[pair_o])
                   + _row_dots(txt_emb[pair_q], txt_emb[pair_o]))).tolist()
    ends = np.cumsum(others).tolist()
    consistency = [math.fsum(sims[end - k:end]) / k if k else 1.0 for k, end in zip(others, ends)]
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


def evaluate_model(params: ModelParams, manifest: DatasetManifest, mapping: str,
                   eval_seed: int = 0, recall_ks=(1, 5, 10)) -> EvalResult:
    """Embed a dataset and run the full diagnostic battery on it.

    An encoder that overflows on a record raises NumericAbort naming it.
    """
    img, txt, identities, _, zero_rows = embed_manifest(params, manifest)
    finite = np.isfinite(img).all(axis=1) & np.isfinite(txt).all(axis=1)
    if not finite.all():
        raise NumericAbort(f"record {int(np.argmin(finite))}: non-finite embedding")
    scores = txt @ img.T
    relevance = identities[:, None] == identities[None, :]
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
