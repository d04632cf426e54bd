"""Metric implementations against brute-force oracles and hand enumerations.

The oracles re-derive every quantity by scanning ranking prefixes with plain
Python, then reduce with the same fsum convention the implementations use,
so agreement is exact rather than approximate.
"""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakpair import metrics
from weakpair.autograd import Graph
from weakpair.data import GenConfig, generate
from weakpair.encoders import ModelDims, embed_manifest, init_model
from weakpair.losses import MAPPINGS, consistency_uncertainty, mapping_value
from weakpair.metrics import (DEFAULT_RECALL_GRID, RankingResult,
                              _row_dots, evaluate_model, margin_stats,
                              margin_tuples, mean_average_precision, pr_curve,
                              query_uncertainty, rank_queries, recall_at_k,
                              reliability_stats, risk_coverage)


# -- oracles -------------------------------------------------------------


def oracle_ap(flags):
    """AP by direct prefix enumeration."""
    precisions = []
    for position in range(1, len(flags) + 1):
        if flags[position - 1]:
            hits = sum(1 for f in flags[:position] if f)
            precisions.append(hits / position)
    return math.fsum(precisions) / len(precisions)


def oracle_first_hit(flags):
    for position, flag in enumerate(flags, start=1):
        if flag:
            return position
    return None


def oracle_precision_at_recall(flags, level):
    total = sum(1 for f in flags if f)
    for k in range(1, len(flags) + 1):
        hits = sum(1 for f in flags[:k] if f)
        if hits / total >= level:
            return hits / k
    return None


def oracle_risk_points(u_values, correct, n_points):
    ordered = sorted(range(len(u_values)), key=lambda i: (u_values[i], i))
    out = []
    for i in range(1, n_points + 1):
        retained = math.ceil(i * len(u_values) / n_points)
        kept = ordered[:retained]
        errors = sum(1 for j in kept if not correct[j])
        out.append(errors / retained)
    return out


def ranking_for(flags_list, u=None):
    """Build a RankingResult whose ranked flags are exactly flags_list."""
    n_gallery = len(flags_list[0])
    scores = np.tile(np.arange(n_gallery, 0, -1, dtype=float), (len(flags_list), 1))
    relevance = np.array(flags_list, dtype=bool)
    u = np.zeros(len(flags_list)) if u is None else np.asarray(u, dtype=float)
    return rank_queries(scores, relevance, u)


# -- unit values -----------------------------------------------------------


def average_precision(flags):
    """One query's AP, as rank_queries gives it for ranked flags."""
    return float(ranking_for([flags]).aps[0])


class TestAveragePrecision:
    def test_relevant_first(self):
        assert average_precision([True, False, False]) == 1.0

    def test_relevant_second(self):
        assert average_precision([False, True]) == 0.5

    def test_mixed(self):
        assert average_precision([True, False, True]) == oracle_ap([1, 0, 1])
        assert abs(average_precision([True, False, True]) - 5.0 / 6.0) <= 1e-15

    def test_no_relevant_rejected(self):
        """AP is undefined without a relevant item: the query is excluded."""
        result = ranking_for([[False, False]])
        assert result.aps.shape == (0,) and result.excluded == 1
        with pytest.raises(ValueError):
            mean_average_precision(result)


class TestRecallAtK:
    def test_first_hit_at_one(self):
        assert recall_at_k(ranking_for([[1, 0, 0]]), 1) == 1.0

    def test_first_hit_beyond_k(self):
        assert recall_at_k(ranking_for([[0, 0, 0, 1]]), 3) == 0.0

    def test_mean_over_queries(self):
        flags = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 0, 1]]
        assert recall_at_k(ranking_for(flags), 2) == 2.0 / 3.0

    def test_zero_relevant_queries_excluded(self):
        result = ranking_for([[1, 0], [0, 0]])
        assert result.excluded == 1
        assert len(result.queries) == 1


class TestPrCurve:
    def test_single_relevant_item_curve_is_one(self):
        curve = pr_curve(ranking_for([[1]]))
        np.testing.assert_array_equal(curve.precisions, np.ones(100))
        assert curve.auc == 1.0

    def test_perfect_ranker_auc_one(self):
        curve = pr_curve(ranking_for([[1, 1, 0, 0], [1, 1, 1, 0]]))
        assert curve.auc == 1.0

    def test_two_query_macro_matches_hand_enumeration(self):
        flags = [[0, 1, 1, 0], [1, 0, 0, 1]]
        curve = pr_curve(ranking_for(flags))
        for level, got in zip(curve.recalls, curve.precisions):
            expect = math.fsum(oracle_precision_at_recall(f, level) for f in flags) / 2
            assert got == expect

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            pr_curve(ranking_for([[1, 0]]), grid=[0.0, 0.5])

    @pytest.mark.parametrize("grid", [[1.0, 0.5], [0.5, 0.5, 1.0]])
    def test_grid_must_be_strictly_increasing(self, grid):
        # Out of order, [1.0, 0.5] would read an AUC of 0.25 for a ranking whose
        # only relevant item is 2nd; [1.0] reads 0.5.
        with pytest.raises(ValueError, match="strictly increasing"):
            pr_curve(ranking_for([[0, 1]]), grid=grid)


class TestRiskCoverage:
    def test_perfect_ordering_zero_risk_at_correct_fraction(self):
        # 3 correct with low u, 1 incorrect with high u: risk 0 up to 75%.
        flags = [[1, 0], [1, 0], [1, 0], [0, 1]]
        rc = risk_coverage(ranking_for(flags, u=[0.1, 0.2, 0.3, 0.9]), n_points=4)
        np.testing.assert_array_equal(rc.risks, [0.0, 0.0, 0.0, 0.25])

    def test_full_coverage_equals_overall_error(self):
        rng = np.random.default_rng(0)
        flags = [[1, 0] if rng.random() < 0.6 else [0, 1] for _ in range(37)]
        u = rng.random(37)
        rc = risk_coverage(ranking_for(flags, u=u))
        overall = sum(1 for f in flags if f[0] == 0) / len(flags)
        assert rc.risks[-1] == overall
        assert rc.coverages[-1] == 1.0

    def test_crafted_four_query_case(self):
        flags = [[0, 1], [1, 0], [0, 1], [1, 0]]
        u = [0.4, 0.1, 0.2, 0.3]
        rc = risk_coverage(ranking_for(flags, u=u), n_points=4)
        expect = oracle_risk_points(u, [f[0] == 1 for f in flags], 4)
        np.testing.assert_array_equal(rc.risks, expect)

    def test_ties_break_by_index(self):
        flags = [[0, 1], [1, 0]]
        rc = risk_coverage(ranking_for(flags, u=[0.5, 0.5]), n_points=2)
        np.testing.assert_array_equal(rc.risks, [1.0, 0.5])

    @pytest.mark.parametrize("n_points", [0, -3])
    def test_needs_a_point(self, n_points):
        with pytest.raises(ValueError, match="n_points"):
            risk_coverage(ranking_for([[1, 0]]), n_points=n_points)


class TestReliability:
    def test_equal_uncertainties_equal_means(self):
        flags = [[1, 0], [0, 1]]
        stats = reliability_stats(ranking_for(flags, u=[0.3, 0.3]))
        assert stats.mean_u_correct == stats.mean_u_incorrect == 0.3

    def test_group_means(self):
        flags = [[1, 0], [1, 0], [0, 1]]
        stats = reliability_stats(ranking_for(flags, u=[0.1, 0.2, 0.8]))
        assert abs(stats.mean_u_correct - 0.15) <= 1e-15
        assert stats.mean_u_incorrect == 0.8

    def test_empty_group_flagged(self):
        stats = reliability_stats(ranking_for([[1, 0]], u=[0.5]))
        assert stats.mean_u_incorrect is None
        assert not stats.complete


class TestMarginStats:
    def test_degenerate_tuple_is_zero(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0]])
        stats = margin_stats(emb, emb, [(0, 0, 0, 0)])
        assert stats.mean_weak == 0.0 and stats.mean_pos == 0.0

    def test_hand_margin(self):
        txt = np.array([[1.0, 0.0]])
        img = np.array([[0.9, math.sqrt(1 - 0.81)], [0.1, math.sqrt(1 - 0.01)]])
        stats = margin_stats(txt, img, [(0, 0, 0, 1)])
        assert abs(stats.mean_pos - 0.8) <= 1e-12

    def test_histogram_covers_margin_range(self):
        rng = np.random.default_rng(1)
        txt = rng.normal(size=(6, 3))
        txt /= np.linalg.norm(txt, axis=1, keepdims=True)
        img = rng.normal(size=(6, 3))
        img /= np.linalg.norm(img, axis=1, keepdims=True)
        tuples = margin_tuples(np.array([0, 0, 1, 1, 2, 2]), rng)
        stats = margin_stats(txt, img, tuples)
        assert stats.weak_hist.sum() == len(tuples)
        assert stats.pos_hist.sum() == len(tuples)
        assert stats.weak_margins.min() >= -2.0 and stats.weak_margins.max() <= 2.0


class TestQueryUncertainty:
    def test_singleton_identity_hits_floor(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0]])
        u = query_uncertainty(emb, emb, np.array([0, 1]), "exponential")
        np.testing.assert_allclose(u, math.exp(-1.0), rtol=0, atol=1e-12)

    def test_consistent_views_lower_uncertainty(self):
        img = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        ids = np.array([0, 0, 1, 1])
        u = query_uncertainty(img, img, ids, "exponential")
        assert u[0] < u[2]


class TestOracleEquivalence:
    """Exhaustive prefix-enumeration oracles on random small galleries."""

    def test_ap_recall_pr_risk_match_oracles(self):
        rng = np.random.default_rng(42)
        for _ in range(1500):
            gallery = int(rng.integers(1, 13))
            flags = rng.random(gallery) < rng.uniform(0.1, 0.9)
            if not flags.any():
                flags[int(rng.integers(gallery))] = True
            scores = rng.normal(size=gallery)
            order = np.lexsort((np.arange(gallery), -scores))
            ranked_flags = [bool(flags[j]) for j in order]

            result = rank_queries(scores[None, :], flags[None, :], np.zeros(1))
            assert result.queries[0].ap == oracle_ap(ranked_flags)
            assert result.queries[0].first_hit == oracle_first_hit(ranked_flags)
            for k in (1, 2, 5, 12):
                got = recall_at_k(result, k)
                assert got == (1.0 if oracle_first_hit(ranked_flags) <= k else 0.0)
            curve = pr_curve(result)
            for level, got in zip(curve.recalls, curve.precisions):
                assert got == oracle_precision_at_recall(ranked_flags, level)

    def test_map_of_multi_query_set_matches(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            n_q, gallery = int(rng.integers(2, 6)), int(rng.integers(2, 13))
            scores = rng.normal(size=(n_q, gallery))
            relevance = rng.random((n_q, gallery)) < 0.4
            relevance[:, 0] = True
            result = rank_queries(scores, relevance, rng.random(n_q))
            expected = []
            for q in range(n_q):
                order = np.lexsort((np.arange(gallery), -scores[q]))
                expected.append(oracle_ap([bool(relevance[q][j]) for j in order]))
            assert mean_average_precision(result) == math.fsum(expected) / n_q

    def test_risk_coverage_matches_oracle(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            n_q = int(rng.integers(1, 30))
            flags = [[1, 0] if rng.random() < 0.5 else [0, 1] for _ in range(n_q)]
            u = rng.random(n_q)
            rc = risk_coverage(ranking_for(flags, u=u))
            expect = oracle_risk_points(list(u), [f[0] == 1 for f in flags], 20)
            np.testing.assert_array_equal(rc.risks, expect)


class TestInvariances:
    def test_metrics_invariant_to_gallery_permutation(self):
        rng = np.random.default_rng(45)
        gallery = 9
        scores = rng.normal(size=(4, gallery))
        relevance = rng.random((4, gallery)) < 0.4
        relevance[:, 2] = True
        u = rng.random(4)
        base = rank_queries(scores, relevance, u)
        perm = rng.permutation(gallery)
        shuffled = rank_queries(scores[:, perm], relevance[:, perm], u)
        assert mean_average_precision(base) == mean_average_precision(shuffled)
        for k in (1, 3, 5):
            assert recall_at_k(base, k) == recall_at_k(shuffled, k)
        assert pr_curve(base).auc == pr_curve(shuffled).auc
        np.testing.assert_array_equal(risk_coverage(base).risks,
                                      risk_coverage(shuffled).risks)

    def test_perfect_ranker_map_is_one(self):
        flags = [[1, 1, 0, 0], [1, 0, 0, 0]]
        assert mean_average_precision(ranking_for(flags)) == 1.0

    def test_all_relevant_last_matches_analytic(self):
        gallery, relevant = 10, 3
        flags = [[0] * (gallery - relevant) + [1] * relevant]
        expected = math.fsum((j + 1) / (gallery - relevant + j + 1)
                             for j in range(relevant)) / relevant
        assert mean_average_precision(ranking_for(flags)) == expected

    def test_default_grid_shape(self):
        assert len(DEFAULT_RECALL_GRID) == 100
        assert DEFAULT_RECALL_GRID[-1] == 1.0


def test_ranking_score_ties_prefer_lower_gallery_index():
    scores = np.array([[0.5, 0.5, 0.5]])
    relevance = np.array([[False, True, False]])
    result = rank_queries(scores, relevance, np.zeros(1))
    np.testing.assert_array_equal(result.queries[0].hit_ranks, [2])
    assert result.queries[0].first_hit == 2


# Three or four score values, signed zeros among them, so most scores tie.
_tie_values = st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                       min_size=1, max_size=2).map(lambda extra: [0.0, -0.0] + extra)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_tie_heavy_rankings_match_lexsort_and_oracles(data):
    values = data.draw(_tie_values)
    n_q, gallery = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 30))
    scores = np.array([data.draw(st.lists(st.sampled_from(values),
                                          min_size=gallery, max_size=gallery))
                       for _ in range(n_q)])
    relevance = np.array([data.draw(st.lists(st.booleans(),
                                             min_size=gallery, max_size=gallery))
                          for _ in range(n_q)])
    u = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n_q, max_size=n_q)))
    result = rank_queries(scores, relevance, u)

    ranked = []
    for q in range(n_q):
        order = np.lexsort((np.arange(gallery), -scores[q]))
        if relevance[q].any():
            ranked.append([bool(relevance[q][j]) for j in order])
    assert result.excluded == n_q - len(ranked)
    assert [q.query for q in result.queries] == list(np.flatnonzero(relevance.any(axis=1)))
    for got, flags in zip(result.queries, ranked):
        positions = [k for k, flag in enumerate(flags, start=1) if flag]
        np.testing.assert_array_equal(got.hit_ranks, positions)
        assert got.first_hit == oracle_first_hit(flags)
        assert got.ap == oracle_ap(flags)
    if not ranked:
        return
    curve = pr_curve(result)
    for level, got in zip(curve.recalls, curve.precisions):
        expect = math.fsum(oracle_precision_at_recall(f, level) for f in ranked)
        assert got == expect / len(ranked)
    kept_u = [q.uncertainty for q in result.queries]
    np.testing.assert_array_equal(risk_coverage(result).risks,
                                  oracle_risk_points(kept_u, [f[0] for f in ranked], 20))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_score_rejected_naming_the_query(bad):
    scores = np.array([[0.5, 0.2], [0.1, bad], [0.3, 0.4]])
    relevance = np.array([[True, False], [False, True], [True, True]])
    with pytest.raises(ValueError, match="query 1"):
        rank_queries(scores, relevance, np.zeros(3))


def test_relevance_of_another_shape_rejected_naming_both():
    # Transposed, flat index 3 would be read as query 1, item 0.
    scores = np.array([[0.5, 0.2, 0.1], [0.3, 0.4, 0.6]])
    relevance = np.zeros((3, 2), dtype=bool)
    relevance[1, 1] = True
    with pytest.raises(ValueError, match=r"\(3, 2\).*\(2, 3\)"):
        rank_queries(scores, relevance, np.zeros(2))


@pytest.mark.parametrize("u", [np.zeros(5), np.zeros(1), np.zeros((2, 1)), np.float64(0.0)])
def test_uncertainties_not_one_per_query_rejected_naming_both(u):
    scores = np.array([[0.5, 0.2, 0.1], [0.3, 0.4, 0.6]])
    relevance = np.eye(2, 3, dtype=bool)
    with pytest.raises(ValueError, match=rf"{re.escape(str(u.shape))}.*\(2, 3\)"):
        rank_queries(scores, relevance, u)


def oracle_margin_tuples(identities, rng):
    """The per-record form: two full-gallery identity masks per record."""
    n = identities.shape[0]
    tuples = []
    for q in range(n):
        same = np.nonzero((identities == identities[q]) & (np.arange(n) != q))[0]
        diff = np.nonzero(identities != identities[q])[0]
        if diff.shape[0] == 0:
            raise ValueError("margin tuples need at least two identities")
        weak = q if same.shape[0] == 0 else int(same[int(rng.integers(same.shape[0]))])
        neg = int(diff[int(rng.integers(diff.shape[0]))])
        tuples.append((q, q, weak, neg))
    return tuples


@given(ids=st.lists(st.integers(0, 4), min_size=0, max_size=40), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_margin_tuples_match_per_record_masks(ids, seed):
    """Few identity values, so repeats and singletons both occur; the draws
    (weak, then negative, per record) must consume the generator alike."""
    identities = np.array(ids, dtype=np.int64)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        want = oracle_margin_tuples(identities, want_rng)
    except ValueError:
        with pytest.raises(ValueError, match="two identities"):
            margin_tuples(identities, got_rng)
        return
    assert margin_tuples(identities, got_rng) == want
    assert got_rng.integers(2 ** 62) == want_rng.integers(2 ** 62)


def test_margin_tuples_reject_one_identity():
    with pytest.raises(ValueError, match="two identities"):
        margin_tuples(np.array([3, 3, 3]), np.random.default_rng(0))


# -- whole-array stages against their per-query references ----------------


def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def reference_rank_queries(scores, relevance, uncertainties):
    """The per-query form: one counting pass and one sort per query."""
    n_queries, n_gallery = scores.shape
    indices = np.arange(n_gallery)
    ranked, hit_ranks, aps, excluded = [], [], [], 0
    for q in range(n_queries):
        row = scores[q]
        if not np.isfinite(row).all():
            raise ValueError(f"query {q}: non-finite score")
        hits = np.flatnonzero(relevance[q])
        if hits.shape[0] == 0:
            excluded += 1
            continue
        key = row[hits, None]
        ahead = (row > key) | ((row == key) & (indices < hits[:, None]))
        ranks = np.sort(1 + np.count_nonzero(ahead, axis=1))
        precisions = np.arange(1, ranks.shape[0] + 1) / ranks
        ranked.append(q)
        hit_ranks.append(ranks)
        aps.append(math.fsum(precisions.tolist()) / ranks.shape[0])
    return RankingResult(
        query_ids=np.array(ranked, dtype=np.intp),
        counts=np.array([h.shape[0] for h in hit_ranks], dtype=np.intp),
        hit_ranks=np.concatenate([np.empty(0, dtype=np.intp), *hit_ranks]),
        aps=np.array(aps, dtype=np.float64),
        uncertainties=np.asarray(uncertainties, dtype=np.float64)[ranked],
        excluded=excluded)


def reference_pr_precisions(result, grid=DEFAULT_RECALL_GRID):
    """Macro precision per recall level from per-query rows, fsum per column."""
    levels = np.array(grid)
    table = np.empty((len(result.queries), levels.shape[0]))
    for row, q in enumerate(result.queries):
        n_hits = q.hit_ranks.shape[0]
        recalls = np.arange(1, n_hits + 1) / n_hits
        precisions = np.arange(1, n_hits + 1) / q.hit_ranks
        table[row] = precisions[np.searchsorted(recalls, levels)]
    return np.array([math.fsum(column) / table.shape[0] for column in table.T.tolist()])


def reference_query_uncertainty(img_emb, txt_emb, identities, mapping):
    """The per-record form: per-pair dot products, one fsum and mapping each."""
    ids = identities.tolist()
    out = np.empty(len(ids))
    for q, identity in enumerate(ids):
        others = [o for o, other in enumerate(ids) if other == identity and o != q]
        if not others:
            s = 1.0
        else:
            sims = [0.5 * (float(img_emb[q] @ img_emb[o]) + float(txt_emb[q] @ txt_emb[o]))
                    for o in others]
            s = math.fsum(sims) / len(sims)
        out[q] = float(mapping_value(s, mapping))
    return out


def unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_whole_array_ranks_and_pr_curve_match_per_query_reference(data):
    """Tie-heavy scores; each query draws its own relevant count, 0 and 1
    included, so the pass groups queries of several sizes and chunks pairs."""
    values = data.draw(_tie_values)
    n_q, gallery = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 40))
    scores = np.array([data.draw(st.lists(st.sampled_from(values),
                                          min_size=gallery, max_size=gallery))
                       for _ in range(n_q)])
    relevance = np.zeros((n_q, gallery), dtype=bool)
    for q in range(n_q):
        count = data.draw(st.sampled_from([0, 1, gallery]) | st.integers(0, gallery))
        relevance[q, data.draw(st.permutations(range(gallery)))[:count]] = True
    u = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n_q, max_size=n_q)))

    got, want = rank_queries(scores, relevance, u), reference_rank_queries(scores, relevance, u)
    assert got.excluded == want.excluded
    assert [q.query for q in got.queries] == [q.query for q in want.queries]
    for g, w in zip(got.queries, want.queries):
        assert_bits_equal(g.hit_ranks, w.hit_ranks)
        assert_bits_equal(g.ap, w.ap)
        assert_bits_equal(g.uncertainty, w.uncertainty)
    if got.queries:
        assert_bits_equal(pr_curve(got).precisions, reference_pr_precisions(want))


def assert_rankings_bits_equal(got, want):
    assert got.excluded == want.excluded
    for name in ("query_ids", "counts", "hit_ranks", "aps", "uncertainties"):
        assert_bits_equal(getattr(got, name), getattr(want, name))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_blocked_ranks_match_per_query_reference(data):
    """Blocks of 2 or 3 query rows over more queries than one block holds, on
    tie-heavy rows with signed zeros: blocks start mid-way through the pair
    list, skip queries with no relevant item, and ties fall in several blocks
    and in several chunks of the tie count."""
    chunk = data.draw(st.sampled_from([2, 3]))
    values = data.draw(_tie_values)
    n_q, gallery = data.draw(st.integers(chunk + 1, 12)), data.draw(st.integers(1, 30))
    scores = np.array([data.draw(st.lists(st.sampled_from(values),
                                          min_size=gallery, max_size=gallery))
                       for _ in range(n_q)])
    relevance = np.array([data.draw(st.lists(st.booleans(),
                                             min_size=gallery, max_size=gallery))
                          for _ in range(n_q)])
    u = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n_q, max_size=n_q)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "RANK_CHUNK", chunk)
        got = rank_queries(scores, relevance, u)
    assert_rankings_bits_equal(got, reference_rank_queries(scores, relevance, u))


def float32_class(x):
    """x and its float64 neighbours: distinct scores with one float32 value."""
    x = np.float64(x)
    values = [x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf),
              np.nextafter(np.nextafter(x, np.inf), np.inf)]
    assert len(set(values)) == 4 and len({np.float32(v) for v in values}) == 1
    return values


def rank_like_reference(values, n_q=5, seed=0):
    """Rank rows that each hold every value of values, in its own order and
    with its own relevant items, against the per-query reference; float32
    casts may not warn."""
    rng = np.random.default_rng(seed)
    values = np.array(values, dtype=np.float64)
    scores = np.stack([rng.permutation(values) for _ in range(n_q)])
    relevance = rng.random(scores.shape) < 0.6
    relevance[0] = True
    u = rng.random(n_q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rank_queries(scores, relevance, u)
    assert_rankings_bits_equal(got, reference_rank_queries(scores, relevance, u))


@pytest.mark.parametrize("key", [0.3, -0.7, 1.0, 1e-3, 123.456, -2.0 ** 40])
def test_keys_one_ulp_apart_rank_as_in_float64(key):
    """A key beside its float64 neighbours, which float32 cannot separate,
    and a twin of it that ties exactly."""
    cls = float32_class(key)
    rank_like_reference(cls + [cls[0], 2.0 * key, 0.5 * key, 0.0])


def test_signed_zeros_rank_as_equal_scores():
    rank_like_reference([0.0, -0.0, 0.0, -0.0, -0.0, 1.0, -1.0, 0.25])


def test_subnormals_rank_as_in_float64():
    """float64 subnormals all round to a float32 zero; float32's own
    subnormals keep their order."""
    tiny = np.finfo(np.float64).smallest_subnormal
    normal = np.finfo(np.float64).smallest_normal
    tiny32 = float(np.finfo(np.float32).smallest_subnormal)
    rank_like_reference([tiny, -tiny, 2 * tiny, np.nextafter(normal, 0.0), normal, -normal,
                         1e-310, 0.0, -0.0, tiny32, 2 * tiny32, -tiny32, 1e-40, 1e-30])


def test_scores_beyond_float32_range_rank_without_cast_warnings():
    """Finite scores past float32's largest value cast to +-inf, where they
    share one float32 value; the casts raise no overflow warning."""
    big = float(np.finfo(np.float32).max)
    top = np.finfo(np.float64).max
    rank_like_reference([1e39, -1e39, 3.5e38, -3.5e38, big, np.nextafter(big, np.inf), -big,
                         1e300, -1e300, top, -top, top, 1.0, -1.0], n_q=6)


@pytest.mark.parametrize("chunk", [2, 3])
def test_shared_float32_class_split_across_blocks(chunk):
    """One shared-float32 class in every query row over several blocks of
    rows, so its pairs also fill several chunks of the float64 recount."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "RANK_CHUNK", chunk)
        rank_like_reference(float32_class(0.3) + float32_class(-0.3) + [0.3, 0.1, -0.3, 0.0],
                            n_q=3 * chunk + 1, seed=chunk)


@pytest.mark.parametrize("step", [0.0, 2.0 ** -6])
def test_ranking_a_large_gallery_holds_no_whole_score_copy(step):
    """A 1000-query gallery of 4-record identities, with distinct scores or
    with scores on a 1/64 grid, where most keys tie.  Sorting every row at
    once would add an 8 MB copy; blocks of RANK_CHUNK rows stay near 1 MB."""
    rng = np.random.default_rng(3)
    identities = np.repeat(np.arange(250), 4)
    txt, img = unit_rows(rng, 1000, 16), unit_rows(rng, 1000, 16)
    scores = txt @ img.T
    if step:
        scores = np.round(scores / step) * step
    relevance = identities[:, None] == identities[None, :]
    u = rng.random(1000)
    tracemalloc.start()
    try:
        got = rank_queries(scores, relevance, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, f"rank_queries peaked at {peak / 2 ** 20:.2f} MB"
    assert_rankings_bits_equal(got, reference_rank_queries(scores, relevance, u))


# Breakpoints of counts 1-7 interleave; some levels sit exactly on one.
_INTERLEAVED_GRID = (1 / 7, 1 / 6, 0.2, 0.25, 2 / 7, 1 / 3, 0.4, 3 / 7, 0.5, 4 / 7, 0.6,
                     2 / 3, 5 / 7, 0.75, 0.8, 5 / 6, 6 / 7, 1.0)


@pytest.mark.parametrize("grid", [DEFAULT_RECALL_GRID, _INTERLEAVED_GRID])
def test_pr_curve_over_interleaved_count_groups_matches_per_query_table(grid):
    """50 queries of each relevant count 1-7, their counts cycling through
    the query order: levels pick different rank indices in different groups,
    and the macro precisions and trapezoid AUC equal the per-query table's."""
    rng = np.random.default_rng(11)
    n_q, gallery = 350, 60
    scores = rng.normal(size=(n_q, gallery))
    relevance = np.zeros((n_q, gallery), dtype=bool)
    for q in range(n_q):
        relevance[q, rng.choice(gallery, 1 + q % 7, replace=False)] = True
    result = rank_queries(scores, relevance, np.zeros(n_q))
    assert np.bincount(result.counts).tolist() == [0] + [50] * 7
    curve = pr_curve(result, grid)
    want = reference_pr_precisions(result, grid)
    assert_bits_equal(curve.recalls, np.array(grid))
    assert_bits_equal(curve.precisions, want)
    xs, ys = [0.0, *grid], [want[0], *want.tolist()]
    auc = math.fsum((xs[i] - xs[i - 1]) * (ys[i] + ys[i - 1]) / 2 for i in range(1, len(xs)))
    assert_bits_equal(curve.auc, auc)


@given(ids=st.lists(st.integers(-4, 4).map(lambda i: 5 * i), min_size=2, max_size=30),
       seed=st.integers(0, 2 ** 32 - 1), mapping=st.sampled_from(MAPPINGS))
@settings(max_examples=60, deadline=None)
def test_evaluate_model_ranks_against_identity_equality(ids, seed, mapping):
    """Eval's relevance, built from the identity grouping, ranks as the
    dense identity comparison does, over unsorted, gapped and negative
    identities with singletons."""
    identities = np.array(ids, dtype=np.int64)
    if np.unique(identities).shape[0] < 2:
        return
    n = identities.shape[0]
    manifest = generate(GenConfig(num_identities=n, views_per_identity=1, latent_dim=3,
                                  raw_dim_image=5, raw_dim_text=4, seed=seed))
    manifest.identity[:] = identities
    params = init_model(seed, ModelDims(5, 4, 4, 3))
    img, txt, _ = embed_manifest(params, manifest)
    u = query_uncertainty(img, txt, identities, mapping)
    want = rank_queries(txt @ img.T, identities[:, None] == identities[None, :], u)
    got = evaluate_model(params, manifest, mapping, eval_seed=seed)
    assert_rankings_bits_equal(got.ranking, want)
    assert_bits_equal(got.uncertainties, u)


@given(ids=st.lists(st.integers(0, 6), min_size=1, max_size=40),
       dim=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1),
       mapping=st.sampled_from(MAPPINGS))
@settings(max_examples=300, deadline=None)
def test_query_uncertainty_matches_per_record_reference(ids, dim, seed, mapping):
    """Few identity values, so singletons and repeats both occur."""
    rng = np.random.default_rng(seed)
    img, txt = unit_rows(rng, len(ids), dim), unit_rows(rng, len(ids), dim)
    identities = np.array(ids)
    assert_bits_equal(query_uncertainty(img, txt, identities, mapping),
                      reference_query_uncertainty(img, txt, identities, mapping))


@given(ids=st.lists(st.integers(0, 4), min_size=2, max_size=40),
       dim=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_margin_stats_match_per_tuple_dots(ids, dim, seed):
    identities = np.array(ids)
    if np.unique(identities).shape[0] < 2:
        return
    rng = np.random.default_rng(seed)
    txt, img = unit_rows(rng, len(ids), dim), unit_rows(rng, len(ids), dim)
    tuples = margin_tuples(identities, rng)
    weak = [float(txt[q] @ img[w]) - float(txt[q] @ img[n]) for q, _, w, n in tuples]
    pos = [float(txt[q] @ img[p]) - float(txt[q] @ img[n]) for q, p, _, n in tuples]
    stats = margin_stats(txt, img, tuples)
    assert_bits_equal(stats.weak_margins, np.array(weak))
    assert_bits_equal(stats.pos_margins, np.array(pos))
    assert_bits_equal(stats.mean_weak, math.fsum(weak) / len(weak))
    assert_bits_equal(stats.mean_pos, math.fsum(pos) / len(pos))
    assert_bits_equal(stats.weak_hist, np.histogram(np.array(weak), bins=stats.bin_edges)[0])
    assert_bits_equal(stats.pos_hist, np.histogram(np.array(pos), bins=stats.bin_edges)[0])


@given(n=st.integers(0, 30), dim=st.integers(1, 80), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.integers(-30, 30))
@settings(max_examples=300, deadline=None)
def test_row_dots_match_per_pair_matmul(n, dim, seed, scale):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, dim)) * 2.0 ** scale
    b = rng.normal(size=(n, dim))
    assert_bits_equal(_row_dots(a, b), np.array([a[i] @ b[i] for i in range(n)], dtype=float))


@pytest.mark.parametrize("mapping", MAPPINGS)
def test_query_uncertainty_is_the_trainers_mapping(mapping):
    """Bit for bit the u_w that consistency_uncertainty records on the graph.
    Identity q holds the records [1, 0] and [s_q, 0], so each sees a
    consistency of exactly s_q.  The draws include every witness where
    numpy's scalar (1.5 - s) ** 2 (C pow) lands one ulp off diff * diff."""
    draws = np.random.default_rng(0).uniform(-1.0, 1.0, 20000).tolist()
    witnesses = [s for s in draws if (np.float64(1.5) - s) ** 2 != (1.5 - s) * (1.5 - s)]
    assert witnesses
    s = np.array([1.0, -1.0, 0.25, -0.5, *witnesses, *draws[:200]])
    anchor = np.zeros((s.shape[0], 2))
    anchor[:, 0] = 1.0
    weak = np.zeros((s.shape[0], 2))
    weak[:, 0] = s
    emb = np.stack([anchor, weak], axis=1).reshape(-1, 2)
    u = query_uncertainty(emb, emb, np.repeat(np.arange(s.shape[0]), 2), mapping)
    g = Graph()
    unc = consistency_uncertainty(g, g.constant(anchor), g.constant(anchor),
                                  g.constant(weak), g.constant(weak), mapping)
    assert_bits_equal(unc.s_w.value, s)
    assert_bits_equal(u[0::2], unc.u_w.value)
    assert_bits_equal(u[1::2], unc.u_w.value)
