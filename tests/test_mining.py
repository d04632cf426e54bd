"""Weak sampling, hard-negative mining, and group composition."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakpair.data import GenConfig, generate, identity_groups
from weakpair.encoders import EmbeddingBatch
from weakpair.mining import (MiningConfig, MiningStarvationError, PairGroups, _mine,
                             _scores, build_groups, mine_hard_negatives, sample_weak_batch)


def grouping_of(*counts):
    """The grouping of records whose identity i holds counts[i] consecutive rows."""
    return identity_groups(np.repeat(np.arange(len(counts)), counts))


def random_batch(rng, n_identities, per_identity=1):
    ids = np.repeat(np.arange(n_identities), per_identity)
    def rows():
        r = rng.normal(size=(ids.shape[0], 4))
        return r / np.linalg.norm(r, axis=1, keepdims=True)
    return EmbeddingBatch(rows(), rows(), rows(), rows(), ids)


class TestMiningConfig:
    def test_modes(self):
        assert MiningConfig.from_mode("neg3v4").k == 1
        assert MiningConfig.from_mode("neg3v6").k == 2
        assert MiningConfig.from_mode("custom", 5).k == 5

    @pytest.mark.parametrize("mode,k", [("neg3v4", 2), ("neg3v6", 1),
                                        ("custom", 0), ("bogus", 1)])
    def test_inconsistent_rejected(self, mode, k):
        with pytest.raises(ValueError):
            MiningConfig(mode, k)

    def test_custom_needs_k(self):
        with pytest.raises(ValueError):
            MiningConfig.from_mode("custom")

    def test_from_mode_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mining mode"):
            MiningConfig.from_mode("bogus", 3)


def weak_draw(anchors, groups, rng):
    weak, degenerate = sample_weak_batch(np.array(anchors, dtype=np.intp), groups, rng)
    return weak.tolist(), degenerate


class TestSampleWeak:
    def test_two_views_forces_the_other(self):
        groups = grouping_of(2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert weak_draw([0], groups, rng) == ([1], 0)

    def test_singleton_identity_degenerates(self):
        assert weak_draw([0], grouping_of(1), np.random.default_rng(0)) == ([0], 1)

    def test_uniform_over_other_views(self):
        groups = grouping_of(5)
        rng = np.random.default_rng(1)
        counts = np.zeros(5)
        for _ in range(10_000):
            counts[weak_draw([0], groups, rng)[0]] += 1
        assert counts[0] == 0
        np.testing.assert_allclose(counts[1:] / 10_000, 0.25, rtol=0, atol=0.02)

    def test_identity_absent(self):
        """A row outside the grouped records has no identity to draw from."""
        with pytest.raises(IndexError):
            weak_draw([2], grouping_of(2), np.random.default_rng(0))

    def test_never_crosses_identity(self):
        d = generate(GenConfig(20, 3, 4, 5, 5, 0.1, 0.2, 3))
        d = d.take(np.random.default_rng(4).permutation(len(d.identity)))
        groups = identity_groups(d.identity)
        rng = np.random.default_rng(2)
        rows = np.arange(len(d.identity))
        for _ in range(20):
            weak, degenerate = sample_weak_batch(rows, groups, rng)
            assert np.array_equal(d.identity[weak], d.identity) and degenerate == 0
            assert not np.any(weak == rows)


def scalar_weak_draws(anchors, identity, rng):
    """(weak row, degenerate) per anchor, one scalar rng.integers call per
    anchor that has another record, over a brute-force list of its others."""
    picks = []
    for anchor in anchors:
        others = [r for r in range(len(identity))
                  if identity[r] == identity[anchor] and r != anchor]
        picks.append((others[int(rng.integers(len(others)))], False) if others
                     else (anchor, True))
    return picks


@given(identity=st.lists(st.integers(0, 5), min_size=1, max_size=12),
       picks=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=20),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_batched_weak_draws_equal_per_anchor_draws(identity, picks, seed):
    """One batched draw gives every anchor the pick that one-anchor batches
    and scalar draws give it, over unsorted identities with single-record
    ones (degenerate, no draw) among them, and leaves the stream where they
    do."""
    groups = identity_groups(np.array(identity, dtype=np.int64))
    anchors = [p % len(identity) for p in picks]
    rngs = [np.random.default_rng(seed) for _ in range(3)]
    weak, degenerate = weak_draw(anchors, groups, rngs[0])
    single = [weak_draw([a], groups, rngs[1]) for a in anchors]
    scalar = scalar_weak_draws(anchors, identity, rngs[2])
    assert [(w, bool(d)) for [w], d in single] == scalar
    assert weak == [w for w, _ in scalar] and degenerate == sum(d for _, d in scalar)
    assert len({int(rng.integers(2 ** 62)) for rng in rngs}) == 1


class TestMineHardNegatives:
    def test_matches_brute_force_sort(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            batch = random_batch(rng, 6)
            for anchor in range(6):
                for direction, scores in (
                        ("image_to_text", batch.text @ batch.image[anchor]),
                        ("text_to_image", batch.image @ batch.text[anchor])):
                    got = mine_hard_negatives(batch, anchor, direction, 2)
                    eligible = [j for j in range(6)
                                if batch.identities[j] != batch.identities[anchor]]
                    expect = sorted(eligible, key=lambda j: (-scores[j], j))[:2]
                    assert got == expect

    def test_crafted_similarities(self):
        ids = np.array([0, 1, 2])
        image = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        # candidate texts: cos with image[0] = 0.1 and 0.9
        text = np.array([[1.0, 0.0],
                         [0.1, np.sqrt(1 - 0.01)],
                         [0.9, np.sqrt(1 - 0.81)]])
        batch = EmbeddingBatch(image, text, image, text, ids)
        assert mine_hard_negatives(batch, 0, "image_to_text", 1) == [2]

    def test_ties_take_lowest_index(self):
        ids = np.array([0, 1, 2, 3])
        same = np.tile([1.0, 0.0], (4, 1))
        batch = EmbeddingBatch(same, same, same, same, ids)
        assert mine_hard_negatives(batch, 0, "image_to_text", 2) == [1, 2]

    def test_never_returns_same_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            batch = random_batch(rng, 4, per_identity=2)
            anchor = int(rng.integers(8))
            for direction in ("image_to_text", "text_to_image"):
                for j in mine_hard_negatives(batch, anchor, direction, 3):
                    assert batch.identities[j] != batch.identities[anchor]

    def test_starvation_names_composition(self):
        batch = random_batch(np.random.default_rng(5), 2)
        with pytest.raises(MiningStarvationError, match="2 identities"):
            mine_hard_negatives(batch, 0, "image_to_text", 2)

    def test_unknown_direction(self):
        batch = random_batch(np.random.default_rng(6), 3)
        with pytest.raises(ValueError):
            mine_hard_negatives(batch, 0, "sideways", 1)


class TestBuildGroup:
    def test_neg3v4_composition(self):
        batch = random_batch(np.random.default_rng(7), 4)
        group = build_groups(batch, MiningConfig.from_mode("neg3v4"))[0]
        assert len(group.matched_pairs()) == 3
        assert len(group.negative_pairs()) == 4

    def test_neg3v6_composition(self):
        batch = random_batch(np.random.default_rng(8), 4)
        group = build_groups(batch, MiningConfig.from_mode("neg3v6"))[0]
        assert len(group.matched_pairs()) == 3
        assert len(group.negative_pairs()) == 6

    def test_matched_pairs_carry_positive_labels(self):
        batch = random_batch(np.random.default_rng(9), 4)
        group = build_groups(batch, MiningConfig.from_mode("neg3v4"))[1]
        assert all(lbl == 1 for *_, lbl in group.matched_pairs())
        assert all(lbl == 0 for *_, lbl in group.negative_pairs())

    def test_pair_lists_are_the_branches_split_by_label(self):
        neg_texts, neg_images = np.zeros((4, 2), dtype=int), np.zeros((4, 2), dtype=int)
        neg_texts[1], neg_images[1] = [3, 2], [0, 2]
        group = PairGroups(neg_texts, neg_images, np.arange(4))[1]
        assert group.anchor == 1
        assert group.matched_pairs() == [("batch", 1, "batch", 1, 1), ("batch", 1, "weak", 1, 1),
                                         ("weak", 1, "batch", 1, 1)]
        assert group.negative_pairs() == [
            ("batch", 1, "batch", 3, 0), ("batch", 0, "batch", 1, 0),
            ("batch", 1, "batch", 3, 0), ("batch", 1, "batch", 2, 0),
            ("batch", 0, "batch", 1, 0), ("batch", 2, "batch", 1, 0)]
        with pytest.raises(ValueError, match="unknown matching branch"):
            group.branch_pairs("gitm")

    def test_two_identities_support_k1_not_k2(self):
        batch = random_batch(np.random.default_rng(10), 2)
        build_groups(batch, MiningConfig.from_mode("neg3v4"))
        with pytest.raises(MiningStarvationError):
            build_groups(batch, MiningConfig.from_mode("neg3v6"))

    def test_thousand_random_groups_hold_invariants(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 1000:
            batch = random_batch(rng, int(rng.integers(3, 8)))
            for group in build_groups(batch, MiningConfig.from_mode("neg3v6")):
                anchor_id = batch.identities[group.anchor]
                negs = group.negative_pairs()
                assert len(group.matched_pairs()) == 3
                assert len(negs) == 6
                for _, img_j, _, txt_j, _ in negs:
                    other = txt_j if img_j == group.anchor else img_j
                    assert batch.identities[other] != anchor_id
                checked += 1

    def test_parallel_mining_matches_sequential(self):
        batch = random_batch(np.random.default_rng(12), 8)
        groups = build_groups(batch, MiningConfig.from_mode("neg3v6"))
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda i: per_anchor_group(batch, i, 2), range(8)))
        assert [group_tuple(groups, i) for i in range(8)] == parallel


# -- one-pass mining against the per-anchor reference ---------------------------


def reference_top_k(batch, anchor, direction, k):
    """Per-anchor mining by a Python sort: (-score, index) over other identities."""
    if direction == "image_to_text":
        scores = batch.text @ batch.image[anchor]
    else:
        scores = batch.image @ batch.text[anchor]
    eligible = [j for j in range(batch.identities.shape[0])
                if batch.identities[j] != batch.identities[anchor]]
    if len(eligible) < k:
        raise MiningStarvationError(
            f"anchor {anchor} needs {k} negatives but only {len(eligible)} "
            f"eligible candidates exist (batch of {batch.identities.shape[0]} "
            f"records over {len(set(batch.identities.tolist()))} identities)")
    return sorted(eligible, key=lambda j: (-scores[j], j))[:k]


def reference_groups(batch, k):
    return [(anchor, reference_top_k(batch, anchor, "image_to_text", k),
             reference_top_k(batch, anchor, "text_to_image", k))
            for anchor in range(batch.identities.shape[0])]


def per_anchor_group(batch, anchor, k):
    """One anchor's (anchor, texts, images), mined by mine_hard_negatives."""
    return (anchor, mine_hard_negatives(batch, anchor, "image_to_text", k),
            mine_hard_negatives(batch, anchor, "text_to_image", k))


def group_tuple(groups, anchor):
    return (anchor, groups.neg_texts[anchor].tolist(), groups.neg_images[anchor].tolist())


def group_tuples(groups):
    return [group_tuple(groups, anchor) for anchor in groups.anchors.tolist()]


# One-wide embeddings (unit or zero rows) from three or four values, signed
# zeros among them: every score is one of those values, so most scores tie.
_tie_values = st.lists(st.sampled_from([1.0, -1.0]), min_size=1, max_size=2,
                       unique=True).map(lambda extra: [0.0, -0.0] + extra)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_tie_heavy_one_pass_mining_matches_per_anchor(data):
    values = data.draw(_tie_values)
    n, k = data.draw(st.integers(2, 12)), data.draw(st.integers(1, 3))
    labels = data.draw(st.integers(1, n))
    ids = np.array(data.draw(st.lists(st.integers(0, labels - 1), min_size=n, max_size=n)))

    def rows():
        return np.array(data.draw(st.lists(st.sampled_from(values), min_size=n,
                                           max_size=n)))[:, None]

    batch = EmbeddingBatch(rows(), rows(), rows(), rows(), ids)
    cfg = MiningConfig("custom", k)
    try:
        expect = reference_groups(batch, k)
    except MiningStarvationError as exc:
        with pytest.raises(MiningStarvationError) as whole:
            build_groups(batch, cfg)
        assert str(whole.value) == str(exc)
        starving = int(str(exc).split()[1])
        with pytest.raises(MiningStarvationError) as single:
            per_anchor_group(batch, starving, k)
        assert str(single.value) == str(exc)
        return
    assert group_tuples(build_groups(batch, cfg)) == expect
    assert [per_anchor_group(batch, a, k) for a in range(n)] == expect


def test_one_pass_mining_on_trainer_shapes():
    rng = np.random.default_rng(14)
    cfg = MiningConfig.from_mode("neg3v6")
    for _ in range(200):
        batch = random_batch(rng, 8, per_identity=2)
        assert group_tuples(build_groups(batch, cfg)) == reference_groups(batch, 2)


# -- batched scores against the per-anchor products ------------------------------


def per_anchor_scores(anchor_rows, candidates, anchors):
    return np.stack([candidates @ anchor_rows[a] for a in anchors])


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_batched_scores_equal_per_anchor_products_on_trainer_shapes():
    rng = np.random.default_rng(21)
    anchors = np.arange(16)
    for _ in range(3000):
        rows = rng.normal(size=(2, 16, 16))
        rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
        assert_same_bits(_scores(rows[0], rows[1], anchors),
                         per_anchor_scores(rows[0], rows[1], anchors))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_batched_scores_equal_per_anchor_products_on_ties(data):
    """Rows of 0, -0 and +-1 (or unit rows' worth of them): most scores tie,
    and signed zeros must come out as the per-anchor products give them."""
    values = data.draw(_tie_values)
    n, d = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 6))

    def rows():
        return np.array(data.draw(st.lists(st.sampled_from(values), min_size=n * d,
                                           max_size=n * d))).reshape(n, d)

    anchor_rows, candidates = rows(), rows()
    anchors = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
    assert_same_bits(_scores(anchor_rows, candidates, anchors),
                     per_anchor_scores(anchor_rows, candidates, anchors))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_two_direction_mining_equals_each_direction_alone(data):
    """Both directions ranked in one pass equal each direction mined alone
    and each anchor mined alone, for any anchor selection, on tie-heavy
    draws; a starving batch raises the same message every way."""
    values = data.draw(_tie_values)
    n, k = data.draw(st.integers(2, 10)), data.draw(st.integers(1, 3))
    labels = data.draw(st.integers(1, n))
    ids = np.array(data.draw(st.lists(st.integers(0, labels - 1), min_size=n, max_size=n)))
    anchors = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))

    def rows():
        return np.array(data.draw(st.lists(st.sampled_from(values), min_size=n,
                                           max_size=n)))[:, None]

    batch = EmbeddingBatch(rows(), rows(), rows(), rows(), ids)
    directions = ("image_to_text", "text_to_image")
    try:
        both = _mine(batch, anchors, directions, k)
    except MiningStarvationError as exc:
        for direction in directions:
            with pytest.raises(MiningStarvationError) as alone:
                _mine(batch, anchors, (direction,), k)
            assert str(alone.value) == str(exc)
        return
    assert both.shape == (2, anchors.shape[0], k)
    for d, direction in enumerate(directions):
        assert np.array_equal(both[d], _mine(batch, anchors, (direction,), k)[0])
        assert both[d].tolist() == [mine_hard_negatives(batch, int(a), direction, k)
                                    for a in anchors]
