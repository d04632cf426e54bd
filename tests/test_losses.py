"""Loss semantics: closed forms, bounds, stop-gradient, and composition."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakpair import losses
from weakpair.autograd import Graph
from weakpair.encoders import (EmbeddingBatch, ModelDims, init_model, leaf_group,
                               match_logit)
from weakpair.losses import (MAPPINGS, MATCHING_BRANCHES, U_BOUNDS, consistency_uncertainty,
                             itc_loss, itm_term, mapping_value, matching_losses, uitc_loss)
from weakpair.mining import MiningConfig, build_groups
from weakpair.training import TrainConfig, _loss_report, assemble_losses, encode_step
from weakpair.verify import random_instance, stop_gradient_bitexact

from test_kernels import ChainGraph, assert_bitwise_equal


def unit_rows(rng, n, d):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def log_tau_const(g, tau=0.07):
    return g.constant(math.log(tau))


def recomputed_total(report, cfg):
    """itc + itm + alpha * uitc + beta * (gitm_txt + gitm_img), from a report's
    values and cfg's alpha and beta."""
    return (report.itc + report.itm + cfg.alpha * report.uitc
            + cfg.beta * (report.gitm_txt + report.gitm_img))


def log_match_scores(g, a, b, tau):
    """Every log match score, log-softmax of cos(a, b) / tau by column; g is a ChainGraph."""
    logits = g.mul(g.cosine_matrix(a, b), 1.0 / tau)
    n, m = logits.shape
    return np.stack([g.log_softmax_at(logits, np.full(n, c)).value for c in range(m)],
                    axis=1)


class TestMatchingScores:
    """Match scores, the softmax over cosines / tau that itc_loss takes in log space."""

    def test_single_element(self):
        g = ChainGraph()
        f = g.constant([[1.0, 0.0]])
        np.testing.assert_array_equal(log_match_scores(g, f, f, 0.07), [[0.0]])

    def test_identical_embeddings_split_evenly(self):
        g = ChainGraph()
        f = g.constant([[1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(log_match_scores(g, f, f, 0.3),
                                   np.full((2, 2), -math.log(2.0)), rtol=0, atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        g = ChainGraph()
        scores = np.exp(log_match_scores(g, g.constant(unit_rows(rng, 3, 4)),
                                         g.constant(unit_rows(rng, 3, 4)), 0.07))
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, rtol=0, atol=1e-9)

    def test_argmax_invariant_to_temperature(self):
        rng = np.random.default_rng(1)
        a, b = unit_rows(rng, 5, 6), unit_rows(rng, 5, 6)
        raw_argmax = (a @ b.T).argmax(axis=1)
        for tau in (0.01, 0.07, 1.0, 50.0):
            g = ChainGraph()
            scores = log_match_scores(g, g.constant(a), g.constant(b), tau)
            np.testing.assert_array_equal(scores.argmax(axis=1), raw_argmax)

    def test_empty_batch_rejected(self):
        g = Graph()
        f = g.constant(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            itc_loss(g, f, f, log_tau_const(g))


class TestItcLoss:
    def test_single_pair_is_zero(self):
        g = Graph()
        f = g.constant([[0.0, 1.0]])
        assert float(itc_loss(g, f, f, log_tau_const(g)).value) == 0.0

    def test_all_identical_pair_batch(self):
        """Two anchors with one shared embedding: every score is 1/2."""
        g = Graph()
        f = g.constant([[1.0, 0.0], [1.0, 0.0]])
        loss = itc_loss(g, f, f, log_tau_const(g, 0.5))
        assert abs(float(loss.value) - 2.0 * math.log(2.0)) <= 1e-9

    def test_perfectly_separated_batch(self):
        g = Graph()
        f_img = g.constant([[1.0, 0.0], [-1.0, 0.0]])
        f_txt = g.constant([[1.0, 0.0], [-1.0, 0.0]])
        loss = itc_loss(g, f_img, f_txt, log_tau_const(g, 0.1))
        assert 0.0 <= float(loss.value) < 1e-8

    def test_sharp_temperature_with_orthogonal_positives(self):
        """At tau = 1e-3 each positive sits 1/tau below its negative, so the
        softmax diagonal underflows; the loss must stay 2/tau, not inf."""
        tau = 1e-3
        g = Graph()
        log_tau = g.leaf(math.log(tau), trainable=True)
        loss = itc_loss(g, g.constant([[1.0, 0.0], [0.0, 1.0]]),
                        g.constant([[0.0, 1.0], [1.0, 0.0]]), log_tau)
        grad = float(g.backward(loss)[log_tau])
        assert math.isfinite(float(loss.value)) and math.isfinite(grad)
        assert abs(float(loss.value) - 2.0 / tau) <= 1e-9 * 2.0 / tau
        # d/dlog_tau of 2 exp(-log_tau)
        assert abs(grad + 2.0 / tau) <= 1e-9 * 2.0 / tau

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.floats(0.05, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_matches_numpy_reference(self, seed, n, tau):
        rng = np.random.default_rng(seed)
        a, b = unit_rows(rng, n, 4), unit_rows(rng, n, 4)

        def direction(x, y):
            e = np.exp((x @ y.T) / tau)
            return -np.mean(np.log(np.diag(e / e.sum(axis=1, keepdims=True))))

        g = Graph()
        loss = float(itc_loss(g, g.constant(a), g.constant(b), log_tau_const(g, tau)).value)
        want = direction(a, b) + direction(b, a)
        assert abs(loss - want) <= 1e-12 * max(1.0, abs(want))


class TestConsistencyUncertainty:
    def test_identical_weak_pair(self):
        g = Graph()
        f_img = g.constant([[1.0, 0.0]])
        f_txt = g.constant([[0.0, 1.0]])
        unc = consistency_uncertainty(g, f_img, f_txt, f_img, f_txt)
        assert float(unc.s_w.value[0]) == 1.0
        assert abs(float(unc.u_w.value[0]) - math.exp(-1.0)) <= 1e-12

    def test_orthogonal_weak_pair(self):
        g = Graph()
        unc = consistency_uncertainty(g, g.constant([[1.0, 0.0]]), g.constant([[1.0, 0.0]]),
                                      g.constant([[0.0, 1.0]]), g.constant([[0.0, 1.0]]))
        assert float(unc.s_w.value[0]) == 0.0
        assert float(unc.u_w.value[0]) == 1.0

    def test_mapping_values_at_full_consistency(self):
        g = Graph()
        f = g.constant([[1.0, 0.0]])
        linear = consistency_uncertainty(g, f, f, f, f, "linear")
        power = consistency_uncertainty(g, f, f, f, f, "power")
        assert float(linear.u_w.value[0]) == 0.5
        assert float(power.u_w.value[0]) == 0.25

    @pytest.mark.parametrize("mapping", MAPPINGS)
    def test_bounds_over_random_unit_inputs(self, mapping):
        rng = np.random.default_rng(3)
        lo, hi = U_BOUNDS[mapping]
        for _ in range(200):
            g = Graph()
            args = [g.constant(unit_rows(rng, 4, 5)) for _ in range(4)]
            unc = consistency_uncertainty(g, *args, mapping)
            s, u = unc.s_w.value, unc.u_w.value
            assert s.min() >= -1.0 - 1e-9 and s.max() <= 1.0 + 1e-9
            assert u.min() >= lo - 1e-9 and u.max() <= hi + 1e-9

    def test_mapping_value_matches_graph(self):
        """Bit for bit, on an array and on each consistency as a float."""
        rng = np.random.default_rng(4)
        for mapping in MAPPINGS:
            g = Graph()
            args = [g.constant(unit_rows(rng, 6, 5)) for _ in range(4)]
            unc = consistency_uncertainty(g, *args, mapping)
            got = mapping_value(unc.s_w.value, mapping)
            assert got.dtype == unc.u_w.value.dtype
            assert got.tobytes() == unc.u_w.value.tobytes()
            assert [float(mapping_value(s, mapping)) for s in unc.s_w.value.tolist()] == \
                   unc.u_w.value.tolist()

    @pytest.mark.parametrize("mapping", MAPPINGS)
    def test_u_bounds_are_the_mapping_at_both_ends(self, mapping):
        g = Graph()
        f = g.constant([[1.0, 0.0], [1.0, 0.0]])
        f_w = g.constant([[1.0, 0.0], [-1.0, 0.0]])
        unc = consistency_uncertainty(g, f, f, f_w, f_w, mapping)
        assert unc.s_w.value.tolist() == [1.0, -1.0]
        assert U_BOUNDS[mapping] == tuple(unc.u_w.value.tolist())

    def test_u_bounds_values(self):
        assert U_BOUNDS == {"exponential": (math.exp(-1.0), math.e),
                            "linear": (0.5, 2.5), "power": (0.25, 6.25)}

    def test_unknown_mapping(self):
        g = Graph()
        f = g.constant([[1.0, 0.0]])
        with pytest.raises(ValueError):
            consistency_uncertainty(g, f, f, f, f, "cubic")
        with pytest.raises(ValueError):
            mapping_value(0.0, "cubic")


class TestUitcLoss:
    def test_unit_case_exact(self):
        g = Graph()
        loss = uitc_loss(g, g.constant(1.0), g.constant(1.0), g.constant(0.0))
        assert float(loss.value) == 2.0

    def test_two_over_two_plus_two(self):
        g = Graph()
        loss = uitc_loss(g, g.constant(2.0), g.constant(2.0), g.constant(0.0))
        assert abs(float(loss.value) - 3.0) <= 1e-12

    def test_minimum_matches_grid_oracle(self):
        """min over gamma*u of L/(gamma*u) + gamma*u is 2*sqrt(L) at sqrt(L)."""
        for itc_weak in (0.25, 1.0, 3.0):
            grid = np.linspace(1e-3, 10.0, 20000)
            values = itc_weak / grid + grid
            best = grid[values.argmin()]
            assert abs(best - math.sqrt(itc_weak)) <= 2e-3
            assert abs(values.min() - 2.0 * math.sqrt(itc_weak)) <= 1e-5
            g = Graph()
            at_min = uitc_loss(g, g.constant(itc_weak),
                               g.constant(math.sqrt(itc_weak)), g.constant(0.0))
            assert abs(float(at_min.value) - 2.0 * math.sqrt(itc_weak)) <= 1e-9

    def test_strictly_increasing_in_weak_loss(self):
        previous = -np.inf
        for weak in np.linspace(0.1, 5.0, 25):
            g = Graph()
            value = float(uitc_loss(g, g.constant(weak), g.constant(1.3),
                                    g.constant(0.2)).value)
            assert value > previous
            previous = value

    def test_trainable_uncertainty_gets_no_gradient(self):
        """u_w is read by value: a trainable u_w leaf gets an exact zero, and
        the other gradients equal those with u_w a constant, bit for bit."""
        rng = np.random.default_rng(3)
        for weak, u, log_gamma in rng.uniform([0.1, 0.4, -1.0], [4.0, 2.7, 1.0], size=(20, 3)):
            grads = []
            for make_u in (lambda g: g.leaf(u, trainable=True), lambda g: g.constant(u)):
                g = Graph()
                leaves = (g.leaf(weak, trainable=True), make_u(g), g.leaf(log_gamma, trainable=True))
                got = g.backward(uitc_loss(g, *leaves))
                grads.append([got.get(leaf) for leaf in leaves])
            (weak_t, u_t, gamma_t), (weak_c, u_c, gamma_c) = grads
            assert u_t.shape == () and u_t == 0.0 and u_c is None
            assert weak_t.tobytes() == weak_c.tobytes()
            assert gamma_t.tobytes() == gamma_c.tobytes()

    def test_stop_gradient_bitexact(self):
        rng = np.random.default_rng(np.random.SeedSequence([9, 505, 0]))
        for _ in range(5):
            assert stop_gradient_bitexact(random_instance(rng))

    def test_gamma_path_still_learns(self):
        g = Graph()
        log_gamma = g.leaf(0.3, trainable=True)
        loss = uitc_loss(g, g.constant(2.0), g.constant(1.0), log_gamma)
        grad = g.backward(loss)[log_gamma]
        gamma = math.exp(0.3)
        assert abs(float(grad) - (gamma - 2.0 / gamma)) <= 1e-12


class TestItmTerm:
    def test_half_probability(self):
        g = Graph()
        for label in (1.0, 0.0):
            term = itm_term(g, g.constant([[0.5]]), [[label]])
            assert abs(float(term.value[0, 0]) - math.log(2.0)) <= 1e-12

    def test_confident_correct_goes_to_zero(self):
        g = Graph()
        term = itm_term(g, g.constant([[1.0 - 1e-9]]), [[1.0]])
        assert 0.0 < float(term.value[0, 0]) < 1e-8

    def test_crafted_probabilities(self):
        """0.9 on the positive, 0.1 on two negatives -> ln(1/0.9)."""
        g = Graph()
        term = itm_term(g, g.constant([[0.9], [0.1], [0.1]]),
                        [[1.0], [0.0], [0.0]])
        assert abs(float(g.mean(term).value) - math.log(1.0 / 0.9)) <= 1e-12


def sigmoid(z):
    """Stable in both tails: exp of a non-positive argument only."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class TestBceLogits:
    """g.bce_logits, the trainer's matching loss, against itm_term at
    p_hat = sigmoid(z)."""

    Z = np.linspace(-10.0, 10.0, 401)[:, None]

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_equals_itm_term_of_sigmoid(self, label):
        g = Graph()
        labels = np.full(self.Z.shape, label)
        fused = g.bce_logits(g.constant(self.Z), labels).value
        composed = itm_term(g, g.constant(sigmoid(self.Z)), labels).value
        np.testing.assert_allclose(fused, composed, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_gradient_is_sigmoid_minus_label(self, label):
        g = Graph()
        z = g.leaf(self.Z, trainable=True)
        labels = np.full(self.Z.shape, label)
        grad = g.backward(g.sum(g.bce_logits(z, labels)))[z]
        np.testing.assert_allclose(grad, sigmoid(self.Z) - labels, rtol=0.0, atol=2.3e-16)

    def test_saturated_logits_stay_exact_and_finite(self):
        """Where sigmoid rounds to 0 or 1 the loss is the margin itself, or 0."""
        g = Graph()
        z = g.leaf([[800.0], [800.0], [-800.0], [-800.0]], trainable=True)
        labels = np.array([[1.0], [0.0], [1.0], [0.0]])
        term = g.bce_logits(z, labels)
        assert term.value.tolist() == [[0.0], [800.0], [800.0], [0.0]]
        grad = g.backward(g.sum(term))[z]
        assert np.all(np.isfinite(grad))
        assert grad.tolist() == [[0.0], [1.0], [-1.0], [0.0]]


def zero_head_nodes(g):
    head = leaf_group(init_model(0, ModelDims(4, 4, 3, 4)), "head")
    return {k: g.constant(np.zeros_like(v)) for k, v in head.items()}


def three_identity_batch(rng):
    img = unit_rows(rng, 3, 4)
    txt = unit_rows(rng, 3, 4)
    weak_img = unit_rows(rng, 3, 4)
    weak_txt = unit_rows(rng, 3, 4)
    return EmbeddingBatch(img, txt, weak_img, weak_txt, np.arange(3))


def embeddings(g, batch):
    return tuple(g.constant(m) for m in (batch.image, batch.text,
                                         batch.weak_image, batch.weak_text))


class TestItmLoss:
    def test_zero_head_gives_ln2(self):
        rng = np.random.default_rng(5)
        batch = three_identity_batch(rng)
        groups = build_groups(batch, MiningConfig("custom", 1))
        g = Graph()
        head = zero_head_nodes(g)
        loss = matching_losses(g, head, groups, embeddings(g, batch), ("itm",))["itm"]
        assert abs(float(loss.value) - math.log(2.0)) <= 1e-12

    def test_pair_count_single_anchor(self):
        rng = np.random.default_rng(6)
        batch = three_identity_batch(rng)
        groups = build_groups(batch, MiningConfig("custom", 1))[:1]
        g = Graph()
        head = zero_head_nodes(g)
        loss_node = matching_losses(g, head, groups, embeddings(g, batch), ("itm",))["itm"]
        # mean of 3 terms: the mean input must have had 3 rows
        mean_input = loss_node.inputs[0]
        assert mean_input.shape == (3, 1)


class TestGitmLoss:
    def test_zero_head_gives_ln2_both_branches(self):
        rng = np.random.default_rng(7)
        batch = three_identity_batch(rng)
        groups = build_groups(batch, MiningConfig("neg3v4", 1))
        g = Graph()
        head = zero_head_nodes(g)
        txt, img = matching_losses(g, head, groups[:1], embeddings(g, batch),
                                   ("gitm_txt", "gitm_img")).values()
        assert abs(float(txt.value) - math.log(2.0)) <= 1e-12
        assert abs(float(img.value) - math.log(2.0)) <= 1e-12

    def test_branches_average_one_plus_k_terms(self):
        rng = np.random.default_rng(8)
        batch = three_identity_batch(rng)
        for k, mode in ((1, "neg3v4"), (2, "neg3v6")):
            groups = build_groups(batch, MiningConfig(mode, k))
            g = Graph()
            head = zero_head_nodes(g)
            txt, img = matching_losses(g, head, groups[:1], embeddings(g, batch),
                                       ("gitm_txt", "gitm_img")).values()
            assert txt.inputs[0].shape == (1 + k, 1)
            assert img.inputs[0].shape == (1 + k, 1)


def assembled(inst, mode, u_override=None, **overrides):
    """training.assemble_losses of a random instance at the default config in
    mode, with overrides to its other fields."""
    g = Graph()
    leaves = {k: g.leaf(v, name=k) for k, v in inst.params.items()}
    enc = encode_step(g, leaves, inst.data, need_weak=mode != "baseline")
    cfg = dataclasses.replace(TrainConfig(), ablation_mode=mode, **overrides)
    return assemble_losses(g, leaves, enc, inst.groups, cfg, u_override=u_override)


MODE_TERMS = {"baseline": {"itc", "itm"}, "uitc": {"itc", "itm", "uitc"},
              "uitc_gitm": {"itc", "itm", "uitc", "gitm_txt", "gitm_img"}}


class TestTotalLoss:
    """Each ablation mode's terms, their total and the trainer's report of them."""

    @pytest.mark.parametrize("mode", MODE_TERMS)
    def test_mode_builds_its_terms_then_the_total(self, mode):
        nodes, s_w, u_w = assembled(random_instance(np.random.default_rng(3)), mode)
        assert set(nodes) == MODE_TERMS[mode] | {"total"}
        assert list(nodes)[-1] == "total"
        assert (s_w is None, u_w is None) == (mode == "baseline",) * 2

    def test_baseline_configuration(self):
        """itc + itm, whatever alpha and beta are."""
        nodes, _, _ = assembled(random_instance(np.random.default_rng(4)), "baseline")
        assert float(nodes["total"].value) == float(nodes["itc"].value) + float(nodes["itm"].value)

    def test_zero_weights_leave_itc_plus_itm(self):
        nodes, _, _ = assembled(random_instance(np.random.default_rng(4)), "uitc_gitm",
                                alpha=0.0, beta=0.0)
        assert float(nodes["total"].value) == float(nodes["itc"].value) + float(nodes["itm"].value)

    def test_paper_default_weights(self):
        """((itc + itm) + 0.5 * uitc) + 0.1 * (gitm_txt + gitm_img), in that
        order, to the last bit."""
        nodes, _, _ = assembled(random_instance(np.random.default_rng(5)), "uitc_gitm")
        v = {k: float(node.value) for k, node in nodes.items()}
        assert (TrainConfig().alpha, TrainConfig().beta) == (0.5, 0.1)
        assert v["total"] == (v["itc"] + v["itm"]) + v["uitc"] * 0.5 \
            + (v["gitm_txt"] + v["gitm_img"]) * 0.1

    def test_report_recomputation(self):
        """In every mode the report holds each built term in its field, 0.0
        for the others, and a total that its terms recompute at cfg's weights."""
        for mode in MODE_TERMS:
            cfg = TrainConfig(ablation_mode=mode, alpha=0.7, beta=0.3)
            nodes, s_w, u_w = assembled(random_instance(np.random.default_rng(6)), mode,
                                        alpha=cfg.alpha, beta=cfg.beta)
            report = _loss_report(nodes, s_w, u_w)
            for name in ("itc", "uitc", "itm", "gitm_txt", "gitm_img", "total"):
                want = float(nodes[name].value) if name in nodes else 0.0
                assert getattr(report, name) == want, (mode, name)
            assert abs(report.total - recomputed_total(report, cfg)) <= 1e-9
            if mode == "baseline":
                assert (report.mean_s_w, report.mean_u_w) == (0.0, 0.0)
            else:
                assert (report.mean_s_w, report.mean_u_w) == (s_w.mean(), u_w.mean())


def test_uitc_rejects_nonpositive_uncertainty():
    g = Graph()
    with pytest.raises(ValueError, match="positive"):
        uitc_loss(g, g.constant(1.0), g.constant(0.0), g.constant(0.0))


def test_gitm_batched_equals_mean_of_group_losses():
    """The flat batched branch mean must equal the mean over per-group means."""
    rng = np.random.default_rng(21)
    for trial in range(20):
        n = int(rng.integers(4, 8))

        def rows():
            r = rng.normal(size=(n, 5))
            return r / np.linalg.norm(r, axis=1, keepdims=True)

        batch = EmbeddingBatch(rows(), rows(), rows(), rows(), np.arange(n))
        groups = build_groups(batch, MiningConfig("neg3v6", 2))
        model = init_model(trial, ModelDims(5, 5, 4, 5))
        g = Graph()
        head = {k: g.constant(v) for k, v in leaf_group(model, "head").items()}
        enc = embeddings(g, batch)
        txt_b, img_b = matching_losses(g, head, groups, enc, ("gitm_txt", "gitm_img")).values()
        txts, imgs = [], []
        for group in groups:
            t, i = matching_losses(g, head, group, enc, ("gitm_txt", "gitm_img")).values()
            txts.append(float(t.value))
            imgs.append(float(i.value))
        assert abs(float(txt_b.value) - np.mean(txts)) <= 1e-12
        assert abs(float(img_b.value) - np.mean(imgs)) <= 1e-12


def branch_pairs(groups, n):
    """(image row, text row, label) triples of itm, gitm_txt and gitm_img; the
    itm negatives are the top-1 mined text and image."""
    itm, txt, img = [], [], []
    for i in groups.anchors.tolist():
        texts, images = groups.neg_texts[i].tolist(), groups.neg_images[i].tolist()
        itm += [(i, i, 1), (i, texts[0], 0), (images[0], i, 0)]
        txt += [(i, n + i, 1)] + [(i, j, 0) for j in texts]
        img += [(n + i, i, 1)] + [(j, i, 0) for j in images]
    return itm, txt, img


def branch_alone(g, head, pairs, f_img, f_txt, f_img_w, f_txt_w):
    """One branch's mean loss from a head evaluation of its own."""
    img, txt, labels = zip(*pairs)
    logit = match_logit(g, head, g.take_rows((f_img, f_img_w), img),
                        g.take_rows((f_txt, f_txt_w), txt))
    return g.mean(g.bce_logits(logit, np.array(labels, dtype=np.float64)[:, None]))


# The trainer's default widths, batch and K, and the gradient battery's.
SHAPES = {"trainer": dict(dims=ModelDims(48, 40, 32, 16), n=16, k=2),
          "battery": {}}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("k", (1, 2, 3))
def test_pair_rows_are_the_reference_triples(shape, k):
    """pair_rows gives this file's reference triples, branch by branch and
    group by group, for every anchor and for anchor subsets, whose weak rows
    stay at the whole batch's n + i."""
    params = {**SHAPES[shape], "k": k}
    # The battery's batch of 3 identities holds k <= 2 negatives per anchor.
    params["n"] = max(params.get("n", 3), k + 1)
    for seed in range(10):
        groups = random_instance(np.random.default_rng(seed), **params).groups
        n = groups.anchors.shape[0]
        for subset in (groups, groups[:1], groups[1:], groups[::-2], groups[n - 1]):
            got = [list(zip(*(column.tolist() for column in subset.pair_rows(b))))
                   for b in MATCHING_BRANCHES]
            assert got == list(branch_pairs(subset, n))
    with pytest.raises(ValueError, match="unknown matching branch"):
        groups.pair_rows("gitm")


@pytest.mark.parametrize("shape", SHAPES)
def test_fused_branches_equal_each_branch_alone(shape):
    """Each segment mean of the one head evaluation equals, bit for bit, its
    branch scored alone, for every branch set a caller asks for."""
    for seed in range(10):
        inst = random_instance(np.random.default_rng(seed), **SHAPES[shape])
        g = Graph()
        leaves = {k: g.constant(v) for k, v in inst.params.items()}
        enc = encode_step(g, leaves, inst.data, need_weak=True)
        head = leaf_group(leaves, "head")
        alone = [float(branch_alone(g, head, pairs, *enc).value)
                 for pairs in branch_pairs(inst.groups, enc[0].shape[0])]
        for branches in (MATCHING_BRANCHES, ("itm",), ("gitm_txt", "gitm_img")):
            fused = matching_losses(g, head, inst.groups, enc, branches)
            assert [float(fused[b].value) for b in branches] == \
                   [alone[MATCHING_BRANCHES.index(b)] for b in branches]


@pytest.mark.parametrize("shape", SHAPES)
def test_matching_losses_score_the_pairs_branch_pairs_names(shape, monkeypatch):
    """The head scores, branch by branch and group by group, the pairs that
    PairGroups.branch_pairs names, a "weak" source at row n + i, with their
    labels; and those rows are this file's reference triples."""
    seen = []
    take_rows, bce = losses._rows, Graph.bce_logits

    def rows(g, picked, *sources):
        seen.append(picked.tolist())
        return take_rows(g, picked, *sources)

    def term(g, logit, labels):
        seen.append(labels[:, 0].tolist())
        return bce(g, logit, labels)

    monkeypatch.setattr(losses, "_rows", rows)
    monkeypatch.setattr(Graph, "bce_logits", term)
    for seed in range(5):
        inst = random_instance(np.random.default_rng(seed), **SHAPES[shape])
        g = Graph()
        leaves = {k: g.constant(v) for k, v in inst.params.items()}
        enc = encode_step(g, leaves, inst.data, need_weak=True)
        n = enc[0].shape[0]
        named = {b: [(i + n * (si == "weak"), j + n * (sj == "weak"), label)
                     for grp in inst.groups for si, i, sj, j, label in grp.branch_pairs(b)]
                 for b in MATCHING_BRANCHES}
        assert list(named.values()) == list(branch_pairs(inst.groups, n))
        for branches in (MATCHING_BRANCHES, ("itm",), ("gitm_txt",), ("gitm_img",),
                         ("gitm_txt", "gitm_img")):
            seen.clear()
            matching_losses(g, leaf_group(leaves, "head"), inst.groups, enc, branches)
            assert list(zip(*seen)) == [pair for b in branches for pair in named[b]]


def test_random_instance_u_mean_is_the_assembled_one():
    """random_instance reads u_mean off the uncertainty subgraph alone; the
    trainer's full loss assembly, which estimates it in the step, must give
    every loss of the assembly frozen at it, bit for bit."""
    for seed in range(8):
        inst = random_instance(np.random.default_rng(seed))
        estimated, _, _ = assembled(inst, "uitc_gitm")
        frozen, s_w, u_w = assembled(inst, "uitc_gitm", u_override=inst.u_mean)
        assert s_w is None and u_w is None
        assert estimated.keys() == frozen.keys()
        for name in estimated:
            assert_bitwise_equal(estimated[name].value, frozen[name].value)
