"""The loss battery's shared passes: every loss of a point from one uitc_gitm
graph and one stacked pass per block of replicas, against the per-loss checks
and the single stacked pass they replaced."""

import tracemalloc

import numpy as np
import pytest

from weakpair import autograd, verify
from weakpair.autograd import Evaluator, grad_check, grad_check_losses
from weakpair.encoders import leaf_group
from weakpair.losses import itc_loss, matching_losses, uitc_loss, weak_itc_loss
from weakpair.training import TrainConfig, assemble_losses, encode_step
from weakpair.verify import (LOSS_NAMES, _op_cases, loss_params, losses_builder,
                             random_instance)

from test_kernels import assert_bitwise_equal

SEEDS = range(20)

# The oracle: each loss composed on its own, as the battery once built it.
# Loss name -> (whether it reads the weak embeddings, builder from (graph,
# all parameters, encodings, instance)).
_ORACLE = {
    "itc": (False, lambda g, p, enc, inst: itc_loss(g, enc[0], enc[1], p["log_tau"])),
    "uitc": (True, lambda g, p, enc, inst: uitc_loss(
        g, weak_itc_loss(g, *enc, p["log_tau"]), g.constant(inst.u_mean), p["log_gamma"])),
    # The single-branch matching graph of the baseline and uitc modes.
    "itm": (False, lambda g, p, enc, inst: matching_losses(
        g, leaf_group(p, "head"), inst.groups, enc, ("itm",))["itm"]),
    "gitm": (True, lambda g, p, enc, inst: g.add(*matching_losses(
        g, leaf_group(p, "head"), inst.groups, enc, ("gitm_txt", "gitm_img")).values())),
    "total": (True, lambda g, p, enc, inst: assemble_losses(
        g, p, enc, inst.groups, TrainConfig(), u_override=inst.u_mean)[0]["total"]),
}

# The shared graph scores ITM and both GITM branches in one head pass, so the
# head's output layer sums its adjoint over more rows than a lone branch
# does: these analytic partials of itm and gitm may differ in the last bits.
# Nothing else may.
_FUSED_HEAD_OUTPUT = {"head.w_out", "head.b_out", "head.v_img", "head.v_txt", "head.v_prod"}


def oracle_builder(name, inst):
    need_weak, build = _ORACLE[name]

    def fn(g, lv):
        full = {k: (lv[k] if k in lv else g.constant(v, name=k))
                for k, v in inst.params.items()}
        return build(g, full, encode_step(g, full, inst.data, need_weak), inst)

    return fn


def battery_point(monkeypatch, seed):
    """check_losses at one point: its instance, its reports and its results."""
    seen = {}
    make_instance, check = verify.random_instance, verify.grad_check_losses

    def recording_instance(rng):
        seen["inst"] = make_instance(rng)
        return seen["inst"]

    def recording_check(*args, **kwargs):
        seen["reports"] = check(*args, **kwargs)
        return seen["reports"]

    monkeypatch.setattr(verify, "random_instance", recording_instance)
    monkeypatch.setattr(verify, "grad_check_losses", recording_check)
    results = verify.check_losses(points=1, seed=seed)
    return seen["inst"], seen["reports"], results


@pytest.mark.parametrize("seed", SEEDS)
def test_shared_pass_equals_per_loss_checks(monkeypatch, seed):
    inst, reports, results = battery_point(monkeypatch, seed)
    assert list(reports) == list(LOSS_NAMES)
    assert [r.max_rel_error for r in results] == [reports[n].max_rel_error for n in LOSS_NAMES]
    for name in LOSS_NAMES:
        params = loss_params(name, inst)
        want = grad_check(oracle_builder(name, inst), params)
        got = reports[name]
        assert want.passed, (name, want.max_rel_error)
        assert (got.max_rel_error, got.worst_param) == (want.max_rel_error, want.worst_param)
        assert list(got.numeric) == list(got.analytic) == list(params)
        for k in params:
            assert_bitwise_equal(got.numeric[k], want.numeric[k])
            if name in ("itm", "gitm") and k in _FUSED_HEAD_OUTPUT:
                continue
            assert_bitwise_equal(got.analytic[k], want.analytic[k])


@pytest.mark.parametrize("seed", range(3))
def test_partials_outside_each_subset_are_exactly_zero(seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 505, 0]))
    inst = random_instance(rng)
    everything = loss_params("total", inst)
    assert list(everything) == list(inst.params)
    reports = grad_check_losses(losses_builder(inst), everything,
                                {name: everything for name in LOSS_NAMES})
    for name, report in reports.items():
        outside = set(everything) - set(loss_params(name, inst))
        assert outside or name == "total"
        for k in outside:
            assert not report.analytic[k].any(), (name, k)
            assert not report.numeric[k].any(), (name, k)


def test_one_graph_and_one_pass_per_block_per_point(monkeypatch):
    """One Graph, then one Evaluator pass per parameter group at the check
    shapes (img, txt, head and the two scalars): four builds, not ~2P."""
    events = []
    graph_init, evaluator_init = autograd.Graph.__init__, autograd.Evaluator.__init__
    make_instance, make_builder = verify.random_instance, verify.losses_builder

    def counting_graph(graph):
        events.append("graph")
        graph_init(graph)

    def counting_evaluator(evaluator, *args):
        events.append("evaluator")
        evaluator_init(evaluator, *args)

    def marking_instance(rng):
        inst = make_instance(rng)
        events.append("instance")
        return inst

    def counting_builder(inst):
        build = make_builder(inst)

        def fn(g, lv):
            events.append(type(g).__name__)
            return build(g, lv)

        return fn

    monkeypatch.setattr(autograd.Graph, "__init__", counting_graph)
    monkeypatch.setattr(autograd.Evaluator, "__init__", counting_evaluator)
    monkeypatch.setattr(verify, "random_instance", marking_instance)
    monkeypatch.setattr(verify, "losses_builder", counting_builder)
    verify.check_losses(points=1, seed=3)
    loss_half = events[events.index("instance") + 1:]
    assert loss_half == ["graph", "Graph", "evaluator"] + ["Evaluator"] * 4


def single_pass_numeric(build, params, eps=1e-5):
    """Every loss's numeric partials from one long-double pass over all 2P
    replicas, as grad_check_losses computed them before it cut the replicas
    into blocks."""
    sizes = [np.size(v) for v in params.values()]
    replicas = 2 * sum(sizes)
    eps_wide = np.longdouble(eps)
    ev = Evaluator(np.longdouble)
    stacked, first = {}, 0
    for (k, v), size in zip(params.items(), sizes):
        base = np.asarray(v, dtype=np.longdouble)
        copies = np.repeat(base.reshape(1, size), replicas, axis=0)
        coords = np.arange(size)
        copies[2 * (first + coords), coords] += eps_wide
        copies[2 * (first + coords) + 1, coords] -= eps_wide
        stacked[k] = ev.stack(copies.reshape((replicas,) + base.shape), name=k)
        first += size
    numeric = {}
    for name, value in build(ev, stacked).items():
        f = np.broadcast_to(value.value, (replicas,))
        quotients = ((f[0::2] - f[1::2]) / (2.0 * eps_wide)).astype(np.float64)
        parts = np.split(quotients, np.cumsum(sizes)[:-1])
        numeric[name] = {k: part.reshape(np.shape(v))
                         for (k, v), part in zip(params.items(), parts)}
    return numeric


@pytest.mark.parametrize("bound", [2, 10, 256])
@pytest.mark.parametrize("seed", range(4))
def test_blocked_partials_equal_the_single_pass(monkeypatch, bound, seed):
    """Every loss's numeric partials over every parameter, bit for bit, with
    the block bound splitting groups (2 and 10 replicas) or not (256)."""
    monkeypatch.setattr(autograd, "BLOCK_REPLICAS", bound)
    inst = random_instance(np.random.default_rng(np.random.SeedSequence([seed, 505, 0])))
    params, build = loss_params("total", inst), losses_builder(inst)
    reports = grad_check_losses(build, params, {name: params for name in LOSS_NAMES})
    want = single_pass_numeric(build, params)
    for name in LOSS_NAMES:
        assert list(reports[name].numeric) == list(params)
        for k in params:
            assert_bitwise_equal(reports[name].numeric[k], want[name][k])


@pytest.mark.parametrize("bound", [2, 10, 256])
@pytest.mark.parametrize("seed", range(2))
def test_blocked_op_partials_equal_the_single_pass(monkeypatch, bound, seed):
    monkeypatch.setattr(autograd, "BLOCK_REPLICAS", bound)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 404, 0]))
    for name, params, fn in _op_cases(rng):
        got = grad_check(fn, params).numeric
        want = single_pass_numeric(lambda g, lv: {"loss": fn(g, lv)}, params)["loss"]
        assert list(got) == list(params), name
        for k in params:
            assert_bitwise_equal(got[k], want[k])


def test_one_battery_point_holds_under_a_megabyte():
    """The replicas of one block, not all 2P of a point, are alive at once:
    a single pass over every replica peaked at ~2.4 MB here."""
    verify.check_losses(points=1, seed=11)  # warm-up
    tracemalloc.start()
    try:
        verify.check_losses(points=1, seed=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_loss_builder_picks_the_shared_node():
    inst = random_instance(np.random.default_rng(np.random.SeedSequence([9, 505, 0])))
    g = autograd.Graph()
    nodes = losses_builder(inst)(g, {k: g.leaf(v, trainable=True) for k, v in inst.params.items()})
    for name in LOSS_NAMES:
        g = autograd.Graph()
        leaves = {k: g.leaf(v, trainable=True) for k, v in loss_params(name, inst).items()}
        assert verify.loss_builder(name, inst)(g, leaves).value == nodes[name].value
    with pytest.raises(ValueError, match="unknown loss"):
        verify.loss_builder("itx", inst)


# Battery seeds whose one point misses tol at the battery's eps = 1e-5 on one
# loss, by finite-difference truncation (the error falls ~100x when eps falls
# 10x), not by a wrong gradient.
_TRUNCATION_POINTS = {5061: "itc", 8737: "itm", 8873: "total", 19357: "gitm"}


@pytest.mark.parametrize("seed,loss", sorted(_TRUNCATION_POINTS.items()))
def test_truncation_limited_points_pass_at_a_finer_step(seed, loss):
    errors = {r.name: r.max_rel_error for r in verify.check_losses(points=1, seed=seed,
                                                                   eps=1e-6)}
    assert errors[f"loss:{loss}"] < 1e-5
    assert all(error < 1e-4 for error in errors.values())
