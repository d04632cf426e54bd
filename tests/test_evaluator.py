"""Value-only stacked evaluation: every replica equals its own Graph, bit for bit."""

import numpy as np
import pytest

from weakpair import autograd
from weakpair.autograd import Evaluator, Graph, GraphError, grad_check
from weakpair.verify import (LOSS_NAMES, _op_cases, loss_builder, loss_params,
                             random_instance)

from test_kernels import ChainEvaluator, ChainGraph, assert_bitwise_equal, formula_cases

_OP_NAMES = [name for name, _, _ in _op_cases(np.random.default_rng(0))]


def probes(rng):
    """(name, params, loss_fn, Graph type, Evaluator type) of every op's probe,
    then of each kernel formula's on the kernels' test reference, whose
    private helpers must stack exactly too."""
    return ([(*case, Graph, Evaluator) for case in _op_cases(rng)]
            + [(*case, ChainGraph, ChainEvaluator) for case in formula_cases(rng)])


_PROBE_NAMES = [probe[0] for probe in probes(np.random.default_rng(0))]


def replicas_of(params, count, rng):
    """count distinct perturbed copies of every parameter."""
    return [{k: v + rng.normal(0.0, 1e-3, size=np.shape(v)) for k, v in params.items()}
            for _ in range(count)]


def stacked_values(fn, copies, dtype=np.float64, evaluator=Evaluator):
    ev = evaluator(dtype)
    leaves = {k: ev.stack(np.stack([c[k] for c in copies]), name=k) for k in copies[0]}
    out = fn(ev, leaves)
    assert out.stacked and out.value.shape == (len(copies),) + out.shape
    return out.value


def graph_value(fn, params, graph=Graph):
    g = graph()
    return fn(g, {k: g.leaf(v, trainable=True, name=k) for k, v in params.items()}).value


def plain_value(fn, params, dtype, evaluator=Evaluator):
    ev = evaluator(dtype)
    return fn(ev, {k: ev.leaf(v, name=k) for k, v in params.items()}).value


def test_every_op_has_a_battery_case():
    """The shared op surface is exactly the ops _op_cases probes, so a new op
    cannot skip the gradient battery or the stacked-equality tests below."""
    ops = {name for name, member in vars(autograd._Ops).items()
           if callable(member) and not name.startswith("_")}
    assert len(set(_OP_NAMES)) == len(_OP_NAMES)
    assert ops == set(_OP_NAMES)
    # Neither front end defines an op of its own.
    assert not ops & (set(vars(Graph)) | set(vars(Evaluator)))


_CONTRACT_BREAKS = {
    "stacked_row_plus_column": ((3,), lambda g, x: g.add(x, g.constant(np.ones((3, 1))))),
    "stacked_row_plus_matrix": ((3,), lambda g, x: g.add(x, g.constant(np.ones((2, 3))))),
    "take_rows_out_of_range": ((3, 2), lambda g, x: g.take_rows((x,), [0, 3])),
    "itc_stacked_row": ((3,), lambda g, x: g.itc(x, g.constant(np.ones((2, 3))), 0.0)),
    "bce_logits_labels_shape": ((3, 1), lambda g, x: g.bce_logits(x, np.ones(3))),
}


@pytest.mark.parametrize("case", list(_CONTRACT_BREAKS))
def test_evaluator_rejects_what_graph_rejects(case):
    """Contracts are judged on per-replica shapes: two replicas of a (3,)
    row stack to (2, 3), which a check on the stacked array would let
    through against a (2, 3) constant."""
    shape, build = _CONTRACT_BREAKS[case]
    g = Graph()
    with pytest.raises(GraphError):
        build(g, g.leaf(np.zeros(shape), trainable=True))
    ev = Evaluator()
    with pytest.raises(GraphError):
        build(ev, ev.stack(np.zeros((2,) + shape)))


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("name", _PROBE_NAMES)
def test_op_cases_match_graph_per_replica(name, count):
    rng = np.random.default_rng(2)
    _, params, fn, graph, evaluator = next(p for p in probes(rng) if p[0] == name)
    copies = replicas_of(params, count, rng)
    values = stacked_values(fn, copies, evaluator=evaluator)
    for replica, point in zip(values, copies):
        assert_bitwise_equal(replica, graph_value(fn, point, graph))


@pytest.mark.parametrize("name", _PROBE_NAMES)
def test_op_cases_stack_exactly_in_long_double(name):
    """grad_check's own regime: stacked long double equals unstacked long double."""
    rng = np.random.default_rng(3)
    _, params, fn, _, evaluator = next(p for p in probes(rng) if p[0] == name)
    copies = replicas_of(params, 3, rng)
    values = stacked_values(fn, copies, np.longdouble, evaluator)
    for replica, point in zip(values, copies):
        assert_bitwise_equal(replica, plain_value(fn, point, np.longdouble, evaluator))


@pytest.mark.parametrize("loss", LOSS_NAMES)
def test_losses_match_graph_per_replica(loss):
    rng = np.random.default_rng(4)
    inst = random_instance(rng)
    fn = loss_builder(loss, inst)
    copies = replicas_of(loss_params(loss, inst), 3, rng)
    values = stacked_values(fn, copies)
    for replica, point in zip(values, copies):
        assert_bitwise_equal(replica, graph_value(fn, point))


def test_gather_layout_does_not_change_sums():
    """stacked[..., rows, :] is not C-contiguous, and a reduction over the
    whole stack then adds in another order than each replica's own array;
    the gather must come out C-contiguous and every sum must match."""
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 40, size=30)
    weights = rng.normal(size=(30, 16))
    copies = [{"a": rng.normal(size=(40, 16))} for _ in range(5)]
    assert not np.stack([c["a"] for c in copies])[..., rows, :].flags.c_contiguous

    ev = Evaluator()
    gathered = ev.take_rows((ev.stack(np.stack([c["a"] for c in copies])),), rows)
    assert gathered.value.flags.c_contiguous

    def fn(g, lv):
        taken = g.take_rows((lv["a"],), rows)
        return g.add(g.sum(taken), g.mean(g.mul(taken, g.constant(weights))))

    for replica, point in zip(stacked_values(fn, copies), copies):
        assert_bitwise_equal(replica, graph_value(fn, point))


def test_mixed_stacked_and_shared_operands():
    """Stacked scalars against matrices, shared sources beside stacked ones,
    and a kernel over stacked and shared inputs of every rank."""
    rng = np.random.default_rng(6)
    shared = rng.normal(size=(2, 3))

    def fn(g, lv):
        scaled = g.mul(g.exp(lv["s"]), g.take_rows((lv["m"], g.constant(shared)), [3, 0, 4]))
        return g.sum(g.tower(scaled, g.constant(np.ones((3, 2))), lv["b"],
                             lv["w2"], g.constant(np.zeros(2))))

    params = {"s": np.asarray(0.3), "m": rng.normal(size=(3, 3)), "b": rng.normal(size=2),
              "w2": rng.normal(size=(2, 2))}
    copies = replicas_of(params, 3, rng)
    for replica, point in zip(stacked_values(fn, copies), copies):
        assert_bitwise_equal(replica, graph_value(fn, point))


def test_grad_check_builds_one_graph_and_one_pass_per_block(monkeypatch):
    """One builder call per block of replicas, each stacking whole
    coordinates of one parameter group in params order; a per-coordinate
    rebuild would call the builder ~2P more times."""
    inst = random_instance(np.random.default_rng(7))
    build = loss_builder("total", inst)
    params = loss_params("total", inst)
    built = []
    init = autograd.Graph.__init__

    def counting_init(graph):
        built.append(graph)
        init(graph)

    monkeypatch.setattr(autograd.Graph, "__init__", counting_init)
    fronts, passes = [], []

    def counting_build(g, lv):
        fronts.append(type(g))
        if isinstance(g, Evaluator):
            passes.append({k: leaf.value.shape[0] for k, leaf in lv.items() if leaf.stacked})
        return build(g, lv)

    report = grad_check(counting_build, params)
    assert len(built) == 1 and fronts == [Graph] + [Evaluator] * 4
    groups = [[k for k in params if k.startswith(prefix)] for prefix in ("img.", "txt.", "head.")]
    assert [list(stacked) for stacked in passes] == groups + [["log_tau", "log_gamma"]]
    for stacked, keys in zip(passes, groups + [["log_tau", "log_gamma"]]):
        replicas = 2 * sum(np.size(params[k]) for k in keys)
        assert set(stacked.values()) == {replicas} and replicas <= autograd.BLOCK_REPLICAS
    assert report.passed, report.max_rel_error


def test_blocks_cut_a_group_into_whole_coordinates(monkeypatch):
    """A group larger than the bound is cut into blocks of whole coordinates
    that may span keys; undotted keys form one group wherever they stand."""
    monkeypatch.setattr(autograd, "BLOCK_REPLICAS", 6)
    params = {"a": np.zeros(2), "g.x": np.zeros((2, 2)), "g.y": np.zeros(()), "b": np.zeros(1),
              "h.z": np.zeros(0)}
    blocks = [{k: list(coords) for k, coords in block.items()}
              for block in autograd._blocks(params)]
    assert blocks == [{"a": [0, 1], "b": [0]}, {"g.x": [0, 1, 2]}, {"g.x": [3], "g.y": [0]}]


@pytest.mark.parametrize("loss", ["itc", "gitm"])
def test_numeric_partials_equal_per_coordinate_loop(loss):
    """The stacked pass against the loop it replaced: two unstacked
    long-double builds per coordinate."""
    inst = random_instance(np.random.default_rng(8))
    fn, params = loss_builder(loss, inst), loss_params(loss, inst)
    report = grad_check(fn, params)
    eps = np.longdouble(1e-5)
    for k, v in params.items():
        point = {kk: np.asarray(vv, dtype=np.longdouble) for kk, vv in params.items()}
        flat = point[k].reshape(-1)
        want = np.zeros(flat.shape[0])
        for i in range(flat.shape[0]):
            keep = flat[i]
            flat[i] = keep + eps
            f_plus = plain_value(fn, point, np.longdouble)
            flat[i] = keep - eps
            f_minus = plain_value(fn, point, np.longdouble)
            flat[i] = keep
            want[i] = float((f_plus - f_minus) / (2.0 * eps))
        assert_bitwise_equal(report.numeric[k], want.reshape(np.shape(v)))
