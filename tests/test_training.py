"""Trainer determinism, schedule, checkpoints, and failure contracts."""

import dataclasses
import hashlib
import itertools
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakpair import cli, training
from weakpair.autograd import Graph, GraphError
from weakpair.companion import companion_path
from weakpair.data import GenConfig, generate, identity_groups
from weakpair.encoders import ModelDims, init_model
from weakpair.losses import U_BOUNDS
from weakpair.mining import MiningStarvationError
from weakpair.training import (CheckpointFormatError, NumericAbort, TrainConfig,
                               checkpoints_equal, load_checkpoint,
                               save_checkpoint, step_lr, train)

from test_losses import recomputed_total


def dataset(num_identities=12, views=3, seed=7, **overrides):
    base = dict(num_identities=num_identities, views_per_identity=views,
                latent_dim=6, raw_dim_image=10, raw_dim_text=8,
                view_noise=0.2, annotation_mask_rate=0.3, seed=seed)
    base.update(overrides)
    return generate(GenConfig(**base))


def small_cfg(**overrides):
    base = dict(epochs=2, batch_size=4, base_lr=1e-3, warmup_steps=3,
                seed=11, embed_dim=6, hidden_dim=8)
    base.update(overrides)
    return TrainConfig(**base)


def read_each_step_graph(monkeypatch, read):
    """read(graph, loss) of every step graph the trainer differentiates, in order."""
    seen = []

    class Reading(training.Graph):
        def backward(self, loss):
            seen.append(read(self, loss))
            return super().backward(loss)

    monkeypatch.setattr(training, "Graph", Reading)
    return seen


class TestStepLr:
    CFG = TrainConfig(base_lr=2e-3, warmup_steps=100)

    def test_starts_at_zero(self):
        assert step_lr(0, 1000, self.CFG) == 0.0

    def test_peak_at_warmup_end(self):
        assert step_lr(100, 1000, self.CFG) == 2e-3

    def test_final_step_is_tenth(self):
        assert abs(step_lr(999, 1000, self.CFG) - 2e-4) <= 1e-12

    def test_monotone_decay_after_warmup(self):
        values = [step_lr(s, 1000, self.CFG) for s in range(100, 1000)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_no_warmup(self):
        cfg = TrainConfig(base_lr=1e-3, warmup_steps=0)
        assert step_lr(0, 10, cfg) == 1e-3

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            step_lr(-1, 10, self.CFG)


class TestTrainBasics:
    def test_zero_epochs_returns_initialization(self):
        d = dataset()
        cfg = small_cfg(epochs=0)
        ckpt, log = train(cfg, d)
        dims = ModelDims(10, 8, cfg.hidden_dim, cfg.embed_dim)
        init = init_model(cfg.seed, dims, cfg.tau_init)
        assert not log.steps
        assert all(np.array_equal(ckpt.params[k], init[k]) for k in init)

    def test_step_count(self):
        # 11 identities with batch 4 leaves a final chunk of 3, still mineable.
        d = dataset(num_identities=11)
        ckpt, log = train(small_cfg(epochs=3, batch_size=4), d)
        assert len(log.steps) == 3 * math.ceil(11 / 4)
        assert ckpt.step == len(log.steps)

    def test_deterministic(self):
        d = dataset()
        a, log_a = train(small_cfg(), d)
        b, log_b = train(small_cfg(), d)
        assert checkpoints_equal(a, b)
        assert [s.report for s in log_a.steps] == [s.report for s in log_b.steps]

    def test_seed_changes_trajectory(self):
        d = dataset()
        a, _ = train(small_cfg(), d)
        b, _ = train(small_cfg(seed=12), d)
        assert not checkpoints_equal(a, b)

    def test_loss_decreases_on_small_set(self):
        d = dataset(num_identities=32, views=3, seed=3)
        cfg = small_cfg(epochs=25, batch_size=8, warmup_steps=10)
        ckpt, log = train(cfg, d)
        assert len(log.steps) == 100
        assert log.steps[-1].report.itc < log.steps[0].report.itc

    def test_report_total_consistent(self):
        d = dataset()
        cfg = small_cfg()
        _, log = train(cfg, d)
        for rec in log.steps:
            assert abs(rec.report.total - recomputed_total(rec.report, cfg)) <= 1e-9

    def test_uncertainty_bounds_exponential(self):
        d = dataset()
        _, log = train(small_cfg(), d)
        lo, hi = U_BOUNDS["exponential"]
        u_lo, u_hi = log.u_extremes()
        assert lo - 1e-12 <= u_lo and u_hi <= hi + 1e-12

    def test_temperature_and_scale_stay_positive(self):
        d = dataset()
        ckpt, _ = train(small_cfg(), d)
        assert float(np.exp(ckpt.params["log_tau"])) > 0.0
        assert float(np.exp(ckpt.params["log_gamma"])) > 0.0

    def test_baseline_mode_writes_zero_for_unused_losses(self):
        d = dataset()
        _, log = train(small_cfg(ablation_mode="baseline"), d)
        for rec in log.steps:
            assert rec.report.uitc == 0.0
            assert rec.report.gitm_txt == 0.0 and rec.report.gitm_img == 0.0
            assert math.isnan(rec.u_min)

    def test_uitc_mode_skips_gitm(self):
        d = dataset()
        _, log = train(small_cfg(ablation_mode="uitc"), d)
        assert all(r.report.gitm_txt == 0.0 for r in log.steps)
        assert any(r.report.uitc != 0.0 for r in log.steps)

    @pytest.mark.parametrize("mode", training.ABLATION_MODES)
    def test_nodes_per_step(self, mode, monkeypatch):
        """Graph size of every step; no op depends on the values."""
        nodes = {"baseline": 30, "uitc": 47, "uitc_gitm": 55}[mode]
        sizes = read_each_step_graph(monkeypatch, lambda g, loss: len(g.nodes))
        _, log = train(small_cfg(ablation_mode=mode), dataset())
        assert sizes == [nodes] * len(log.steps)

    @pytest.mark.parametrize("mode", training.ABLATION_MODES)
    def test_every_op_node_reaches_the_loss(self, mode, monkeypatch):
        """Backward visits every op a step records: each is an ancestor of
        the total loss through inputs that need a gradient."""

        def unreached(g, loss):
            reached, stack = {loss.id}, [loss]
            while stack:
                for inp in stack.pop().inputs:
                    if inp.needs_grad and inp.id not in reached:
                        reached.add(inp.id)
                        stack.append(inp)
            return [node.op for node in g.nodes if node.op != "leaf" and node.id not in reached]

        dead = read_each_step_graph(monkeypatch, unreached)
        _, log = train(small_cfg(ablation_mode=mode), dataset())
        assert dead == [[]] * len(log.steps)

    @pytest.mark.parametrize("mode", training.ABLATION_MODES)
    def test_one_head_evaluation_per_step(self, mode, monkeypatch):
        """Every matching pair of a step goes through a single bce_logits."""
        fused = read_each_step_graph(
            monkeypatch, lambda g, loss: sum(node.op == "bce_logits" for node in g.nodes))
        _, log = train(small_cfg(ablation_mode=mode), dataset())
        assert fused == [1] * len(log.steps)

    def test_degenerate_weak_logged_from_step_data(self, monkeypatch):
        """Identities with one record stand in as their own weak counterpart:
        each step logs its StepData's count, and train_log.csv writes it."""
        full = dataset()
        d = full.take((full.identity % 3 != 0) | (full.view == 0))
        counts = []
        step_data = training._step_data

        def counting(*args, **kwargs):
            sd = step_data(*args, **kwargs)
            counts.append(sd.degenerate_weak)
            return sd

        monkeypatch.setattr(training, "_step_data", counting)
        _, log = train(small_cfg(), d)
        assert [rec.degenerate_weak for rec in log.steps] == counts
        assert sum(counts) > 0
        header, rows = cli.train_log_rows(log)
        column = header.index("degenerate_weak")
        assert [row[column] for row in rows] == counts

    @pytest.mark.parametrize("seed", range(40))
    def test_batched_plan_draws_equal_scalar_draws(self, seed):
        """_epoch_plan's one batched record draw picks what one scalar draw
        per identity picks from its records in row order, identities in
        ascending order, over unsorted rows of one to four per identity."""
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 5, size=int(rng.integers(2, 30)))
        identity = rng.permutation(np.repeat(np.arange(counts.shape[0]) * 7 - 30, counts))
        ids = sorted(set(identity.tolist()))
        cfg = small_cfg(seed=seed)
        stream = np.random.default_rng(training._seed_seq(cfg.seed, 101, 3))
        expect = []
        for i in stream.permutation(len(ids)):
            rows = np.flatnonzero(identity == ids[int(i)]).tolist()
            expect.append(rows[int(stream.integers(len(rows)))])
        assert training._epoch_plan(identity_groups(identity), cfg, 3).tolist() == expect

    def test_too_few_identities(self):
        with pytest.raises(ValueError):
            train(small_cfg(), dataset(num_identities=1))


class TestFailureContracts:
    def test_starvation_reports_step_index(self):
        # 5 identities with batch 4 leaves a final 1-record batch every epoch.
        d = dataset(num_identities=5)
        with pytest.raises(MiningStarvationError, match="step 1"):
            train(small_cfg(batch_size=4), d)

    @pytest.mark.parametrize("mode,start,stop,first", [
        ("uitc_gitm", 0, None, 2), ("uitc_gitm", 2, None, 2), ("uitc_gitm", 0, 2, None),
        ("baseline", 0, None, None)])
    def test_unminable_short_batch_fails_before_any_step(self, mode, start, stop, first,
                                                         monkeypatch):
        """10 identities in batches of 4 end each epoch on a batch of 2: one
        negative per anchor, enough for k=1 (baseline) but not k=2.  The
        first such step in the run's range is named before any step runs."""
        d = dataset(num_identities=10)
        cfg = small_cfg(ablation_mode=mode)
        resume = train(cfg, d, stop_at_step=start)[0] if start else None
        steps = []
        step_data = training._step_data
        monkeypatch.setattr(training, "_step_data",
                            lambda *args: steps.append(args[4]) or step_data(*args))
        if first is None:
            ckpt, _ = train(cfg, d, resume=resume, stop_at_step=stop)
            assert steps == list(range(start, ckpt.step)) and ckpt.step == (stop or 6)
            return
        with pytest.raises(MiningStarvationError,
                           match=rf"^step {first}: batch of 2 identities leaves 1 "):
            train(cfg, d, resume=resume, stop_at_step=stop)
        assert steps == []

    @pytest.mark.parametrize("start,end,first", [(0, 12, 2), (3, 12, 5), (3, 5, None),
                                                 (6, 9, 8), (0, 0, None)])
    def test_minable_check_names_the_first_short_step_in_range(self, start, end, first):
        """Batches of 4 over 10 identities: steps 2, 5, 8, ... hold 2 identities."""
        if first is None:
            training._check_batches_minable(10, 4, 2, start, end)
            return
        with pytest.raises(MiningStarvationError, match=rf"^step {first}:"):
            training._check_batches_minable(10, 4, 2, start, end)
        training._check_batches_minable(10, 4, 1, start, end)

    def test_zero_norm_embeddings_abort_at_the_resumed_step(self):
        """A checkpoint whose image tower ends in zero weights and bias embeds
        every image as a zero row: the first step after resuming aborts."""
        d, cfg = dataset(), small_cfg()
        mid, _ = train(cfg, d, stop_at_step=2)
        params = {k: v.copy() for k, v in mid.params.items()}
        params["img.w2"][...] = 0.0
        params["img.b2"][...] = 0.0
        with pytest.raises(NumericAbort,
                           match=r"^step 2: encoder produced zero-norm embeddings$"):
            train(cfg, d, resume=dataclasses.replace(mid, params=params))

    def test_nonfinite_parameters_abort(self):
        d = dataset()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericAbort):
                train(small_cfg(base_lr=1e18, epochs=25), d)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1).validate()
        with pytest.raises(ValueError):
            TrainConfig(mapping="sqrt").validate()
        with pytest.raises(ValueError):
            TrainConfig(ablation_mode="everything").validate()
        with pytest.raises(ValueError):
            TrainConfig(mining_mode="neg3v4", mining_k=2).validate()
        with pytest.raises(ValueError, match="weight_decay"):
            TrainConfig(weight_decay=-1.0).validate()
        for bad, named in ((dict(seed=-1), "seed"), (dict(embed_dim=0), "embed_dim"),
                           (dict(hidden_dim=-2), "hidden_dim"),
                           (dict(mining_k=0), "mining_mode/mining_k")):
            with pytest.raises(ValueError, match=named):
                TrainConfig(**bad).validate()


def reference_adamw(state, grads, lr, weight_decay):
    """Per-tensor AdamW step: the reference the flat-buffer update must match bit for bit."""
    params, opt_m, opt_v = state["params"], state["opt_m"], state["opt_v"]
    state["opt_t"] += 1
    bc1 = 1.0 - training._ADAM_BETA1 ** state["opt_t"]
    bc2 = 1.0 - training._ADAM_BETA2 ** state["opt_t"]
    for name in params:
        grad = grads[name]
        opt_m[name] = training._ADAM_BETA1 * opt_m[name] + (1.0 - training._ADAM_BETA1) * grad
        opt_v[name] = (training._ADAM_BETA2 * opt_v[name]
                       + (1.0 - training._ADAM_BETA2) * grad * grad)
        update = (opt_m[name] / bc1) / (np.sqrt(opt_v[name] / bc2) + training._ADAM_EPS)
        decay = 0.0 if name in training._NO_DECAY else weight_decay
        params[name] = params[name] - lr * (update + decay * params[name])


class TestOptimizer:
    @pytest.mark.parametrize("mode", training.ABLATION_MODES)
    def test_flat_update_matches_per_tensor_reference(self, mode, monkeypatch):
        d = dataset()
        cfg = small_cfg(epochs=3, ablation_mode=mode)
        start, _ = train(cfg, d, stop_at_step=4)
        step_grads = []

        class Recording(training.Graph):
            def backward(self, loss):
                grads = super().backward(loss)
                step_grads.append({node.name: grad.copy() for node, grad in grads.items()})
                return grads

        monkeypatch.setattr(training, "Graph", Recording)
        ckpt, log = train(cfg, d, resume=start, stop_at_step=9)
        state = {"params": dict(start.params), "opt_m": dict(start.opt_m),
                 "opt_v": dict(start.opt_v), "opt_t": start.opt_t}
        assert len(step_grads) == len(log.steps) == 5
        for rec, grads in zip(log.steps, step_grads):
            reference_adamw(state, grads, rec.lr, cfg.weight_decay)
        assert ckpt.opt_t == state["opt_t"]
        for section in ("params", "opt_m", "opt_v"):
            got, ref = getattr(ckpt, section), state[section]
            assert list(got) == list(ref)
            for name in ref:
                assert got[name].shape == np.shape(ref[name])
                assert got[name].tobytes() == np.asarray(ref[name]).tobytes(), (section, name)

    def test_abort_names_the_first_nonfinite_parameter(self):
        d = dataset()
        cfg = small_cfg()
        mid, _ = train(cfg, d, stop_at_step=2)
        names = list(mid.params)
        first, later = names[2], names[-3]
        # A huge first moment over a zero second moment overflows the update.
        for name in (later, first):
            mid.opt_m[name].flat[0] = 1e308
            mid.opt_v[name].flat[0] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericAbort,
                               match=re.escape(f"step 2: parameter {first} became non-finite")):
                train(cfg, d, resume=mid)

    def test_resume_with_a_nan_parameter_fails_before_any_step(self, monkeypatch):
        """The step graphs take the parameters unchecked, so train checks them
        once at the start: the leaf's own error, naming the key, no step run."""
        d = dataset()
        cfg = small_cfg()
        mid, _ = train(cfg, d, stop_at_step=2)
        bad = dataclasses.replace(mid, params={k: v.copy() for k, v in mid.params.items()})
        bad.params["txt.b1"][1] = np.nan
        graphs = []
        monkeypatch.setattr(training, "Graph", lambda: graphs.append(1) or Graph())
        with pytest.raises(GraphError, match=re.escape("non-finite leaf 'txt.b1'")):
            train(cfg, d, resume=bad)
        assert graphs == []
        # With no step to run nothing reads the parameters, as before.
        assert train(cfg, d, resume=bad, stop_at_step=2)[0].step == 2

    def test_nan_learning_rate_mid_run_aborts_naming_the_parameter(self, monkeypatch):
        d = dataset()
        cfg = small_cfg()
        lr = training.step_lr
        monkeypatch.setattr(training, "step_lr", lambda step, total, c: (
            math.nan if step == 3 else lr(step, total, c)))
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericAbort,
                               match=re.escape("step 3: parameter img.w1 became non-finite")):
                train(cfg, d)

    def test_checkpoint_arrays_share_no_memory(self):
        d = dataset()
        cfg = small_cfg()
        init, _ = train(cfg, d, stop_at_step=0)
        mid, _ = train(cfg, d, stop_at_step=3)
        resumed, _ = train(cfg, d, resume=mid)
        for ckpt, source in ((init, None), (mid, None), (resumed, mid)):
            arrays = [v for c in (ckpt, source) if c is not None
                      for section in (c.params, c.opt_m, c.opt_v) for v in section.values()]
            assert len(arrays) == 3 * len(ckpt.params) * (1 if source is None else 2)
            assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))
            # Separate arrays, not views into one buffer the trainer may still write.
            assert all(a.flags.owndata for a in arrays)


SECTIONS = ("params", "opt_m", "opt_v")


def copied(ckpt):
    """ckpt with every array section copied, so it can be changed alone."""
    return dataclasses.replace(ckpt, **{s: {k: v.copy() for k, v in getattr(ckpt, s).items()}
                                        for s in SECTIONS})


@pytest.mark.parametrize("section", SECTIONS)
def test_checkpoints_equal_sees_every_array(section):
    """One entry one ulp away, or one key dropped, in any array section makes
    two checkpoints differ; an exact copy does not."""
    ckpt, _ = train(small_cfg(epochs=1), dataset())
    assert checkpoints_equal(copied(ckpt), ckpt)

    moved = copied(ckpt)
    entry = getattr(moved, section)["img.w1"]
    entry[0, 0] = np.nextafter(entry[0, 0], np.inf)
    assert not checkpoints_equal(moved, ckpt)
    assert not checkpoints_equal(ckpt, moved)

    dropped = copied(ckpt)
    del getattr(dropped, section)["log_gamma"]
    assert not checkpoints_equal(dropped, ckpt)
    assert not checkpoints_equal(ckpt, dropped)


class TestCheckpointing:
    def test_round_trip_exact(self, tmp_path):
        ckpt, _ = train(small_cfg(), dataset())
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        assert checkpoints_equal(load_checkpoint(path), ckpt)

    def test_resume_equivalence_through_file(self, tmp_path):
        d = dataset()
        cfg = small_cfg(epochs=4)
        full, _ = train(cfg, d)
        mid, _ = train(cfg, d, stop_at_step=5)
        path = tmp_path / "mid.json"
        save_checkpoint(mid, path)
        resumed, _ = train(cfg, d, resume=load_checkpoint(path))
        assert checkpoints_equal(resumed, full)

    def test_resume_at_every_step_matches(self):
        d = dataset(num_identities=8)
        cfg = small_cfg(epochs=2, batch_size=4)
        full, _ = train(cfg, d)
        total = full.step
        for k in range(1, total):
            mid, _ = train(cfg, d, stop_at_step=k)
            resumed, _ = train(cfg, d, resume=mid)
            assert checkpoints_equal(resumed, full), f"divergence resuming at {k}"

    def test_corrupted_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        ckpt, _ = train(small_cfg(epochs=1), dataset())
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        import json
        payload = json.loads(path.read_text())
        del payload["opt_m"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        ckpt, _ = train(small_cfg(epochs=1), dataset())
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        import json
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointFormatError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("section, key, value, message", [
        ("config", "mapping", "cubic", "config: unknown mapping 'cubic'"),
        ("config", "ablation_mode", "bogus", "config: unknown ablation_mode 'bogus'"),
        ("config", "tau_init", -1.0, "config: tau_init must be positive"),
        ("config", "alpha", "x", "config: alpha must be float, got 'x'"),
        ("config", "epochs", 2.5, "config: epochs must be int, got 2.5"),
        (None, "step", "x", "step must be an integer >= 0, got 'x'"),
        (None, "opt_t", -1, "opt_t must be an integer >= 0, got -1"),
        (None, "step", 2.0, "step must be an integer >= 0, got 2.0"),
    ])
    def test_invalid_state_names_the_key(self, tmp_path, section, key, value, message):
        ckpt, _ = train(small_cfg(epochs=1), dataset())
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        import json
        payload = json.loads(path.read_text())
        (payload[section] if section else payload)[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointFormatError, match=f"^{re.escape(str(path))}: {message}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("start, stop", [(3, 1), (3, 2), (0, -3), (3, -1)])
    def test_stop_before_the_start_step_is_refused(self, start, stop):
        """A stop before the run's start step would label the checkpoint with
        a step its parameters never saw; it names both steps and runs none."""
        d = dataset()
        resume = train(small_cfg(), d, stop_at_step=start)[0] if start else None
        with pytest.raises(ValueError,
                           match=f"^stop_at_step {stop} is before the start step {start}$"):
            train(small_cfg(), d, resume=resume, stop_at_step=stop)
        ckpt, log = train(small_cfg(), d, resume=resume, stop_at_step=start)
        assert (ckpt.step, ckpt.opt_t, log.steps) == (start, start, [])

    def test_resume_config_must_match(self):
        d = dataset()
        mid, _ = train(small_cfg(), d, stop_at_step=2)
        other = dataclasses.replace(small_cfg(), base_lr=5e-4)
        with pytest.raises(CheckpointFormatError):
            train(other, d, resume=mid)

    @pytest.mark.parametrize("section, key, entry, message", [
        ("params", "img.w1", "0.123", "entry 0 is '0.123', not a number"),
        ("opt_m", "txt.b1", True, "entry 0 is True, not a number"),
        ("opt_v", "head.w_out", False, "entry 0 is False, not a number"),
        ("params", "log_tau", None, "entry 0 is None, not a number"),
        ("params", "img.b2", [0.5], "entry 0 is [0.5], not a number"),
        ("opt_m", "img.w2", 10 ** 400, "int too large to convert to float"),
    ])
    def test_array_entries_must_be_json_numbers(self, tmp_path, section, key, entry, message):
        ckpt, _ = train(small_cfg(epochs=1), dataset())
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        payload = json.loads(path.read_text())
        payload[section][key]["data"][0] = entry
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointFormatError, match=re.escape(
                f"{path}: {section}[{key!r}]: {message}")):
            load_checkpoint(path)

    def test_array_data_must_be_a_list(self, tmp_path):
        ckpt, _ = train(small_cfg(epochs=1), dataset())
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        payload = json.loads(path.read_text())
        payload["params"]["log_gamma"]["data"] = 0.0
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointFormatError, match=re.escape(
                f"{path}: params['log_gamma']: data must be a list, got float")):
            load_checkpoint(path)


# -- the checkpoint's binary companion ----------------------------------------

def json_forbidden():
    """A context in which parsing any JSON fails."""
    return mock.patch.object(json, "loads", side_effect=AssertionError("checkpoint JSON parsed"))


def same_checkpoint(a, b):
    """Equal checkpoints down to key order, value types and array bytes."""
    assert training._state(a) == training._state(b)
    for section in training._SECTIONS:
        assert training._same_arrays(getattr(a, section), getattr(b, section)), section


def same_outcome(got, want):
    """Equal messages, or checkpoints equal as same_checkpoint compares them."""
    if isinstance(want, str):
        assert got == want
    else:
        same_checkpoint(got, want)


def ckpt_outcome(path):
    """load_checkpoint(path), or the text of the CheckpointFormatError it raises."""
    try:
        return load_checkpoint(path)
    except CheckpointFormatError as exc:
        return str(exc)


def json_only(path):
    """ckpt_outcome(path) with the companion moved aside, so the JSON is parsed."""
    companion = companion_path(path)
    held = companion.with_name(companion.name + ".held")
    if companion.exists():
        companion.rename(held)
    try:
        return ckpt_outcome(path)
    finally:
        if held.exists():
            held.rename(companion)


HEAD_NAMES = list(training._HEAD_FIELDS)


def companion_arrays(path):
    """The head and values of path's companion."""
    with open(companion_path(path), "rb") as handle:
        np.load(handle)
        return np.load(handle), np.load(handle)


def save_companion(path, head, values):
    """A companion for the JSON at path whose digest is right for its arrays."""
    digest = hashlib.sha256(path.read_bytes() + head.tobytes() + values.tobytes()).digest()
    with open(companion_path(path), "wb") as handle:
        for array in (np.frombuffer(digest, dtype=np.uint8), head, values):
            np.save(handle, array)


def damage_checkpoint(case, path, tmp_path):
    companion = companion_path(path)
    head, values = companion_arrays(path)
    if case == "missing":
        companion.unlink()
    elif case in ("stale", "stale_invalid"):
        payload = json.loads(path.read_text())
        if case == "stale":
            payload["params"]["img.b1"]["data"][0] = 0.25
        else:
            payload["config"]["mapping"] = "cubic"
        path.write_text(json.dumps(payload))
    elif case == "truncated":
        companion.write_bytes(companion.read_bytes()[:-9])
    elif case == "garbage":
        companion.write_bytes(np.random.default_rng(0).bytes(600))
    elif case == "npz":
        with open(companion, "wb") as handle:
            np.savez(handle, digest=np.zeros(32, np.uint8), head=head, values=values)
    elif case == "foreign":
        other, _ = train(small_cfg(epochs=1, seed=12), dataset())
        save_checkpoint(other, tmp_path / "other.json")
        companion.write_bytes(companion_path(tmp_path / "other.json").read_bytes())
    elif case == "wrong_dtype":
        save_companion(path, head, values.astype(np.float32))
    elif case == "wrong_head_dtype":
        save_companion(path, head.astype("<U40"), values)
    elif case == "nonfinite":
        values[7] = np.inf
        save_companion(path, head, values)
    elif case == "short":
        save_companion(path, head, values[:-1])
    elif case == "bad_config":
        head[HEAD_NAMES.index("mapping")] = "cubic"
        save_companion(path, head, values)
    elif case == "bad_step":
        head[HEAD_NAMES.index("step")] = "-1"
        save_companion(path, head, values)
    else:
        index = HEAD_NAMES.index("raw_dim_image")
        head[index] = str(int(head[index]) + 1)
        save_companion(path, head, values)


@pytest.mark.parametrize("case", ["missing", "stale", "stale_invalid", "truncated", "garbage",
                                  "npz", "foreign", "wrong_dtype", "wrong_head_dtype",
                                  "nonfinite", "short", "bad_config", "bad_step", "bad_width"])
def test_unusable_companion_gives_what_the_json_gives(tmp_path, case):
    """Whatever is wrong with the companion, load_checkpoint returns the
    JSON's checkpoint or raises the JSON's message."""
    ckpt, _ = train(small_cfg(epochs=1), dataset())
    path = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, path)
    damage_checkpoint(case, path, tmp_path)
    got, want = ckpt_outcome(path), json_only(path)
    same_outcome(got, want)
    if case == "stale_invalid":
        assert want == f"{path}: config: unknown mapping 'cubic'"
    else:
        if case == "stale":
            assert got.params["img.b1"][0] == 0.25
        else:
            same_checkpoint(got, ckpt)


def test_valid_checkpoint_companion_is_read_without_parsing(tmp_path):
    ckpt, _ = train(small_cfg(epochs=1), dataset())
    path = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, path)
    with json_forbidden():
        same_checkpoint(load_checkpoint(path), ckpt)
        companion_path(path).unlink()
        with pytest.raises(AssertionError, match="parsed"):
            load_checkpoint(path)


@pytest.mark.parametrize("change", [
    {"seed": 10 ** 40},  # 41 digits, wider than the head's texts
    {"alpha": 1},  # an int where the config holds floats
])
def test_state_the_companion_cannot_hold_is_written_without_one(tmp_path, change):
    ckpt, _ = train(small_cfg(epochs=1), dataset())
    path = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, path)
    odd = dataclasses.replace(ckpt, config=dataclasses.replace(ckpt.config, **change))
    save_checkpoint(odd, path)
    assert not companion_path(path).exists()
    same_outcome(ckpt_outcome(path), json_only(path))


def test_arrays_off_the_model_layout_get_no_companion(tmp_path):
    """Keys out of the model's order, or a transposed array, cannot be told
    apart in the flat values, so such a state is left to the JSON."""
    ckpt, _ = train(small_cfg(epochs=1), dataset())
    path = tmp_path / "ckpt.json"
    reordered = dataclasses.replace(ckpt, params=dict(reversed(ckpt.params.items())))
    save_checkpoint(reordered, path)
    assert not companion_path(path).exists()
    same_checkpoint(load_checkpoint(path), reordered)
    transposed = dataclasses.replace(ckpt, opt_v={**ckpt.opt_v, "txt.w2": ckpt.opt_v["txt.w2"].T})
    save_checkpoint(transposed, path)
    assert not companion_path(path).exists()
    with pytest.raises(CheckpointFormatError, match=r"opt_v\['txt.w2'\]: shape"):
        load_checkpoint(path)


_edge = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308])
_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_CKPT, _ = train(small_cfg(epochs=1), dataset())


@given(entries=st.lists(st.tuples(st.sampled_from(training._SECTIONS),
                                  st.sampled_from(sorted(_CKPT.params)),
                                  st.integers(0, 2 ** 16), st.one_of(_edge, _finite)),
                        min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_companion_checkpoint_equals_json_bit_for_bit(entries, tmp_path_factory):
    sections = {s: {k: v.copy() for k, v in getattr(_CKPT, s).items()}
                for s in training._SECTIONS}
    for section, key, index, value in entries:
        flat = sections[section][key].reshape(-1)
        flat[index % flat.size] = value
    ckpt = dataclasses.replace(_CKPT, **sections)
    path = tmp_path_factory.mktemp("bits") / "ckpt.json"
    save_checkpoint(ckpt, path)
    with json_forbidden():
        from_companion = load_checkpoint(path)
    companion_path(path).unlink()
    parsed = load_checkpoint(path)
    same_checkpoint(from_companion, parsed)
    same_checkpoint(from_companion, ckpt)

