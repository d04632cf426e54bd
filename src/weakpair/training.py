"""Deterministic training loop, optimizer, schedule, and checkpointing.

Every stochastic choice is drawn from a generator seeded by (config seed,
purpose tag, epoch-or-step index), never from a long-lived stream.  That
makes the trajectory a pure function of (config, data) and makes mid-run
save/load exact: resuming at step k replays nothing and perturbs nothing,
because step k's randomness never depended on steps before it.

One optimizer step: assemble a batch of one record per identity, draw each
anchor's weak counterpart, encode anchors and weak counterparts, mine hard
negatives from the current embeddings, evaluate the configured losses, and
apply an Adam update with decoupled weight decay under a linear
warmup-then-decay schedule (peak to peak/10 at the final step).
"""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import companion
from .autograd import Array, Graph, GraphError, Node
from .data import DatasetManifest, IdentityGroups, identity_groups
from .encoders import (EmbeddingBatch, ModelDims, encode, init_model,
                       leaf_group, param_shapes)
from .losses import (LossReport, MAPPINGS, MATCHING_BRANCHES, batch_uncertainty,
                     itc_loss, matching_losses, uitc_loss, weak_itc_loss)
from .mining import (MiningConfig, MiningStarvationError, PairGroups,
                     build_groups, sample_weak_batch)

CHECKPOINT_VERSION = 1
ABLATION_MODES = ("baseline", "uitc", "uitc_gitm")

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
_NO_DECAY = ("log_tau", "log_gamma")

_MASK64 = (1 << 64) - 1


class NumericAbort(RuntimeError):
    """Training or evaluation hit a non-finite value or a collapsed embedding."""


class CheckpointFormatError(ValueError):
    """Checkpoint file is unreadable or from an incompatible version."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 16
    base_lr: float = 1e-3
    warmup_steps: int = 20
    weight_decay: float = 0.01
    seed: int = 0
    alpha: float = 0.5
    beta: float = 0.1
    mining_mode: str = "neg3v6"
    mining_k: int = 2
    mapping: str = "exponential"
    embed_dim: int = 16
    hidden_dim: int = 32
    tau_init: float = 0.07
    ablation_mode: str = "uitc_gitm"

    def validate(self) -> None:
        for name in ("alpha", "beta", "base_lr", "weight_decay", "tau_init"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        for name in ("embed_dim", "hidden_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        for name in ("alpha", "beta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.mapping not in MAPPINGS:
            raise ValueError(f"unknown mapping {self.mapping!r}")
        if self.ablation_mode not in ABLATION_MODES:
            raise ValueError(f"unknown ablation_mode {self.ablation_mode!r}")
        if self.tau_init <= 0:
            raise ValueError(f"tau_init must be positive, got {self.tau_init}")
        try:
            self.mining()
        except ValueError as exc:
            raise ValueError(f"mining_mode/mining_k: {exc}") from None

    def mining(self) -> MiningConfig:
        return MiningConfig(self.mining_mode, self.mining_k)


# Each TrainConfig field's type, in field order.
_CONFIG_KINDS = {f.name: type(f.default) for f in fields(TrainConfig)}


@dataclass
class StepRecord:
    step: int
    lr: float
    report: LossReport
    u_min: float
    u_max: float
    degenerate_weak: int  # anchors whose weak counterpart is the anchor itself
    wall_time: float


@dataclass
class TrainLog:
    steps: list[StepRecord] = field(default_factory=list)

    def u_extremes(self) -> tuple[float, float] | None:
        """Range of every per-pair uncertainty recorded over the run."""
        seen = [(s.u_min, s.u_max) for s in self.steps if not math.isnan(s.u_min)]
        if not seen:
            return None
        return min(lo for lo, _ in seen), max(hi for _, hi in seen)


@dataclass
class Checkpoint:
    """Complete training state; rng state is the (seed, step) pair itself."""

    version: int
    config: TrainConfig
    params: dict[str, Array]
    opt_m: dict[str, Array]
    opt_v: dict[str, Array]
    opt_t: int
    step: int


def checkpoints_equal(a: Checkpoint, b: Checkpoint) -> bool:
    if (a.version, a.config, a.opt_t, a.step) != (b.version, b.config, b.opt_t, b.step):
        return False
    for da, db in ((a.params, b.params), (a.opt_m, b.opt_m), (a.opt_v, b.opt_v)):
        if da.keys() != db.keys():
            return False
        if any(not np.array_equal(da[k], db[k]) for k in da):
            return False
    return True


def _seed_seq(*parts: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([p & _MASK64 for p in parts])


def step_lr(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Linear 0 -> base_lr over warmup, then linear base_lr -> base_lr/10."""
    if step < 0:
        raise ValueError("step must be >= 0")
    if cfg.warmup_steps > 0 and step < cfg.warmup_steps:
        return cfg.base_lr * step / cfg.warmup_steps
    last = total_steps - 1
    if last <= cfg.warmup_steps:
        return cfg.base_lr
    frac = (step - cfg.warmup_steps) / (last - cfg.warmup_steps)
    return cfg.base_lr * (1.0 - 0.9 * frac)


@dataclass
class StepData:
    """Raw feature matrices for one batch and its weak counterparts."""

    raw_image: Array
    raw_text: Array
    weak_raw_image: Array
    weak_raw_text: Array
    identities: np.ndarray
    degenerate_weak: int = 0


def encode_step(g: Graph, leaves, data: StepData, need_weak: bool
                ) -> tuple[Node, Node, Node | None, Node | None]:
    img_tower, txt_tower = leaf_group(leaves, "img"), leaf_group(leaves, "txt")
    f_img = encode(g, img_tower, g.constant(data.raw_image))
    f_txt = encode(g, txt_tower, g.constant(data.raw_text))
    if not need_weak:
        return f_img, f_txt, None, None
    f_img_w = encode(g, img_tower, g.constant(data.weak_raw_image))
    f_txt_w = encode(g, txt_tower, g.constant(data.weak_raw_text))
    return f_img, f_txt, f_img_w, f_txt_w


def assemble_losses(g: Graph, leaves, enc, groups: PairGroups, cfg: TrainConfig,
                    u_override: float | None = None
                    ) -> tuple[dict[str, Node], Array | None, Array | None]:
    """(nodes, s_w, u_w): the loss terms of cfg's ablation mode, from
    already-encoded embeddings, then "total" at cfg's alpha and beta.

    itc and itm always, uitc unless baseline, gitm_txt and gitm_img in
    uitc_gitm.  groups must be mined beforehand (from the same embeddings)
    so rebuilding with perturbed parameters keeps the discrete structure
    fixed.  The uncertainty weight is a value (batch_uncertainty, whose
    per-anchor s_w and u_w are returned), never a node; with u_override it
    is that constant instead, the frozen form used by finite-difference
    checks, and s_w and u_w are None, as in baseline.
    """
    f_img, f_txt, f_img_w, f_txt_w = enc
    mode = cfg.ablation_mode
    nodes = {"itc": itc_loss(g, f_img, f_txt, leaves["log_tau"])}
    nodes.update(matching_losses(g, leaf_group(leaves, "head"), groups, enc,
                                 MATCHING_BRANCHES if mode == "uitc_gitm" else ("itm",)))
    s_values = u_values = None
    if mode != "baseline":
        weak_itc = weak_itc_loss(g, f_img, f_txt, f_img_w, f_txt_w, leaves["log_tau"])
        if u_override is None:
            s_values, u_values, u_override = batch_uncertainty(*(f.value for f in enc),
                                                               cfg.mapping)
        nodes["uitc"] = uitc_loss(g, weak_itc, u_override, leaves["log_gamma"])
    total = g.add(nodes["itc"], nodes["itm"])
    if "uitc" in nodes:
        total = g.add(total, g.mul(nodes["uitc"], cfg.alpha))
    if "gitm_txt" in nodes:
        total = g.add(total, g.mul(g.add(nodes["gitm_txt"], nodes["gitm_img"]), cfg.beta))
    nodes["total"] = total
    return nodes, s_values, u_values


def _loss_report(nodes: dict[str, Node], s_values: Array | None,
                 u_values: Array | None) -> LossReport:
    """Each LossReport field, in order, from assemble_losses' output: a term's
    value, or the mean of s_w or u_w; 0.0 for what the mode does not build."""
    values = {k: float(node.value) for k, node in nodes.items()}
    if s_values is not None:
        values.update(mean_s_w=float(s_values.mean()), mean_u_w=float(u_values.mean()))
    return LossReport(*(values.get(f.name, 0.0) for f in fields(LossReport)))


def _epoch_plan(grouping: IdentityGroups, cfg: TrainConfig, epoch: int) -> np.ndarray:
    """Identity order and per-identity record choice for one epoch, as rows."""
    rng = np.random.default_rng(_seed_seq(cfg.seed, 101, epoch))
    order = rng.permutation(grouping.counts.shape[0])
    # One bound per identity in order: the stream of one scalar draw each.
    return grouping.grouped[grouping.first[order] + rng.integers(grouping.counts[order])]


def _step_data(rows: np.ndarray, data: DatasetManifest, grouping: IdentityGroups,
               cfg: TrainConfig, step: int, need_weak: bool) -> StepData:
    raw_image, raw_text = data.image[rows], data.text[rows]
    identities = data.identity[rows]
    if not need_weak:
        return StepData(raw_image, raw_text, raw_image, raw_text, identities)
    rng = np.random.default_rng(_seed_seq(cfg.seed, 202, step))
    weak, degenerate = sample_weak_batch(rows, grouping, rng)
    return StepData(raw_image, raw_text, data.image[weak], data.text[weak], identities,
                    degenerate_weak=degenerate)


def _mining_config(cfg: TrainConfig) -> MiningConfig:
    # Pair matching alone only consumes the top-1 candidates, so the lighter
    # modes mine with k=1 regardless of the configured group size.
    if cfg.ablation_mode == "uitc_gitm":
        return cfg.mining()
    return MiningConfig("custom", 1)


def _check_batches_minable(identities: int, batch_size: int, k: int, start: int,
                           end: int) -> None:
    """Raise MiningStarvationError for the first step in [start, end) whose
    batch is too small to mine k negatives per anchor.

    A batch holds b distinct identities, so each anchor has b - 1 candidates.
    Batch sizes repeat every epoch, so one epoch of steps from start covers
    the run.
    """
    steps_per_epoch = math.ceil(identities / batch_size)
    for step in range(start, min(end, start + steps_per_epoch)):
        b = min(batch_size, identities - step % steps_per_epoch * batch_size)
        if b - 1 < k:
            raise MiningStarvationError(
                f"step {step}: batch of {b} identities leaves {b - 1} different-identity "
                f"negatives per anchor, but mining needs {k}; adjust batch_size or "
                "identity count")


def train(cfg: TrainConfig, data: DatasetManifest,
          resume: Checkpoint | None = None,
          stop_at_step: int | None = None) -> tuple[Checkpoint, TrainLog]:
    """Run the configured schedule; stop_at_step (>= the start) yields a mid-run checkpoint.

    A checkpoint written at step k and resumed reproduces the uninterrupted
    trajectory bit for bit, because step k's batch plan, weak picks, and
    learning rate are functions of (config, data, k) alone.
    """
    cfg.validate()
    grouping = identity_groups(data.identity)
    identities = grouping.counts.shape[0]
    if identities < 2:
        raise ValueError("training needs at least 2 identities")
    gen = data.gen_config
    dims = ModelDims(gen.raw_dim_image, gen.raw_dim_text, cfg.hidden_dim, cfg.embed_dim)
    steps_per_epoch = math.ceil(identities / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch

    if resume is None:
        params = init_model(cfg.seed, dims, cfg.tau_init)
        opt_m = {k: np.zeros_like(v) for k, v in params.items()}
        opt_v = {k: np.zeros_like(v) for k, v in params.items()}
        opt_t, start = 0, 0
    else:
        if resume.config != cfg:
            raise CheckpointFormatError("resume config differs from requested config")
        if resume.step > total_steps:
            raise CheckpointFormatError(
                f"checkpoint is at step {resume.step}, beyond {total_steps} total")
        params, opt_m, opt_v = resume.params, resume.opt_m, resume.opt_v
        opt_t, start = resume.opt_t, resume.step
    if stop_at_step is not None and stop_at_step < start:
        raise ValueError(f"stop_at_step {stop_at_step} is before the start step {start}")
    # AdamW runs once over flat buffers in params' key order (fresh copies);
    # the parameters each step graph reads are reshaped views of flat_p.
    layout = {k: np.shape(v) for k, v in params.items()}
    flat_p, flat_m, flat_v = (_flatten(layout, d) for d in (params, opt_m, opt_v))
    params = _views(layout, flat_p)
    decay = np.concatenate([np.full(math.prod(shape), 0.0 if k in _NO_DECAY else cfg.weight_decay)
                            for k, shape in layout.items()])

    end_step = total_steps if stop_at_step is None else min(stop_at_step, total_steps)
    need_weak = cfg.ablation_mode != "baseline"
    mining_cfg = _mining_config(cfg)
    _check_batches_minable(identities, cfg.batch_size, mining_cfg.k, start, end_step)
    # The step graphs take the parameters unchecked: they are checked here
    # once, then after every update.
    if start < end_step and not np.all(np.isfinite(flat_p)):
        raise GraphError(f"non-finite leaf {_non_finite_key(params)!r}")
    log = TrainLog()
    plan_epoch, plan = -1, []

    for step in range(start, end_step):
        started = time.perf_counter()
        epoch, pos = divmod(step, steps_per_epoch)
        if epoch != plan_epoch:
            plan_epoch, plan = epoch, _epoch_plan(grouping, cfg, epoch)
        rows = plan[pos * cfg.batch_size:(pos + 1) * cfg.batch_size]
        sd = _step_data(rows, data, grouping, cfg, step, need_weak)

        # A diverging step overflows to inf or nan; the finite-loss and
        # finite-parameter checks below name it, so numpy's warnings would
        # only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            g = Graph()
            leaves = {k: g.checked_leaf(v, k) for k, v in params.items()}
            enc = encode_step(g, leaves, sd, need_weak)
            if g.zero_norm_rows:
                raise NumericAbort(f"step {step}: encoder produced zero-norm embeddings")
            f_img, f_txt, f_img_w, f_txt_w = enc
            batch_emb = EmbeddingBatch(
                f_img.value, f_txt.value,
                f_img_w.value if f_img_w is not None else f_img.value,
                f_txt_w.value if f_txt_w is not None else f_txt.value,
                sd.identities)
            groups = build_groups(batch_emb, mining_cfg)

            nodes, s_values, u_values = assemble_losses(g, leaves, enc, groups, cfg)
            report = _loss_report(nodes, s_values, u_values)
            if not math.isfinite(report.total):
                raise NumericAbort(f"step {step}: non-finite loss; {report}")

            grads = g.backward(nodes["total"])
            grad = np.concatenate([grads[leaf].reshape(-1) for leaf in leaves.values()])
            lr = step_lr(step, total_steps, cfg)
            opt_t += 1
            bc1 = 1.0 - _ADAM_BETA1 ** opt_t
            bc2 = 1.0 - _ADAM_BETA2 ** opt_t
            # Elementwise, so each coordinate gets the bits a per-tensor update gives it.
            flat_m = _ADAM_BETA1 * flat_m + (1.0 - _ADAM_BETA1) * grad
            flat_v = _ADAM_BETA2 * flat_v + (1.0 - _ADAM_BETA2) * grad * grad
            update = (flat_m / bc1) / (np.sqrt(flat_v / bc2) + _ADAM_EPS)
            flat_p[:] = flat_p - lr * (update + decay * flat_p)
            if not np.all(np.isfinite(flat_p)):
                raise NumericAbort(
                    f"step {step}: parameter {_non_finite_key(params)} became non-finite")

        if u_values is not None:
            u_min, u_max = float(u_values.min()), float(u_values.max())
        else:
            u_min = u_max = float("nan")
        log.steps.append(StepRecord(step, lr, report, u_min, u_max,
                                    sd.degenerate_weak, time.perf_counter() - started))

    ckpt = Checkpoint(CHECKPOINT_VERSION, cfg, *(
        {k: v.copy() for k, v in _views(layout, flat).items()}
        for flat in (flat_p, flat_m, flat_v)), opt_t, end_step)
    return ckpt, log


def _non_finite_key(params: dict[str, Array]) -> str:
    return next(k for k, v in params.items() if not np.all(np.isfinite(v)))


def _flatten(layout: dict, arrays: dict[str, Array]) -> Array:
    """arrays raveled and concatenated into one new vector, in layout's key order."""
    return np.concatenate([np.ravel(arrays[k]) for k in layout])


def _views(layout: dict[str, tuple[int, ...]], flat: Array) -> dict[str, Array]:
    """flat cut into reshaped views at layout's keys and shapes."""
    out, end = {}, 0
    for k, shape in layout.items():
        start, end = end, end + math.prod(shape)
        out[k] = flat[start:end].reshape(shape)
    return out


# -- checkpoint serialization -------------------------------------------------
# checkpoint.json is the checkpoint: JSON with floats rendered by repr
# round-trips IEEE float64 exactly, and the shape records make the file
# self-describing.  Beside it, save_checkpoint puts a binary companion (see
# ``companion``), checkpoint.json.npy, holding the same state as a head of
# texts (format version, step, opt_t, the towers' raw widths and every
# TrainConfig field, in that order), then one float64 vector of the params,
# opt_m and opt_v values, each section flattened in the model's key order.
# load_checkpoint builds from the companion when companion.load accepts it
# and the state passes every check of the JSON path (_checkpoint); else it
# parses the JSON, the only source of error messages.  A state the companion
# cannot hold exactly (a head text over 32 characters, an int where the
# config has a float, arrays that are not float64 at the model's keys, order
# and shapes) gets no companion.

_SECTIONS = ("params", "opt_m", "opt_v")
_HEAD_STATE = ("format_version", "step", "opt_t", "raw_dim_image", "raw_dim_text")
# The head's entries, in order, and their types.  Each entry is str() of its
# value, which int() or float() reads back exactly; one text vector loads
# faster than a structured row.
_HEAD_FIELDS = {**{name: int for name in _HEAD_STATE}, **_CONFIG_KINDS}
_HEAD = np.dtype("<U32")
_NUMBERS = {int, float}  # the types json.loads gives JSON numbers


def _encode_arrays(arrays: dict[str, Array]) -> dict:
    return {k: {"shape": list(v.shape), "data": np.asarray(v).reshape(-1).tolist()}
            for k, v in arrays.items()}


def _decode_arrays(payload: dict, section: str) -> dict[str, Array]:
    out = {}
    for key, spec in payload.items():
        data = spec["data"]
        if type(data) is not list:
            raise CheckpointFormatError(
                f"{section}[{key!r}]: data must be a list, got {type(data).__name__}")
        if not set(map(type, data)) <= _NUMBERS:
            index, bad = next((i, x) for i, x in enumerate(data) if type(x) not in _NUMBERS)
            raise CheckpointFormatError(
                f"{section}[{key!r}]: entry {index} is {bad!r}, not a number")
        try:
            out[key] = np.array(data, dtype=np.float64).reshape(spec["shape"])
        except (ValueError, OverflowError) as exc:
            raise CheckpointFormatError(f"{section}[{key!r}]: {exc}") from exc
        if not np.all(np.isfinite(out[key])):
            raise CheckpointFormatError(f"{section}[{key!r}]: non-finite value")
    return out


def _model_shapes(raw_image: int, raw_text: int, cfg: TrainConfig) -> dict[str, tuple[int, ...]]:
    """The model's keys, in order, and shapes."""
    # Widths clamped to >= 1, so a tower of raw width 0 fails the checks.
    widths = (raw_image, raw_text, cfg.hidden_dim, cfg.embed_dim)
    return param_shapes(ModelDims(*(max(d, 1) for d in widths)))


def _raw_widths(params: dict[str, Array]) -> list[int]:
    return [params[k].shape[0] if k in params and params[k].ndim == 2 else 1
            for k in ("img.w1", "txt.w1")]


def _check_model_arrays(ckpt: Checkpoint) -> None:
    """Each array section holds exactly the model's keys, at the model's shapes."""
    expected = _model_shapes(*_raw_widths(ckpt.params), ckpt.config)
    for section in _SECTIONS:
        arrays = getattr(ckpt, section)
        if arrays.keys() != expected.keys():
            raise CheckpointFormatError(
                f"{section}: missing keys {sorted(expected.keys() - arrays.keys())}, "
                f"unknown keys {sorted(arrays.keys() - expected.keys())}")
        for key, shape in expected.items():
            if arrays[key].shape != shape:
                raise CheckpointFormatError(
                    f"{section}[{key!r}]: shape {arrays[key].shape}, expected {shape}")


def _checkpoint(payload, decode, path: str | Path) -> Checkpoint:
    """The checkpoint a parsed payload holds, after every check; decode(cfg)
    gives its params, opt_m and opt_v."""
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise CheckpointFormatError(f"{path}: missing format_version")
    if payload["format_version"] != CHECKPOINT_VERSION:
        raise CheckpointFormatError(
            f"{path}: version {payload['format_version']}, expected {CHECKPOINT_VERSION}")
    try:
        unknown = set(payload["config"]) - set(_CONFIG_KINDS)
        if unknown:
            raise CheckpointFormatError(f"unknown config keys {sorted(unknown)}")
        for key, value in payload["config"].items():
            kind = _CONFIG_KINDS[key]
            if type(value) not in ((int, float) if kind is float else (kind,)):
                raise CheckpointFormatError(
                    f"config: {key} must be {kind.__name__}, got {value!r}")
        cfg = TrainConfig(**payload["config"])
        try:
            cfg.validate()
        except ValueError as exc:
            raise CheckpointFormatError(f"config: {exc}") from None
        for name in ("step", "opt_t"):
            value = payload[name]
            if type(value) is not int or value < 0:
                raise CheckpointFormatError(f"{name} must be an integer >= 0, got {value!r}")
        ckpt = Checkpoint(payload["format_version"], cfg, *decode(cfg),
                          opt_t=payload["opt_t"], step=payload["step"])
        _check_model_arrays(ckpt)
    except CheckpointFormatError as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, AttributeError) as exc:
        raise CheckpointFormatError(f"{path}: truncated or malformed ({exc})") from exc
    return ckpt


def _from_companion(path: str | Path, head: np.ndarray, values: np.ndarray) -> Checkpoint:
    """The checkpoint a companion's arrays hold; raises ValueError where the
    JSON path would reject that state."""
    if head.shape != (len(_HEAD_FIELDS),):
        raise CheckpointFormatError(f"head of {head.shape[0]} entries")
    config = {name: kind(text) for (name, kind), text in zip(_HEAD_FIELDS.items(), head.tolist())}
    payload = {name: config.pop(name) for name in _HEAD_STATE}
    payload["config"] = config

    def decode(cfg: TrainConfig) -> list[dict[str, Array]]:
        layout = _model_shapes(payload["raw_dim_image"], payload["raw_dim_text"], cfg)
        size = sum(math.prod(shape) for shape in layout.values())
        if values.shape[0] != len(_SECTIONS) * size:
            raise CheckpointFormatError(f"{values.shape[0]} values")
        if not np.isfinite(values).all():
            raise CheckpointFormatError("non-finite value")
        return [_views(layout, row) for row in values.reshape(len(_SECTIONS), size)]

    return _checkpoint(payload, decode, path)


def _state(ckpt: Checkpoint) -> list:
    """Every value of ckpt outside its arrays, each with its type."""
    return [(type(v), v) for v in (ckpt.version, ckpt.step, ckpt.opt_t,
                                   *asdict(ckpt.config).values())]


def _same_arrays(a: dict[str, Array], b: dict[str, Array]) -> bool:
    """Same keys in the same order, and arrays of the same dtype, shape and bytes."""
    def key(v):
        v = np.asarray(v)
        return v.dtype, v.shape, v.tobytes()

    return list(a) == list(b) and all(key(a[k]) == key(b[k]) for k in a)


def _companion_arrays(ckpt: Checkpoint, path: str | Path) -> list[np.ndarray] | None:
    """The companion of ckpt, or None unless it reads back as exactly ckpt."""
    try:
        head = np.array([str(v) for v in (ckpt.version, ckpt.step, ckpt.opt_t,
                                           *_raw_widths(ckpt.params),
                                           *asdict(ckpt.config).values())], dtype=_HEAD)
        values = np.concatenate([_flatten(ckpt.params, getattr(ckpt, s)) for s in _SECTIONS])
        arrays = [head, values.astype(np.float64, copy=False)]
        back = _from_companion(path, *arrays)
    except (ValueError, TypeError, KeyError):
        return None
    if _state(back) == _state(ckpt) and all(
            _same_arrays(getattr(back, s), getattr(ckpt, s)) for s in _SECTIONS):
        return arrays
    return None


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write checkpoint.json and, where it can hold ckpt exactly, its companion."""
    payload = {
        "format_version": ckpt.version,
        "config": asdict(ckpt.config),
        "step": ckpt.step,
        "opt_t": ckpt.opt_t,
        "rng": {"scheme": "counter", "seed": ckpt.config.seed, "step": ckpt.step},
        **{section: _encode_arrays(getattr(ckpt, section)) for section in _SECTIONS},
    }
    companion.write(path, json.dumps(payload).encode("utf-8"), _companion_arrays(ckpt, path))


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint; any defect raises CheckpointFormatError naming the key."""
    raw = Path(path).read_bytes()
    arrays = companion.load(path, raw, [_HEAD, np.dtype(np.float64)])
    if arrays is not None:
        try:
            return _from_companion(path, *arrays)
        except ValueError:  # the JSON decides, and names what is wrong
            pass
    try:
        # Decoded as read_text decodes it (universal newlines), so the
        # positions in a JSON error are the file's.
        payload = json.loads(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read())
    except UnicodeDecodeError as exc:
        raise CheckpointFormatError(f"{path}: not a checkpoint file (not UTF-8: {exc})") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointFormatError(f"{path}: not a checkpoint file ({exc})") from exc
    return _checkpoint(payload, lambda cfg: [_decode_arrays(payload[s], s) for s in _SECTIONS],
                       path)
