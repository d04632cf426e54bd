"""Correctness checks made apart from the program under test.

Each check returns a list of problems; an empty list means the output
passed.  The references are computed here: a numpy forward pass of the two
towers straight from the parameter arrays, brute-force average precision
from pairwise score comparisons, file parsers of their own, and a float64
directional central difference.  Only the method's defining properties are
taken from the paper: the weighted total, the uncertainty range of the
exponential mapping, and retrieval metric identities.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

# u_w = exp(-s_w) with s_w a mean of cosines, so u_w lies in [1/e, e].
U_LO, U_HI = math.exp(-1.0), math.e
# Slack for the last bits of exp(-s_w) at |s_w| = 1.
U_SLACK = 1e-12
LOSS_FIELDS = ("itc", "uitc", "itm", "gitm_txt", "gitm_img", "total",
               "mean_s_w", "mean_u_w")


# -- training ------------------------------------------------------------------


def train_log_problems(steps, alpha: float, beta: float) -> list[str]:
    """Loss identities every logged step of the full objective must satisfy."""
    problems = []
    for rec in steps:
        r = rec.report
        values = [getattr(r, name) for name in LOSS_FIELDS]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"step {rec.step}: non-finite loss {values}")
            continue
        expected = r.itc + r.itm + alpha * r.uitc + beta * (r.gitm_txt + r.gitm_img)
        if not math.isclose(r.total, expected, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"step {rec.step}: total {r.total!r} != {expected!r}")
        if not (U_LO - U_SLACK <= rec.u_min <= rec.u_max <= U_HI + U_SLACK):
            problems.append(f"step {rec.step}: u range [{rec.u_min}, {rec.u_max}] "
                            f"outside [1/e, e]")
    return problems


# -- retrieval -----------------------------------------------------------------


def embed(params: Mapping[str, np.ndarray], tower: str, raw: np.ndarray) -> np.ndarray:
    """Unit rows of l2(tanh(raw @ w1 + b1) @ w2 + b2) for tower ``img`` or ``txt``."""
    hidden = np.tanh(raw @ params[f"{tower}.w1"] + params[f"{tower}.b1"])
    out = hidden @ params[f"{tower}.w2"] + params[f"{tower}.b2"]
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def retrieval(params: Mapping[str, np.ndarray], raw_image: np.ndarray,
              raw_text: np.ndarray, identities: np.ndarray) -> dict[str, float]:
    """Text-to-image mAP and R@{1,5,10}, by brute-force rank counting.

    The rank of gallery item j for query q is one plus the number of items
    scoring higher, plus those scoring the same at a lower index.
    """
    scores = embed(params, "txt", raw_text) @ embed(params, "img", raw_image).T
    aps, firsts = [], []
    for q in range(scores.shape[0]):
        s = scores[q]
        relevant = np.flatnonzero(identities == identities[q])
        if relevant.size == 0:
            continue
        ranks = np.sort([1 + np.count_nonzero(s > s[j]) + np.count_nonzero(s[:j] == s[j])
                         for j in relevant])
        aps.append(float(np.mean(np.arange(1, ranks.size + 1) / ranks)))
        firsts.append(int(ranks[0]))
    firsts_arr = np.array(firsts)
    out = {"map": float(np.mean(aps))}
    for k in (1, 5, 10):
        out[f"r{k}"] = float(np.mean(firsts_arr <= k))
    return out


def improvement_problems(initial_map: float, final_map: float) -> list[str]:
    if final_map > initial_map:
        return []
    return [f"held-out mAP {final_map:.6f} does not beat the initial {initial_map:.6f}"]


def read_checkpoint_params(path: Path) -> dict[str, np.ndarray]:
    payload = json.loads(Path(path).read_text())
    return {k: np.array(spec["data"], dtype=np.float64).reshape(spec["shape"])
            for k, spec in payload["params"].items()}


def read_dataset(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(raw images, raw texts, identities) from a dataset TSV."""
    ids, images, texts = [], [], []
    for line in Path(path).read_text().splitlines()[1:]:
        if not line:
            continue
        identity, _view, image, text = line.split("\t")
        ids.append(int(identity))
        images.append([float(x) for x in image.split(",")])
        texts.append([float(x) for x in text.split(",")])
    return np.array(images), np.array(texts), np.array(ids)


def _numbers(rows: list[dict], column: str, where: str,
             problems: list[str]) -> list[float]:
    """One CSV column as floats; cells that are not plain numbers are a problem."""
    values, bad = [], []
    for row in rows:
        try:
            values.append(float(row[column]))
        except ValueError:
            values.append(math.nan)
            bad.append(row[column])
    if bad:
        problems.append(f"{where}: {len(bad)} of {len(rows)} {column} cells are not "
                        f"numbers, e.g. {bad[0]!r}")
    return values


def read_eval_outputs(out_dir: Path) -> tuple[dict[str, float], float, list[str]]:
    """metrics.csv as {map, r1, r5, r10}, the risk at coverage 1.0, and problems."""
    problems: list[str] = []
    with open(Path(out_dir) / "metrics.csv", newline="") as handle:
        rows = [r for r in csv.DictReader(handle) if r["metric"] in ("map", "recall")]
    keys = ["map" if r["metric"] == "map" else f"r{r['param']}" for r in rows]
    metrics = dict(zip(keys, _numbers(rows, "value", "metrics.csv", problems)))
    with open(Path(out_dir) / "risk_coverage.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    coverages = _numbers(rows, "coverage", "risk_coverage.csv", problems)
    risks = _numbers(rows, "risk", "risk_coverage.csv", problems)
    full_risk = dict(zip(coverages, risks)).get(1.0, math.nan)
    return metrics, full_risk, problems


def eval_problems(reported: Mapping[str, float], full_risk: float,
                  expected: Mapping[str, float]) -> list[str]:
    """metrics.csv against the brute-force recomputation and metric identities."""
    problems = []
    for key, want in expected.items():
        got = reported.get(key)
        if got is None or not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"{key}: reported {got!r}, recomputed {want!r}")
    if not reported.get("r1", 0.0) <= reported.get("r5", 0.0) <= reported.get("r10", 0.0):
        problems.append("recalls are not monotone in k")
    if not math.isclose(full_risk, 1.0 - reported.get("r1", math.nan),
                        rel_tol=0.0, abs_tol=1e-12):
        problems.append(f"risk at full coverage {full_risk!r} != 1 - R@1")
    return problems


# -- gradients -----------------------------------------------------------------


def battery_problems(results, names: tuple[str, ...]) -> list[str]:
    """Every loss check present and under its tolerance."""
    problems = []
    if [r.name for r in results] != [f"loss:{n}" for n in names]:
        problems.append(f"checks {[r.name for r in results]} != {list(names)}")
    for r in results:
        if not r.max_rel_error < r.tol:
            problems.append(f"{r.name}: error {r.max_rel_error:.3e} >= tol {r.tol:g}")
    return problems


def directional_problems(loss_at: Callable[[dict[str, np.ndarray]], float],
                         params: Mapping[str, np.ndarray],
                         analytic: Mapping[str, np.ndarray],
                         rng: np.random.Generator, step: float = 1e-5,
                         rtol: float = 1e-6) -> list[str]:
    """Float64 central difference of the loss along one random direction.

    The slope must match <analytic gradient, direction> to within rtol of
    |gradient| * |direction|, a scale that does not shrink when the
    direction happens to be near-orthogonal to the gradient.
    """
    direction = {k: rng.normal(size=np.shape(v)) for k, v in params.items()}
    plus = loss_at({k: v + step * direction[k] for k, v in params.items()})
    minus = loss_at({k: v - step * direction[k] for k, v in params.items()})
    numeric = (plus - minus) / (2.0 * step)
    projected = math.fsum(float(np.sum(analytic[k] * direction[k])) for k in params)
    scale = (math.sqrt(math.fsum(float(np.sum(g * g)) for g in analytic.values()))
             * math.sqrt(math.fsum(float(np.sum(d * d)) for d in direction.values())))
    if abs(numeric - projected) <= rtol * scale:
        return []
    return [f"directional slope {numeric!r} vs analytic {projected!r} "
            f"(scale {scale:.3e})"]
