"""Held-out mAP of the three ablation modes over many seeds, as paired deltas.

Trains acceptance criterion 07's configuration, the default config at 60
epochs (``byte_identity.CRITERION_07``, which ``tests/test_digests.py`` pins
to ``tests/test_acceptance.py``'s ``GEN``, ``TRAIN``, split and eval seed),
through ``cli.run_grid`` for every seed and every mode of baseline, uitc
and uitc_gitm, then prints one row per seed and the paired deltas
uitc - baseline and uitc_gitm - uitc: mean, standard error and the number
of seeds on which the delta is positive.  Pairing by seed
removes the seed-to-seed spread of mAP, which is far larger than the GITM
effect, so two checkouts can be compared on the deltas:

    python3 scripts/paired_study.py               # seeds 1-20
    python3 scripts/paired_study.py --seeds 1-5

Deterministic: two runs of one checkout print the same text.  Takes a few
minutes on one core for 20 seeds.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from byte_identity import criterion_07_runs  # noqa: E402
from weakpair.training import ABLATION_MODES  # noqa: E402

PAIRS = (("uitc", "baseline"), ("uitc_gitm", "uitc"))


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def held_out_maps(seeds: list[int]) -> dict[str, list[float]]:
    """mode -> held-out mAP per seed, in seeds' order."""
    maps: dict[str, list[float]] = {mode: [] for mode in ABLATION_MODES}
    for run in criterion_07_runs(seeds):
        maps[run.cell].append(run.result.mean_ap)
    return maps


def paired_summary(after: list[float], before: list[float]) -> str:
    """Mean, standard error and positive count of the per-seed deltas."""
    deltas = np.subtract(after, before)
    se = float(deltas.std(ddof=1)) / math.sqrt(deltas.size) if deltas.size > 1 else math.nan
    return (f"{float(deltas.mean()):+.6f} (SE {se:.6f}, positive on "
            f"{int(np.count_nonzero(deltas > 0))}/{deltas.size} seeds, "
            f"range {float(deltas.min()):+.6f} to {float(deltas.max()):+.6f})")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-20"),
                        help="inclusive seed range FIRST-LAST (default 1-20)")
    seeds = parser.parse_args(argv).seeds
    maps = held_out_maps(seeds)
    print("seed " + " ".join(f"{mode:>12}" for mode in ABLATION_MODES))
    for row, seed in enumerate(seeds):
        print(f"{seed:4d} " + " ".join(f"{maps[mode][row]:12.6f}" for mode in ABLATION_MODES))
    for after, before in PAIRS:
        print(f"{after} - {before}: {paired_summary(maps[after], maps[before])}")


if __name__ == "__main__":
    main()
