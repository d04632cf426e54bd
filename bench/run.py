"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload train_gitm --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  With ``--trace 0`` the last line of stdout carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics.  Results and span traces
are also written under ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
# Set-up runs this many times per run; setup_s takes the median.
SETUPS = 3
WORKLOAD_NAMES = ("train_gitm", "gradcheck", "eval_gallery")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def timed_phase(workload, seconds: float, tracer) -> tuple[list[float], int]:
    """Whole rounds of items until ``seconds`` of wall time and two items have passed.

    Returns each item's wall time and the number of items that failed.
    Checks run between items with the item clock stopped.
    """
    durations, failed = [], 0
    started = time.perf_counter()
    while len(durations) < 2 or time.perf_counter() - started < seconds:
        for index in range(workload.round_items):
            if tracer is not None:
                tracer.begin_item(len(durations))
            t0 = time.perf_counter()
            try:
                workload.run_item(index)
                problems = None
            except Exception as exc:  # a failing item is counted, not fatal
                traceback.print_exc()
                problems = [f"{type(exc).__name__}: {exc}"]
            finally:
                durations.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.end_item()
            if problems is None:
                problems = workload.check_item(index)
            if problems:
                failed += 1
                print(f"item {len(durations) - 1} failed: {'; '.join(problems[:3])}",
                      file=sys.stderr)
    return durations, failed


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "weakpair" / "__init__.py").is_file():
        print(f"error: no weakpair sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import measure
    import workloads
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    import_s = time.perf_counter() - STARTED

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    if tracer is not None:
        tracer.install()
    try:
        setups = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
        gc.collect()
        durations, failed = timed_phase(workload, args.seconds, tracer)
        run_problems = workload.finish()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in run_problems:
        print(f"run check failed: {problem}", file=sys.stderr)

    if tracer is None:
        metrics = measure.end_to_end(durations, import_s + statistics.median(setups),
                                     workload.block_items)
    else:
        metrics = tracer.per_layer(len(durations), SETUPS)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    result = {"correct": not run_problems, "attempted": len(durations),
              "failed": failed, "metrics": metrics}
    line = json.dumps(result)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
