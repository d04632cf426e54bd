"""Spans and counts recorded around the program's public functions.

Nothing inside the program is traced: ``Tracer.install`` replaces module
attributes and two ``Graph`` methods with wrappers defined here, and
``Tracer.uninstall`` puts the originals back.  Spans record (name, start,
end, parent, item) and stay in memory until the run writes them out.  A
span's self time is its duration minus the durations of its children;
spans nest strictly, so the self times of an item's spans sum to the
item's own span.

Every ``*_ms`` metric is a self time and every other metric a count, each
averaged over the timed items.  Garbage-collector pauses overlap the spans
they interrupt, so ``gc.pause_ms`` is reported beside the self times, not
subtracted from them.
"""

from __future__ import annotations

import gc
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

from weakpair import autograd, cli, data, metrics, mining, training, verify

OPS = ("leaf", "add", "mul", "affine", "tanh", "exp", "log", "sigmoid",
       "l2_normalize", "cosine_matrix", "softmax_rows", "sum", "mean",
       "sum_rows", "detach")

ITEM = "bench.item"
SETUP = -1  # item id of every span recorded while setting up

# (module or class, attribute, span name) for every timed boundary.
SPANS = (
    (training, "train", "training"),
    (cli, "train", "training"),
    (training, "encode_step", "encoders.encode_step"),
    (training, "build_groups", "mining.build_groups"),
    (training, "assemble_losses", "losses.assemble"),
    (verify, "check_losses", "verify"),
    (verify, "random_instance", "verify.random_instance"),
    (cli, "main", "cli"),
    (data, "read", "data.read"),
    (data, "generate", "data.generate"),
    (cli, "load_checkpoint", "training.load_checkpoint"),
    (cli, "evaluate_model", "metrics.evaluate"),
    (metrics, "embed_manifest", "encoders.embed_manifest"),
    (metrics, "query_uncertainty", "metrics.query_uncertainty"),
    (metrics, "pr_curve", "metrics.pr_curve"),
    (metrics, "risk_coverage", "metrics.risk_coverage"),
    (metrics, "margin_tuples", "metrics.margins"),
    (metrics, "margin_stats", "metrics.margins"),
    (cli, "write_eval_outputs", "cli.write_outputs"),
    (cli, "write_resolved", "cli.write_outputs"),
)

# Per-layer metric name -> span name whose self time it reports.
SELF_TIMES = {
    "bench.self_ms": ITEM,
    "training.self_ms": "training",
    "encoders.encode_step_ms": "encoders.encode_step",
    "mining.build_groups_ms": "mining.build_groups",
    "losses.assemble_ms": "losses.assemble",
    "autograd.backward_ms": "autograd.backward",
    "verify.self_ms": "verify",
    "verify.random_instance_ms": "verify.random_instance",
    **{f"autograd.grad_check_ms.{n}": f"autograd.grad_check.{n}"
       for n in verify.LOSS_NAMES},
    "cli.self_ms": "cli",
    "data.read_ms": "data.read",
    "training.load_checkpoint_ms": "training.load_checkpoint",
    "metrics.evaluate_self_ms": "metrics.evaluate",
    "encoders.embed_manifest_ms": "encoders.embed_manifest",
    "metrics.query_uncertainty_ms": "metrics.query_uncertainty",
    "metrics.rank_queries_ms": "metrics.rank_queries",
    "metrics.pr_curve_ms": "metrics.pr_curve",
    "metrics.risk_coverage_ms": "metrics.risk_coverage",
    "metrics.margins_ms": "metrics.margins",
    "cli.write_outputs_ms": "cli.write_outputs",
}
COUNTS = ("mining.mine_calls", "autograd.graphs", "autograd.nodes",
          *(f"autograd.nodes.{op}" for op in OPS), "metrics.queries")
# Names of every per-layer metric, in the order they are printed.
PER_LAYER = ("bench.item_ms", *SELF_TIMES, *COUNTS, "gc.collections",
             "gc.pause_ms", "gc.max_pause_ms", "data.generate_ms")


class Tracer:
    """Records spans and counts while installed; one per traced run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.gc_pauses: dict[int, list[float]] = defaultdict(list)
        self.item = SETUP
        self._item_span = -1
        self._stack: list[int] = []  # indices into spans of the open spans
        self._undo: list[tuple[object, str, object]] = []
        self._grad_check_depth = 0
        self._pending_graph = None
        self._gc_started = 0.0

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.item))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        name, start, _, parent, item = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, item)

    def begin_item(self, item: int) -> None:
        self.item = item
        self._item_span = self._open(ITEM)

    def end_item(self) -> None:
        self._close(self._item_span)
        self.item = SETUP

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self.item][name] += n

    def _tally(self, graph) -> None:
        ops = Counter(node.op for node in graph.nodes)
        self.count("autograd.nodes", len(graph.nodes))
        for op, n in ops.items():
            self.count(f"autograd.nodes.{op}", n)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pauses[self.item].append(time.perf_counter() - self._gc_started)

    # -- installing wrappers -------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _timed(self, fn, name: str):
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return wrapper

    def install(self) -> None:
        for owner, attr, name in SPANS:
            self._patch(owner, attr, self._timed(getattr(owner, attr), name))
        tracer = self

        mine = mining.mine_hard_negatives

        def mine_hard_negatives(*args, **kwargs):
            tracer.count("mining.mine_calls")
            return mine(*args, **kwargs)

        self._patch(mining, "mine_hard_negatives", mine_hard_negatives)

        rank = metrics.rank_queries

        def rank_queries(*args, **kwargs):
            index = tracer._open("metrics.rank_queries")
            try:
                result = rank(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer.count("metrics.queries", len(result.queries))
            return result

        self._patch(metrics, "rank_queries", rank_queries)

        builder = verify.loss_builder

        def loss_builder(name, inst):
            fn = builder(name, inst)
            fn.bench_loss = name
            return fn

        self._patch(verify, "loss_builder", loss_builder)

        check = verify.grad_check

        def grad_check(loss_fn, params, *args, **kwargs):
            index = tracer._open(f"autograd.grad_check.{loss_fn.bench_loss}")
            tracer._grad_check_depth += 1
            try:
                return check(loss_fn, params, *args, **kwargs)
            finally:
                tracer._grad_check_depth -= 1
                if tracer._pending_graph is not None:
                    tracer._tally(tracer._pending_graph)
                    tracer._pending_graph = None
                tracer._close(index)

        self._patch(verify, "grad_check", grad_check)

        # Every graph a backward sees is tallied when backward starts.  A
        # grad_check build is tallied when the next graph is made, or when
        # the check returns, so at most one finished graph is kept alive.
        init = autograd.Graph.__init__

        def graph_init(graph, *args, **kwargs):
            init(graph, *args, **kwargs)
            tracer.count("autograd.graphs")
            if tracer._grad_check_depth:
                if tracer._pending_graph is not None:
                    tracer._tally(tracer._pending_graph)
                tracer._pending_graph = graph

        self._patch(autograd.Graph, "__init__", graph_init)

        backward = autograd.Graph.backward

        def graph_backward(graph, loss):
            index = tracer._open("autograd.backward")
            try:
                if not tracer._grad_check_depth:
                    tracer._tally(graph)
                return backward(graph, loss)
            finally:
                tracer._close(index)

        self._patch(autograd.Graph, "backward", graph_backward)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------------

    def self_times(self) -> dict[int, Counter]:
        """Per item, seconds of self time per span name."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out: dict[int, Counter] = defaultdict(Counter)
        for (name, _, _, _, item), seconds in zip(self.spans, own):
            out[item][name] += seconds
        return out

    def per_layer(self, n_items: int, setups: int) -> dict[str, dict]:
        """Every per-layer metric averaged over timed items 0 .. n_items-1."""
        selfs = self.self_times()
        items = range(n_items)

        def mean(values) -> float:
            return sum(values) / n_items

        out = {"bench.item_ms": (1000.0 * mean(
            end - start for name, start, end, _, item in self.spans
            if name == ITEM), "ms")}
        for metric, span in SELF_TIMES.items():
            out[metric] = (1000.0 * mean(selfs[i][span] for i in items), "ms")
        for name in COUNTS:
            out[name] = (mean(self.counts[i][name] for i in items), "count")
        out["gc.collections"] = (mean(len(self.gc_pauses[i]) for i in items), "count")
        out["gc.pause_ms"] = (1000.0 * mean(sum(self.gc_pauses[i]) for i in items), "ms")
        out["gc.max_pause_ms"] = (1000.0 * max(
            (p for i in items for p in self.gc_pauses[i]), default=0.0), "ms")
        out["data.generate_ms"] = (1000.0 * selfs[SETUP]["data.generate"] / setups, "ms")
        return {name: {"value": out[name][0], "unit": out[name][1]} for name in PER_LAYER}

    def write(self, path: Path) -> None:
        """One JSON array per span: name, start, end, parent index, item id."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
