"""The names the benchmark reaches into still exist and still behave.

bench/tracing.py wraps functions of weakpair's modules by name, and
bench/workloads.py reads model and dataset attributes when it checks a
round.  These tests install the tracer and run a small training round
through the benchmark's own check, so a rename that would break
``bench/run.py`` fails here.
"""

from pathlib import Path

import pytest

BENCH = str(Path(__file__).resolve().parent.parent / "bench")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)


def test_tracer_installs_and_uninstalls(bench):
    import tracing

    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in tracing.SPANS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in originals)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)


def test_a_small_training_round_passes_the_bench_checks(bench, tmp_path):
    import dataclasses

    import workloads

    class SmallTrain(workloads.TrainGitm):
        OVERRIDES = ["gen.num_identities=24", "gen.views_per_identity=3"]

        def __init__(self, seed, workdir):
            super().__init__(seed, workdir)
            self.cfg = dataclasses.replace(self.cfg, epochs=3, batch_size=8)
            self.round_items = self.block_items = self.cfg.epochs

    w = SmallTrain(3, tmp_path)
    w.setup()
    for index in range(w.round_items):
        w.run_item(index)
        assert w.check_item(index) == [], index
    assert w.final_params is not None  # the round-end check ran
