"""Binary companions: written atomically, and read only for their own text."""

import numpy as np
import pytest

from weakpair import companion, data, training
from weakpair.companion import companion_path
from weakpair.data import GenConfig, generate
from weakpair.training import TrainConfig, load_checkpoint, save_checkpoint, train

from test_data import manifests_equal


def write_twice(kind, path):
    """Write one state of kind to path; return a writer of a second state."""
    if kind == "dataset":
        cfg = GenConfig(num_identities=6, views_per_identity=2, latent_dim=3,
                        raw_dim_image=5, raw_dim_text=4)
        data.write(generate(cfg), path)
        return lambda: data.write(generate(GenConfig(**{**vars(cfg), "seed": 5})), path)
    d = generate(GenConfig(num_identities=8, views_per_identity=2, latent_dim=3,
                           raw_dim_image=5, raw_dim_text=4))
    cfg = TrainConfig(epochs=1, batch_size=4, embed_dim=4, hidden_dim=6)
    first, _ = train(cfg, d, stop_at_step=1)
    save_checkpoint(first, path)
    second, _ = train(cfg, d)
    return lambda: save_checkpoint(second, path)


def test_load_returns_the_arrays_only_for_their_own_text(tmp_path):
    path = tmp_path / "f.txt"
    arrays = [np.arange(3.0), np.array([7], dtype=np.int64)]
    companion.write(path, b"text", arrays)
    assert path.read_bytes() == b"text"
    got = companion.load(path, b"text", [a.dtype for a in arrays])
    assert [a.tobytes() for a in got] == [a.tobytes() for a in arrays]
    assert companion.load(path, b"other text", [a.dtype for a in arrays]) is None
    assert companion.load(path, b"text", [np.dtype(np.float32), arrays[1].dtype]) is None
    companion.write(path, b"text", None)
    assert not companion_path(path).exists()
    assert companion.load(path, b"text", [a.dtype for a in arrays]) is None


@pytest.mark.parametrize("kind", ["dataset", "checkpoint"])
def test_interrupted_write_leaves_the_old_files(tmp_path, monkeypatch, kind):
    """A write stopped before its move into place leaves the old text and
    companion whole, and no temporary file."""
    path = tmp_path / "f"
    second = write_twice(kind, path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(companion.os, "replace", interrupt)
    with pytest.raises(KeyboardInterrupt):
        second()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("kind", ["dataset", "checkpoint"])
def test_write_stopped_between_the_files_reads_the_new_text(tmp_path, monkeypatch, kind):
    """The new text beside the old companion: the companion is stale, so
    the reader parses the text and gets the new state."""
    path = tmp_path / "f"
    second = write_twice(kind, path)
    read = data.read if kind == "dataset" else load_checkpoint
    second()
    want, new_text = read(path), path.read_bytes()
    write_twice(kind, path)
    stale = companion_path(path).read_bytes()

    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(companion.np, "save", interrupt)
    with pytest.raises(KeyboardInterrupt):
        second()
    monkeypatch.undo()
    assert path.read_bytes() == new_text
    assert companion_path(path).read_bytes() == stale
    if kind == "dataset":
        assert manifests_equal(read(path), want)
    else:
        assert training.checkpoints_equal(read(path), want)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f", "f.npy"]

