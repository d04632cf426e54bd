"""Dataset synthesis, splitting, and file round-trips."""

import re

import numpy as np
import pytest

import dataclasses
import hashlib

from weakpair import data
from weakpair.data import (DatasetFormatError, GenConfig, companion_path, generate,
                           identity_groups, read, split, write)

COLUMNS = ("identity", "view", "image", "text")


def manifests_equal(a, b):
    """Same version, generator config, split tag and columns."""
    return ((a.version, a.gen_config, a.split_tag) == (b.version, b.gen_config, b.split_tag)
            and all(np.array_equal(getattr(a, c), getattr(b, c)) for c in COLUMNS))


def texts_by_identity(d):
    return {i: d.text[d.identity == i] for i in d.identities()}


def cfg(**overrides):
    base = dict(num_identities=4, views_per_identity=2, latent_dim=3,
                raw_dim_image=5, raw_dim_text=4, view_noise=0.1,
                annotation_mask_rate=0.3, seed=42)
    base.update(overrides)
    return GenConfig(**base)


class TestGenerate:
    def test_record_count(self):
        assert len(generate(cfg()).records) == 8

    def test_same_seed_is_bit_identical(self):
        assert manifests_equal(generate(cfg()), generate(cfg()))

    def test_different_seed_differs(self):
        assert not manifests_equal(generate(cfg()), generate(cfg(seed=43)))

    def test_noiseless_unmasked_text_identical_across_views(self):
        d = generate(cfg(annotation_mask_rate=0.0, view_noise=0.0))
        for texts in texts_by_identity(d).values():
            np.testing.assert_array_equal(texts[0], texts[1])

    def test_identity_view_keys_unique(self):
        d = generate(cfg())
        keys = [(r.identity, r.view) for r in d.records]
        assert len(keys) == len(set(keys))

    def test_weak_pair_signal(self):
        """Masked same-identity texts correlate less than 1, more than strangers."""
        d = generate(cfg(num_identities=120, views_per_identity=2,
                         latent_dim=8, raw_dim_text=24, raw_dim_image=6,
                         view_noise=0.05, annotation_mask_rate=0.3, seed=1))
        by_id = texts_by_identity(d)

        def cos(a, b):
            return float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))

        same = [cos(texts[0], texts[1]) for texts in by_id.values()]
        ids = sorted(by_id)
        cross = [cos(by_id[ids[i]][0], by_id[ids[i + 1]][0]) for i in range(len(ids) - 1)]
        assert np.mean(cross) < np.mean(same) < 1.0

    @pytest.mark.parametrize("bad", [dict(num_identities=0), dict(latent_dim=0),
                                     dict(view_noise=-0.1),
                                     dict(annotation_mask_rate=1.0),
                                     dict(annotation_mask_rate=1.2), dict(seed=-1)])
    def test_config_validation(self, bad):
        with pytest.raises(ValueError):
            generate(cfg(**bad))


class TestSplit:
    def test_counts(self):
        train, test = split(generate(cfg(num_identities=10)), 0.8, seed=0)
        assert len(train.identities()) == 8
        assert len(test.identities()) == 2

    def test_identity_disjoint_and_union_preserved(self):
        d = generate(cfg(num_identities=10))
        train, test = split(d, 0.7, seed=3)
        assert not set(train.identities()) & set(test.identities())
        assert len(train.records) + len(test.records) == len(d.records)
        assert np.array_equal(np.sort(np.concatenate([train.image, test.image]), axis=0),
                              np.sort(d.image, axis=0))
        assert train.split_tag == "train" and test.split_tag == "test"

    def test_same_seed_same_split(self):
        d = generate(cfg(num_identities=10))
        a = split(d, 0.8, seed=5)
        b = split(d, 0.8, seed=5)
        assert a[0].identities() == b[0].identities()

    def test_too_few_identities(self):
        with pytest.raises(ValueError):
            split(generate(cfg(num_identities=1)), 0.5, seed=0)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            split(generate(cfg()), 1.0, seed=0)


class TestIO:
    def test_round_trip_exact(self, tmp_path):
        d = generate(cfg())
        path = tmp_path / "data.tsv"
        write(d, path)
        assert manifests_equal(read(path), d)

    def test_round_trip_after_split(self, tmp_path):
        train, _ = split(generate(cfg(num_identities=6)), 0.5, seed=1)
        path = tmp_path / "train.tsv"
        write(train, path)
        assert manifests_equal(read(path), train)

    def test_write_is_deterministic(self, tmp_path):
        d = generate(cfg())
        write(d, tmp_path / "a.tsv")
        write(d, tmp_path / "b.tsv")
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
        assert companion_path(tmp_path / "a.tsv").read_bytes() == \
            companion_path(tmp_path / "b.tsv").read_bytes()

    def test_corrupt_record_names_index(self, tmp_path):
        d = generate(cfg())
        path = tmp_path / "data.tsv"
        write(d, path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace("\t", " ", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="record 2"):
            read(path)

    def test_bad_float_names_index(self, tmp_path):
        d = generate(cfg())
        path = tmp_path / "data.tsv"
        write(d, path)
        lines = path.read_text().splitlines()
        fields = lines[1].split("\t")
        fields[2] = "not,a,number"
        lines[1] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="record 0"):
            read(path)

    def test_vectors_equal_per_entry_float_parse(self, tmp_path):
        d = generate(cfg(num_identities=30, views_per_identity=3,
                         raw_dim_image=48, raw_dim_text=40))
        path = tmp_path / "data.tsv"
        write(d, path)
        back = read(path)
        for line, image, text in zip(path.read_text().splitlines()[1:], back.image, back.text):
            fields = line.split("\t")
            for got, field in ((image, fields[2]), (text, fields[3])):
                want = np.array([float(x) for x in field.split(",")])
                assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("damage, message", [
        (lambda f: f[:3], "expected 4 fields, got 3"),
        (lambda f: f[:2] + [f[2].replace(",", ",x", 1), f[3]], "could not convert"),
        (lambda f: f[:2] + [f[2], "inf" + f[3][f[3].index(","):]], "non-finite"),
        (lambda f: f[:2] + [f[2] + ",1.0", f[3]], "vector length mismatch"),
        (lambda f: ["0", "0"] + f[2:], "duplicate"),
        (lambda f: [str(2**63)] + f[1:], "identity and view must be 64-bit integers"),
        (lambda f: [f[0], str(-2**63 - 1)] + f[2:], "identity and view must be 64-bit"),
    ])
    def test_each_check_names_the_record(self, tmp_path, damage, message):
        path = tmp_path / "data.tsv"
        write(generate(cfg()), path)
        lines = path.read_text().splitlines()
        lines[5] = "\t".join(damage(lines[5].split("\t")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=f"record 4: {message}"):
            read(path)

    def test_empty_record_file(self, tmp_path):
        d = generate(cfg())
        path = tmp_path / "empty.tsv"
        write(d, path)
        header = path.read_text().splitlines()[0]
        path.write_text(header + "\n")
        out = read(path)
        assert out.records == [] and out.gen_config == d.gen_config
        assert [getattr(out, c).shape for c in COLUMNS] == [(0,), (0,), (0, 5), (0, 4)]

    def test_version_mismatch(self, tmp_path):
        d = generate(cfg())
        path = tmp_path / "data.tsv"
        write(d, path)
        path.write_text(path.read_text().replace("v1", "v9", 1))
        with pytest.raises(DatasetFormatError, match="version"):
            read(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("1\t0\t1.0\t2.0\n")
        with pytest.raises(DatasetFormatError, match="header"):
            read(path)

    @pytest.mark.parametrize("key, value, message", [
        ("num_identities", "abc", "header num_identities: invalid literal"),
        ("view_noise", "xyz", "header view_noise: could not convert"),
        ("raw_dim_image", "-1", "header: raw_dim_image must be >= 1, got -1"),
        ("annotation_mask_rate", "1.5", r"header: annotation_mask_rate must be in \[0, 1\)"),
    ])
    def test_bad_header_value_names_the_key(self, tmp_path, key, value, message):
        path = tmp_path / "data.tsv"
        write(generate(cfg()), path)
        path.write_text(re.sub(rf"{key}=\S+", f"{key}={value}", path.read_text(), count=1))
        with pytest.raises(DatasetFormatError, match=message):
            read(path)

    @pytest.mark.parametrize("extra, message", [
        ("colour=red", "unknown header key 'colour'"),
        ("seed=5", "repeated header key 'seed'"),
        ("split=test", "repeated header key 'split'"),
    ])
    def test_header_key_unknown_or_repeated(self, tmp_path, extra, message):
        """A header key is one of the written ones, and appears once."""
        path = tmp_path / "data.tsv"
        write(generate(cfg()), path)
        header, rest = path.read_text().split("\n", 1)
        path.write_text(f"{header} {extra}\n{rest}")
        with pytest.raises(DatasetFormatError, match=message):
            read(path)


from hypothesis import given, settings, strategies as st

_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def with_values(rows):
    """A one-view dataset whose image and text columns hold rows' 4 values each."""
    d = generate(cfg(num_identities=len(rows), views_per_identity=1,
                     raw_dim_image=2, raw_dim_text=2))
    values = np.array(rows, dtype=np.float64)
    d.image[:], d.text[:] = values[:, :2], values[:, 2:]
    return d


@given(rows=st.lists(st.tuples(_finite, _finite, _finite, _finite),
                     min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_any_finite_values_round_trip(rows, tmp_path_factory):
    """17-significant-digit rendering is lossless for every float64."""
    d = with_values(rows)
    path = tmp_path_factory.mktemp("rt") / "data.tsv"
    write(d, path)
    back = read(path)
    np.testing.assert_array_equal(back.image, d.image)
    np.testing.assert_array_equal(back.text, d.text)


_edge = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                         -2.2250738585072014e-308, 1.7976931348623157e308,
                         -1.7976931348623157e308])


@given(data=st.data(), image_width=st.integers(1, 4), text_width=st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_records_render_as_per_entry_format(data, image_width, text_width, tmp_path_factory):
    """Each TSV record line is identity, view and every entry's
    format(x, ".17g"), over arbitrary finite float64 with signed zeros,
    subnormals and the largest magnitudes, and over any int64 keys."""
    n = data.draw(st.integers(1, 5))
    d = generate(cfg(num_identities=n, views_per_identity=1,
                     raw_dim_image=image_width, raw_dim_text=text_width))
    d.identity[:] = data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n,
                                       max_size=n, unique=True))
    d.view[:] = data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n))
    values = st.lists(_finite | _edge, min_size=image_width + text_width,
                      max_size=image_width + text_width)
    rows = np.array(data.draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)
    d.image[:], d.text[:] = rows[:, :image_width], rows[:, image_width:]
    path = tmp_path_factory.mktemp("fmt") / "data.tsv"
    write(d, path)
    want = ["\t".join([str(identity), str(view), ",".join(format(x, ".17g") for x in image),
                       ",".join(format(x, ".17g") for x in text)])
            for identity, view, image, text in zip(d.identity.tolist(), d.view.tolist(),
                                                   d.image.tolist(), d.text.tolist())]
    assert path.read_text().split("\n")[1:] == want + [""]


def test_header_lists_the_generator_config_in_field_order(tmp_path):
    write(generate(cfg()), tmp_path / "d.tsv")
    assert (tmp_path / "d.tsv").read_text().splitlines()[0] == (
        "#weakpair-dataset v1 split=none num_identities=4 views_per_identity=2 "
        "latent_dim=3 raw_dim_image=5 raw_dim_text=4 view_noise=0.10000000000000001 "
        "annotation_mask_rate=0.29999999999999999 seed=42")


# -- the binary companion ---------------------------------------------------

def same_records(a, b):
    """Equal manifests, columns compared by dtype, shape and bytes (so -0.0
    differs from 0.0); a's are contiguous int64 and float64 columns."""
    assert (a.version, a.gen_config, a.split_tag) == (b.version, b.gen_config, b.split_tag)
    for name, dtype in zip(COLUMNS, (np.int64, np.int64, np.float64, np.float64)):
        va, vb = getattr(a, name), getattr(b, name)
        assert va.dtype == vb.dtype == dtype and va.shape == vb.shape
        assert va.flags.c_contiguous and va.tobytes() == vb.tobytes()


def outcome(path):
    """read(path), or the text of the DatasetFormatError it raises."""
    try:
        return read(path)
    except DatasetFormatError as exc:
        return str(exc)


def parse_only(path):
    """outcome(path) with the companion moved aside, so the TSV is parsed."""
    companion = companion_path(path)
    held = companion.with_name(companion.name + ".held")
    if companion.exists():
        companion.rename(held)
    try:
        return outcome(path)
    finally:
        if held.exists():
            held.rename(companion)


def save_companion(path, table):
    """A companion for the TSV at path whose digest is right for table."""
    digest = hashlib.sha256(path.read_bytes() + table.tobytes()).digest()
    with open(companion_path(path), "wb") as handle:
        np.save(handle, np.frombuffer(digest, dtype=np.uint8))
        np.save(handle, table)


def load_table(path):
    with open(companion_path(path), "rb") as handle:
        np.load(handle)
        return np.load(handle)


def edit_value(path):
    lines = path.read_text().splitlines()
    fields = lines[3].split("\t")
    fields[2] = "0.5," + fields[2].split(",", 1)[1]
    lines[3] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n")


def break_record(path):
    lines = path.read_text().splitlines()
    lines[5] = lines[5].replace("\t", " ", 1)
    path.write_text("\n".join(lines) + "\n")


def swapped_widths(path):
    """The records with the image and text widths exchanged, bytes unchanged."""
    table = load_table(path)
    image, text = table.dtype["image"].shape[0], table.dtype["text"].shape[0]
    return table.view([("identity", "<i8"), ("view", "<i8"),
                       ("image", "<f8", (text,)), ("text", "<f8", (image,))])


def with_nonfinite(path):
    table = load_table(path)
    table["image"][2, 1] = np.inf
    return table


def with_duplicate(path):
    table = load_table(path)
    table[["identity", "view"]][1] = table[["identity", "view"]][0]
    return table


def damage(case, path, tmp_path):
    companion = companion_path(path)
    if case == "missing":
        companion.unlink()
    elif case == "stale":
        edit_value(path)
    elif case == "stale_malformed":
        break_record(path)
    elif case == "truncated":
        companion.write_bytes(companion.read_bytes()[:-9])
    elif case == "garbage":
        companion.write_bytes(np.random.default_rng(0).bytes(600))
    elif case == "npz":
        table = load_table(path)
        with open(companion, "wb") as handle:
            np.savez(handle, digest=np.zeros(32, np.uint8), table=table)
    elif case == "foreign":
        other = tmp_path / "other.tsv"
        write(generate(cfg(seed=7)), other)
        companion.write_bytes(companion_path(other).read_bytes())
    else:
        save_companion(path, {"wrong_dtype": swapped_widths, "nonfinite": with_nonfinite,
                              "duplicate": with_duplicate}[case](path))


@pytest.mark.parametrize("case", ["missing", "stale", "stale_malformed", "truncated",
                                  "garbage", "npz", "foreign", "wrong_dtype", "nonfinite",
                                  "duplicate"])
def test_unusable_companion_gives_what_the_parse_gives(tmp_path, monkeypatch, case):
    """Whatever is wrong with the companion, read returns the parse's manifest
    or raises the parse's message; it never reads the companion's records."""
    path = tmp_path / "data.tsv"
    d = generate(cfg())
    write(d, path)
    damage(case, path, tmp_path)
    parses = []
    parse = data._parse_records
    monkeypatch.setattr(data, "_parse_records", lambda *a: parses.append(1) or parse(*a))
    got = outcome(path)
    assert parses == [1]
    want = parse_only(path)
    if isinstance(want, str):
        assert got == want and "record 4: expected 4 fields" in want
    else:
        same_records(got, want)
        assert manifests_equal(want, d) == (case != "stale")


def test_valid_companion_is_read_without_parsing(tmp_path, monkeypatch):
    path = tmp_path / "data.tsv"
    d = generate(cfg())
    write(d, path)

    def no_parse(*args):
        raise AssertionError("records parsed from the TSV")

    monkeypatch.setattr(data, "_parse_records", no_parse)
    decoded = []
    decode = data._decode
    monkeypatch.setattr(data, "_decode", lambda raw, path: decoded.append(raw) or decode(raw, path))
    same_records(read(path), d)
    # Only the header line is decoded, through its line break.
    assert decoded == [path.read_bytes().split(b"\n")[0] + b"\n"]
    companion_path(path).unlink()
    with pytest.raises(AssertionError, match="parsed"):
        read(path)


_edge = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         1e308, -1e308, 1.7976931348623157e308])


@given(rows=st.lists(st.tuples(*[st.one_of(_edge, _finite)] * 4), min_size=1, max_size=6),
       split_tag=st.sampled_from(["none", "test", ""]))
@settings(max_examples=80, deadline=None)
def test_companion_read_equals_parse_bit_for_bit(rows, split_tag, tmp_path_factory):
    d = dataclasses.replace(with_values(rows), split_tag=split_tag)
    path = tmp_path_factory.mktemp("bits") / "data.tsv"
    write(d, path)
    with_companion = read(path)
    companion_path(path).unlink()
    parsed = read(path)
    same_records(with_companion, parsed)
    same_records(with_companion, d)


def set_entry(d, column, row, value, dtype=None):
    """Set one entry of d's column, first cast to dtype if given."""
    values = getattr(d, column).astype(dtype or getattr(d, column).dtype)
    values[row] = value
    setattr(d, column, values)


@pytest.mark.parametrize("change, message", [
    (lambda d: set_entry(d, "image", (2, 1), np.nan), "record 2: non-finite vector entry"),
    (lambda d: setattr(d, "text", np.ones((8, 5))), "record 0: vector length mismatch"),
    (lambda d: set_entry(d, "view", 5, 0), "record 5: duplicate (identity, view)"),
    (lambda d: set_entry(d, "identity", 1, 2**63, np.uint64), "record 1: identity and view must be"),
    (lambda d: set_entry(d, "identity", 1, 0, float), "record 0: identity and view must be"),
    (lambda d: set_entry(d, "view", 6, 2**63, np.uint64), "record 6: identity and view must be"),
    (lambda d: setattr(d, "view", d.view[:7]),
     "columns of shapes [(8,), (7,), (8, 5), (8, 4)] are not one row per record"),
])
def test_write_refuses_a_record_read_would_reject(tmp_path, change, message):
    """Columns write would put in a file that read rejects: the first bad
    record is named with its first problem, and no file is written."""
    d = generate(cfg())
    change(d)
    path = tmp_path / "data.tsv"
    with pytest.raises(ValueError, match=re.escape(f"cannot write {path}: {message}")):
        write(d, path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("change, message", [
    (dict(version="v9"), "format version 'v9'"),
    (dict(split_tag="a b"), "malformed header token 'b'"),
    (dict(gen_config=dataclasses.replace(cfg(), raw_dim_text=0)),
     "header: raw_dim_text must be >= 1"),
])
def test_write_refuses_a_header_read_would_reject(tmp_path, change, message):
    path = tmp_path / "data.tsv"
    with pytest.raises(ValueError, match=re.escape(message)):
        write(dataclasses.replace(generate(cfg()), **change), path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("where, offset", [
    ("header", lambda raw: 10),
    ("record 0", lambda raw: raw.index(b"\n") + 3),
    ("record 8", len),  # after the last line break: the line after record 7
])
def test_non_utf8_byte_names_the_line(tmp_path, where, offset):
    path = tmp_path / "data.tsv"
    write(generate(cfg()), path)
    raw = path.read_bytes()
    at = offset(raw)
    path.write_bytes(raw[:at] + b"\xff" + raw[at:])
    with pytest.raises(DatasetFormatError) as info:
        read(path)
    assert str(info.value) == (f"{path}: {where}: not UTF-8 (byte 0xff at offset {at}: "
                               f"invalid start byte)")


@given(identity=st.lists(st.integers(-3, 3), max_size=12), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_other_is_the_kth_other_record_of_the_identity(identity, seed):
    """other(rows, k) against a brute-force list per record of its identity's
    other records in record order, over unsorted identities and singletons."""
    identity = np.array(identity, dtype=np.int64)
    groups = identity_groups(identity)
    others = [[o for o in range(len(identity)) if identity[o] == identity[r] and o != r]
              for r in range(len(identity))]
    assert groups.counts[groups.inverse].tolist() == [len(o) + 1 for o in others]
    pairs = [(r, k) for r, o in enumerate(others) for k in range(len(o))]
    rows = np.array([r for r, _ in pairs], dtype=np.intp)
    ks = np.array([k for _, k in pairs], dtype=np.intp)
    assert groups.other(rows, ks).tolist() == [others[r][k] for r, k in pairs]
    # The same through one random row order, as batches index it.
    order = np.random.default_rng(seed).permutation(len(pairs))
    assert groups.other(rows[order], ks[order]).tolist() == [others[r][k] for r, k in
                                                             (pairs[i] for i in order)]


@given(identity=st.lists(st.integers(-5, 5).map(lambda i: 3 * i), max_size=16))
@settings(max_examples=200, deadline=None)
def test_other_pairs_are_every_same_identity_pair(identity):
    """other_pairs against a brute-force list of (record, other record of its
    identity), over unsorted, gapped and negative identities with singletons."""
    identity = np.array(identity, dtype=np.int64)
    rows, others = identity_groups(identity).other_pairs()
    n = identity.shape[0]
    want = [(r, o) for r in range(n) for o in range(n) if identity[o] == identity[r] and o != r]
    assert rows.dtype.kind == others.dtype.kind == "i"
    assert list(zip(rows.tolist(), others.tolist())) == want
