"""Dataset synthesis, splitting, and file round-trips."""

import re

import numpy as np
import pytest

from weakpair.data import (DatasetFormatError, GenConfig, generate,
                           manifests_equal, read, split, write)


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
        by_id = d.by_identity()
        for records in by_id.values():
            np.testing.assert_array_equal(records[0].text_raw, records[1].text_raw)

    def test_identity_view_keys_unique(self):
        d = generate(cfg())
        keys = [(r.identity, r.view) for r in d.records]
        assert len(keys) == len(set(keys))

    def test_weak_pair_signal(self):
        """Masked same-identity texts correlate less than 1, more than strangers."""
        d = generate(cfg(num_identities=120, views_per_identity=2,
                         latent_dim=8, raw_dim_text=24, raw_dim_image=6,
                         view_noise=0.05, annotation_mask_rate=0.3, seed=1))
        by_id = d.by_identity()

        def cos(a, b):
            return float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))

        same = [cos(recs[0].text_raw, recs[1].text_raw) for recs in by_id.values()]
        ids = sorted(by_id)
        cross = [cos(by_id[ids[i]][0].text_raw, by_id[ids[i + 1]][0].text_raw)
                 for i in range(len(ids) - 1)]
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
        for line, rec in zip(path.read_text().splitlines()[1:], back.records):
            fields = line.split("\t")
            for got, field in ((rec.image_raw, fields[2]), (rec.text_raw, fields[3])):
                want = np.array([float(x) for x in field.split(",")])
                assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("damage, message", [
        (lambda f: f[:3], "expected 4 fields, got 3"),
        (lambda f: f[:2] + [f[2].replace(",", ",x", 1), f[3]], "could not convert"),
        (lambda f: f[:2] + [f[2], "inf" + f[3][f[3].index(","):]], "non-finite"),
        (lambda f: f[:2] + [f[2] + ",1.0", f[3]], "vector length mismatch"),
        (lambda f: ["0", "0"] + f[2:], "duplicate"),
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


@given(rows=st.lists(st.tuples(_finite, _finite, _finite, _finite),
                     min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_any_finite_values_round_trip(rows, tmp_path_factory):
    """17-significant-digit rendering is lossless for every float64."""
    d = generate(cfg(num_identities=len(rows), views_per_identity=1,
                     raw_dim_image=2, raw_dim_text=2))
    for rec, (a, b, c, e) in zip(d.records, rows):
        rec.image_raw = np.array([a, b])
        rec.text_raw = np.array([c, e])
    path = tmp_path_factory.mktemp("rt") / "data.tsv"
    write(d, path)
    back = read(path)
    for rec, orig in zip(back.records, d.records):
        np.testing.assert_array_equal(rec.image_raw, orig.image_raw)
        np.testing.assert_array_equal(rec.text_raw, orig.text_raw)


def test_header_lists_the_generator_config_in_field_order(tmp_path):
    write(generate(cfg()), tmp_path / "d.tsv")
    assert (tmp_path / "d.tsv").read_text().splitlines()[0] == (
        "#weakpair-dataset v1 split=none num_identities=4 views_per_identity=2 "
        "latent_dim=3 raw_dim_image=5 raw_dim_text=4 view_noise=0.10000000000000001 "
        "annotation_mask_rate=0.29999999999999999 seed=42")
