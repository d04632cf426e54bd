"""Synthetic multi-view image/text pair generation and the dataset file format.

Each identity owns a latent vector.  Its image for view v is a view-specific
linear map of the latent plus Gaussian noise; its text is a shared linear map
whose coordinates are independently masked per record, so descriptions from
different views of the same identity agree only partially.  That masking is
what makes same-identity cross-view pairs "weak": correlated but not
interchangeable.

File format (one dataset per file, UTF-8):
    line 1:  #weakpair-dataset v1 split=<tag> key=value ...  (generator config)
    line 2+: identity<TAB>view<TAB>image values<TAB>text values
Vector values are comma-separated decimals with 17 significant digits, which
round-trips IEEE float64 exactly.

In memory a dataset is columns (``DatasetManifest``): identity and view as
int64, image and text as float64 rows.  ``identity_groups`` groups the rows
by identity once; "record r's other records" is defined there alone.

The TSV is the dataset.  Beside it, ``write`` puts a binary companion
(see ``companion``), ``<name>.tsv.npy``, holding the columns as one
structured table (``identity``, ``view`` as ``<i8``; ``image``, ``text`` as
``<f8`` rows of the header's widths).  ``read`` decodes and checks the TSV's
header line, then takes the columns from the companion only when
``companion.load`` accepts it for the TSV's bytes with the header's dtype
and its records pass the checks ``write`` makes.  Otherwise it decodes and
parses the TSV's records, the only source of record errors.  Hand-written
TSVs need no companion.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import companion
from .companion import companion_path  # noqa: F401 -- where write puts the companion

FORMAT_VERSION = "v1"
_HEADER_MAGIC = "#weakpair-dataset"


class DatasetFormatError(ValueError):
    """Unreadable or inconsistent dataset file."""


@dataclass(frozen=True)
class GenConfig:
    num_identities: int = 240
    views_per_identity: int = 4
    latent_dim: int = 8
    raw_dim_image: int = 48
    raw_dim_text: int = 40
    view_noise: float = 0.35
    annotation_mask_rate: float = 0.3
    seed: int = 100

    def validate(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        counts = {
            "num_identities": self.num_identities,
            "views_per_identity": self.views_per_identity,
            "latent_dim": self.latent_dim,
            "raw_dim_image": self.raw_dim_image,
            "raw_dim_text": self.raw_dim_text,
        }
        for name, v in counts.items():
            if v < 1:
                raise ValueError(f"{name} must be >= 1, got {v}")
        if not (np.isfinite(self.view_noise) and self.view_noise >= 0):
            raise ValueError(f"view_noise must be finite and >= 0, got {self.view_noise}")
        if not 0.0 <= self.annotation_mask_rate < 1.0:
            raise ValueError(
                f"annotation_mask_rate must be in [0, 1), got {self.annotation_mask_rate}")


@dataclass
class PairRecord:
    """One identity/view observation: raw image and text feature vectors."""

    identity: int
    view: int
    image_raw: np.ndarray
    text_raw: np.ndarray


@dataclass
class DatasetManifest:
    """A dataset as columns, one row per record: identity and view, int64
    (n,); image and text, float64 C-contiguous (n, raw width)."""

    version: str
    gen_config: GenConfig
    identity: np.ndarray
    view: np.ndarray
    image: np.ndarray
    text: np.ndarray
    split_tag: str = "none"

    @property
    def records(self) -> list[PairRecord]:
        """One PairRecord per row, its vectors views of the columns."""
        return [PairRecord(*rec) for rec in zip(
            self.identity.tolist(), self.view.tolist(), self.image, self.text)]

    def identities(self) -> list[int]:
        return sorted(set(self.identity.tolist()))  # a plain np.unique imports numpy.ma

    def take(self, rows, split_tag: str | None = None) -> "DatasetManifest":
        """The records at rows (indices or a mask), in order, as new columns."""
        return DatasetManifest(self.version, self.gen_config, self.identity[rows],
                               self.view[rows], self.image[rows], self.text[rows],
                               self.split_tag if split_tag is None else split_tag)


@dataclass(frozen=True)
class IdentityGroups:
    """The one definition of a record's identity and its other records, for
    training, mining and metrics; identities numbered in ascending order."""

    inverse: np.ndarray  # (n,) each record's identity number
    counts: np.ndarray   # (identities,) records per identity
    grouped: np.ndarray  # (n,) the records, identity by identity, ascending within one
    first: np.ndarray    # (identities,) where each identity begins in grouped
    member: np.ndarray   # (n,) each record's place among its identity's records

    def other(self, rows: np.ndarray, k: np.ndarray) -> np.ndarray:
        """The k-th record of each row's identity other than the row itself."""
        return self.grouped[self.first[self.inverse[rows]] + k + (k >= self.member[rows])]

    def other_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every (record, other record of its identity) pair: records ascending,
        then each record's others ascending."""
        others = self.counts[self.inverse] - 1
        rows = np.repeat(np.arange(others.shape[0]), others)
        k = np.arange(rows.shape[0]) - np.repeat(np.cumsum(others) - others, others)
        return rows, self.other(rows, k)


def identity_groups(identity: np.ndarray) -> IdentityGroups:
    _, inverse, counts = np.unique(identity, return_inverse=True, return_counts=True)
    grouped = np.argsort(inverse, kind="stable")
    first = np.cumsum(counts) - counts
    member = np.empty_like(grouped)
    member[grouped] = np.arange(grouped.shape[0]) - first[inverse[grouped]]
    return IdentityGroups(inverse, counts, grouped, first, member)


def generate(cfg: GenConfig) -> DatasetManifest:
    """Deterministic dataset synthesis; a pure function of the config."""
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    scale = 1.0 / np.sqrt(cfg.latent_dim)
    view_maps = [rng.normal(0.0, scale, size=(cfg.raw_dim_image, cfg.latent_dim))
                 for _ in range(cfg.views_per_identity)]
    text_map = rng.normal(0.0, scale, size=(cfg.raw_dim_text, cfg.latent_dim))

    n, views = cfg.num_identities * cfg.views_per_identity, cfg.views_per_identity
    image = np.empty((n, cfg.raw_dim_image))
    text = np.empty((n, cfg.raw_dim_text))
    for identity in range(cfg.num_identities):
        latent = rng.normal(0.0, 1.0, size=cfg.latent_dim)
        for view in range(views):
            row = identity * views + view
            mask = rng.random(cfg.raw_dim_text) >= cfg.annotation_mask_rate
            image[row] = view_maps[view] @ latent
            image[row] += cfg.view_noise * rng.normal(0.0, 1.0, size=cfg.raw_dim_image)
            text[row] = mask * (text_map @ latent)
            text[row] += cfg.view_noise * rng.normal(0.0, 1.0, size=cfg.raw_dim_text)
    rows = np.arange(n, dtype=np.int64)
    return DatasetManifest(FORMAT_VERSION, cfg, rows // views, rows % views, image, text)


def split(d: DatasetManifest, train_fraction: float, seed: int
          ) -> tuple[DatasetManifest, DatasetManifest]:
    """Identity-disjoint train/test partition; record order is preserved."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    groups = identity_groups(d.identity)
    count = groups.counts.shape[0]
    if count < 2:
        raise ValueError("cannot split fewer than 2 identities")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    order = rng.permutation(count)
    n_train = int(round(count * train_fraction))
    n_train = min(max(n_train, 1), count - 1)
    train = np.isin(groups.inverse, order[:n_train])
    return d.take(train, "train"), d.take(~train, "test")


_CONFIG_FIELDS = tuple(f.name for f in fields(GenConfig))
_FLOAT_FIELDS = {f.name for f in fields(GenConfig) if isinstance(f.default, float)}
_COLUMNS = ("identity", "view", "image", "text")  # the manifest's, and the table's fields


def _table_dtype(cfg: GenConfig) -> np.dtype:
    return np.dtype([("identity", "<i8"), ("view", "<i8"),
                     ("image", "<f8", (cfg.raw_dim_image,)),
                     ("text", "<f8", (cfg.raw_dim_text,))])


def _record_problem(identity, view, image: np.ndarray, text: np.ndarray,
                    cfg: GenConfig, seen: set) -> str | None:
    """Why one record is invalid, or None (then its key joins seen)."""
    if not all(-2**63 <= key < 2**63 for key in (identity, view)):
        return "identity and view must be 64-bit integers"
    if not (np.isfinite(image).all() and np.isfinite(text).all()):
        return "non-finite vector entry"
    if image.shape != (cfg.raw_dim_image,) or text.shape != (cfg.raw_dim_text,):
        return "vector length mismatch"
    if (identity, view) in seen:
        return "duplicate (identity, view)"
    seen.add((identity, view))
    return None


def write(d: DatasetManifest, path: str | Path) -> None:
    """Write the TSV and its companion; a manifest ``read`` would reject
    raises ValueError, naming the header or record, before any file is written."""
    cfg = d.gen_config
    parts = [_HEADER_MAGIC, d.version, f"split={d.split_tag}"]
    for name in _CONFIG_FIELDS:
        value = getattr(cfg, name)
        rendered = format(value, ".17g") if name in _FLOAT_FIELDS else str(value)
        parts.append(f"{name}={rendered}")
    header = " ".join(parts)
    try:
        _parse_header(header, path)
    except DatasetFormatError as exc:
        raise ValueError(f"cannot write {exc}") from None
    columns = [np.asarray(d.identity), np.asarray(d.view),
               np.asarray(d.image, dtype=np.float64), np.asarray(d.text, dtype=np.float64)]
    rows = columns[0].shape[:1]
    if any(c.shape != rows for c in columns[:2]) or any(c.shape[:1] != rows for c in columns[2:]):
        raise ValueError(f"cannot write {path}: columns of shapes "
                         f"{[column.shape for column in columns]} are not one row per record")
    integral = all(column.dtype.kind in "iu" for column in columns[:2])
    seen: set[tuple[int, int]] = set()
    for index, record in enumerate(zip(*columns)):
        problem = (_record_problem(*record, cfg, seen) if integral
                   else "identity and view must be 64-bit integers")
        if problem:
            raise ValueError(f"cannot write {path}: record {index}: {problem}")
    table = np.zeros(rows, _table_dtype(cfg))
    for name, column in zip(_COLUMNS, columns):
        table[name] = column
    # One %-format per record; "%.17g" % x renders as format(x, ".17g") does.
    record = "\t".join(["%d", "%d", *(",".join(["%.17g"] * table[name].shape[1])
                                       for name in _COLUMNS[2:])])
    lines = [header]
    for identity, view, image, text in zip(*(table[name].tolist() for name in _COLUMNS)):
        lines.append(record % (identity, view, *image, *text))
    companion.write(path, ("\n".join(lines) + "\n").encode("utf-8"), [table])


def _decode(raw: bytes, path: str | Path) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the bad one decode; their line breaks, counted as
        # splitlines counts them, give the line it sits on.
        line = len((raw[:exc.start].decode("utf-8") + "x").splitlines()) - 1
        where = "header" if line == 0 else f"record {line - 1}"
        raise DatasetFormatError(
            f"{path}: {where}: not UTF-8 (byte 0x{raw[exc.start]:02x} at offset "
            f"{exc.start}: {exc.reason})") from None


def _parse_header(line: str, path: str | Path) -> tuple[GenConfig, str]:
    if not line.startswith(_HEADER_MAGIC):
        raise DatasetFormatError(f"{path}: missing dataset header")
    header = line.split()
    if len(header) < 2 or header[1] != FORMAT_VERSION:
        got = header[1] if len(header) > 1 else "<none>"
        raise DatasetFormatError(f"{path}: format version {got!r}, expected {FORMAT_VERSION!r}")
    kv: dict[str, str] = {}
    for token in header[2:]:
        if "=" not in token:
            raise DatasetFormatError(f"{path}: malformed header token {token!r}")
        key, _, value = token.partition("=")
        if key not in ("split", *_CONFIG_FIELDS):
            raise DatasetFormatError(f"{path}: unknown header key {key!r}")
        if key in kv:
            raise DatasetFormatError(f"{path}: repeated header key {key!r}")
        kv[key] = value
    try:
        split_tag = kv.pop("split")
        texts = {name: kv[name] for name in _CONFIG_FIELDS}
    except KeyError as exc:
        raise DatasetFormatError(f"{path}: header missing {exc}") from exc
    values = {}
    for name, text in texts.items():
        try:
            values[name] = float(text) if name in _FLOAT_FIELDS else int(text)
        except ValueError as exc:
            raise DatasetFormatError(f"{path}: header {name}: {exc}") from None
    cfg = GenConfig(**values)
    try:
        cfg.validate()
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: header: {exc}") from None
    return cfg, split_tag


def _companion_table(path: str | Path, raw: bytes, cfg: GenConfig) -> np.ndarray | None:
    """The table of path's companion if it is ``write``'s own for raw; else None."""
    arrays = companion.load(path, raw, [_table_dtype(cfg)])
    if arrays is None:
        return None
    table, = arrays
    if not (np.isfinite(table["image"]).all() and np.isfinite(table["text"]).all()):
        return None
    if len(set(zip(table["identity"].tolist(), table["view"].tolist()))) != len(table):
        return None
    return table


def _parse_records(lines: list[str], cfg: GenConfig, path: str | Path) -> np.ndarray:
    """The table of the record lines, as ``write`` puts it in the companion."""
    records = []
    seen: set[tuple[int, int]] = set()
    for index, line in enumerate(lines):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise DatasetFormatError(f"{path}: record {index}: expected 4 fields, got {len(fields)}")
        try:
            identity, view = int(fields[0]), int(fields[1])
            # One conversion per vector; entries parse as Python's float() does.
            image = np.array(fields[2].split(","), dtype=np.float64)
            text_vec = np.array(fields[3].split(","), dtype=np.float64)
        except ValueError as exc:
            raise DatasetFormatError(f"{path}: record {index}: {exc}") from exc
        problem = _record_problem(identity, view, image, text_vec, cfg, seen)
        if problem:
            raise DatasetFormatError(f"{path}: record {index}: {problem}")
        records.append((identity, view, image, text_vec))
    return np.array(records, dtype=_table_dtype(cfg))


def read(path: str | Path) -> DatasetManifest:
    raw = Path(path).read_bytes()
    # Only the header line is decoded unless the records are parsed; cut after
    # its line break, a broken character in it decodes as in the whole text.
    end = raw.find(b"\n")
    first = _decode(raw if end < 0 else raw[:end + 1], path).splitlines()
    cfg, split_tag = _parse_header(first[0] if first else "", path)
    table = _companion_table(path, raw, cfg)
    if table is None:
        table = _parse_records(_decode(raw, path).splitlines()[1:], cfg, path)
    return DatasetManifest(FORMAT_VERSION, cfg,
                           *(np.ascontiguousarray(table[name]) for name in _COLUMNS), split_tag)
