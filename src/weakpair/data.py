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

The TSV is the dataset.  Beside it, ``write`` puts a binary companion
(see ``companion``), ``<name>.tsv.npy``, holding the records as one
structured table (``identity``, ``view`` as ``<i8``; ``image``, ``text`` as
``<f8`` rows of the header's widths).  ``read`` parses and checks the TSV's
header line, then takes the records from the companion only when
``companion.load`` accepts it for the TSV's bytes with the header's dtype,
its entries are finite and its (identity, view) pairs are unique.
Otherwise it parses the TSV's records, the only source of record errors.
Hand-written TSVs need no companion.
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
    version: str
    gen_config: GenConfig
    records: list[PairRecord]
    split_tag: str = "none"

    def by_identity(self) -> dict[int, list[PairRecord]]:
        pools: dict[int, list[PairRecord]] = {}
        for rec in self.records:
            pools.setdefault(rec.identity, []).append(rec)
        return pools

    def identities(self) -> list[int]:
        return sorted({rec.identity for rec in self.records})


def generate(cfg: GenConfig) -> DatasetManifest:
    """Deterministic dataset synthesis; a pure function of the config."""
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    scale = 1.0 / np.sqrt(cfg.latent_dim)
    view_maps = [rng.normal(0.0, scale, size=(cfg.raw_dim_image, cfg.latent_dim))
                 for _ in range(cfg.views_per_identity)]
    text_map = rng.normal(0.0, scale, size=(cfg.raw_dim_text, cfg.latent_dim))

    records: list[PairRecord] = []
    for identity in range(cfg.num_identities):
        latent = rng.normal(0.0, 1.0, size=cfg.latent_dim)
        for view in range(cfg.views_per_identity):
            mask = rng.random(cfg.raw_dim_text) >= cfg.annotation_mask_rate
            image = view_maps[view] @ latent
            image = image + cfg.view_noise * rng.normal(0.0, 1.0, size=cfg.raw_dim_image)
            text = mask * (text_map @ latent)
            text = text + cfg.view_noise * rng.normal(0.0, 1.0, size=cfg.raw_dim_text)
            records.append(PairRecord(identity, view, image, text))
    return DatasetManifest(FORMAT_VERSION, cfg, records)


def split(d: DatasetManifest, train_fraction: float, seed: int
          ) -> tuple[DatasetManifest, DatasetManifest]:
    """Identity-disjoint train/test partition; record order is preserved."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    ids = d.identities()
    if len(ids) < 2:
        raise ValueError("cannot split fewer than 2 identities")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    order = [ids[i] for i in rng.permutation(len(ids))]
    n_train = int(round(len(ids) * train_fraction))
    n_train = min(max(n_train, 1), len(ids) - 1)
    train_ids = set(order[:n_train])
    train = [r for r in d.records if r.identity in train_ids]
    test = [r for r in d.records if r.identity not in train_ids]
    return (DatasetManifest(d.version, d.gen_config, train, "train"),
            DatasetManifest(d.version, d.gen_config, test, "test"))


def _fmt_vector(v: list[float]) -> str:
    return ",".join(format(x, ".17g") for x in v)


_CONFIG_FIELDS = tuple(f.name for f in fields(GenConfig))
_FLOAT_FIELDS = {f.name for f in fields(GenConfig) if isinstance(f.default, float)}


def _table_dtype(cfg: GenConfig) -> np.dtype:
    return np.dtype([("identity", "<i8"), ("view", "<i8"),
                     ("image", "<f8", (cfg.raw_dim_image,)),
                     ("text", "<f8", (cfg.raw_dim_text,))])


def _is_int64(key) -> bool:
    return (isinstance(key, (int, np.integer)) and not isinstance(key, bool)
            and -2**63 <= int(key) < 2**63)


def _record_problem(identity, view, image: np.ndarray, text: np.ndarray,
                    cfg: GenConfig, seen: set) -> str | None:
    """Why one record is invalid, or None (then its key joins seen)."""
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
    table = np.zeros(len(d.records), _table_dtype(cfg))
    seen: set[tuple[int, int]] = set()
    for index, rec in enumerate(d.records):
        image = np.asarray(rec.image_raw, dtype=np.float64)
        text = np.asarray(rec.text_raw, dtype=np.float64)
        if all(_is_int64(key) for key in (rec.identity, rec.view)):
            problem = _record_problem(rec.identity, rec.view, image, text, cfg, seen)
        else:
            problem = "identity and view must be 64-bit integers"
        if problem:
            raise ValueError(f"cannot write {path}: record {index}: {problem}")
        table[index] = (rec.identity, rec.view, image, text)
    lines = [header]
    for identity, view, image, text in zip(
            table["identity"].tolist(), table["view"].tolist(),
            table["image"].tolist(), table["text"].tolist()):
        lines.append(f"{identity}\t{view}\t{_fmt_vector(image)}\t{_fmt_vector(text)}")
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


def _companion_records(path: str | Path, raw: bytes, cfg: GenConfig
                       ) -> list[PairRecord] | None:
    """The records of path's companion if it is ``write``'s own for raw; else None."""
    arrays = companion.load(path, raw, [_table_dtype(cfg)])
    if arrays is None:
        return None
    table, = arrays
    if not (np.isfinite(table["image"]).all() and np.isfinite(table["text"]).all()):
        return None
    identities, views = table["identity"].tolist(), table["view"].tolist()
    if len(set(zip(identities, views))) != len(table):
        return None
    return [PairRecord(*rec) for rec in zip(identities, views, table["image"], table["text"])]


def _parse_records(lines: list[str], cfg: GenConfig, path: str | Path) -> list[PairRecord]:
    records: list[PairRecord] = []
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
        records.append(PairRecord(identity, view, image, text_vec))
    return records


def read(path: str | Path) -> DatasetManifest:
    raw = Path(path).read_bytes()
    text = _decode(raw, path)
    end = text.find("\n")
    first = (text if end < 0 else text[:end]).splitlines()
    cfg, split_tag = _parse_header(first[0] if first else "", path)
    records = _companion_records(path, raw, cfg)
    if records is None:
        records = _parse_records(text.splitlines()[1:], cfg, path)
    return DatasetManifest(FORMAT_VERSION, cfg, records, split_tag)
