"""Digest-checked binary companions of text files, written atomically.

A text file (a dataset TSV, a checkpoint JSON) is canonical.  Beside it,
``write`` puts a companion, ``<name>.npy``: ``np.save`` arrays, first the
sha256 digest (32 uint8) of the text file's bytes followed by the bytes of
the arrays after it, then those arrays.  ``load`` returns the arrays only
when they load without pickles, are one-dimensional with the dtypes the
reader expects, and their digest recomputes over the text file's bytes;
otherwise the reader parses the text, the only source of its error
messages.  So a stale, missing, truncated or foreign companion costs time
but never changes a result or a message.

Each file is written to a temporary file in its directory and then moved
into place with ``os.replace``, so an interrupted write leaves the old file
or the new one, never a truncated one.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Sequence

import numpy as np


def companion_path(path: str | Path) -> Path:
    """Where ``write`` puts the binary companion of the text file at path."""
    return Path(f"{path}.npy")


def _digest(raw: bytes, arrays: Sequence[np.ndarray]) -> bytes:
    # Imported here: loading OpenSSL takes ~2 ms, which commands that never
    # read or write a file (gradcheck) should not pay.
    import hashlib

    h = hashlib.sha256()
    h.update(raw)
    for array in arrays:
        h.update(array)
    return h.digest()


def _replace(path: Path, fill) -> None:
    """fill(handle) writes path's new content; path changes only once it is whole."""
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") as handle:
            fill(handle)
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


def write(path: str | Path, raw: bytes, arrays: Sequence[np.ndarray] | None) -> None:
    """Write raw to path, then arrays to its companion; with arrays None,
    remove any companion instead, so the text is parsed."""
    _replace(Path(path), lambda handle: handle.write(raw))
    companion = companion_path(path)
    if arrays is None:
        companion.unlink(missing_ok=True)
        return

    def fill(handle) -> None:
        np.save(handle, np.frombuffer(_digest(raw, arrays), dtype=np.uint8))
        for array in arrays:
            np.save(handle, array)

    _replace(companion, fill)


def load(path: str | Path, raw: bytes, dtypes: Sequence[np.dtype]
         ) -> list[np.ndarray] | None:
    """The arrays of path's companion if it is ``write``'s own for raw, one
    per dtype and one-dimensional; else None."""
    try:
        with open(companion_path(path), "rb") as handle:
            digest = np.load(handle, allow_pickle=False)
            arrays = [np.load(handle, allow_pickle=False) for _ in dtypes]
    except Exception:  # whatever is wrong with a companion, the text decides
        return None
    if not (isinstance(digest, np.ndarray)
            and all(isinstance(array, np.ndarray) and array.dtype == dtype and array.ndim == 1
                    for array, dtype in zip(arrays, dtypes))
            and digest.tobytes() == _digest(raw, arrays)):
        return None
    return arrays
