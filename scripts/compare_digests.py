"""Compare a fresh ``byte_identity.py`` manifest with the committed one.

    python3 scripts/byte_identity.py /tmp/after
    python3 scripts/compare_digests.py /tmp/after/DIGESTS.json

The fresh manifest is compared with ``/DIGESTS.json`` at the repository
root.  The environments (Python, numpy and BLAS builds) are compared first,
since another build may legitimately give other digests; then every path
whose sha256 differs, that the fresh manifest lacks or that only it has is
printed, one a line.  Exits 0 only when the environments and every digest
match, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def compare(committed: dict, fresh: dict) -> list[str]:
    """One line per difference between two manifests; none when they match."""
    lines = []
    if fresh["environment"] != committed["environment"]:
        lines.append(f"environment differs: committed {committed['environment']}, "
                     f"fresh {fresh['environment']}")
    old, new = committed["files"], fresh["files"]
    for path in sorted(old.keys() | new.keys()):
        if path not in new:
            lines.append(f"missing {path}")
        elif path not in old:
            lines.append(f"new {path}")
        elif old[path] != new[path]:
            lines.append(f"differs {path}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        raise SystemExit("usage: python3 scripts/compare_digests.py OUT/DIGESTS.json")
    committed_path = ROOT / "DIGESTS.json"
    committed = json.loads(committed_path.read_text())
    fresh = json.loads(Path(argv[0]).read_text())
    lines = compare(committed, fresh)
    for line in lines:
        print(line)
    if lines:
        return 1
    print(f"{len(fresh['files'])} digests and the environment match {committed_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
