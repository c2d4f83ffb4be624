"""Output hashes and the golden-output comparison.

A run's outputs are keyed by path relative to its output directory.  Files
under ``<label>/`` belong to that case; anything else (``bounds.csv``,
``reports.json``, the rendered table, ...) belongs to the whole sweep.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def hash_tree(root: Path) -> dict[str, str]:
    """SHA-256 of every file under ``root``, keyed by its relative POSIX path."""
    root = Path(root)
    return {p.relative_to(root).as_posix(): sha256_file(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


def failed_labels(hashes: dict[str, str], golden: dict[str, str],
                  labels: list[str]) -> set[str]:
    """Cases whose outputs differ from the golden hashes.

    A missing, extra or changed file under ``<label>/`` fails that case; a
    difference in a sweep-level output fails every case.
    """
    failed: set[str] = set()
    for path in set(hashes) | set(golden):
        if hashes.get(path) == golden.get(path):
            continue
        head, sep, _ = path.partition("/")
        if sep and head in labels:
            failed.add(head)
        else:
            return set(labels)
    return failed


def load(workload: str) -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())[workload]


def store(workload: str, hashes: dict[str, str]) -> None:
    data = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    data[workload] = hashes
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
