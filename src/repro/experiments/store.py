"""Resumable per-cell result store.

One file per finished cell, named by the cell's content hash, written
atomically (temp file + ``os.replace`` via the hardened trajectory
writer) — so an interrupted sweep leaves only whole records behind and
a re-invoked sweep resumes by hash lookup.  Concurrent sweeps over
disjoint cells write disjoint files; concurrent writers of the *same*
cell each publish a complete record and the last replace wins, which is
safe because a cell's record is a pure function of its spec plus
machine-dependent timing.

Consolidation (``repro-bench export --consolidated`` /
:meth:`ResultStore.consolidate`) writes one JSON-lines file: one canonical
record per line, sorted by cell hash.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List, Optional, Tuple

from .trajectory import write_json_atomic

CELL_DIR = "cells"
RECORD_SUFFIX = ".json"


class ResultStore:
    """Directory of per-cell records keyed by cell hash."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.cell_dir = os.path.join(self.root, CELL_DIR)
        os.makedirs(self.cell_dir, exist_ok=True)

    # ------------------------------------------------------------------ #
    def _path(self, key: str) -> str:
        return os.path.join(self.cell_dir, key + RECORD_SUFFIX)

    def has(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def get(self, key: str) -> Optional[dict]:
        path = self._path(key)
        if not os.path.exists(path):
            return None
        with open(path) as fh:
            return json.load(fh)

    def put(self, key: str, record: dict) -> str:
        """Atomically publish one cell record; returns the file path."""
        path = self._path(key)
        write_json_atomic(path, record)
        return path

    def discard(self, key: str) -> bool:
        try:
            os.unlink(self._path(key))
        except FileNotFoundError:
            return False
        return True

    # ------------------------------------------------------------------ #
    def keys(self) -> List[str]:
        return sorted(
            name[: -len(RECORD_SUFFIX)]
            for name in os.listdir(self.cell_dir)
            if name.endswith(RECORD_SUFFIX)
        )

    def records(self) -> Iterator[Tuple[str, dict]]:
        """All ``(key, record)`` pairs in sorted key order."""
        for key in self.keys():
            record = self.get(key)
            if record is not None:
                yield key, record

    def __len__(self) -> int:
        return len(self.keys())

    # ------------------------------------------------------------------ #
    def consolidate(self, path: Optional[str] = None) -> str:
        """Write every record to one JSON-lines file; returns the path.

        The default path is ``results.jsonl`` in the store root.
        """
        if path is None:
            path = os.path.join(self.root, "results.jsonl")
        lines = [
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            for _, record in self.records()
        ]
        # Publish atomically like every other store write.
        _write_text_atomic(path, "\n".join(lines) + ("\n" if lines else ""))
        return path

    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, int]:
        by_protocol: Dict[str, int] = {}
        for _, record in self.records():
            protocol = record.get("spec", {}).get("protocol", "?")
            by_protocol[protocol] = by_protocol.get(protocol, 0) + 1
        return by_protocol


def _write_text_atomic(path: str, text: str) -> None:
    import tempfile

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix="." + os.path.basename(path) + ".tmp-"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
