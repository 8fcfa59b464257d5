"""Append-only results cache: one JSON record per line, keyed by the
canonical argument tuple of the producing operation.

It holds exact answers only: a record of any other status is neither
loaded nor written.
"""

from __future__ import annotations

import fcntl
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from .search import STATUS_EXACT
from .serialize import record_dict

TOOL_VERSION = "0.1.0"


@dataclass(frozen=True)
class CacheRecord:
    key: dict
    status: str
    value: dict
    tool_version: str
    timestamp: float

    to_dict = record_dict


def _canon(key: dict) -> str:
    return json.dumps(key, sort_keys=True, separators=(",", ":"))


class ResultsCache:
    """JSON-lines cache file of exact records; the later of two for a key wins."""

    def __init__(self, path):
        self.path = Path(path)
        self._records: dict[str, CacheRecord] = {}
        # Lines that are not a record (a JSON object whose key and value are
        # objects and whose status is a string), e.g. one torn by a killed writer.
        self.corrupt_lines = 0
        if self.path.exists():
            with self.path.open(encoding="utf-8", errors="replace") as fh:
                for line in fh:
                    if not line.strip():
                        continue
                    try:
                        d = json.loads(line)
                        rec = CacheRecord(
                            d["key"], d["status"], d["value"],
                            d.get("tool_version", ""), d.get("timestamp", 0.0),
                        )
                        ok = (isinstance(rec.key, dict)
                              and isinstance(rec.value, dict)
                              and isinstance(rec.status, str))
                    except (ValueError, KeyError, TypeError, RecursionError):
                        ok = False
                    if not ok:
                        self.corrupt_lines += 1
                    elif rec.status == STATUS_EXACT:
                        self._records[_canon(rec.key)] = rec

    def get(self, key: dict) -> CacheRecord | None:
        return self._records.get(_canon(key))

    def put(self, key: dict, status: str, value: dict) -> None:
        """Store and append an exact record; any other status is dropped."""
        if status != STATUS_EXACT:
            return
        rec = CacheRecord(key, status, value, TOOL_VERSION, time.time())
        self._records[_canon(key)] = rec
        self.path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(rec.to_dict(), sort_keys=True) + "\n"
        with self.path.open("ab+") as fh:
            # One writer at a time, so the end seen below stays the end.
            fcntl.flock(fh, fcntl.LOCK_EX)
            # A record glued onto a torn line would not load: start a fresh one.
            size = fh.seek(0, os.SEEK_END)
            if size:
                fh.seek(size - 1)
                if fh.read(1) != b"\n":
                    text = "\n" + text
            fh.write(text.encode("utf-8"))

    def __len__(self) -> int:
        return len(self._records)
