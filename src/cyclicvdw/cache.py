"""Append-only results cache: one JSON record per line, keyed by the
canonical argument tuple of the producing operation.

It holds exact answers only: a record of any other status is neither
loaded nor written.  `get` serves a stored answer only when it passes the
check a fresh search answer passes: an exact value for the key's (n, k)
whose witness passes `is_free_witness` (b) or whose coloring passes
`is_proper_coloring` (any other `what`).  Anything else is a miss.
"""

from __future__ import annotations

import fcntl
import json
import os
import time
from pathlib import Path

from .progressions import is_free_witness, is_proper_coloring
from .search import STATUS_EXACT

TOOL_VERSION = "0.1.0"


def _canon(key: dict) -> str:
    return json.dumps(key, sort_keys=True, separators=(",", ":"))


class ResultsCache:
    """JSON-lines cache file of exact records; the later of two for a key wins.
    A line holds key, status, value, tool_version and timestamp."""

    def __init__(self, path):
        self.path = Path(path)
        self._values: dict[str, dict] = {}
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
                        key, status, value = d["key"], d["status"], d["value"]
                        ok = (isinstance(key, dict) and isinstance(value, dict)
                              and isinstance(status, str))
                    except (ValueError, KeyError, TypeError, RecursionError):
                        ok = False
                    if not ok:
                        self.corrupt_lines += 1
                    elif status == STATUS_EXACT:
                        self._values[_canon(key)] = value

    def get(self, key: dict) -> dict | None:
        """The stored value for `key` if it re-verifies, or None."""
        value = self._values.get(_canon(key))
        if value is None or not {"n", "k", "what"} <= key.keys():
            return None
        n, k, size = (value.get(f) for f in ("modulus", "k", "value"))
        # k >= 3 too: the checks below raise on a shorter progression length.
        if not (all(type(x) is int for x in (n, k, size)) and k >= 3
                and (n, k, value.get("status")) == (key["n"], key["k"], STATUS_EXACT)):
            return None
        if key["what"] == "b":
            ok = is_free_witness(n, k, size, value.get("witness"))
        else:
            ok = is_proper_coloring(n, k, size, value.get("coloring"))
        return value if ok else None

    def put(self, key: dict, value: dict) -> None:
        """Store and append `value` when its status is exact; drop it otherwise."""
        status = value.get("status")
        if status != STATUS_EXACT:
            return
        self._values[_canon(key)] = value
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = {"key": key, "status": status, "value": value,
                "tool_version": TOOL_VERSION, "timestamp": time.time()}
        text = json.dumps(line, sort_keys=True) + "\n"
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
        return len(self._values)
