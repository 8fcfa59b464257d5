"""Span tracing of the library's layers, from outside the library.

`Tracer.install` replaces each public name in TARGETS with a wrapper in every
`cyclicvdw` module that holds it, so calls between the package's modules are
traced as well as calls from the benchmark.  A wrapper records a span (id,
layer, start, end, parent id, counts) only inside an operation opened with
`Tracer.op`; spans stay in memory until `dump`.  A name that a later version
of the package no longer has is reported in `missing` and left alone.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _contains_counts(args, kwargs, result):
    residues = _arg(args, kwargs, 0, "residues")
    modulus = _arg(args, kwargs, 1, "modulus")
    return {
        "hits": int(result is not None),
        "dense_calls": int(2 * len(set(residues)) >= modulus),
    }


def _get_counts(args, kwargs, result):
    return {"hits": int(result is not None), "misses": int(result is None)}


# (layer, module, attribute, counts(args, kwargs, result) -> dict or None)
TARGETS = (
    ("progressions.enumerate", "cyclicvdw.progressions", "enumerate_progressions",
     lambda a, kw, r: {"edges": len(r)}),
    ("progressions.contains", "cyclicvdw.progressions",
     "find_contained_progression", _contains_counts),
    ("progressions.diffs", "cyclicvdw.progressions", "difference_gcd_set", None),
    ("progressions.diffs", "cyclicvdw.progressions", "check_conjecture", None),
    ("construction", "cyclicvdw.construction", "build_forbidden", None),
    ("construction", "cyclicvdw.construction", "build_avoiding", None),
    ("construction", "cyclicvdw.construction", "theorem_bounds", None),
    ("coloring.partition", "cyclicvdw.coloring", "build_partition",
     lambda a, kw, r: {"parts": r.part_count}),
    ("coloring.partition", "cyclicvdw.coloring", "wc_lower_bounds", None),
    ("search.independence", "cyclicvdw.search", "independence_number",
     lambda a, kw, r: {"nodes": r.nodes_explored, "exact": int(r.status == "exact")}),
    ("search.colorable", "cyclicvdw.search", "is_r_colorable",
     lambda a, kw, r: {r.status: 1}),
    ("search.chromatic", "cyclicvdw.search", "chromatic_number", None),
    ("cache.load", "cyclicvdw.cache", "ResultsCache.__init__",
     lambda a, kw, r: {"records": len(a[0])}),
    ("cache.put", "cyclicvdw.cache", "ResultsCache.put", None),
    ("cache", "cyclicvdw.cache", "ResultsCache.get", _get_counts),
    ("cli.main", "cyclicvdw.cli", "main", None),
)

OP_LAYER = "bench"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, layer, fn, counts):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._stack.pop()
                tracer.spans[sid] = (sid, layer, start, perf_counter(), parent, {})
                raise
            end = perf_counter()
            tracer._stack.pop()
            tally = {}
            if counts is not None:
                try:
                    tally = counts(args, kwargs, result)
                except Exception as exc:  # a changed signature must not stop the run
                    tally = {"count_errors": 1}
                    note = f"{layer} counts: {exc!r}"
                    if note not in tracer.missing:
                        tracer.missing.append(note)
            tracer.spans[sid] = (sid, layer, start, end, parent, tally)
            return result

        return traced

    def install(self) -> None:
        for layer, modname, attr, counts in TARGETS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                module = None
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            orig = None if owner is None else getattr(owner, meth, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(layer, orig, counts)
            if owner_name:
                self._patch(owner, meth, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "cyclicvdw" or name.startswith("cyclicvdw.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapper)

    def _patch(self, holder, name, wrapper) -> None:
        self._undo.append((holder, name, getattr(holder, name)))
        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, name, orig = self._undo.pop()
            setattr(holder, name, orig)

    @contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation; layer spans nest under it."""
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid] = (sid, OP_LAYER, start, perf_counter(), None, {"op": name})

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "missing": self.missing}, fh)


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per layer: calls entering it from another layer, self seconds (span
    time minus child spans), and the summed counts of its spans."""
    child = defaultdict(float)
    layer_of = {}
    for sid, layer, start, end, parent, _ in spans:
        layer_of[sid] = layer
        if parent is not None:
            child[parent] += end - start
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sid, layer, start, end, parent, tally in spans:
        t = totals[layer]
        t["self_s"] += end - start - child[sid]
        if parent is None or layer_of[parent] != layer:
            t["calls"] += 1
        for key, value in tally.items():
            if isinstance(value, (int, float)):
                t[key] += value
    return totals
