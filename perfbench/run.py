#!/usr/bin/env python3
"""Benchmark of the cyclicvdw library and its command-line tool.

    python3 perfbench/run.py --workload search|construct-verify|cli \
        --seed N --seconds S --trace 0|1

Runs against `src/` of the checkout that holds this directory and needs
nothing outside the standard library.  Set-up (import plus seeded input
generation) is timed SETUP_REPEATS times.  Then passes of the workload's
operations run, one operation at a time, until the next pass would end after
S seconds; every pass runs the same operations and must repeat their outputs.
Each output is checked the first time its operation runs.

With --trace 0 the end-to-end metrics of BENCHMARK.json are reported from
untraced passes.  With --trace 1 untraced and traced passes alternate and the
per-layer metrics come from the traced ones (see tracing.py); their
difference in wall time is the tracing overhead.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import zlib
from pathlib import Path
from time import perf_counter

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# op_s_p90 is the highest percentile with at least ten samples beyond it only
# when a run has at least this many operations.
P90_MIN_SAMPLES = 100


def die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_seconds(env) -> float:
    """Import time of the package and its CLI in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import cyclicvdw.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return float(proc.stdout)


class Runner:
    def __init__(self, workload):
        self.wl = workload
        self.first: dict[str, object] = {}
        self.nodes: dict[str, int] = {}
        self.failed: dict[str, str] = {}
        self.attempted = 0
        self.spans: list[tuple] = []
        self.missing: set[str] = set()

    def fail(self, key: str, msg: str) -> None:
        self.failed.setdefault(f"{self.attempted}:{key}", msg)

    def run_pass(self, traced: bool) -> dict:
        wl = self.wl
        tracer = None
        if traced and not wl.runs_in_children:
            tracer = tracing.Tracer()
            tracer.install()
        wl.before_pass()
        times, exact = [], 0
        for key, fn in wl.ops(traced):
            self.attempted += 1
            start = perf_counter()
            try:
                if tracer is None:
                    result = fn()
                else:
                    with tracer.op(key):
                        result = fn()
            except Exception as exc:  # an operation failing is a result, not a crash
                times.append(perf_counter() - start)
                self.fail(key, f"raised {exc!r}")
                continue
            seconds = perf_counter() - start
            times.append(seconds)
            try:
                digest = wl.digest(key, result)
                errors = []
                if key not in self.first:
                    self.first[key] = digest
                    self.nodes[key] = wl.nodes(key, result)
                    errors = wl.check(key, result, seconds)
                elif self.first[key] != digest:
                    errors = ["output differs from an earlier pass"]
                exact += bool(wl.exact(key, result))
            except Exception as exc:  # malformed output
                errors = [f"checking the output raised {exc!r}"]
            for msg in errors:
                self.fail(key, msg)
            del result
        totals = None
        if tracer is not None:
            tracer.uninstall()
            self.spans += tracer.spans
            self.missing.update(tracer.missing)
            totals = tracing.layer_totals(tracer.spans)
        elif traced:
            totals, missing = wl.traced_totals()
            self.missing.update(missing)
        return {"traced": traced, "wall": sum(times), "times": times,
                "exact": exact, "totals": totals}


def pass_seconds(passes) -> float:
    """Seconds of one pass: the sum over its operations of each one's median
    time across `passes`, which damps a slow moment of the machine."""
    return sum(statistics.median(ts) for ts in zip(*(p["times"] for p in passes)))


def end_to_end(passes, setup_s, runs_in_children) -> dict[str, float]:
    plain = [p for p in passes if not p["traced"]]
    times = [t for p in plain for t in p["times"]]
    who = resource.RUSAGE_CHILDREN if runs_in_children else resource.RUSAGE_SELF
    usage = resource.getrusage(who)
    return {
        "setup_s": setup_s,
        "wall_s": pass_seconds(plain),
        "op_s_p50": statistics.median(times),
        "op_s_p90": statistics.quantiles(times, n=10)[8],
        "exact_cells": plain[0]["exact"],
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }


def per_layer(passes, missing) -> dict[str, float]:
    """Median over traced passes of each layer figure, as `layer.field`."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    flat: dict[str, list[float]] = {}
    for p in traced:
        totals = p["totals"]
        ind = totals.get("search.independence")
        if ind and ind.get("self_s"):
            ind["nodes_per_s"] = ind.get("nodes", 0) / ind["self_s"]
        for layer, fields in totals.items():
            for field, value in fields.items():
                flat.setdefault(f"{layer}.{field}", []).append(value)
    out = {name: statistics.median(values) for name, values in flat.items()}
    out["trace.untraced_wall_s"] = pass_seconds(plain)
    out["trace.traced_wall_s"] = pass_seconds(traced)
    out["trace.overhead_s"] = out["trace.traced_wall_s"] - out["trace.untraced_wall_s"]
    out["trace.missing"] = len(missing)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if not (ROOT / "src" / "cyclicvdw" / "__init__.py").is_file():
        die(f"no package source at {ROOT / 'src' / 'cyclicvdw'}")
    sys.path.insert(0, str(ROOT / "src"))
    import cyclicvdw

    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    wl = WORKLOADS[args.workload](cyclicvdw, args.seed, workdir)
    setups = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds(env)
        start = perf_counter()
        wl.setup()
        setups.append(imported + perf_counter() - start)
    setup_s = statistics.median(setups)

    runner = Runner(wl)
    passes = []
    start = perf_counter()
    while True:
        passes.append(runner.run_pass(traced=bool(args.trace) and len(passes) % 2 == 1))
        elapsed = perf_counter() - start
        both_kinds = not args.trace or len(passes) >= 2
        if both_kinds and elapsed + passes[-1]["wall"] > args.seconds:
            break

    with (workdir / "times.json").open("w", encoding="utf-8") as fh:
        json.dump({"keys": [key for key, _ in wl.ops(False)],
                   "passes": [[p["traced"], p["times"]] for p in passes]}, fh)
    if args.trace:
        metrics = per_layer(passes, runner.missing)
        wanted = spec["per_layer"]
        if runner.spans:
            with (workdir / "spans.json").open("w", encoding="utf-8") as fh:
                json.dump({"spans": runner.spans, "missing": sorted(runner.missing)}, fh)
    else:
        metrics = end_to_end(passes, setup_s, wl.runs_in_children)
        wanted = spec["end_to_end"]

    failed = len(runner.failed)
    samples = sum(len(p["times"]) for p in passes if not p["traced"])
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"operations={runner.attempted} pass seconds: "
          + " ".join(f"{p['wall']:.3f}{'(traced)' if p['traced'] else ''}" for p in passes))
    print(f"failed {failed} of {runner.attempted} operations: "
          f"failed_frac={failed / runner.attempted:.6f}")
    for key, msg in list(runner.failed.items())[:20]:
        print(f"  FAIL {key}: {msg}")
    if not args.trace:
        print(f"latency samples: {samples}"
              + ("" if samples >= P90_MIN_SAMPLES else
                 f"; fewer than {P90_MIN_SAMPLES}, so op_s_p90 has under ten beyond it"))
    if any(runner.nodes.values()):
        cells = json.dumps(sorted(runner.nodes.items())).encode()
        print(f"search nodes: total={sum(runner.nodes.values())} crc32={zlib.crc32(cells):08x}")
    for name in sorted(runner.missing):
        print(f"  trace: {name} missing")
    result = {}
    for m in wanted:
        value = metrics.get(m["name"], 0)
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
