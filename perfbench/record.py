#!/usr/bin/env python3
"""Record a baseline: every workload, untraced and traced, in one JSON file.

    python3 perfbench/record.py --out perfbench/BENCH_0.json [--seeds 1 2 3]

For each workload and seed this runs `run.py --trace 0` and `run.py --trace 1`
with BENCHMARK.json's run_seconds, and stores the median of each metric over
the seeds, the traced run's share of wall time per layer (self seconds over
traced pass seconds), the git revision and a note on the machine.  A perf
change quotes its before and after figures from such a file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_rev() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def median_metrics(results: list[dict]) -> dict[str, float]:
    names = results[0]["metrics"]
    return {n: statistics.median(r["metrics"][n]["value"] for r in results) for n in names}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        plain = [run(name, s, seconds, 0) for s in args.seeds]
        traced = [run(name, s, seconds, 1) for s in args.seeds]
        layers = median_metrics(traced)
        wall = layers["trace.traced_wall_s"]
        shares = {
            n: layers[n] / wall
            for n in layers
            if (n.endswith(".self_s") or n == "cli.proc_overhead_s") and layers[n] > 0
        }
        workloads[name] = {
            "why": w["why"],
            "end_to_end": median_metrics(plain),
            "per_layer": layers,
            "layer_share_of_traced_wall": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
            "attempted": sum(r["attempted"] for r in plain + traced),
            "failed": sum(r["failed"] for r in plain + traced),
        }
    out = {
        "rev": git_rev(),
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": seconds,
        "seeds": args.seeds,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
