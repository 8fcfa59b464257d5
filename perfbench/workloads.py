"""The benchmark's workloads: seeded inputs, timed operations and output checks.

A workload makes its inputs from the seed in `setup`, which the runner
repeats to time set-up.  `ops` lists one pass of operations; every pass runs
the same list, so each operation's output must repeat exactly (`digest`).
`check` validates an output the first time its operation runs, with the
benchmark's own brute force from `checks`, the frozen values in `frozen` and,
for the CLI, the in-process answer of the library.  The program receives only
the generated inputs.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from time import perf_counter

import checks
import frozen
import tracing
from checks import find_ap, is_progression

HERE = Path(__file__).resolve().parent


def _b_errors(n, k, value, witness, status):
    errors = []
    if len(set(witness)) != value or not all(0 <= x < n for x in witness):
        errors.append(f"witness of b({n},{k}) does not have {value} distinct residues")
    if find_ap(witness, n, k) is not None:
        errors.append(f"witness of b({n},{k}) contains a progression")
    true = frozen.B.get((n, k))
    if true is not None and (value > true or (status == "exact" and value != true)):
        errors.append(f"b({n},{k}) = {value} ({status}), known value {true}")
    return errors


def _chi_errors(n, k, value, coloring, status):
    errors = []
    if len(coloring) != n or not all(0 <= c < value for c in coloring):
        errors.append(f"coloring for chi({n},{k}) is not a map Z_N -> {value} colors")
    for c in set(coloring):
        if find_ap([v for v in range(n) if coloring[v] == c], n, k) is not None:
            errors.append(f"color class {c} of chi({n},{k}) contains a progression")
    true = frozen.CHI.get((n, k))
    if true is not None and (value < true or (status == "exact" and value != true)):
        errors.append(f"chi({n},{k}) = {value} ({status}), known value {true}")
    return errors


class Workload:
    """Defaults shared by the workloads below."""

    name = ""
    runs_in_children = False  # the work runs in child processes, not this one

    def __init__(self, cv, seed, workdir):
        self.cv = cv
        self.seed = seed
        self.dir = workdir

    def before_pass(self):
        pass

    def nodes(self, key, r):
        """Search nodes behind an output, for the cross-run determinism line."""
        return 0


# ------------------------------------------------------------------- search

# Why: the independence branch and bound and the colorability backtracking do
# nearly all the work; building the edges at N <= 40 costs milliseconds, so a
# change to edge enumeration should not move this workload's wall time.  The
# heavy cells are the paper's open-ended ones (criterion 7 of the acceptance
# tests skips (35,5), (36,4), (36,6), (40,4), (40,5) and (40,8) on time); the
# small grid closes fast and gives enough operations for a 90th percentile.
HEAVY_CELLS = (
    ("b", 30, 3), ("b", 33, 3), ("b", 32, 4), ("b", 40, 5), ("b", 35, 5),
    ("b", 36, 4), ("b", 36, 6), ("b", 40, 4), ("b", 40, 8),
    ("chi", 26, 3), ("chi", 27, 3), ("chi", 25, 5),
)
GRID_CELLS = tuple(
    (what, n, k) for n in range(8, 21) for k in range(3, 7) for what in ("b", "chi")
)
# One fixed node budget for every cell.  The wall-clock limit is far above any
# cell's time so that it never decides a result; a cell whose bound-only
# answer came from it counts as failed.
NODE_BUDGET = 30_000
WALL_LIMIT_S = 60.0


class Search(Workload):
    name = "search"

    def setup(self):
        self.budget = self.cv.SearchBudget(max_nodes=NODE_BUDGET, max_seconds=WALL_LIMIT_S)
        self.cells = list(HEAVY_CELLS + GRID_CELLS)
        random.Random(self.seed).shuffle(self.cells)

    def ops(self, traced):
        cv, budget = self.cv, self.budget
        for what, n, k in self.cells:
            if what == "b":
                yield f"b({n},{k})", lambda n=n, k=k: cv.independence_number(n, k, budget)
            else:
                yield f"chi({n},{k})", lambda n=n, k=k: cv.chromatic_number(n, k, budget)

    def digest(self, key, r):
        if key.startswith("b"):
            return r.value, r.status, r.nodes_explored, r.witness
        return r.value, r.status, r.coloring

    def exact(self, key, r):
        return r.status == "exact"

    def nodes(self, key, r):
        return r.nodes_explored if key.startswith("b") else 0

    def check(self, key, r, seconds):
        n, k = r.modulus, r.k
        if not key.endswith(f"({n},{k})"):
            return [f"{key} answered for ({n},{k})"]
        if key.startswith("b"):
            errors = _b_errors(n, k, r.value, r.witness, r.status)
            if r.status != "exact" and r.nodes_explored <= NODE_BUDGET:
                errors.append(f"{key} stopped by the wall clock, not the node budget")
            if n % k == 0:
                bounds = self.cv.theorem_bounds(n // k, k)
                true = frozen.B.get((n, k), r.value)
                if not bounds.lower <= true <= bounds.upper or r.value > bounds.upper:
                    errors.append(f"{key} outside theorem bounds {bounds}")
        else:
            errors = _chi_errors(n, k, r.value, r.coloring, r.status)
            if r.status != "exact" and seconds >= WALL_LIMIT_S:
                errors.append(f"{key} may have been stopped by the wall clock")
        return errors


# --------------------------------------------------------- construct-verify

# Why: the acceptance-criterion 3/5/8/9 pipeline.  Edge enumeration is about
# 90% of it and sets its peak memory; the search is never called, so a change
# to the search should not move this workload.  The grid is every (m, k) with
# mk <= 80; the large single enumerations stress enumeration at scale.
CV_MAX_MK = 80
CV_ENUMS = ((500, 5), (1000, 7))
CV_WC = ((3, 24), (4, 24), (5, 24), (6, 24))


def _edges_digest(edges):
    # Integer tuples hash the same in every process, so this is stable.
    return len(edges), hash(tuple(p.elements for p in edges))


class ConstructVerify(Workload):
    name = "construct-verify"

    def setup(self):
        items = [("cell", n // k, k) for n in range(3, CV_MAX_MK + 1)
                 for k in range(3, n + 1) if n % k == 0]
        items += [("enum", n, k) for n, k in CV_ENUMS]
        items += [("wc", k, m_max) for k, m_max in CV_WC]
        random.Random(self.seed).shuffle(items)
        self.items = items

    def _cell(self, m, k):
        cv = self.cv
        forb = cv.build_forbidden(m, k)
        avoiding = cv.build_avoiding(m, k)
        bounds = cv.theorem_bounds(m, k)
        inside = set(avoiding)
        edges = cv.enumerate_progressions(m * k, k)
        contained = [p.elements for p in edges if inside.issuperset(p.elements)]
        plan = cv.build_partition(m, k)
        return forb, avoiding, bounds, edges, contained, plan

    def ops(self, traced):
        cv = self.cv
        for kind, a, b in self.items:
            if kind == "cell":
                yield f"cell({a},{b})", lambda a=a, b=b: self._cell(a, b)
            elif kind == "enum":
                yield f"enum({a},{b})", lambda a=a, b=b: cv.enumerate_progressions(a, b)
            else:
                yield f"wc({a},{b})", lambda a=a, b=b: cv.wc_lower_bounds(a, b)

    def digest(self, key, r):
        if key.startswith("cell"):
            forb, avoiding, bounds, edges, contained, plan = r
            return (forb.union, avoiding, (bounds.lower, bounds.upper, bounds.exact),
                    _edges_digest(edges), len(contained), plan.parts)
        if key.startswith("enum"):
            return _edges_digest(r)
        return tuple((w.k, w.r, w.strict_lower) for w in r)

    def exact(self, key, r):
        return key.startswith("cell") and r[2].exact is not None

    def check(self, key, r, seconds):
        kind, args = key.split("(")
        a, b = map(int, args.rstrip(")").split(","))
        if kind == "enum":
            if checks.edges_fingerprint(r) != checks.progression_fingerprint(a, b):
                return [f"{key}: edges differ from the brute-force progressions"]
            return []
        if kind == "wc":
            want = [(a, 2, a * (a - 1)), (a, 3, a * a)] + [
                (a, checks.expected_part_count(m, a), m * a) for m in range(a + 1, b + 1)
            ]
            got = [(w.k, w.r, w.strict_lower) for w in r]
            return [] if got == want else [f"{key}: rows {got} != {want}"]
        m, k = a, b
        n = m * k
        forb, avoiding, bounds, edges, contained, plan = r
        errors = []
        if set(forb.union) | set(avoiding) != set(range(n)) or len(forb.union) + len(avoiding) != n:
            errors.append(f"{key}: F and B do not split Z_mk")
        if find_ap(avoiding, n, k) is not None:
            errors.append(f"{key}: B contains a progression")
        if (bounds.lower, bounds.upper) != (len(avoiding), n - m):
            errors.append(f"{key}: bounds {bounds.lower}..{bounds.upper}")
        if (bounds.exact is not None) != checks.d_singleton(m, k) or (
            bounds.exact is not None and bounds.exact != n - m
        ):
            errors.append(f"{key}: exactness {bounds.exact} wrong")
        true = frozen.B.get((n, k))
        if true is not None and not bounds.lower <= true <= bounds.upper:
            errors.append(f"{key}: known b = {true} outside the bounds")
        if checks.edges_fingerprint(edges) != checks.progression_fingerprint(n, k):
            errors.append(f"{key}: edges differ from the brute-force progressions")
        if contained:
            errors.append(f"{key}: B contains enumerated progression {contained[0]}")
        errors += checks.partition_errors(plan.parts, n, k)
        if plan.part_count != checks.expected_part_count(m, k):
            errors.append(f"{key}: {plan.part_count} parts")
        return errors


# ---------------------------------------------------------------------- cli

# Why: this is how users drive the tool.  Each operation is one process, so
# process start, cache load (for `exact` and `sweep --what bounds`) and the
# containment check dominate; the cache is read (hits) and appended to
# (misses) in the same mix, so a gain for one use that costs the other shows.
# A closed loop with one client: the next command starts when the last ends.
CLI_HITS, CLI_MISSES, CLI_CONJECTURES, CLI_PRIME_PARTITIONS, CLI_FILES = 6, 4, 2, 2, 2
CACHE_FILLER_RECORDS = 2500
# Results that a previous user's runs left in the cache: b where k | N (which
# `sweep --what bounds` also reads) and chi at small N.
CACHED_B = tuple((n, k) for n in range(9, 25) for k in range(3, 7) if n % k == 0)
CACHED_CHI = tuple((n, k) for n in range(12, 17) for k in range(3, 7))
# Misses: cheap b cells that no sweep looks up (k does not divide N).
MISS_POOL = tuple((n, k) for n in range(14, 22) for k in range(3, 7) if n % k)
# Partitions of Z_mk with k > m and mk in 1000..1300: the dense,
# progression-free containment scan.  Prime k keeps D(mk, k) = {1}, so every
# pick costs about the same; (15, 70) adds one with a larger F.
PRIME_PARTITIONS = ((8, 131), (10, 101), (12, 97), (12, 101), (15, 71), (16, 67),
                    (20, 53), (20, 61), (24, 43), (24, 47), (25, 41), (25, 43),
                    (30, 37), (30, 41), (32, 37))
FIXED_PARTITION = (15, 70)
# verify-file inputs: Z_mk with k > m and mk in 120..200, half
# progression-free subsets of the construction's B (dense or sparse, so both
# branches of the containment check run) and half with a planted progression.
FILE_SETS = 12
CLI_TIMEOUT_S = 60


@dataclass
class CliResult:
    rc: int
    stdout: str
    stderr: str


class Cli(Workload):
    name = "cli"
    runs_in_children = True

    def __init__(self, cv, seed, workdir):
        super().__init__(cv, seed, workdir)
        self.pristine = workdir / "cache.pristine.jsonl"
        self.cache = workdir / "cache.jsonl"
        self.env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
        self.span_files: list[tuple[Path, float]] = []
        self.traced_calls = 0

    # ---- inputs

    def _cache_records(self, rng):
        version = getattr(self.cv.cache, "TOOL_VERSION", "")
        big = self.cv.SearchBudget()
        lines = []
        self.cached = {}
        for what, cells in (("b", CACHED_B), ("chi", CACHED_CHI)):
            for n, k in cells:
                fn = self.cv.independence_number if what == "b" else self.cv.chromatic_number
                value = fn(n, k, big).to_dict()
                key = {"op": "exact", "n": n, "k": k, "what": what}
                self.cached[(what, n, k)] = value
                lines.append({"key": key, "status": value["status"], "value": value})
        # Bound-only filler at N beyond the exact-search cap, as `--force`
        # runs leave behind; no command of the workload reads these keys.
        for _ in range(CACHE_FILLER_RECORDS):
            n, k, what = rng.randint(41, 160), rng.randint(3, 8), rng.choice("bc")
            if what == "b":
                w = sorted(rng.sample(range(n), n // 2))
                value = {"modulus": n, "k": k, "value": len(w), "witness": w,
                         "status": "lower_bound_only", "nodes_explored": 100_000_001,
                         "elapsed": rng.uniform(1, 60)}
                key = {"op": "exact", "n": n, "k": k, "what": "b"}
            else:
                value = {"modulus": n, "k": k, "value": 4,
                         "coloring": [rng.getrandbits(2) for _ in range(n)],
                         "status": "upper_bound_only"}
                key = {"op": "exact", "n": n, "k": k, "what": "chi"}
            lines.append({"key": key, "status": value["status"], "value": value})
        rng.shuffle(lines)
        with self.pristine.open("w", encoding="utf-8") as fh:
            for i, rec in enumerate(lines):
                rec.update(tool_version=version, timestamp=1.7e9 + i)
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def _residue_file(self, rng, path):
        m, k = rng.choice([(m, k) for k in range(5, 21) for m in range(1, k)
                           if 120 <= m * k <= 200])
        n = m * k
        avoiding = self.cv.build_avoiding(m, k)
        sets = []
        for i in range(FILE_SETS):
            s = set(rng.sample(avoiding, int(len(avoiding) * rng.uniform(0.5, 1.0))))
            if i % 2:
                d = rng.choice([d for d in range(1, n) if n // gcd(n, d) >= k])
                t = rng.randrange(n)
                s |= {(t + j * d) % n for j in range(k)}
            sets.append(sorted(s))
        rng.shuffle(sets)
        path.write_text("".join(",".join(map(str, s)) + "\n" for s in sets), encoding="utf-8")
        return n, k, sets

    def setup(self):
        rng = random.Random(self.seed)
        self._cache_records(rng)
        self.files = {}
        for i in range(CLI_FILES):
            path = self.dir / f"sets{i}.txt"
            self.files[path.name] = self._residue_file(rng, path)
        cache = str(self.cache)
        cmds = []
        cached_keys = sorted(self.cached)
        for what, n, k in rng.sample(cached_keys, CLI_HITS):
            cmds.append(["exact", "--n", str(n), "--k", str(k), "--what", what, "--cache", cache])
        for n, k in rng.sample(MISS_POOL, CLI_MISSES):
            cmds.append(["exact", "--n", str(n), "--k", str(k), "--what", "b", "--cache", cache])
        k0, m0 = rng.randint(3, 6), rng.randint(1, 4)
        cmds.append(["sweep", "--k", f"{k0}..{k0 + 3}", "--m", f"{m0}..{m0 + 7}",
                     "--what", "bounds", "--cache", cache])
        k0, m0 = rng.randint(3, 5), rng.randint(1, 3)
        cmds.append(["sweep", "--k", f"{k0}..{k0 + 2}", "--m", f"{m0}..{m0 + 6}",
                     "--what", "partition"])
        for _ in range(CLI_CONJECTURES):
            m0, k0 = rng.randint(2, 6), rng.randint(1, 3)
            cmds.append(["conjecture", "--m", f"{m0}..{m0 + 8}", "--n", "1..3",
                         "--k", f"{k0}..{k0 + 4}"])
        for m, k in rng.sample(PRIME_PARTITIONS, CLI_PRIME_PARTITIONS) + [FIXED_PARTITION]:
            cmds.append(["partition", "--m", str(m), "--k", str(k)])
        for name, (n, k, _) in self.files.items():
            cmds.append(["verify-file", str(self.dir / name), "--n", str(n), "--k", str(k)])
        rng.shuffle(cmds)
        self.cmds = [c + ["--format", "json"] for c in cmds]

    def before_pass(self):
        shutil.copyfile(self.pristine, self.cache)

    # ---- operations

    def _invoke(self, argv, traced):
        if traced:
            self.traced_calls += 1
            spans = self.dir / f"spans{self.traced_calls}.json"
            cmd = [sys.executable, str(HERE / "cli_boot.py"), str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "cyclicvdw.cli", *argv]
        start = perf_counter()
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        if traced:
            self.span_files.append((spans, perf_counter() - start))
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    def ops(self, traced):
        for argv in self.cmds:
            key = " ".join(a if not a.startswith(str(self.dir)) else Path(a).name for a in argv)
            yield key, lambda argv=argv: self._invoke(argv, traced)

    def _parsed(self, r):
        if r.rc != 0:
            raise ValueError(f"exit code {r.rc}: {r.stderr.strip()[-300:]}")
        out = json.loads(r.stdout)
        if isinstance(out, dict):
            out.pop("elapsed", None)
        return out

    def digest(self, key, r):
        try:
            return json.dumps(self._parsed(r), sort_keys=True)
        except ValueError as exc:
            return f"failed: {exc}"

    def exact(self, key, r):
        return key.startswith("exact") and r.rc == 0 and '"status": "exact"' in r.stdout

    def check(self, key, r, seconds):
        try:
            out = self._parsed(r)
        except ValueError as exc:
            return [f"{key}: {exc}"]
        args = key.split()
        opt = {args[i][2:]: args[i + 1] for i in range(1, len(args) - 1) if args[i].startswith("--")}
        cmd = args[0]
        want = getattr(self, "_expect_" + cmd.replace("-", "_"))(args, opt)
        errors = [] if out == want else [f"{key}: CLI output differs from the in-process answer"]
        return errors + getattr(self, "_check_" + cmd.replace("-", "_"))(args, opt, out)

    # In-process answers, computed with the library outside any timed region.

    def _expect_exact(self, args, opt):
        n, k, what = int(opt["n"]), int(opt["k"]), opt["what"]
        if (what, n, k) in self.cached:
            want = dict(self.cached[(what, n, k)])
        else:
            want = self.cv.independence_number(n, k, self.cv.SearchBudget()).to_dict()
        want.pop("elapsed", None)
        return want

    def _check_exact(self, args, opt, out):
        n, k = int(opt["n"]), int(opt["k"])
        if out["status"] != "exact":
            return [f"exact {n},{k}: status {out['status']}"]
        if opt["what"] == "b":
            return _b_errors(n, k, out["value"], out["witness"], out["status"])
        return _chi_errors(n, k, out["value"], out["coloring"], out["status"])

    def _ranges(self, opt, *names):
        out = []
        for name in names:
            lo, hi = opt[name].split("..")
            out.append(range(int(lo), int(hi) + 1))
        return out

    def _expect_sweep(self, args, opt):
        ks, ms = self._ranges(opt, "k", "m")
        rows = []
        for k in ks:
            for m in ms:
                if opt["what"] == "bounds":
                    b = self.cv.theorem_bounds(m, k)
                    exact, reason = b.exact, b.exactness_reason
                    rec = self.cached.get(("b", m * k, k))
                    if exact is None and rec is not None and rec["status"] == "exact":
                        exact, reason = rec["value"], "search"
                    rows.append({"k": k, "m": m, "lower": b.lower, "upper": b.upper,
                                 "exact": "" if exact is None else exact,
                                 "reason": reason, "error": ""})
                else:
                    plan = self.cv.build_partition(m, k)
                    rows.append({"k": k, "m": m, "regime": plan.regime,
                                 "part_count": plan.part_count, "gamma": plan.gamma,
                                 "verified": True, "error": ""})
        return rows

    def _check_sweep(self, args, opt, out):
        errors = []
        for row in out:
            m, k = row["m"], row["k"]
            if opt["what"] == "bounds":
                true = frozen.B.get((m * k, k))
                if row["upper"] != m * k - m or (
                    true is not None and not row["lower"] <= true <= row["upper"]
                ) or (row["exact"] != "" and true is not None and row["exact"] != true):
                    errors.append(f"sweep bounds ({m},{k}): {row}")
            elif row["part_count"] != checks.expected_part_count(m, k):
                errors.append(f"sweep partition ({m},{k}): {row}")
        return errors

    def _expect_conjecture(self, args, opt):
        ms, ns, ks = self._ranges(opt, "m", "n", "k")
        rows, summary = [], {}
        for k in ks:
            for m in ms:
                for n in ns:
                    row = {"k": k, "m": m, "n": n, "status": "rejected", "conjectured": "",
                           "brute_force": "", "witness": ""}
                    if m > n and n * k >= 3:
                        rep = self.cv.check_conjecture(m, n, k)
                        row["status"] = "agree" if rep.agrees else "disagree"
                        row["conjectured"] = ";".join(map(str, rep.conjectured))
                        row["brute_force"] = ";".join(map(str, rep.brute_force))
                        if not rep.agrees:
                            row["witness"] = ";".join(
                                map(str, sorted(set(rep.conjectured) ^ set(rep.brute_force))))
                    rows.append(row)
                    summary[row["status"]] = summary.get(row["status"], 0) + 1
        return {"rows": rows, "summary": summary}

    def _check_conjecture(self, args, opt, out):
        errors = []
        for row in out["rows"]:
            m, n, k = row["m"], row["n"], row["k"]
            if row["status"] == "rejected":
                if m > n and n * k >= 3:
                    errors.append(f"conjecture ({m},{n},{k}) rejected")
                continue
            brute = checks.brute_gcd_set(m * k, n * k)
            conj = tuple(g for g in range(1, m + 1) if n * k % g == 0)
            status = "agree" if brute == conj else "disagree"
            if row["brute_force"] != ";".join(map(str, brute)) or row["status"] != status:
                errors.append(f"conjecture ({m},{n},{k}): {row}")
        return errors

    def _expect_partition(self, args, opt):
        return self.cv.build_partition(int(opt["m"]), int(opt["k"])).to_dict()

    def _check_partition(self, args, opt, out):
        m, k = int(opt["m"]), int(opt["k"])
        parts = [(p["label"], p["elements"]) for p in out["parts"]]
        errors = checks.partition_errors(parts, m * k, k)
        if len(parts) != checks.expected_part_count(m, k):
            errors.append(f"partition ({m},{k}): {len(parts)} parts")
        return errors

    def _expect_verify_file(self, args, opt):
        n, k, sets = self.files[args[1]]
        rows = []
        for i, s in enumerate(sets, start=1):
            hit = self.cv.find_contained_progression(s, n, k)
            rows.append({"set": i, "size": len(s), "free": hit is None,
                         "witness": "" if hit is None else ";".join(map(str, hit.elements))})
        return rows

    def _check_verify_file(self, args, opt, out):
        n, k, sets = self.files[args[1]]
        errors = []
        for row, s in zip(out, sets):
            free = find_ap(s, n, k) is None
            witness = [int(x) for x in row["witness"].split(";")] if row["witness"] else []
            if row["free"] != free or (not free and not (
                is_progression(witness, n, k) and set(witness) <= set(s)
            )):
                errors.append(f"verify-file set {row['set']}: {row}")
        if len(out) != len(sets):
            errors.append("verify-file: wrong number of rows")
        return errors

    # ---- tracing

    def traced_totals(self):
        """Layer totals of the traced invocations since the last call."""
        totals: dict[str, dict[str, float]] = {}
        missing = set()
        for path, wall in self.span_files:
            if not path.exists():  # the child died early; its operation failed
                continue
            with path.open(encoding="utf-8") as fh:
                data = json.load(fh)
            missing.update(data["missing"])
            spans = [tuple(s) for s in data["spans"]]
            main = sum(end - start for _, layer, start, end, _, _ in spans if layer == "cli.main")
            per = tracing.layer_totals(spans)
            per.setdefault("cli", {})["proc_overhead_s"] = wall - main
            for layer, vals in per.items():
                acc = totals.setdefault(layer, {})
                for name, v in vals.items():
                    acc[name] = acc.get(name, 0.0) + v
        self.span_files = []
        return totals, sorted(missing)


# Tier-1 test time is deliberately not a workload: it takes minutes, and its
# slowest parts (acceptance criteria 3 and 7) appear as `construct-verify`
# and `search`.
WORKLOADS = {w.name: w for w in (Search, ConstructVerify, Cli)}
