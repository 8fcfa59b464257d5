"""Command-line front end.

Subcommands: diffs, construct, exact, partition, sweep, conjecture,
verify-file.  Exit codes: 0 success, 2 usage or precondition failure,
3 internal verification failure.

Each `cmd_*` returns an `Output` for `emit` to render; `main` alone turns
exceptions into exit codes.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from itertools import product
from typing import NamedTuple

from . import coloring, construction, progressions, search
from .cache import ResultsCache
from .errors import (
    InternalInconsistencyError,
    InvalidArgumentError,
)
from .serialize import read_residue_file, residues_to_text

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTERNAL = 3

MAX_EXACT_N = 40


def parse_range(text: str) -> list[int]:
    """Inclusive `a..b` range; a bare integer is a singleton."""
    lo, sep, hi = text.partition("..")
    try:
        lo_i, hi_i = int(lo), int(hi if sep else lo)
    except ValueError:
        raise InvalidArgumentError(f"bad range {text!r}") from None
    if lo_i > hi_i:
        raise InvalidArgumentError(f"empty range {text!r}")
    return list(range(lo_i, hi_i + 1))


class Output(NamedTuple):
    """A command's result: csv `fields` and `rows`, `text` lines, and the json
    document when it is not the rows themselves."""

    fields: list[str]
    rows: list[dict]
    text: list[str]
    doc: object = None


def emit(out: Output, fmt: str) -> None:
    if fmt == "json":
        doc = out.rows if out.doc is None else out.doc
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    elif fmt == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=out.fields,
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(out.rows)
    else:
        sys.stdout.write("".join(line + "\n" for line in out.text))


def _joined(values) -> str:
    return ";".join(map(str, values))


def _open_cache(path) -> ResultsCache | None:
    if not path:
        return None
    cache = ResultsCache(path)
    if cache.corrupt_lines:
        print(f"warning: skipped {cache.corrupt_lines} unreadable line(s) in "
              f"cache {path}", file=sys.stderr)
    return cache


def cmd_diffs(args) -> Output:
    n, k = args.n, args.k
    progressions._require(k >= 3, f"k must be >= 3, got {k}")
    progressions._require(n >= k, f"modulus must be >= k, got N={n}, k={k}")
    sets = {}
    if args.method != "brute":
        progressions._require(
            n % k == 0, f"closed form requires k | N, got N={n}, k={k}")
        sets["closed_form"] = construction.closed_diffs(n // k, k)
    if args.method != "closed":
        sets["brute_force"] = progressions.difference_gcd_set(n, k)
    rows = [{"modulus": n, "k": k, "method": method, "values": _joined(values)}
            for method, values in sets.items()]
    (method, values), *rest = sets.items()
    text = "{" + ",".join(map(str, values)) + "}"
    doc = {"modulus": n, "length": k, "method": method, "values": list(values)}
    if rest:
        agrees = values == rest[0][1]
        text += f" agree={str(agrees).lower()}"
        doc = {"modulus": n, "length": k, "agrees": agrees,
               **{name: list(vals) for name, vals in sets.items()}}
    return Output(["modulus", "k", "method", "values"], rows, [text], doc)


def cmd_construct(args) -> Output:
    forb = construction.build_forbidden(args.m, args.k)
    bounds = construction.theorem_bounds(args.m, args.k)
    doc = forb.to_dict()
    doc["bounds"] = bounds.to_dict()
    text = [f"F = {residues_to_text(forb.union)}"]
    text += [f"F_{i} = {residues_to_text(block)}"
             for i, block in enumerate(forb.blocks)]
    text += [f"|F| = {len(forb.union)}",
             f"bounds: {bounds.lower} <= b({forb.modulus},{forb.k})"
             f" <= {bounds.upper}"]
    if args.verify:
        avoiding = construction.build_avoiding(args.m, args.k)
        if not progressions.is_free_witness(forb.modulus, args.k,
                                            len(avoiding), avoiding):
            raise InternalInconsistencyError(
                f"Z_{forb.modulus} \\ F is not progression-free")
        doc["verified"] = True
        text.append("verify: pass")
    row = {"m": forb.m, "k": forb.k, "modulus": forb.modulus,
           "size": len(forb.union), "lower": bounds.lower,
           "upper": bounds.upper, "union": _joined(forb.union)}
    return Output(list(row), [row], text, doc)


def cmd_exact(args) -> Output:
    progressions._require(args.k >= 3, f"k must be >= 3, got {args.k}")
    progressions._require(args.n >= 1, f"modulus must be positive, got {args.n}")
    if args.n > MAX_EXACT_N and not args.force:
        raise InvalidArgumentError(
            f"N={args.n} exceeds the exact-search cap {MAX_EXACT_N}; "
            f"pass --force to run anyway"
        )
    # Checked before the cache read, so a cache hit exits as a miss would.
    budget = search.SearchBudget(args.budget_nodes, args.budget_seconds)
    key = {"op": "exact", "n": args.n, "k": args.k, "what": args.what}
    cache = _open_cache(args.cache)
    value = cache.get(key) if cache is not None else None
    if value is None:
        solve = (search.independence_number if args.what == "b"
                 else search.chromatic_number)
        try:
            result = solve(args.n, args.k, budget)
        except RecursionError:
            raise InvalidArgumentError(
                f"N={args.n} is too large for the search's recursion depth") from None
        value = result.to_dict()
        if cache is not None:
            cache.put(key, value)
    row = {"what": args.what, "modulus": value["modulus"], "k": value["k"],
           "value": value["value"], "status": value["status"]}
    line = f"{args.what}({args.n},{args.k}) = {value['value']} ({value['status']})"
    if args.what == "b":
        line += f" witness={residues_to_text(value['witness'])}"
    return Output(list(row), [row], [line], value)


def cmd_partition(args) -> Output:
    plan = coloring.build_partition(args.m, args.k)
    rows = [{"m": plan.m, "k": plan.k, "label": label,
             "elements": _joined(elems)} for label, elems in plan.parts]
    text = [f"regime: {plan.regime}  parts: {plan.part_count}"]
    text += [f"{label} = {residues_to_text(elems)}" for label, elems in plan.parts]
    return Output(["m", "k", "label", "elements"], rows, text, plan.to_dict())


def _bounds_cell(m: int, k: int, cache: ResultsCache | None) -> dict:
    b = construction.theorem_bounds(m, k)
    exact, reason = b.exact, b.exactness_reason
    if exact is None and cache is not None:
        found = cache.get({"op": "exact", "n": m * k, "k": k, "what": "b"})
        if found is not None:
            exact, reason = found["value"], construction.EXACT_BY_SEARCH
    return {"lower": b.lower, "upper": b.upper,
            "exact": "" if exact is None else exact, "reason": reason}


def _partition_cell(m: int, k: int, cache) -> dict:
    plan = coloring.build_partition(m, k)
    return {"regime": plan.regime, "part_count": plan.part_count,
            "gamma": plan.gamma, "verified": True}


# kind: (fields, cell, the non-blank cells of a row whose m was rejected)
SWEEPS = {
    "bounds": (["k", "m", "lower", "upper", "exact", "reason", "error"],
               _bounds_cell, lambda m: {}),
    "partition": (["k", "m", "regime", "part_count", "gamma", "verified", "error"],
                  _partition_cell, lambda m: {"verified": False}),
    "wc": (["k", "r", "strict_lower", "provenance", "error"],
           lambda m, k, cache: coloring.wc_bound_for(m, k).to_dict(),
           lambda m: {"provenance": f"m={m}"}),
}


def cmd_sweep(args) -> Output:
    ks = parse_range(args.k)
    ms = parse_range(args.m)
    if any(k < 3 for k in ks):
        raise InvalidArgumentError("all k in the sweep must be >= 3")
    cache = _open_cache(args.cache)
    fields, cell, failed = SWEEPS[args.what]
    rows = []
    for k, m in product(ks, ms):
        try:
            row = {"k": k, "m": m, **cell(m, k, cache), "error": ""}
        except InvalidArgumentError as exc:  # stays in the row
            row = {**dict.fromkeys(fields, ""), "k": k, "m": m, **failed(m),
                   "error": str(exc)}
        rows.append({f: row[f] for f in fields})
    text = ["  ".join(f"{f}={row[f]}" for f in fields if row[f] != "") for row in rows]
    return Output(fields, rows, text)


CONJECTURE_FIELDS = ["k", "m", "n", "status", "conjectured", "brute_force",
                     "witness"]


def cmd_conjecture(args) -> Output:
    ms = parse_range(args.m)
    ns = parse_range(args.n)
    ks = parse_range(args.k)
    rows = []
    for k, m, n in product(ks, ms, ns):
        row = dict.fromkeys(CONJECTURE_FIELDS, "")
        row.update(k=k, m=m, n=n, status="rejected")
        rows.append(row)
        try:
            rep = progressions.check_conjecture(m, n, k)
        except InvalidArgumentError:
            continue
        row.update(
            status="agree" if rep.agrees else "disagree",
            conjectured=_joined(rep.conjectured),
            brute_force=_joined(rep.brute_force),
            witness=_joined(sorted(set(rep.conjectured) ^ set(rep.brute_force))),
        )
    counts = Counter(row["status"] for row in rows)
    text = []
    for row in rows:
        line = f"k={row['k']} m={row['m']} n={row['n']}: {row['status']}"
        if row["status"] == "disagree":
            line += (f" conjectured={{{row['conjectured']}}}"
                     f" brute={{{row['brute_force']}}}"
                     f" differing_gcds={{{row['witness']}}}")
        text.append(line)
    text.append("summary: " + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return Output(CONJECTURE_FIELDS, rows, text, {"rows": rows, "summary": counts})


def cmd_verify_file(args) -> Output:
    progressions._require(args.k >= 3, f"k must be >= 3, got {args.k}")
    progressions._require(args.n >= 1, f"modulus must be positive, got {args.n}")
    rows = []
    text = []
    for i, residues in enumerate(read_residue_file(args.path), start=1):
        if residues and residues[-1] >= args.n:
            raise InvalidArgumentError(
                f"set {i} has residue {residues[-1]} >= modulus {args.n}"
            )
        hit = progressions.find_contained_progression(residues, args.n, args.k)
        rows.append({"set": i, "size": len(residues), "free": hit is None,
                     "witness": "" if hit is None else _joined(hit.elements)})
        text.append(f"set {i}: ok ({len(residues)} residues)" if hit is None
                    else f"set {i}: FAIL contains {residues_to_text(hit.elements)}")
    return Output(["set", "size", "free", "witness"], rows, text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclicvdw",
        description="Progression-free subsets of Z_N, forbidden-set "
                    "constructions, exact search, and cyclic Van der Waerden "
                    "lower bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, ints=(), ranges=None):
        """Required int flags, and `a..b` range flags mapped to their help."""
        p = sub.add_parser(name, help=help)
        for flag in ints:
            p.add_argument(f"--{flag}", type=int, required=True)
        for flag, range_help in (ranges or {}).items():
            p.add_argument(f"--{flag}", required=True, help=range_help)
        p.set_defaults(func=func)
        return p

    p = command("diffs", cmd_diffs, "difference-gcd set D(N,k)", ("n", "k"))
    p.add_argument("--method", choices=["closed", "brute", "both"],
                   default="brute")

    p = command("construct", cmd_construct,
                "forbidden set F and bounds on b(mk,k)", ("m", "k"))
    p.add_argument("--verify", action="store_true",
                   help="re-check that Z_mk \\ F is progression-free")

    p = command("exact", cmd_exact, "exact b(N,k) or chi(N,k) by search",
                ("n", "k"))
    p.add_argument("--what", choices=["b", "chi"], required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--budget-nodes", type=int, default=10**8)
    p.add_argument("--budget-seconds", type=float, default=60.0)
    p.add_argument("--cache", default=None)

    command("partition", cmd_partition, "progression-free partition of Z_mk",
            ("m", "k"))

    p = command("sweep", cmd_sweep, "batch table over a (k, m) grid",
                ranges={"k": "inclusive range, e.g. 3..6",
                        "m": "inclusive range, e.g. 1..6"})
    p.add_argument("--what", choices=list(SWEEPS), required=True)
    p.add_argument("--cache", default=None)

    command("conjecture", cmd_conjecture,
            "compare conjectured D(mk,nk) to brute force",
            ranges=dict.fromkeys(["m", "n", "k"], "inclusive range"))

    p = command("verify-file", cmd_verify_file,
                "check residue-set file lines for progression-freeness",
                ("n", "k"))
    p.add_argument("path")

    for p in sub.choices.values():
        p.add_argument("--format", choices=["json", "csv", "text"],
                       default="text")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        emit(args.func(args), args.format)
    except (InvalidArgumentError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory; try a smaller input", file=sys.stderr)
        return EXIT_USAGE
    except InternalInconsistencyError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
