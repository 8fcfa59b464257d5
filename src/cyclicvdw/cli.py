"""Command-line front end.

Subcommands: diffs, construct, exact, partition, sweep, conjecture,
verify-file.  Exit codes: 0 success, 2 usage or precondition failure,
3 internal verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import coloring, construction, progressions, search
from .cache import ResultsCache
from .errors import (
    BudgetExceededError,
    InternalInconsistencyError,
    InvalidArgumentError,
)
from .serialize import read_residue_file, residues_to_text

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTERNAL = 3

DEFAULT_MAX_EXACT_N = 40

# Failures of the caller's input: exit 2, or one row's error in a sweep.
PRECONDITION_ERRORS = (InvalidArgumentError, BudgetExceededError)


def parse_range(text: str) -> list[int]:
    """Inclusive `a..b` range; a bare integer is a singleton."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise InvalidArgumentError(f"bad range {text!r}") from None
        if lo_i > hi_i:
            raise InvalidArgumentError(f"empty range {text!r}")
        return list(range(lo_i, hi_i + 1))
    try:
        return [int(text)]
    except ValueError:
        raise InvalidArgumentError(f"bad range {text!r}") from None


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _emit_csv(fieldnames: list[str], rows: list[dict]) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    sys.stdout.write(buf.getvalue())


def _open_cache(path) -> ResultsCache | None:
    if not path:
        return None
    cache = ResultsCache(path)
    if cache.corrupt_lines:
        print(f"warning: skipped {cache.corrupt_lines} unreadable line(s) in "
              f"cache {path}", file=sys.stderr)
    return cache


def _values_text(values) -> str:
    return "{" + ",".join(str(v) for v in values) + "}"


# ---------------------------------------------------------------- diffs

def cmd_diffs(args) -> int:
    if args.method == "both":
        closed = progressions.difference_gcd_set(
            args.n, args.k, progressions.METHOD_CLOSED_FORM
        )
        brute = progressions.difference_gcd_set(
            args.n, args.k, progressions.METHOD_BRUTE_FORCE
        )
        agrees = closed.values == brute.values
        if args.format == "json":
            _emit_json({
                "modulus": args.n,
                "length": args.k,
                "closed_form": list(closed.values),
                "brute_force": list(brute.values),
                "agrees": agrees,
            })
        elif args.format == "csv":
            _emit_csv(
                ["modulus", "k", "method", "values"],
                [
                    {"modulus": args.n, "k": args.k, "method": m,
                     "values": ";".join(map(str, v))}
                    for m, v in (("closed_form", closed.values),
                                 ("brute_force", brute.values))
                ],
            )
        else:
            print(f"{_values_text(closed.values)} agree={str(agrees).lower()}")
        return EXIT_OK
    method = {
        "closed": progressions.METHOD_CLOSED_FORM,
        "brute": progressions.METHOD_BRUTE_FORCE,
    }[args.method]
    ds = progressions.difference_gcd_set(args.n, args.k, method)
    if args.format == "json":
        _emit_json(ds.to_dict())
    elif args.format == "csv":
        _emit_csv(
            ["modulus", "k", "method", "values"],
            [{"modulus": ds.modulus, "k": ds.length, "method": ds.method,
              "values": ";".join(map(str, ds.values))}],
        )
    else:
        print(_values_text(ds.values))
    return EXIT_OK


# ------------------------------------------------------------ construct

def cmd_construct(args) -> int:
    forb = construction.build_forbidden(args.m, args.k)
    bounds = construction.theorem_bounds(args.m, args.k)
    verified = None
    if args.verify:
        avoiding = construction.build_avoiding(args.m, args.k)
        hit = progressions.find_contained_progression(
            avoiding, forb.modulus, args.k
        )
        if hit is not None:
            print(
                f"verification FAILED: avoiding set contains "
                f"{residues_to_text(hit.elements)}",
                file=sys.stderr,
            )
            return EXIT_INTERNAL
        verified = True
    if args.format == "json":
        payload = forb.to_dict()
        payload["bounds"] = bounds.to_dict()
        if verified is not None:
            payload["verified"] = verified
        _emit_json(payload)
    elif args.format == "csv":
        _emit_csv(
            ["m", "k", "modulus", "size", "lower", "upper", "union"],
            [{"m": forb.m, "k": forb.k, "modulus": forb.modulus,
              "size": len(forb.union), "lower": bounds.lower,
              "upper": bounds.upper,
              "union": ";".join(map(str, forb.union))}],
        )
    else:
        print(f"F = {residues_to_text(forb.union)}")
        for i, block in enumerate(forb.blocks):
            print(f"F_{i} = {residues_to_text(block)}")
        print(f"|F| = {len(forb.union)}")
        print(f"bounds: {bounds.lower} <= b({forb.modulus},{forb.k})"
              f" <= {bounds.upper}")
        if verified:
            print("verify: pass")
    return EXIT_OK


# ---------------------------------------------------------------- exact

def _budget(args) -> search.SearchBudget:
    return search.SearchBudget(args.budget_nodes, args.budget_seconds)


def cmd_exact(args) -> int:
    if args.n > args.max_exact_n and not args.force:
        raise InvalidArgumentError(
            f"N={args.n} exceeds the exact-search cap {args.max_exact_n}; "
            f"pass --force to run anyway"
        )
    key = {"op": "exact", "n": args.n, "k": args.k, "what": args.what}
    cache = _open_cache(args.cache)
    rec = cache.get(key) if cache else None
    if rec is not None:
        value = rec.value
        status = rec.status
    elif args.what == "b":
        result = search.independence_number(args.n, args.k, _budget(args))
        value = result.to_dict()
        status = result.status
    else:
        result = search.chromatic_number(args.n, args.k, _budget(args))
        value = result.to_dict()
        status = result.status
    if cache is not None and rec is None:
        cache.put(key, status, value)
    if args.format == "json":
        _emit_json(value)
    elif args.format == "csv":
        label = "b" if args.what == "b" else "chi"
        _emit_csv(
            ["what", "modulus", "k", "value", "status"],
            [{"what": label, "modulus": value["modulus"], "k": value["k"],
              "value": value["value"], "status": value["status"]}],
        )
    else:
        if args.what == "b":
            print(f"b({args.n},{args.k}) = {value['value']} ({value['status']}) "
                  f"witness={residues_to_text(value['witness'])}")
        else:
            print(f"chi({args.n},{args.k}) = {value['value']} ({value['status']})")
    return EXIT_OK


# ------------------------------------------------------------ partition

def cmd_partition(args) -> int:
    plan = coloring.build_partition(args.m, args.k)
    if args.format == "json":
        _emit_json(plan.to_dict())
    elif args.format == "csv":
        _emit_csv(
            ["m", "k", "label", "elements"],
            [{"m": plan.m, "k": plan.k, "label": label,
              "elements": ";".join(map(str, elems))}
             for label, elems in plan.parts],
        )
    else:
        print(f"regime: {plan.regime}  parts: {plan.part_count}")
        for label, elems in plan.parts:
            print(f"{label} = {residues_to_text(elems)}")
    return EXIT_OK


# ---------------------------------------------------------------- sweep

def cmd_sweep(args) -> int:
    ks = parse_range(args.k)
    ms = parse_range(args.m)
    if any(k < 3 for k in ks):
        raise InvalidArgumentError("all k in the sweep must be >= 3")
    cache = _open_cache(args.cache)
    rows = []
    if args.what == "bounds":
        fields = ["k", "m", "lower", "upper", "exact", "reason", "error"]
        for k in ks:
            for m in ms:
                try:
                    b = construction.theorem_bounds(m, k)
                    exact = b.exact
                    reason = b.exactness_reason
                    if exact is None and cache is not None:
                        rec = cache.get(
                            {"op": "exact", "n": m * k, "k": k, "what": "b"}
                        )
                        if rec is not None and rec.status == "exact":
                            exact = rec.value["value"]
                            reason = construction.EXACT_BY_SEARCH
                    rows.append({"k": k, "m": m, "lower": b.lower,
                                 "upper": b.upper,
                                 "exact": "" if exact is None else exact,
                                 "reason": reason, "error": ""})
                except PRECONDITION_ERRORS as exc:  # stays in the row
                    rows.append({"k": k, "m": m, "lower": "", "upper": "",
                                 "exact": "", "reason": "", "error": str(exc)})
    elif args.what == "partition":
        fields = ["k", "m", "regime", "part_count", "gamma", "verified", "error"]
        for k in ks:
            for m in ms:
                try:
                    plan = coloring.build_partition(m, k)
                    rows.append({"k": k, "m": m, "regime": plan.regime,
                                 "part_count": plan.part_count,
                                 "gamma": plan.gamma, "verified": True,
                                 "error": ""})
                except PRECONDITION_ERRORS as exc:
                    rows.append({"k": k, "m": m, "regime": "", "part_count": "",
                                 "gamma": "", "verified": False,
                                 "error": str(exc)})
    elif args.what == "wc":
        fields = ["k", "r", "strict_lower", "provenance", "error"]
        for k in ks:
            for m in ms:
                try:
                    row = coloring.wc_bound_for(m, k)
                    rows.append({"k": row.k, "r": row.r,
                                 "strict_lower": row.strict_lower,
                                 "provenance": row.provenance, "error": ""})
                except PRECONDITION_ERRORS as exc:
                    rows.append({"k": k, "r": "", "strict_lower": "",
                                 "provenance": f"m={m}", "error": str(exc)})
    else:  # pragma: no cover - argparse restricts choices
        raise InvalidArgumentError(f"unknown sweep kind {args.what!r}")
    if args.format == "json":
        _emit_json(rows)
    elif args.format == "text":
        for row in rows:
            print("  ".join(f"{f}={row[f]}" for f in fields if row[f] != ""))
    else:
        _emit_csv(fields, rows)
    return EXIT_OK


# ----------------------------------------------------------- conjecture

def cmd_conjecture(args) -> int:
    ms = parse_range(args.m)
    ns = parse_range(args.n)
    ks = parse_range(args.k)
    rows = []
    for k in ks:
        for m in ms:
            for n in ns:
                row = {"k": k, "m": m, "n": n, "status": "", "conjectured": "",
                       "brute_force": "", "witness": ""}
                if m <= n or n * k < 3:
                    row["status"] = "rejected"
                    rows.append(row)
                    continue
                try:
                    rep = progressions.check_conjecture(m, n, k, cap=args.cap)
                except BudgetExceededError:
                    row["status"] = "budget"
                    rows.append(row)
                    continue
                row["status"] = "agree" if rep.agrees else "disagree"
                row["conjectured"] = ";".join(map(str, rep.conjectured))
                row["brute_force"] = ";".join(map(str, rep.brute_force))
                if not rep.agrees:
                    diff = sorted(
                        set(rep.conjectured) ^ set(rep.brute_force)
                    )
                    row["witness"] = ";".join(map(str, diff))
                rows.append(row)
    counts = {}
    for row in rows:
        counts[row["status"]] = counts.get(row["status"], 0) + 1
    fields = ["k", "m", "n", "status", "conjectured", "brute_force", "witness"]
    if args.format == "json":
        _emit_json({"rows": rows, "summary": counts})
    elif args.format == "csv":
        _emit_csv(fields, rows)
    else:
        for row in rows:
            line = (f"k={row['k']} m={row['m']} n={row['n']}: {row['status']}")
            if row["status"] == "disagree":
                line += (f" conjectured={{{row['conjectured']}}}"
                         f" brute={{{row['brute_force']}}}"
                         f" differing_gcds={{{row['witness']}}}")
            print(line)
        print("summary: " + " ".join(
            f"{k}={v}" for k, v in sorted(counts.items())
        ))
    return EXIT_OK


# ---------------------------------------------------------- verify-file

def cmd_verify_file(args) -> int:
    sets = read_residue_file(args.path)
    rows = []
    for i, residues in enumerate(sets, start=1):
        if residues and residues[-1] >= args.n:
            raise InvalidArgumentError(
                f"set {i} has residue {residues[-1]} >= modulus {args.n}"
            )
        hit = progressions.find_contained_progression(residues, args.n, args.k)
        rows.append({
            "set": i,
            "size": len(residues),
            "free": hit is None,
            "witness": "" if hit is None else ";".join(map(str, hit.elements)),
        })
    if args.format == "json":
        _emit_json(rows)
    elif args.format == "csv":
        _emit_csv(["set", "size", "free", "witness"], rows)
    else:
        for row in rows:
            if row["free"]:
                print(f"set {row['set']}: ok ({row['size']} residues)")
            else:
                witness = row["witness"].replace(";", ",")
                print(f"set {row['set']}: FAIL contains {witness}")
    return EXIT_OK


# ----------------------------------------------------------------- main

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["json", "csv", "text"],
                        default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclicvdw",
        description="Progression-free subsets of Z_N, forbidden-set "
                    "constructions, exact search, and cyclic Van der Waerden "
                    "lower bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diffs", help="difference-gcd set D(N,k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=["closed", "brute", "both"],
                   default="brute")
    _add_common(p)
    p.set_defaults(func=cmd_diffs)

    p = sub.add_parser("construct", help="forbidden set F and bounds on b(mk,k)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--verify", action="store_true",
                   help="re-check that Z_mk \\ F is progression-free")
    _add_common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("exact", help="exact b(N,k) or chi(N,k) by search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--what", choices=["b", "chi"], required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--max-exact-n", type=int, default=DEFAULT_MAX_EXACT_N)
    p.add_argument("--budget-nodes", type=int, default=10**8)
    p.add_argument("--budget-seconds", type=float, default=60.0)
    p.add_argument("--cache", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("partition", help="progression-free partition of Z_mk")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("sweep", help="batch table over a (k, m) grid")
    p.add_argument("--k", required=True, help="inclusive range, e.g. 3..6")
    p.add_argument("--m", required=True, help="inclusive range, e.g. 1..6")
    p.add_argument("--what", choices=["bounds", "partition", "wc"],
                   required=True)
    p.add_argument("--cache", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("conjecture",
                       help="compare conjectured D(mk,nk) to brute force")
    p.add_argument("--m", required=True, help="inclusive range")
    p.add_argument("--n", required=True, help="inclusive range")
    p.add_argument("--k", required=True, help="inclusive range")
    p.add_argument("--cap", type=int, default=2000,
                   help="refuse moduli mk above this")
    _add_common(p)
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("verify-file",
                       help="check residue-set file lines for progression-freeness")
    p.add_argument("path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_verify_file)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (*PRECONDITION_ERRORS, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInconsistencyError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
