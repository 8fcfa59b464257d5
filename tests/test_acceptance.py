"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` to get the per-criterion
verdicts as test outcomes; the printed lines appear under `-s` or `-rA`.
"""

import time

from cyclicvdw import (
    build_avoiding,
    build_forbidden,
    build_partition,
    check_conjecture,
    enumerate_progressions,
    forbidden_size_formula,
    independence_number,
    split_alternating,
    theorem_bounds,
    wc_lower_bounds,
)
from cyclicvdw.coloring import gamma_parts
from cyclicvdw.construction import closed_diffs
from cyclicvdw.progressions import difference_gcd_set
from cyclicvdw.search import STATUS_EXACT, SearchBudget

import helpers

F_10_9 = (
    8, 17, 24, 25, 26, 33, 34, 35, 42, 43, 44, 51, 52, 53, 60, 61, 62,
    69, 70, 71, 72, 73, 74, 75, 76, 77, 78, 79, 80, 81, 82, 83, 84, 85,
    86, 87, 88, 89,
)


def report(num, title, ok):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}]: {title}")
    assert ok, f"criterion {num} failed: {title}"


def pairs(limit, k_min=3):
    for n in range(k_min, limit + 1):
        for k in range(k_min, n + 1):
            if n % k == 0:
                yield n // k, k


def test_criterion_01_forbidden_set_regression():
    start = time.monotonic()
    ok = (
        build_forbidden(3, 15).union == (14, 29, 42, 43, 44)
        and build_forbidden(10, 9).union == F_10_9
    )
    ok = ok and time.monotonic() - start < 1.0
    report(1, "forbidden-set examples match frozen lists in < 1 s", ok)


def test_criterion_02_bounds_regression():
    start = time.monotonic()
    b1 = theorem_bounds(3, 4)
    b2 = theorem_bounds(9, 9)
    ok = (b1.lower, b1.upper) == (7, 9) and (b2.lower, b2.upper) == (52, 72)
    for p in (3, 5, 7, 11, 13):
        bp = theorem_bounds(p, p)
        ok = ok and (bp.lower, bp.upper) == ((p - 1) ** 2, p * (p - 1))
    ok = ok and time.monotonic() - start < 1.0
    report(2, "two-sided bounds match frozen integers in < 1 s", ok)


def test_criterion_03_avoidance_by_full_enumeration():
    start = time.monotonic()
    ok = True
    for m, k in pairs(200):
        avoiding = set(build_avoiding(m, k))
        for p in enumerate_progressions(m * k, k):
            if avoiding.issuperset(p.elements):
                ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    report(3, "avoiding sets free of progressions for mk <= 200 in < 2 min", ok)


def test_criterion_04_difference_set_oracle_equivalence():
    ok = True
    for m, k in pairs(200):
        closed = closed_diffs(m, k)
        brute = difference_gcd_set(m * k, k)
        if closed != brute:
            ok = False
    report(4, "closed-form D(mk,k) equals brute force for mk <= 200", ok)


def test_criterion_05_construction_invariants():
    ok = True
    for m, k in pairs(500):
        forb = build_forbidden(m, k)
        seen = set()
        for block in forb.blocks:
            if seen & set(block):
                ok = False
            seen |= set(block)
        if len(seen) != forbidden_size_formula(m, k):
            ok = False
    report(5, "blocks disjoint and |F| matches the size formula for mk <= 500", ok)


def test_criterion_06_exact_search_oracle():
    start = time.monotonic()
    ok = True
    for n in range(3, 19):
        for k in range(3, n + 1):
            res = independence_number(n, k)
            if res.status != STATUS_EXACT:
                ok = False
            if res.value != helpers.naive_independence_number(n, k):
                ok = False
        if independence_number(n, n).value != n - 1:
            ok = False
        if independence_number(n, n + 1).value != n:
            ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    report(6, "search matches the 2^N exhaustive oracle for N <= 18 in < 5 min", ok)


def test_criterion_07_sandwich_property():
    budget = SearchBudget(max_nodes=5_000_000, max_seconds=5.0)
    ok = True
    for m, k in pairs(40):
        b = theorem_bounds(m, k)
        res = independence_number(m * k, k, budget=budget)
        if res.status != STATUS_EXACT:
            continue
        if not (b.lower <= res.value <= b.upper):
            ok = False
        diffs = closed_diffs(m, k)
        if len(diffs) > 1 and res.value >= b.upper:
            ok = False
    report(7, "exact values sit inside the bounds, strictly when |D| > 1", ok)


def test_criterion_08_coloring_propositions():
    ok = True
    for m, k in pairs(150):
        if k <= m:
            continue
        if build_partition(m, k).part_count != 2:
            ok = False
    for k in range(3, 11):
        if build_partition(k, k).part_count > 3:
            ok = False
    for m, k in pairs(150):
        if k >= m:
            continue
        if build_partition(m, k).part_count > 3 + gamma_parts(m, k):
            ok = False
    # Neither half of the alternating split holds all of F_0 or all of the
    # k largest elements of F.
    for k in range(3, 11):
        forb = build_forbidden(k, k)
        first, second = split_alternating(forb.union, k)
        f0 = set(forb.blocks[0])
        top = set(sorted(forb.union)[-k:])
        for half in (set(first), set(second)):
            if f0 <= half or top <= half:
                ok = False
    report(8, "partition part counts and the alternating-split conclusions hold", ok)


def test_criterion_09_wc_table():
    ok = True
    for k in (3, 4, 5):
        rows = wc_lower_bounds(k, 2 * k)
        expected = [(2, k * (k - 1)), (3, k * k)]
        expected += [
            (3 + gamma_parts(m, k), m * k) for m in range(k + 1, 2 * k + 1)
        ]
        if [(r.r, r.strict_lower) for r in rows] != expected:
            ok = False
    report(9, "wc_lower_bounds(k, 2k) matches the formula rows for k in 3..5", ok)


def test_criterion_10_conjecture_sweep():
    ok = True
    agree = disagree = 0
    for k in range(1, 121):
        for m in range(2, 120 // k + 1):
            for n in range(1, m):
                if n * k < 3:
                    continue
                rep = check_conjecture(m, n, k)
                if rep.agrees:
                    agree += 1
                else:
                    disagree += 1
                if n == 1 and not rep.agrees:
                    ok = False
    print(f"conjecture sweep: {agree} agree, {disagree} disagree")
    report(10, "conjecture sweep completes for mk <= 120 with n = 1 all agreeing", ok)
