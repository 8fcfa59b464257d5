"""Brute-force oracles kept independent of the library code paths they check."""

from itertools import combinations
from math import gcd

import numpy as np


def brute_canonical_diffs(n, k):
    """Canonical differences via raw (t, d) generation, no divisibility shortcuts."""
    out = set()
    for d in range(1, n):
        elems = {(i * d) % n for i in range(k)}
        if len(elems) == k:
            out.add(min(d, n - d))
    return sorted(out)


def brute_progression_sets(n, k):
    """Every distinct k-term progression element set over all (t, d) pairs."""
    sets = set()
    for d in range(1, n):
        for t in range(n):
            elems = frozenset((t + i * d) % n for i in range(k))
            if len(elems) == k:
                sets.add(elems)
    return sets


def brute_difference_set(n, k):
    return sorted({gcd(d, k) for d in brute_canonical_diffs(n, k)})


def edge_masks(n, k):
    masks = []
    for elems in sorted(brute_progression_sets(n, k)):
        m = 0
        for v in elems:
            m |= 1 << v
        masks.append(m)
    return masks


def naive_independence_number(n, k):
    """Exhaustive scan of all 2^n subsets, vectorized; feasible to n ~ 20."""
    edges = edge_masks(n, k)
    total = 1 << n
    masks = np.arange(total, dtype=np.uint32)
    contains = np.zeros(total, dtype=bool)
    for e in edges:
        contains |= (masks & np.uint32(e)) == np.uint32(e)
    popcount = np.zeros(total, dtype=np.uint8)
    for bit in range(n):
        popcount += ((masks >> np.uint32(bit)) & np.uint32(1)).astype(np.uint8)
    popcount[contains] = 0
    if not edges:
        return n
    return int(popcount.max())


def tiny_independence_number(n, k):
    """Pure-python top-down scan, usable as a second cross-check for n <= 14."""
    edges = [set(e) for e in brute_progression_sets(n, k)]
    if not edges:
        return n
    for size in range(n, 0, -1):
        for combo in combinations(range(n), size):
            cs = set(combo)
            if not any(e <= cs for e in edges):
                return size
    return 0


def fixed_order_colorable(n, k, r):
    """Whether Z_n has an r-coloring with no monochromatic k-term progression.

    Plain backtracking over vertices 0, 1, ..., n-1 in order, trying colors
    in order and never one beyond the first unused color.  An edge is checked
    only at its largest vertex, when its last vertex is colored.  This is the
    oracle for refutations, which cannot be re-verified the way a coloring
    can.
    """
    closing = [[] for _ in range(n)]  # other vertices of the edges topped by v
    for e in brute_progression_sets(n, k):
        top = max(e)
        closing[top].append(sum(1 << v for v in e if v != top))
    cls = [0] * r

    def rec(v, used):
        if v == n:
            return True
        for c in range(min(used + 1, r)):
            if any(o & cls[c] == o for o in closing[v]):
                continue
            cls[c] |= 1 << v
            if rec(v + 1, max(used, c + 1)):
                return True
            cls[c] ^= 1 << v
        return False

    return rec(0, 0)


def contains_progression(residues, n, k):
    s = set(residues)
    return any(e <= s for e in brute_progression_sets(n, k))
