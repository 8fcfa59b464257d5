"""Forbidden sets F in Z_mk whose complements avoid k-term cyclic progressions.

F is built from the closed-form difference-gcd set D(mk, k) as a union of
disjoint blocks, one per element of D; removing F from Z_mk yields a
progression-free set B, which gives the lower bound of the two-sided bound
on the independence number b(mk, k).
"""

from __future__ import annotations

from typing import NamedTuple

from .progressions import _require
from .serialize import record_dict

EXACT_BY_SINGLETON = "D-singleton"
EXACT_BY_SEARCH = "search"
EXACT_NONE = "none"


class ForbiddenSet(NamedTuple):
    """Blocks F_0..F_j and their union, indexed by the sorted closed-form D(mk,k)."""

    m: int
    k: int
    diffs: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    union: tuple[int, ...]

    @property
    def modulus(self) -> int:
        return self.m * self.k

    def to_dict(self) -> dict:
        d = {
            "m": self.m,
            "k": self.k,
            "modulus": self.modulus,
            "diffs": list(self.diffs),
            "union": list(self.union),
        }
        for i, block in enumerate(self.blocks):
            d[f"F_{i}"] = list(block)
        return d


class BoundsReport(NamedTuple):
    """Two-sided bounds on b(mk, k), with the exact value when it is forced."""

    m: int
    k: int
    lower: int
    upper: int
    exact: int | None = None
    exactness_reason: str = EXACT_NONE

    to_dict = record_dict


def closed_diffs(m: int, k: int) -> tuple[int, ...]:
    """Sorted D(mk, k) = {g : 1 <= g <= m, g | k}, by the closed form."""
    _require(m >= 1, f"m must be positive, got {m}")
    _require(k >= 3, f"k must be >= 3, got {k}")
    return tuple(g for g in range(1, min(m, k) + 1) if k % g == 0)


def build_forbidden(m: int, k: int) -> ForbiddenSet:
    """Assemble the blocked set F of Z_mk whose complement is progression-free."""
    n = m * k
    diffs = closed_diffs(m, k)
    blocks = []
    prev = 0
    for d in diffs:
        block = set()
        for alpha in range(prev + 1, d + 1):
            for j in range(d, m + 1):
                block.add((j * k - alpha) % n)
        blocks.append(tuple(sorted(block)))
        prev = d
    union = sorted(x for block in blocks for x in block)
    return ForbiddenSet(m, k, diffs, tuple(blocks), tuple(union))


def forbidden_size_formula(m: int, k: int) -> int:
    """|F| = sum over D(mk,k) of (d_i - d_{i-1}) * (m - d_i + 1)."""
    total = 0
    prev = 0
    for d in closed_diffs(m, k):
        total += (d - prev) * (m - d + 1)
        prev = d
    return total


def build_avoiding(m: int, k: int) -> tuple[int, ...]:
    """B = Z_mk \\ F; contains no k-term cyclic progression mod mk."""
    forb = set(build_forbidden(m, k).union)
    return tuple(x for x in range(m * k) if x not in forb)


def theorem_bounds(m: int, k: int) -> BoundsReport:
    """mk - |F| <= b(mk, k) <= mk - m, exact when they meet, iff D(mk,k) = {1}."""
    lower = m * k - forbidden_size_formula(m, k)
    upper = m * k - m
    if lower == upper:
        return BoundsReport(m, k, lower, upper, upper, EXACT_BY_SINGLETON)
    return BoundsReport(m, k, lower, upper)
