"""Forbidden sets F in Z_mk whose complements avoid k-term cyclic progressions.

F is built from the closed-form difference-gcd set D(mk, k) as a union of
disjoint blocks, one per element of D; removing F from Z_mk yields a
progression-free set B, which gives the lower bound of the two-sided bound
on the independence number b(mk, k).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgumentError
from .progressions import (
    METHOD_CLOSED_FORM,
    CyclicProgression,
    _require,
    difference_gcd_set,
)
from .serialize import record_dict

EXACT_BY_SINGLETON = "D-singleton"
EXACT_BY_SEARCH = "search"
EXACT_NONE = "none"


@dataclass(frozen=True)
class ForbiddenSet:
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


@dataclass(frozen=True)
class BoundsReport:
    """Two-sided bounds on b(mk, k), with the exact value when it is forced."""

    m: int
    k: int
    lower: int
    upper: int
    exact: int | None = None
    exactness_reason: str = EXACT_NONE

    to_dict = record_dict


@dataclass(frozen=True)
class ProgressionClassWitness:
    """Why a given progression A must meet F: its congruence class beta mod d,
    the lattice S of residues = -alpha mod k, the run of d cyclically
    consecutive S-elements inside A, and one of them landing in F."""

    m: int
    k: int
    progression: tuple[int, ...]
    d: int
    beta: int
    alpha: int
    lattice: tuple[int, ...]
    window: tuple[int, ...]
    hit: int


def closed_diffs(m: int, k: int) -> tuple[int, ...]:
    """Sorted D(mk, k) = {g : 1 <= g <= m, g | k}."""
    _require(m >= 1, f"m must be positive, got {m}")
    return difference_gcd_set(m * k, k, METHOD_CLOSED_FORM).values


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


def witness_class(m: int, k: int, a: CyclicProgression) -> ProgressionClassWitness:
    """Trace why progression A meets F: A must have a generating difference
    d in D(mk, k); its elements then sit in one class beta mod d and contain
    d cyclically consecutive points of the lattice S = {jk - alpha}, one of
    which has index >= d and therefore lies in F."""
    n = m * k
    _require(a.modulus == n, f"progression modulus {a.modulus} != mk = {n}")
    _require(len(a.elements) == k, f"progression length {len(a.elements)} != k = {k}")
    d = base = None
    elems = set(a.elements)
    for cand in closed_diffs(m, k):
        for t in a.elements:
            if {(t + i * cand) % n for i in range(k)} == elems:
                d, base = cand, t
                break
        if d is not None:
            break
    if d is None:
        raise InvalidArgumentError(
            f"progression has no generating difference in D({n},{k})"
        )
    beta = base % d
    alpha = d - beta
    lattice = tuple((j * k - alpha) % n for j in range(1, m + 1))
    # Smallest r0 in [0, k/d) with d*r == -(alpha + base) (mod k); stepping by
    # k/d from it walks the window of d consecutive lattice indices inside A.
    step = k // d
    r0 = ((-(alpha + base)) % k // d) % step
    window = tuple(
        sorted((base + d * (r0 + u * step)) % n for u in range(d))
    )
    forbidden = set(build_forbidden(m, k).union)
    hit = None
    for w in window:
        if w not in elems:
            raise InvalidArgumentError(
                f"window element {w} escaped the progression; unexpected structure"
            )
        j = (w + alpha) // k  # lattice index in 1..m
        if j >= d and hit is None:
            hit = w
    if hit is None or hit not in forbidden:
        raise InvalidArgumentError(
            f"no window element landed in F for progression {a.elements}"
        )
    return ProgressionClassWitness(
        m, k, a.elements, d, beta, alpha, lattice, window, hit
    )
