"""k-term cyclic arithmetic progressions mod N and difference-gcd sets D(N, k).

A progression is identified by its element set, never by a particular
(base, diff) generating pair; many pairs can generate the same set.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from math import gcd
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .errors import InvalidArgumentError

# Enumeration refuses moduli above this.  Its list holds N*|canonical_diffs|,
# about N^2/2, progressions (495,000 at (1000, 7), where |D| = 2) of about 150
# bytes each at k = 7 (88 MB peak RSS at (1000, 7)); by arithmetic, not a run,
# the cap admits about 50 million at k = 3, several GB.
ENUMERATION_CAP = 10_000
# difference_gcd_set refuses moduli above this.  Its scan of N/2 differences
# takes 1.2 s and 210 MB peak RSS at the cap (k = 3, Python 3.11, x86-64).
DIFFERENCE_SCAN_CAP = 10**7


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidArgumentError(msg)


class CyclicProgression:
    """A k-term progression mod N; `elements` is its strictly increasing residue
    tuple.  Immutable.  Not a NamedTuple: one is 48 bytes against a two-field
    named tuple's 56, enumeration holds about N^2/2 of them, and a progression
    must not equal the plain tuple (N, elements)."""

    __slots__ = ("_modulus", "_elements")
    modulus = property(attrgetter("_modulus"))
    elements = property(attrgetter("_elements"))

    def __init__(self, modulus: int, elements: tuple[int, ...]) -> None:
        self._modulus, self._elements = modulus, elements

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self._modulus, self._elements) == (other._modulus, other._elements)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._modulus, self._elements))

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(modulus={self._modulus!r}, "
                f"elements={self._elements!r})")


def canonical_diffs(modulus: int, k: int) -> tuple[int, ...]:
    """All canonical common differences 0 < d < N/2 admitting a k-term progression.

    A difference d works iff k <= N/gcd(N, d); for even N the value N/2 never
    appears since a progression with that difference has only two elements.
    """
    _require(k >= 3, f"k must be >= 3, got {k}")
    _require(modulus >= k, f"modulus must be >= k, got N={modulus}, k={k}")
    return tuple(
        d for d in range(1, (modulus + 1) // 2) if k * gcd(modulus, d) <= modulus
    )


def enumerate_progressions(modulus: int, k: int) -> list[CyclicProgression]:
    """Every distinct k-term progression mod N, each element set exactly once.

    N must be at least 1, and the list is [] when k > N.  This is the exact
    searches' check of (N, k).  The list is sorted by element tuple; the
    searches take it as their edge order, and their node counts rely on it.

    Each progression P is S + min(P) for exactly one S containing 0 with
    max(S) < N - min(P), so only the family of progressions through 0 is
    built and deduped; translating it by a = 0, 1, ... emits P in sorted
    order.
    """
    _require(modulus >= 1, f"modulus must be positive, got {modulus}")
    _require(k >= 3, f"k must be >= 3, got {k}")
    _require(
        modulus <= ENUMERATION_CAP,
        f"modulus {modulus} exceeds the enumeration limit {ENUMERATION_CAP}",
    )
    if k > modulus:
        return []
    family: set[tuple[int, ...]] = set()
    for d in canonical_diffs(modulus, k):
        g = gcd(modulus, d)
        if d != g and modulus // g <= k + 1:
            # Through 0, a d of order k or k+1 yields only gZ_N or gZ_N minus
            # a point: the progressions of the smaller difference g.
            continue
        # The windows line[s:s + k] are the progressions through 0.
        line = [j * d % modulus for j in range(1 - k, k)]
        family.update(tuple(sorted(line[s:s + k])) for s in range(k))
    rows = [(elems[-1], itemgetter(*elems)) for elems in sorted(family)]
    # pick(residues[a:]) is S + a; reading it out of one list shares the int
    # objects between translates instead of allocating k new ones for each.
    residues = list(range(modulus))
    out: list[CyclicProgression] = []
    # The records hold no cycles, so collector passes over the list free nothing.
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        for a in range(modulus):
            # Drop the members whose translate by a would wrap past N - 1.
            rows = [row for row in rows if row[0] < modulus - a]
            shifted = residues[a:]
            out += [CyclicProgression(modulus, pick(shifted)) for _, pick in rows]
    finally:
        if gc_was_on:
            gc.enable()
    return out


def find_contained_progression(
    residues, modulus: int, k: int
) -> CyclicProgression | None:
    """Some k-term progression mod N lying entirely inside the given set, or None.

    For each canonical difference d, bit t of the set mask ANDed with its
    rotations by d, 2d, ..., (k-1)d marks the bases t whose progression lies
    inside; the first hit in (d, t) order wins.
    """
    _require(k >= 3, f"k must be >= 3, got {k}")
    s = set(residues)
    _require(
        all(0 <= x < modulus for x in s),
        f"residues must lie in 0..{modulus - 1}",
    )
    if len(s) < k:
        return None
    mask = sum(1 << x for x in s)
    for d in canonical_diffs(modulus, k):
        hits = mask
        for i in range(1, k):
            shift = i * d % modulus
            # Bit t of the rotation is bit t + shift (mod N) of the set.
            hits &= (mask >> shift) | (mask << (modulus - shift))
            if not hits:
                break
        else:
            t = (hits & -hits).bit_length() - 1
            return CyclicProgression(
                modulus, tuple(sorted((t + i * d) % modulus for i in range(k))))
    return None


def is_free_witness(n: int, k: int, size: int, witness) -> bool:
    """True iff `witness` is a list or tuple of `size` distinct int residues
    below n holding no k-term progression mod n."""
    return (isinstance(witness, (list, tuple))
            and all(type(x) is int and 0 <= x < n for x in witness)
            and len(set(witness)) == len(witness) == size
            and find_contained_progression(witness, n, k) is None)


def is_proper_coloring(n: int, k: int, colors: int, coloring) -> bool:
    """True iff `coloring` is a list or tuple of n int entries in
    range(colors) with no monochromatic k-term progression mod n."""
    if not isinstance(coloring, (list, tuple)) or len(coloring) != n:
        return False
    classes: defaultdict[int, list[int]] = defaultdict(list)
    for x, c in enumerate(coloring):
        if type(c) is not int or not 0 <= c < colors:
            return False
        classes[c].append(x)
    return all(find_contained_progression(part, n, k) is None
               for part in classes.values())


def difference_gcd_set(modulus: int, k: int) -> tuple[int, ...]:
    """Sorted D(N, k): gcd(d, k) over the canonical differences d, by brute force.
    The closed form for k | N is `construction.closed_diffs`."""
    _require(modulus <= DIFFERENCE_SCAN_CAP, f"modulus {modulus} exceeds the "
             f"difference-set limit {DIFFERENCE_SCAN_CAP}")
    return tuple(sorted({gcd(d, k) for d in canonical_diffs(modulus, k)}))


def conjectured_difference_set(m: int, n: int, k: int) -> tuple[int, ...]:
    """The conjectured D(mk, nk) = {1 <= g <= m : g | nk} for m > n >= 1."""
    _require(m > n >= 1, f"need m > n >= 1, got m={m}, n={n}")
    _require(n * k >= 3, f"progression length nk must be >= 3, got {n * k}")
    return tuple(g for g in range(1, min(m, n * k) + 1) if (n * k) % g == 0)


class ConjectureReport(NamedTuple):
    """Comparison of the conjectured D(mk, nk) against brute-force enumeration."""

    m: int
    n: int
    k: int
    conjectured: tuple[int, ...]
    brute_force: tuple[int, ...]
    agrees: bool


def check_conjecture(m: int, n: int, k: int) -> ConjectureReport:
    """Compare the conjectured D(mk, nk) to brute force over Z_mk.

    The brute force uses progression length nk and modulus mk.
    """
    conj = conjectured_difference_set(m, n, k)
    brute = difference_gcd_set(m * k, n * k)
    return ConjectureReport(m, n, k, conj, brute, conj == brute)
