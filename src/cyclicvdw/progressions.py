"""k-term cyclic arithmetic progressions mod N and difference-gcd sets D(N, k).

A progression is identified by its element set, never by a particular
(base, diff) generating pair; many pairs can generate the same set.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import itemgetter

from .errors import (
    BudgetExceededError,
    DegenerateProgressionError,
    InvalidArgumentError,
)

# Enumeration refuses moduli above this unless explicitly overridden; the
# returned list, up to N*|D| progressions of k elements each, is what eats
# memory.
DEFAULT_ENUMERATION_CAP = 10_000

METHOD_BRUTE_FORCE = "brute_force"
METHOD_CLOSED_FORM = "closed_form"
METHOD_CONJECTURE = "conjecture"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidArgumentError(msg)


@dataclass(frozen=True, slots=True)
class CyclicProgression:
    """A k-element residue set mod N realized as an arithmetic progression.

    `elements` is the strictly increasing residue tuple; (witnessed_base,
    witnessed_diff) is one generating pair, kept for provenance only.
    """

    modulus: int
    elements: tuple[int, ...]
    witnessed_base: int
    witnessed_diff: int

    @property
    def length(self) -> int:
        return len(self.elements)

    def to_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "elements": list(self.elements),
            "base": self.witnessed_base,
            "diff": self.witnessed_diff,
        }


@dataclass(frozen=True)
class DifferenceSet:
    """The set D(N, k) of gcd(d, k) values over admissible common differences d."""

    modulus: int
    length: int
    values: tuple[int, ...]
    method: str

    def to_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "length": self.length,
            "values": list(self.values),
            "method": self.method,
        }


def subgroup_order(modulus: int, d: int) -> int:
    """Order of the cyclic subgroup of Z_modulus generated by d."""
    _require(modulus >= 1, f"modulus must be positive, got {modulus}")
    _require(1 <= d <= modulus - 1, f"d must lie in 1..{modulus - 1}, got {d}")
    return modulus // gcd(d, modulus)


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


def make_progression(modulus: int, base: int, diff: int, k: int) -> CyclicProgression:
    """Build the progression {(base + i*diff) mod N : 0 <= i < k}.

    Fails with DegenerateProgressionError when the k generated values are not
    all distinct.
    """
    _require(modulus >= 1, f"modulus must be positive, got {modulus}")
    _require(k >= 3, f"k must be >= 3, got {k}")
    base %= modulus
    diff %= modulus
    seen = set()
    x = base
    for _ in range(k):
        seen.add(x)
        x = (x + diff) % modulus
    if len(seen) < k:
        raise DegenerateProgressionError(modulus, base, diff, k, len(seen))
    return CyclicProgression(modulus, tuple(sorted(seen)), base, diff)


def enumerate_progressions(
    modulus: int, k: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[CyclicProgression]:
    """Every distinct k-term progression mod N, each element set exactly once.

    Returns [] when k > N.  The list is sorted by element tuple, and
    `edge_masks` and the search node counts that follow from it rely on
    that order.  The witnessed pair of each progression uses the smallest
    canonical difference, then the smallest base.

    Each progression P is S + min(P) for exactly one S containing 0 with
    max(S) < N - min(P), so only the family of progressions through 0 is
    built and deduped; translating it by a = 0, 1, ... emits P in sorted
    order.  A translate keeps the difference of the witness and moves its
    base by a, since two bases share one canonical difference only when P
    is a whole coset of the subgroup, whose smallest base is min(P).
    """
    _require(k >= 3, f"k must be >= 3, got {k}")
    _require(
        modulus <= cap,
        f"modulus {modulus} exceeds enumeration cap {cap}; pass cap= to override",
    )
    if k > modulus:
        return []
    family: dict[tuple[int, ...], tuple[int, int]] = {}
    for d in canonical_diffs(modulus, k):
        g = gcd(modulus, d)
        if d != g and modulus // g <= k + 1:
            # Through 0, a d of order k or k+1 yields only gZ_N or gZ_N minus
            # a point: the progressions of the smaller difference g.
            continue
        # The window line[s:s + k] is the progression through 0 with base
        # line[s].  Base 0 (s = k - 1) goes first: when d has order k every
        # window is gZ_N, whose smallest base is 0.
        line = [j * d % modulus for j in range(1 - k, k)]
        for s in range(k - 1, -1, -1):
            window = line[s:s + k]
            family.setdefault(tuple(sorted(window)), (window[0], d))
    rows = [(elems[-1], itemgetter(*elems), t, d)
            for elems, (t, d) in sorted(family.items())]
    # pick(residues[a:]) is S + a and residues[t + a] is (t + a) mod N; reading
    # both out of one list shares the int objects between translates instead
    # of allocating k new ones for each.
    residues = list(range(modulus)) * 2
    out: list[CyclicProgression] = []
    for a in range(modulus):
        # Drop the members whose translate by a would wrap past N - 1.
        rows = [row for row in rows if row[0] < modulus - a]
        shifted = residues[a:]
        out += [CyclicProgression(modulus, pick(shifted), residues[t + a], d)
                for _, pick, t, d in rows]
    return out


def edge_masks(modulus: int, k: int) -> list[int]:
    """Bitmasks (bit v for residue v) of enumerate_progressions(N, k), in order."""
    return [sum(1 << v for v in p.elements) for p in enumerate_progressions(modulus, k)]


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
    if k > modulus or len(s) < k:
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
            return make_progression(modulus, (hits & -hits).bit_length() - 1, d, k)
    return None


def difference_gcd_set(
    modulus: int, k: int, method: str = METHOD_BRUTE_FORCE
) -> DifferenceSet:
    """D(N, k), either by brute force over canonical differences or, when N is a
    multiple of k, by the closed form {g : 1 <= g <= N/k, g | k}."""
    _require(k >= 3, f"k must be >= 3, got {k}")
    if method == METHOD_BRUTE_FORCE:
        _require(modulus >= k, f"brute force needs N >= k, got N={modulus}, k={k}")
        values = sorted({gcd(d, k) for d in canonical_diffs(modulus, k)})
    elif method == METHOD_CLOSED_FORM:
        _require(
            modulus % k == 0,
            f"closed form requires k | N, got N={modulus}, k={k}",
        )
        m = modulus // k
        values = [g for g in range(1, m + 1) if k % g == 0]
    else:
        raise InvalidArgumentError(f"unknown method {method!r}")
    return DifferenceSet(modulus, k, tuple(values), method)


def conjectured_difference_set(m: int, n: int, k: int) -> DifferenceSet:
    """The conjectured D(mk, nk) = {1 <= g <= m : g | nk} for m > n >= 1."""
    _require(m > n >= 1, f"need m > n >= 1, got m={m}, n={n}")
    _require(n * k >= 3, f"progression length nk must be >= 3, got {n * k}")
    values = tuple(g for g in range(1, m + 1) if (n * k) % g == 0)
    return DifferenceSet(m * k, n * k, values, METHOD_CONJECTURE)


@dataclass(frozen=True)
class ConjectureReport:
    """Comparison of the conjectured D(mk, nk) against brute-force enumeration."""

    m: int
    n: int
    k: int
    conjectured: tuple[int, ...]
    brute_force: tuple[int, ...]
    agrees: bool

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "conjectured": list(self.conjectured),
            "brute_force": list(self.brute_force),
            "agrees": self.agrees,
        }


def check_conjecture(m: int, n: int, k: int, cap: int = 2000) -> ConjectureReport:
    """Compare the conjectured D(mk, nk) to brute force over Z_mk.

    The brute force uses progression length nk and modulus mk; refuses moduli
    above `cap`.
    """
    conj = conjectured_difference_set(m, n, k)
    if m * k > cap:
        raise BudgetExceededError(f"modulus {m * k} exceeds enumeration cap {cap}")
    brute = difference_gcd_set(m * k, n * k, METHOD_BRUTE_FORCE)
    return ConjectureReport(
        m, n, k, conj.values, brute.values, conj.values == brute.values
    )
