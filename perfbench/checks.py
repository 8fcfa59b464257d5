"""Correctness checks owned by the benchmark, independent of the library.

Every routine here works from first principles on int bitmasks over Z_n
(bit x set means residue x is present) and calls nothing in `cyclicvdw`.
"""

from __future__ import annotations

from math import ceil, gcd

# Modulus of the order-independent fingerprint of a family of edge masks.
_FP_MOD = (1 << 61) - 1


def to_mask(elems) -> int:
    mask = 0
    for x in elems:
        mask |= 1 << x
    return mask


def _rot_down(mask: int, shift: int, n: int, full: int) -> int:
    """Bit t of the result is bit (t + shift) mod n of `mask`."""
    return ((mask >> shift) | (mask << (n - shift))) & full


def find_ap(elems, n: int, k: int) -> tuple[int, int] | None:
    """Some (t, d) whose k-term progression mod n lies inside `elems`, or None.

    Brute force over every difference d (d and n - d give the same sets) and
    every base t at once: bit t of `acc` survives step i iff t + i*d is in
    the set.  Differences of additive order below k are skipped, because
    their k terms are not distinct.
    """
    s = to_mask(elems)
    if s.bit_count() < k:
        return None
    full = (1 << n) - 1
    for d in range(1, n // 2 + 1):
        if n // gcd(n, d) < k:
            continue
        acc = s
        for i in range(1, k):
            acc &= _rot_down(s, i * d % n, n, full)
            if not acc:
                break
        else:
            return (acc & -acc).bit_length() - 1, d
    return None


def is_progression(elems, n: int, k: int) -> bool:
    """True iff `elems` is exactly the element set of a k-term progression mod n."""
    return len(set(elems)) == k and all(0 <= x < n for x in elems) and (
        find_ap(elems, n, k) is not None
    )


def progression_fingerprint(n: int, k: int) -> tuple[int, int]:
    """(count, fingerprint) of every distinct k-term progression mod n,
    generated from all (t, d) pairs and deduplicated as masks."""
    full = (1 << n) - 1
    masks = set()
    for d in range(1, n // 2 + 1):
        if n // gcd(n, d) < k:
            continue
        base = to_mask(i * d % n for i in range(k))
        for t in range(n):
            masks.add(((base << t) | (base >> (n - t))) & full)
    return len(masks), sum(masks) % _FP_MOD


def edges_fingerprint(edges) -> tuple[int, int]:
    """(count, fingerprint) of a list of progressions, as for the oracle above."""
    total = 0
    for p in edges:
        total += to_mask(p.elements)
    return len(edges), total % _FP_MOD


def partition_errors(parts, n: int, k: int) -> list[str]:
    """Problems with `parts` as a partition of Z_n into progression-free parts."""
    errors = []
    seen = 0
    for label, elems in parts:
        mask = to_mask(elems)
        if len(elems) != len(set(elems)) or not all(0 <= x < n for x in elems):
            errors.append(f"part {label} has repeated or out-of-range residues")
        if mask & seen:
            errors.append(f"part {label} overlaps an earlier part")
        seen |= mask
        hit = find_ap(elems, n, k)
        if hit is not None:
            errors.append(f"part {label} contains the progression (t,d)={hit}")
    if seen != (1 << n) - 1:
        errors.append("parts do not cover Z_n")
    return errors


def expected_part_count(m: int, k: int) -> int:
    """Parts in the paper's partition of Z_mk: 2, 3 or 3 + ceil((m-k)k/(k-1))."""
    if k > m:
        return 2
    if k == m:
        return 3
    return 3 + ceil((m - k) * k / (k - 1))


def d_singleton(m: int, k: int) -> bool:
    """True iff no divisor g of k has 1 < g <= m, i.e. D(mk, k) = {1}."""
    return not any(k % g == 0 for g in range(2, min(m, k) + 1))


def brute_gcd_set(modulus: int, length: int) -> tuple[int, ...]:
    """D(modulus, length): gcd(d, length) over the canonical differences
    min(d, modulus - d) of every d in 1..modulus-1 with `length` distinct terms."""
    return tuple(sorted({
        gcd(min(d, modulus - d), length)
        for d in range(1, modulus)
        if modulus // gcd(modulus, d) >= length
    }))
