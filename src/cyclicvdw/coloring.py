"""Constructive proper colorings of Z_mk and cyclic Van der Waerden lower bounds.

Three regimes by the relation of m and k: two parts (B, F) when k > m,
three parts (B, F', F'') when k = m via the alternating split of F, and
3 + ceil((m-k)k/(k-1)) parts when k < m.  A plan is checked as the coloring
it is; each verified one pushes a strict lower bound on W_c(k, r).
"""

from __future__ import annotations

from math import ceil
from typing import NamedTuple

from .construction import build_avoiding, build_forbidden
from .errors import InternalInconsistencyError
from .progressions import _require, is_proper_coloring
from .serialize import record_dict

REGIME_K_GT_M = "k_gt_m"
REGIME_K_EQ_M = "k_eq_m"
REGIME_K_LT_M = "k_lt_m"

PROV_TWO_COLORS = "chi(mk,k)=2 for k>m"
PROV_THREE_COLORS = "chi(k^2,k)<=3"
PROV_THREE_PLUS_GAMMA = "chi(mk,k)<=3+gamma for k<m"
_PROVENANCE = {REGIME_K_GT_M: PROV_TWO_COLORS, REGIME_K_EQ_M: PROV_THREE_COLORS,
               REGIME_K_LT_M: PROV_THREE_PLUS_GAMMA}


class PartitionPlan(NamedTuple):
    """Disjoint labeled parts covering Z_mk, each free of k-term progressions."""

    m: int
    k: int
    regime: str
    parts: tuple[tuple[str, tuple[int, ...]], ...]
    gamma: int = 0

    @property
    def modulus(self) -> int:
        return self.m * self.k

    @property
    def part_count(self) -> int:
        return len(self.parts)

    def to_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "k": self.k,
            "m": self.m,
            "regime": self.regime,
            "gamma": self.gamma,
            "parts": [
                {"label": label, "elements": list(elems)}
                for label, elems in self.parts
            ],
        }


class WcBoundRow(NamedTuple):
    """A strict lower bound W_c(k, r) > strict_lower and the result behind it."""

    k: int
    r: int
    strict_lower: int
    provenance: str

    to_dict = record_dict


def split_alternating(values, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Chunk the ascending values into consecutive segments of floor(k/2)
    elements and deal the segments alternately, first segment first."""
    _require(k >= 3, f"k must be >= 3, got {k}")
    ordered = sorted(values)
    seg = k // 2
    first: list[int] = []
    second: list[int] = []
    for i, start in enumerate(range(0, len(ordered), seg)):
        (first if i % 2 == 0 else second).extend(ordered[start:start + seg])
    return tuple(first), tuple(second)


def gamma_parts(m: int, k: int) -> int:
    """ceil((m-k)*k / (k-1)): the extra parts needed when k < m."""
    return ceil((m - k) * k / (k - 1))


def build_partition(m: int, k: int) -> PartitionPlan:
    """Partition Z_mk into progression-free parts per the m-vs-k regime.

    The plan is checked as the coloring giving x the index of its part: the
    part sizes must add up to mk, so no two parts overlap, and the coloring
    must pass `is_proper_coloring`.  A failure raises InternalInconsistencyError.
    """
    b = build_avoiding(m, k)
    f = build_forbidden(m, k).union
    if k > m:
        plan = PartitionPlan(m, k, REGIME_K_GT_M, (("B", b), ("F", f)))
    elif k == m:
        f1, f2 = split_alternating(f, k)
        plan = PartitionPlan(m, k, REGIME_K_EQ_M, (("B", b), ("F'", f1), ("F''", f2)))
    else:
        square = k * k
        fk = [x for x in f if x < square]
        fk1, fk2 = split_alternating(fk, k)
        extra = [x for x in f if x >= square]
        gamma = gamma_parts(m, k)
        # The leftover block is cut into ascending runs of k-1 elements; any
        # partition into parts below size k works, this one is deterministic.
        chunks = [
            tuple(extra[i:i + k - 1]) for i in range(0, len(extra), k - 1)
        ]
        if len(chunks) != gamma:
            raise InternalInconsistencyError(
                f"expected {gamma} leftover chunks, built {len(chunks)}"
            )
        parts = [("B", b), ("Fk'", fk1), ("Fk''", fk2)]
        parts += [(f"E_{i + 1}", chunk) for i, chunk in enumerate(chunks)]
        plan = PartitionPlan(m, k, REGIME_K_LT_M, tuple(parts), gamma)
    n = m * k
    part_of = {x: i for i, (_, elems) in enumerate(plan.parts) for x in elems}
    color = [part_of.get(x, -1) for x in range(n)]
    if (sum(len(elems) for _, elems in plan.parts) != n
            or not is_proper_coloring(n, k, plan.part_count, color)):
        raise InternalInconsistencyError(
            f"the ({m},{k}) parts do not partition Z_{n} into free parts")
    return plan


def wc_lower_bounds(k: int, m_max: int) -> list[WcBoundRow]:
    """Strict lower bounds on W_c(k, r) licensed by verified partitions:
    (k, 2, k(k-1)), (k, 3, k^2), and (k, 3+gamma, mk) for each k < m <= m_max."""
    _require(k >= 3, f"k must be >= 3, got {k}")
    _require(m_max >= k, f"m_max must be >= k, got {m_max}")
    return [wc_bound_for(m, k) for m in range(k - 1, m_max + 1)]


def wc_bound_for(m: int, k: int) -> WcBoundRow:
    """The W_c row read off the verified (m, k) partition: its part count is
    r and its modulus the strict lower bound."""
    plan = build_partition(m, k)
    return WcBoundRow(k, plan.part_count, plan.modulus, _PROVENANCE[plan.regime])
