"""Constructive proper colorings of Z_mk and cyclic Van der Waerden lower bounds.

Three regimes by the relation of m and k: two parts (B, F) when k > m,
three parts (B, F', F'') when k = m via the alternating split of F, and
3 + ceil((m-k)k/(k-1)) parts when k < m.  Each verified partition of Z_mk
into progression-free parts pushes a strict lower bound on W_c(k, r).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from .construction import build_avoiding, build_forbidden
from .errors import InternalInconsistencyError, InvalidArgumentError
from .progressions import _require, find_contained_progression
from .serialize import record_dict

REGIME_K_GT_M = "k_gt_m"
REGIME_K_EQ_M = "k_eq_m"
REGIME_K_LT_M = "k_lt_m"

PROV_TWO_COLORS = "chi(mk,k)=2 for k>m"
PROV_THREE_COLORS = "chi(k^2,k)<=3"
PROV_THREE_PLUS_GAMMA = "chi(mk,k)<=3+gamma for k<m"


@dataclass(frozen=True)
class PartitionPlan:
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


@dataclass(frozen=True)
class PartitionViolation:
    part_label: str
    witness: tuple[int, ...]


@dataclass(frozen=True)
class WcBoundRow:
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

    The parts are checked to cover Z_mk and to be progression-free before
    the plan is returned; a failed check raises InternalInconsistencyError
    and is never silently passed through.
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
    try:
        violation = verify_partition(plan)
    except InvalidArgumentError as exc:  # the plan is ours, so the bug is too
        raise InternalInconsistencyError(f"the ({m},{k}) plan: {exc}") from None
    if violation is not None:
        raise InternalInconsistencyError(
            f"part {violation.part_label} of the ({m},{k}) partition contains "
            f"progression {violation.witness}"
        )
    return plan


def find_violation(modulus: int, k: int, parts) -> PartitionViolation | None:
    """First (label, residues) part containing a k-term progression mod N,
    or None if every part is progression-free."""
    for label, elems in parts:
        hit = find_contained_progression(elems, modulus, k)
        if hit is not None:
            return PartitionViolation(label, hit.elements)
    return None


def verify_partition(plan: PartitionPlan) -> PartitionViolation | None:
    """First progression-containing part of the plan, or None if all are free."""
    n = plan.modulus
    total = [x for _, elems in plan.parts for x in elems]
    if len(total) != n or set(total) != set(range(n)):
        raise InvalidArgumentError("parts do not partition Z_mk")
    return find_violation(n, plan.k, plan.parts)


def wc_lower_bounds(k: int, m_max: int) -> list[WcBoundRow]:
    """Strict lower bounds on W_c(k, r) licensed by verified partitions:
    (k, 2, k(k-1)), (k, 3, k^2), and (k, 3+gamma, mk) for each k < m <= m_max."""
    _require(k >= 3, f"k must be >= 3, got {k}")
    _require(m_max >= k, f"m_max must be >= k, got {m_max}")
    return [wc_bound_for(m, k) for m in range(k - 1, m_max + 1)]


def wc_bound_for(m: int, k: int) -> WcBoundRow:
    """The single W_c row contributed by the verified (m, k) partition."""
    plan = build_partition(m, k)
    if plan.regime == REGIME_K_GT_M:
        return WcBoundRow(k, 2, m * k, PROV_TWO_COLORS)
    if plan.regime == REGIME_K_EQ_M:
        return WcBoundRow(k, 3, k * k, PROV_THREE_COLORS)
    return WcBoundRow(k, 3 + plan.gamma, m * k, PROV_THREE_PLUS_GAMMA)
