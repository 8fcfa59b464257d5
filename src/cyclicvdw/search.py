"""Exact independence and chromatic numbers of the hypergraph of k-term
cyclic progressions mod N, at small N.

Independence uses vertex branch-and-bound over bitmask edges; colorability
uses backtracking with the first vertex's color fixed.  Both respect node
and wall-clock budgets and report whether the answer is exact or only a
bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .coloring import find_violation
from .construction import build_avoiding
from .errors import InternalInconsistencyError
from .progressions import _require, edge_masks

STATUS_EXACT = "exact"
STATUS_LOWER_BOUND_ONLY = "lower_bound_only"
STATUS_UPPER_BOUND_ONLY = "upper_bound_only"

COLORABLE = "colorable"
REFUTED = "refuted"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 10**8
    max_seconds: float = 60.0

    def __post_init__(self):
        _require(self.max_nodes > 0, "max_nodes must be positive")
        _require(self.max_seconds > 0, "max_seconds must be positive")


@dataclass(frozen=True)
class IndependenceResult:
    modulus: int
    k: int
    value: int
    witness: tuple[int, ...]
    status: str
    nodes_explored: int
    elapsed: float

    def to_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "k": self.k,
            "value": self.value,
            "witness": list(self.witness),
            "status": self.status,
            "nodes_explored": self.nodes_explored,
            "elapsed": self.elapsed,
        }


@dataclass(frozen=True)
class ColoringResult:
    modulus: int
    k: int
    value: int
    coloring: tuple[int, ...]
    status: str

    def to_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "k": self.k,
            "value": self.value,
            "coloring": list(self.coloring),
            "status": self.status,
        }


@dataclass(frozen=True)
class ColorabilityOutcome:
    """colorable with a verified coloring, refuted, or indeterminate on budget."""

    status: str
    coloring: tuple[int, ...] | None


class _Abort(Exception):
    pass


def _greedy_independent(n: int, edges: list[int]) -> int:
    inc = 0
    for v in range(n):
        cand = inc | (1 << v)
        if not any(e & cand == e for e in edges):
            inc = cand
    return inc


def independence_number(
    modulus: int, k: int, budget: SearchBudget | None = None
) -> IndependenceResult:
    """Exact b(N, k) with a witness, or the best lower bound found in budget.

    Branch and bound over vertices; the bound is current size plus remaining
    candidates minus one forced exclusion per pairwise-disjoint unbroken edge.
    Vertex 0 is excluded up front (translates of independent sets are
    independent), and Z_N minus the forbidden-set construction seeds the
    incumbent when k | N.
    """
    _require(k >= 3, f"k must be >= 3, got {k}")
    _require(modulus >= 1, f"modulus must be positive, got {modulus}")
    budget = budget or SearchBudget()
    start = time.monotonic()
    n = modulus
    if k > n:
        return IndependenceResult(
            n, k, n, tuple(range(n)), STATUS_EXACT, 0, time.monotonic() - start
        )
    edges = edge_masks(n, k)
    best_mask = _greedy_independent(n, edges)
    if n % k == 0:
        avoiding = build_avoiding(n // k, k)
        if len(avoiding) > bin(best_mask).count("1"):
            best_mask = 0
            for v in avoiding:
                best_mask |= 1 << v
    best = bin(best_mask).count("1")

    suffix = [(((1 << n) - 1) >> i) << i for i in range(n + 1)]
    deadline = start + budget.max_seconds
    nodes = 0
    aborted = False

    def rec(idx: int, inc_mask: int, inc_count: int, alive: list[int]) -> None:
        nonlocal best, best_mask, nodes, aborted
        if aborted:
            return
        nodes += 1
        if nodes > budget.max_nodes or (
            nodes % 4096 == 0 and time.monotonic() > deadline
        ):
            aborted = True
            return
        if idx == n:
            if inc_count > best:
                best, best_mask = inc_count, inc_mask
            return
        und = suffix[idx]
        # Each unbroken edge still needs one exclusion among its undecided
        # vertices; disjoint such edges cost one exclusion apiece.
        used = 0
        forced = 0
        for e in alive:
            eu = e & und
            if eu and not (eu & used):
                used |= eu
                forced += 1
        if inc_count + (n - idx) - forced <= best:
            return
        bit = 1 << idx
        und_after = suffix[idx + 1]
        if not any((e & bit) and not (e & und_after) for e in alive):
            rec(idx + 1, inc_mask | bit, inc_count + 1, alive)
        rec(idx + 1, inc_mask, inc_count, [e for e in alive if not (e & bit)])

    if edges:
        # Fix 0 out of the independent set; some maximum set excludes a vertex
        # and every translate of an independent set is independent.
        rec(1, 0, 0, [e for e in edges if not (e & 1)])
    else:
        best, best_mask = n, (1 << n) - 1

    witness = tuple(v for v in range(n) if (best_mask >> v) & 1)
    status = STATUS_LOWER_BOUND_ONLY if aborted else STATUS_EXACT
    return IndependenceResult(
        n, k, best, witness, status, nodes, time.monotonic() - start
    )


def is_r_colorable(
    modulus: int, k: int, r: int, budget: SearchBudget | None = None
) -> ColorabilityOutcome:
    """Search for a proper r-coloring (no monochromatic k-term progression).

    The returned coloring is re-verified class by class before being handed
    back; a budget kill yields INDETERMINATE, never a refutation.
    """
    _require(k >= 3, f"k must be >= 3, got {k}")
    _require(modulus >= 1, f"modulus must be positive, got {modulus}")
    _require(r >= 1, f"r must be positive, got {r}")
    budget = budget or SearchBudget()
    n = modulus
    # below[v]: each edge whose top vertex is v, minus that vertex.
    below: list[list[int]] = [[] for _ in range(n)]
    for e in edge_masks(n, k):
        top = e.bit_length() - 1
        below[top].append(e ^ (1 << top))
    if not any(below):
        return ColorabilityOutcome(COLORABLE, tuple([0] * n))
    color = [-1] * n
    classes = [0] * r
    deadline = time.monotonic() + budget.max_seconds
    nodes = 0

    def rec(v: int, used: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget.max_nodes or (
            nodes % 4096 == 0 and time.monotonic() > deadline
        ):
            raise _Abort
        if v == n:
            return True
        for c in range(min(used + 1, r)):
            cls = classes[c]
            if any(rest & cls == rest for rest in below[v]):
                continue
            color[v] = c
            classes[c] = cls | (1 << v)
            if rec(v + 1, max(used, c + 1)):
                return True
            classes[c] = cls
            color[v] = -1
        return False

    try:
        found = rec(0, 0)
    except _Abort:
        return ColorabilityOutcome(INDETERMINATE, None)
    if not found:
        return ColorabilityOutcome(REFUTED, None)
    parts = [(c, [v for v in range(n) if color[v] == c]) for c in range(r)]
    violation = find_violation(n, k, parts)
    if violation is not None:
        raise InternalInconsistencyError(
            f"color class {violation.part_label} contains progression "
            f"{violation.witness}"
        )
    return ColorabilityOutcome(COLORABLE, tuple(color))


def chromatic_number(
    modulus: int, k: int, budget: SearchBudget | None = None
) -> ColoringResult:
    """Smallest r admitting a proper r-coloring, trying r = 1, 2, ...

    Exact only when every smaller r was refuted rather than budget-killed.
    """
    _require(k >= 3, f"k must be >= 3, got {k}")
    _require(modulus >= 1, f"modulus must be positive, got {modulus}")
    all_refuted = True
    for r in range(1, modulus + 1):
        out = is_r_colorable(modulus, k, r, budget)
        if out.status == COLORABLE:
            status = STATUS_EXACT if all_refuted else STATUS_UPPER_BOUND_ONLY
            return ColoringResult(modulus, k, r, out.coloring, status)
        if out.status == INDETERMINATE:
            all_refuted = False
    # Distinct colors are always proper for k >= 3; reachable only if every
    # probe up to r = N was budget-killed.
    return ColoringResult(
        modulus, k, modulus, tuple(range(modulus)), STATUS_UPPER_BOUND_ONLY
    )
