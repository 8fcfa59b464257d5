"""Exact independence and chromatic numbers of the hypergraph of k-term
cyclic progressions mod N, at small N.

Independence uses vertex branch-and-bound over the enumerated progressions;
colorability uses DSATUR backtracking with forced-color propagation.  Both
respect node and wall-clock budgets.  Every witness and coloring they hand
back has passed `progressions.is_free_witness` or `is_proper_coloring`, the
checks that also re-verify cached answers and partition plans.

Both split their trees by one lemma.  The maps x -> ux + t, u a unit mod N,
carry progressions to progressions and unit-step runs c, c + u, ...,
c + (L - 1)u to unit-step runs, so a search may look only at canonical
images (McKay, J. Algorithms 26, 1998).  Among the images of a solution take
one whose longest unit-step run of marked points is longest, L points long,
moved to 0..L - 1 or 1..L: no unit-step run of L + 1 marked points remains,
along any unit.  So each search is one branch per L.
"""

from __future__ import annotations

import time
from math import gcd
from typing import NamedTuple

from .construction import build_avoiding
from .errors import BudgetExceededError, InternalInconsistencyError
from .progressions import (
    _require, enumerate_progressions, is_free_witness, is_proper_coloring,
)
from .serialize import record_dict

STATUS_EXACT = "exact"
STATUS_LOWER_BOUND_ONLY = "lower_bound_only"
STATUS_UPPER_BOUND_ONLY = "upper_bound_only"


class SearchBudget(NamedTuple("SearchBudget", [("max_nodes", int),
                                               ("max_seconds", float)])):
    __slots__ = ()

    def __new__(cls, max_nodes: int = 10**8, max_seconds: float = 60.0):
        _require(max_nodes > 0, "max_nodes must be positive")
        _require(max_seconds > 0, "max_seconds must be positive")
        return super().__new__(cls, max_nodes, max_seconds)

    # `_replace` builds through `_make`, which would skip the checks above.
    _make = classmethod(lambda cls, values: cls(*values))


class IndependenceResult(NamedTuple):
    modulus: int
    k: int
    value: int
    witness: tuple[int, ...]
    status: str
    nodes_explored: int
    elapsed: float

    to_dict = record_dict


class ColoringResult(NamedTuple):
    modulus: int
    k: int
    value: int
    coloring: tuple[int, ...]
    status: str

    to_dict = record_dict


def _edge_tables(n: int, k: int):
    """Masks over edge ids, where the i-th progression of
    enumerate_progressions(n, k), which checks (N, k) for the independence
    search before any table is built, is bit E - 1 - i of E.  The packing
    bound takes the lowest edge id first, and in this order that is the
    highest set bit, which x.bit_length() - 1 reads without building an int.

    keep[v] holds the edges not through v and top[v] the edges whose largest
    vertex is v.  The lists over edges are indexed by bit: verts[b] holds the
    vertices of the edge at bit b, largest first.  While vertices are decided
    in order, an edge's undecided vertices are its largest ones: one[idx]
    holds the edges whose second-largest vertex is below idx, pair[idx] those
    whose second-largest is at least idx and third-largest below it.
    clear1[b] and clear2[b] hold the edges sharing no vertex with the largest
    one or two vertices of the edge at bit b.
    """
    verts = [p.elements[::-1] for p in reversed(enumerate_progressions(n, k))]
    touch, top, second, third = ([0] * n for _ in range(4))
    for b, e in enumerate(verts):
        bit = 1 << b
        for v in e:
            touch[v] |= bit
        top[e[0]] |= bit
        second[e[1]] |= bit
        third[e[2]] |= bit
    full = (1 << len(verts)) - 1
    keep = [full ^ t for t in touch]
    clear1 = [keep[e[0]] for e in verts]
    clear2 = [keep[e[0]] & keep[e[1]] for e in verts]
    one, pair = [full] * (n + 1), [0] * (n + 1)
    two = three = 0  # edges whose second, third largest vertex is >= v
    for v in range(n - 1, -1, -1):
        two |= second[v]
        three |= third[v]
        one[v] = full ^ two
        pair[v] = two ^ three
    return keep, top, verts, clear1, clear2, one, pair


def _greedy_independent(n: int, alive: int, keep: list[int], top: list[int]) -> int:
    inc = 0
    for v in range(n):
        if alive & top[v]:
            alive &= keep[v]
        else:
            inc |= 1 << v
    return inc


def _polish(n: int, keep: list[int], verts: list[tuple[int, ...]], inc: int,
            deadline: float) -> int:
    """A free set at least as large as the free set inc, by iterated local
    search (Andrade, Resende and Werneck, J. Heuristics 18, 2012): fill
    moves and (2,1)-swaps until neither applies, then 8 kicks.  Kick i
    forces in the first point out at or after i * N / 8, drops the largest
    other point of each edge this completes, and settles again, keeping the
    result unless it is smaller.  No kick starts past the deadline.
    """
    full = (1 << len(verts)) - 1
    touch = [full ^ t for t in keep]

    def swap(s: int, out: list[int], lone: list[int], pair: int) -> int:
        # x in s for v and w out of it: s - x + v and s - x + w complete no
        # edge, and no edge has just v and w outside s - x.
        for x in range(n):
            if s >> x & 1:
                cand = [v for v, e in zip(out, lone) if not e & keep[x]]
                for i, v in enumerate(cand):
                    for w in cand[i + 1:]:
                        if not touch[v] & touch[w] & pair & keep[x]:
                            return 1 << x | 1 << v | 1 << w
        return 0

    def settle(s: int) -> int:
        while True:
            one = two = three = 0  # edges with at least 1, 2, 3 points out of s
            out = [v for v in range(n) if not s >> v & 1]
            for v in out:
                t = touch[v]
                one, two, three = one | t, two | one & t, three | two & t
            lone = [touch[v] & (one ^ two) for v in out]  # what s + v completes
            move = next((1 << v for v, e in zip(out, lone) if not e), 0) or \
                swap(s, out, lone, two ^ three)
            if not move:
                return s
            s ^= move

    best = cur = settle(inc)
    for i in range(8):
        if time.monotonic() > deadline:
            break
        v = next(v % n for v in range(i * n // 8, n + i * n // 8)
                 if not cur >> v % n & 1)
        s, done = cur | 1 << v, touch[v]  # done: the edges through v inside s
        for w in range(n):
            if not s >> w & 1:
                done &= keep[w]
        while done:
            x = next(x for x in verts[done.bit_length() - 1] if x != v)
            s, done = s ^ 1 << x, done & keep[x]
        cur = max(settle(s), cur, key=int.bit_count)  # ties move on
        best = max(best, cur, key=int.bit_count)
    return best


def independence_number(
    modulus: int, k: int, budget: SearchBudget | None = None
) -> IndependenceResult:
    """Exact b(N, k) with a witness, or the best lower bound found in budget.

    Branch and bound over vertices 0, 1, ..., N-1, including before
    excluding.  The state is `alive`, one int over edge ids: the edges with
    no excluded vertex.  Vertices are decided in order, so including v is
    illegal iff an alive edge has v as its largest vertex.  The bound is the
    current size plus the undecided vertices minus one forced exclusion per
    edge of a greedy packing: take an alive edge, drop every edge sharing
    one of its undecided vertices, and repeat.  An alive edge's undecided
    vertices are its largest ones, and edges with fewer of them are taken
    first: those with one (a forced exclusion), then two, then more, the
    lowest edge id first within each.  So the tree and its node count follow
    from the edge order alone.  The greedy set seeds the incumbent, or Z_N
    minus the forbidden-set construction when k | N and that is larger;
    at N^2 nodes `_polish` improves it, so small trees never pay for that.

    The module's lemma marks the excluded points: for k < N a maximum set
    misses one, as Z_N holds 0, 1, ..., k - 1.  Branch L = 1, 2, ... runs
    while N - L beats the incumbent: it holds 0 and L + 1, excludes 1..L, and
    refuses an exclusion that would leave a unit-step run of L + 1 points
    out.  For k >= N the greedy seed (Z_N, or Z_N minus N - 1) has N - 1
    points or more, so no branch runs.  The budgets cover the call.

    Branch L is closed under the reflection y -> L + 1 - y, which swaps y
    and N + L + 1 - y.  The search completes these pairs middle first, and
    while every completed pair is tied (both in or both out) the next may
    not hold only its smaller vertex: a set and its reflection first differ
    at the same pair (a lex-leader cut, Crawford et al., KR 1996).
    """
    budget = budget or SearchBudget()
    start = time.monotonic()
    n = modulus
    keep, top, verts, clear1, clear2, one, pair = _edge_tables(n, k)
    full = (1 << len(verts)) - 1
    best_mask = _greedy_independent(n, full, keep, top)
    if n % k == 0:
        best_mask = max(best_mask, sum(1 << v for v in build_avoiding(n // k, k)),
                        key=int.bit_count)
    best = best_mask.bit_count()
    units = _units(n)  # bit d: v - d and v are a unit apart

    max_nodes = budget.max_nodes
    deadline = start + budget.max_seconds
    large = n * n  # nodes from which a tree counts as large
    nodes = 0

    def walled(v: int, inc_mask: int, near: int) -> bool:
        # Whether excluding v completes a unit-step run of limit + 1 excluded
        # points, near being the excluded points a unit away below v.  The
        # run's other points are below v, so decided.  A small tree walks the
        # line through v and each point of near; a large one reads a table
        # built once per branch, which a small tree would not earn back.
        nonlocal table
        if nodes >= large:
            if table is None:  # per vertex, each run's other points
                table = [[] for _ in range(n)]
                for m in _runs(n, limit + 1):
                    t = m.bit_length() - 1
                    table[t].append(m ^ 1 << t)
            for m in table[v]:
                if not m & inc_mask:
                    return True
            return False
        out = ((1 << v) - 1) & ~inc_mask
        while near:
            w = (near & -near).bit_length() - 1
            near, d, run = near & (near - 1), v - w, 1
            p = w - d
            while out >> p % n & 1:
                run, p = run + 1, p - d
            p = v + d
            while out >> p % n & 1:
                run, p = run + 1, p + d
            if run >= limit:
                return True
        return False

    def rec(idx: int, inc_mask: int, inc_count: int, alive: int, tied: bool) -> None:
        nonlocal best, best_mask, nodes
        nodes += 1
        if nodes > max_nodes or (nodes % 4096 == 0 and time.monotonic() > deadline):
            raise BudgetExceededError("independence search budget exhausted")
        if nodes == large:
            best_mask = _polish(n, keep, verts, best_mask, deadline)
            best = best_mask.bit_count()
        if idx == n:
            if inc_count > best:
                best, best_mask = inc_count, inc_mask
            return
        # Each alive edge still needs one exclusion among its undecided
        # vertices; packed edges with disjoint undecided parts cost one apiece.
        # Edges with one undecided vertex go first, then two, then more.
        # Prune once the packing has used up the slack.
        slack = inc_count + (n - idx) - best
        rest = alive
        cand = rest & one[idx]
        while cand and slack > 0:
            slack -= 1
            rest &= clear1[cand.bit_length() - 1]
            cand &= rest
        cand = rest & pair[idx]
        while cand and slack > 0:
            slack -= 1
            rest &= clear2[cand.bit_length() - 1]
            cand &= rest
        while rest and slack > 0:  # only edges with three or more are left
            slack -= 1
            b = rest.bit_length() - 1
            rest &= clear2[b]
            for v in verts[b][2:]:
                if v < idx:
                    break
                rest &= keep[v]
        if slack <= 0:
            return
        # While tied, idx may be out only if its partner w < idx is out too;
        # idx in with w out unties the pairs.  An exclusion may not complete
        # a unit-step run of limit + 1 excluded points, which would hold a
        # point of `near`; at L = 1 that point and idx are the run.
        partner_in = tied and 2 * idx > s and inc_mask >> (s - idx) & 1
        if not alive & top[idx]:
            rec(idx + 1, inc_mask | (1 << idx), inc_count + 1, alive,
                tied and (partner_in or 2 * idx <= s))
        if partner_in:
            return
        near = units >> (n - idx) & ~inc_mask
        if near and (limit == 1 or walled(idx, inc_mask, near)):
            return
        rec(idx + 1, inc_mask, inc_count, alive & keep[idx], tied)

    try:
        # One branch per longest run L = limit: 0 in, 1..L out, L + 1 in.
        alive = full
        for limit in range(1, n - 1):
            if n - limit <= best:
                break
            alive &= keep[limit]
            table = None  # built when the branch first needs it
            s = n + limit + 1  # y's partner is s - y
            rec(limit + 2, 1 | 1 << (limit + 1), 2, alive, True)
        status = STATUS_EXACT
    except BudgetExceededError:
        status = STATUS_LOWER_BOUND_ONLY
    finally:
        rec = walled = None  # break the closures' references

    witness = tuple(v for v in range(n) if (best_mask >> v) & 1)
    if not is_free_witness(n, k, best, witness):
        raise InternalInconsistencyError(f"b({n},{k}) witness {witness} is not free")
    return IndependenceResult(
        n, k, best, witness, status, nodes, time.monotonic() - start
    )


def is_r_colorable(
    modulus: int, k: int, r: int, budget: SearchBudget | None = None
) -> tuple[int, ...] | None:
    """A proper r-coloring (no monochromatic k-term progression), or None
    when the search refutes one.

    DSATUR backtracking with unit propagation.  Each node branches on the
    uncolored vertex with the fewest allowed colors among the used ones and
    the lowest unused one, trying those in order.  Coloring v with c removes
    c from the last uncolored vertex of any edge through v whose colored
    vertices all have color c; a vertex left with one allowed color is
    colored at once, the same way.  A node fails on a vertex with no allowed
    color or a monochromatic edge.  A removed color is always a used one, so
    trying a new color only as the lowest unused one stays sound.  The
    coloring passes `is_proper_coloring` before it is handed back; a budget
    kill raises BudgetExceededError, never a refutation.  Any r >= N is the
    probe r = N, since N colors always suffice.

    The maps carry proper colorings to proper colorings, so the module's
    lemma applies with the color class whose longest unit-step run is
    longest as the marked points, renamed color 0: no unit-step run of
    L + 1 points is monochromatic in any color, and L <= k - 1, as a run of
    k points is a progression.  So a probe is one branch per
    L = k - 1, ..., 1, in that order.  Branch L takes every unit-step
    (L + 1)-run as an edge (at L = k - 1 they are progressions already) and
    colors 0..L - 1 with color 0 through the propagation, which bars color 0
    from L and N - 1.  A coloring in any branch ends the probe, a refutation
    closes every branch, and the node and time budgets cover the probe.
    """
    _require(r >= 1, f"r must be positive, got {r}")
    return _colorable(modulus, k, min(r, modulus), budget, _incidence(modulus, k))


def _incidence(n: int, k: int) -> dict[int, list[list[int]]]:
    """Branch L = k - 1's lists, keyed by L: for each vertex v, the masks of
    the other vertices of every edge of enumerate_progressions(n, k) through
    v, in edge order.  The enumeration checks (N, k) before any list is
    built; `_colorable` adds the other branches' lists as it reaches them.
    """
    edges = enumerate_progressions(n, k)
    inc: list[list[int]] = [[] for _ in range(n)]
    for p in edges:
        mask = 0
        for v in p.elements:
            mask |= 1 << v
        for v in p.elements:
            inc[v].append(mask ^ (1 << v))
    return {k - 1: inc}


def _units(n: int) -> int:
    """The mask of the units of Z_n: bit d is set iff gcd(d, n) = 1."""
    return sum(1 << d for d in range(1, n) if gcd(d, n) == 1)


def _runs(n: int, size: int) -> set[int]:
    """The masks of the unit-step runs c, c + u, ..., c + (size - 1)u of Z_n."""
    every = (1 << n) - 1
    units = _units(n)
    firsts = {sum(1 << i * u % n for i in range(size))  # u and -u: same runs
              for u in range(1, n // 2 + 1) if units >> u & 1}
    return {((m << c) | (m >> (n - c))) & every for m in firsts for c in range(n)}


def _with_runs(n: int, size: int, inc: list[list[int]]) -> list[list[int]]:
    """inc with every unit-step run of `size` points added once as an edge."""
    lists = [vs[:] for vs in inc]
    for mask in _runs(n, size):
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            lists[bit.bit_length() - 1].append(mask ^ bit)
    return lists


def _colorable(
    n: int, k: int, r: int, budget: SearchBudget | None,
    tables: dict[int, list[list[int]]],
) -> tuple[int, ...] | None:
    inc = tables[k - 1]
    if not any(inc):
        return _checked_coloring(n, k, r, [0] * n)
    if r == 1:
        return None  # every edge is monochromatic
    budget = budget or SearchBudget()
    max_nodes = budget.max_nodes
    deadline = time.monotonic() + budget.max_seconds
    every = (1 << n) - 1
    nodes = 0
    found: list[int] = []

    def propagate(v: int, c: int, done: int, allowed: list[int], cls: list[int]) -> int:
        # Colors v with c and every vertex this forces, updating allowed and
        # cls in place; the new colored mask, or -1 on a conflict.
        todo = [(v, c)]
        while todo:
            v, c = todo.pop()
            done |= 1 << v
            cls[c] |= 1 << v
            mine = cls[c]
            if mine.bit_count() < longest:
                continue  # every edge has longest + 1 or more vertices
            other = done ^ mine  # colored, but not with c
            free = every ^ done
            for o in inc[v]:
                if o & other:
                    continue
                last = o & free
                if not last:
                    return -1  # monochromatic edge
                if last & (last - 1):
                    continue
                u = last.bit_length() - 1
                a = allowed[u]
                if a >> c & 1:
                    a ^= 1 << c
                    if not a:
                        return -1
                    allowed[u] = a
                    if not a & (a - 1):
                        todo.append((u, a.bit_length() - 1))
        return done

    def rec(done: int, allowed: list[int], cls: list[int], used: int) -> bool:
        nonlocal nodes, found
        nodes += 1
        if nodes > max_nodes or (nodes % 4096 == 0 and time.monotonic() > deadline):
            raise BudgetExceededError(f"{r}-colorability search budget exhausted")
        if done == every:
            found = cls
            return True
        span = (1 << min(used + 1, r)) - 1  # the used colors and the next one
        # No vertex has fewer than `least` choices: an unused color is never
        # removed, and once all r are used a vertex with one is already
        # colored.  The first vertex that reaches it ends the scan.
        least = 1 if used < r else 2
        fewest = r + 1
        for x in range(n):
            if not done >> x & 1:
                m = (allowed[x] & span).bit_count()
                if m < fewest:
                    fewest, v = m, x
                    if m == least:
                        break
        choices = allowed[v] & span
        while choices:
            c = (choices & -choices).bit_length() - 1
            choices &= choices - 1
            # The last choice may take this node's own lists.
            a, s = (allowed[:], cls[:]) if choices else (allowed, cls)
            d = propagate(v, c, done, a, s)
            if d >= 0:
                u = used
                while u < r and s[u]:
                    u += 1
                if rec(d, a, s, u):
                    return True
        return False

    try:
        for longest in range(k - 1, 0, -1):
            if longest not in tables:
                tables[longest] = _with_runs(n, longest + 1, tables[k - 1])
            inc = tables[longest]
            allowed, cls, done = [(1 << r) - 1] * n, [0] * r, 0
            for v in range(longest):  # only the last one can force or fail
                done = propagate(v, 0, done, allowed, cls)
            if done >= 0 and rec(done, allowed, cls, 1):
                break
        else:
            return None
    finally:
        rec = None  # break the closure's self-reference
    color = [0] * n
    for c, m in enumerate(found):
        for v in range(n):
            if m >> v & 1:
                color[v] = c
    return _checked_coloring(n, k, r, color)


def _checked_coloring(n: int, k: int, r: int, color) -> tuple[int, ...]:
    if not is_proper_coloring(n, k, r, color):
        raise InternalInconsistencyError(f"improper {r}-coloring {color} of Z_{n}")
    return tuple(color)


def chromatic_number(
    modulus: int, k: int, budget: SearchBudget | None = None
) -> ColoringResult:
    """Smallest r admitting a proper r-coloring, trying r = 1, 2, ...

    The edge lists of each run branch are built once, when a probe first
    reaches that branch, and shared by every probe.
    The budget applies per probe, each r with its own node count and deadline,
    so a call can run up to about N times `budget.max_seconds`.  Exact only
    when every smaller r was refuted rather than budget-killed.
    """
    inc = _incidence(modulus, k)
    status = STATUS_EXACT
    for r in range(1, modulus + 1):
        try:
            coloring = _colorable(modulus, k, r, budget, inc)
        except BudgetExceededError:
            status = STATUS_UPPER_BOUND_ONLY
            continue
        if coloring is not None:
            return ColoringResult(modulus, k, r, coloring, status)
    # Distinct colors are always proper for k >= 3; reachable only if every
    # probe up to r = N was budget-killed.
    distinct = _checked_coloring(modulus, k, modulus, tuple(range(modulus)))
    return ColoringResult(modulus, k, modulus, distinct, STATUS_UPPER_BOUND_ONLY)
