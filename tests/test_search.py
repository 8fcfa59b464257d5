import gc
import tracemalloc
import zlib

import pytest

from cyclicvdw import (
    BudgetExceededError,
    CyclicProgression,
    InternalInconsistencyError,
    InvalidArgumentError,
    SearchBudget,
    chromatic_number,
    independence_number,
    is_r_colorable,
    theorem_bounds,
)
from cyclicvdw import progressions, search
from cyclicvdw.search import (
    STATUS_EXACT,
    STATUS_LOWER_BOUND_ONLY,
    STATUS_UPPER_BOUND_ONLY,
)

import helpers


def assert_proper(n, k, coloring):
    for c in set(coloring):
        cls = [v for v in range(n) if coloring[v] == c]
        assert not helpers.contains_progression(cls, n, k), (n, k, c)


class TestIndependenceNumber:
    @pytest.mark.parametrize("n,k,expected", [
        (12, 4, 7), (9, 3, 4),
        # Moduli with many divisors: few units, so the run limit refuses
        # few exclusions.
        (24, 3, 8), (24, 4, 11), (24, 5, 16), (24, 6, 17), (30, 3, 8),
    ])
    def test_frozen_values(self, n, k, expected):
        res = independence_number(n, k)
        assert res.value == expected
        assert res.status == STATUS_EXACT

    def test_full_ring(self):
        # The only k-term progression mod k is Z_k itself.
        for n in range(3, 10):
            res = independence_number(n, n)
            assert res.value == n - 1
            assert res.status == STATUS_EXACT
            assert res.nodes_explored == 0
            assert progressions.is_free_witness(n, n, n - 1, res.witness)

    def test_k_above_modulus(self):
        res = independence_number(5, 7)
        assert res.value == 5 and res.witness == (0, 1, 2, 3, 4)
        assert res.status == STATUS_EXACT
        assert res.nodes_explored == 0

    @pytest.mark.parametrize("n", [1, 2])
    def test_modulus_below_three(self, n):
        # No edge and no branch: the longest-run branches, which start by
        # deciding vertices 0, 1 and 2, never run.
        res = independence_number(n, 3)
        assert (res.value, res.status, res.nodes_explored) == (n, STATUS_EXACT, 0)
        assert progressions.is_free_witness(n, 3, n, res.witness)

    @pytest.mark.parametrize("n", range(3, 17))
    def test_matches_exhaustive_oracle(self, n):
        for k in (3, 4, 5):
            if k > n:
                continue
            res = independence_number(n, k)
            assert res.status == STATUS_EXACT
            assert res.value == helpers.naive_independence_number(n, k), (n, k)

    def test_two_oracles_agree(self):
        for n in range(3, 13):
            assert helpers.naive_independence_number(n, 3) == \
                helpers.tiny_independence_number(n, 3)

    def test_witness_is_sound(self):
        for n in range(3, 25):
            for k in (3, 4):
                res = independence_number(n, k)
                assert len(res.witness) == res.value
                assert not helpers.contains_progression(res.witness, n, k), (n, k)

    def test_witness_from_missing_edges_is_caught(self, monkeypatch):
        # A search that sees only the edge {0,1,2} returns a set holding
        # 0,3,6; the witness check must refuse to hand it back.
        monkeypatch.setattr(search, "enumerate_progressions",
                            lambda n, k: [CyclicProgression(n, (0, 1, 2))])
        with pytest.raises(InternalInconsistencyError):
            independence_number(9, 3)

    def test_budget_exhaustion_reports_lower_bound(self):
        res = independence_number(21, 3, SearchBudget(max_nodes=5))
        assert res.status == STATUS_LOWER_BOUND_ONLY
        assert res.value >= 1
        assert not helpers.contains_progression(res.witness, 21, 3)

    def test_budget_kill_after_first_branch_keeps_its_incumbent(self):
        # b(30,3) runs one branch per longest run L = 1..21: L = 1 ends at
        # node 6 and L = 20 at node 1,333 of 1,334, so a budget one node short
        # of the whole tree runs out in the last branch.
        whole = independence_number(30, 3)
        assert whole.status == STATUS_EXACT
        max_nodes = whole.nodes_explored - 1
        res = independence_number(30, 3, SearchBudget(max_nodes=max_nodes))
        assert res.status == STATUS_LOWER_BOUND_ONLY
        assert res.nodes_explored == max_nodes + 1
        assert res.value == whole.value
        assert progressions.is_free_witness(30, 3, res.value, res.witness)
        res = independence_number(30, 3, SearchBudget(max_nodes=max_nodes + 1))
        assert res.status == STATUS_EXACT

    @pytest.mark.parametrize("n,k,expected,nodes", [
        (40, 8, 29, 27_119), (40, 4, 17, 28_444),
    ])
    def test_exact_under_the_bench_budget(self, n, k, expected, nodes):
        # Both close under the search benchmark's node budget.
        res = independence_number(n, k, SearchBudget(max_nodes=30_000))
        assert (res.value, res.status, res.nodes_explored) == \
            (expected, STATUS_EXACT, nodes)

    def test_local_search_waits_for_a_large_tree(self, monkeypatch):
        # It runs once, at node N^2 = 1,600, and never when the node budget
        # ran out first.
        calls = []
        polish = search._polish
        monkeypatch.setattr(search, "_polish",
                            lambda *a: calls.append(a) or polish(*a))
        res = independence_number(40, 4, SearchBudget(max_nodes=1_599))
        assert (res.status, calls) == (STATUS_LOWER_BOUND_ONLY, [])
        res = independence_number(40, 4, SearchBudget(max_nodes=1_600))
        assert (res.status, res.value, len(calls)) == (STATUS_LOWER_BOUND_ONLY, 17, 1)
        assert progressions.is_free_witness(40, 4, 17, res.witness)

    def test_local_search_kicks_stop_at_the_deadline(self):
        # At (40,4) fills and swaps take the greedy 14 points to 15, and the
        # kicks, which do not start past the deadline, to 17, the optimum.
        keep, top, verts = search._edge_tables(40, 4)[:3]
        seed = search._greedy_independent(40, (1 << len(verts)) - 1, keep, top)
        late = search._polish(40, keep, verts, seed, float("-inf"))
        kicked = search._polish(40, keep, verts, seed, float("inf"))
        assert [m.bit_count() for m in (seed, late, kicked)] == [14, 15, 17]
        assert progressions.is_free_witness(
            40, 4, 15, [v for v in range(40) if late >> v & 1])

    @pytest.mark.parametrize("n,k", [(3, 3), (12, 4), (17, 5), (40, 4)])
    def test_edge_tables_put_the_first_edge_on_the_highest_bit(self, n, k):
        # Edge i is bit E - 1 - i, so the lowest edge id is the highest set
        # bit, and every table agrees with that order.
        edges = progressions.enumerate_progressions(n, k)
        keep, top, verts, clear1, clear2, one, pair = search._edge_tables(n, k)
        size = len(edges)
        assert [verts[b] for b in range(size)] == \
            [edges[size - 1 - b].elements[::-1] for b in range(size)]
        full = (1 << size) - 1
        for v in range(n):
            assert keep[v] == full ^ sum(1 << b for b, e in enumerate(verts) if v in e)
            assert top[v] == sum(1 << b for b, e in enumerate(verts) if e[0] == v)
        for b, e in enumerate(verts):
            assert clear1[b] == keep[e[0]]
            assert clear2[b] == keep[e[0]] & keep[e[1]]
        for idx in range(n + 1):
            assert one[idx] == sum(1 << b for b, e in enumerate(verts) if e[1] < idx)
            assert pair[idx] == sum(1 << b for b, e in enumerate(verts)
                                    if e[1] >= idx > e[2])

    def test_local_search_output_is_checked(self, monkeypatch):
        # An incumbent from the local search passes the same witness check.
        monkeypatch.setattr(search, "_polish", lambda n, *args: (1 << n) - 1)
        with pytest.raises(InternalInconsistencyError):
            independence_number(40, 4)

    @pytest.mark.parametrize("n,k,expected", [
        (33, 3, 8), (40, 5, 24), (32, 4, 13), (40, 8, 29), (36, 4, 15),
        # Cheap cells, each under 0.05 s.
        (34, 3, 10), (30, 4, 14), (33, 4, 18), (36, 7, 26),
        # Full trees of 66,396, 40,110 and 28,444 nodes.
        (35, 5, 17), (36, 6, 22), (40, 4, 17),
        # Only the L = 1 branch, no two excluded points a unit apart, holds a
        # maximum set: 23 and 28 nodes.
        (21, 8, 18), (25, 6, 20),
    ])
    def test_values_beyond_the_oracle(self, n, k, expected):
        # Past the exhaustive oracle's reach, so a bound or symmetry cut that
        # prunes every maximum set shows here.  About 1.5 s in all.
        res = independence_number(n, k)
        assert (res.value, res.status) == (expected, STATUS_EXACT)

    def test_deterministic(self):
        a = independence_number(15, 3)
        b = independence_number(15, 3)
        assert (a.value, a.witness, a.status, a.nodes_explored) == \
            (b.value, b.witness, b.status, b.nodes_explored)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidArgumentError):
            independence_number(12, 2)
        with pytest.raises(InvalidArgumentError):
            independence_number(0, 3)
        with pytest.raises(InvalidArgumentError):
            chromatic_number(12, 2)
        with pytest.raises(InvalidArgumentError):
            is_r_colorable(12, 2, 2)
        with pytest.raises(InvalidArgumentError):
            SearchBudget(max_nodes=0)

    def test_strictly_below_upper_bound_when_d_not_singleton(self):
        # |D(mk,k)| > 1 forces b(mk,k) < mk - m.
        budget = SearchBudget(max_nodes=2_000_000, max_seconds=2.0)
        for mk in range(3, 37):
            for k in range(3, mk + 1):
                if mk % k:
                    continue
                m = mk // k
                b = theorem_bounds(m, k)
                if b.exact is not None:
                    continue
                res = independence_number(mk, k, budget=budget)
                if res.status != STATUS_EXACT:
                    continue
                assert res.value < b.upper, (m, k)


@pytest.mark.parametrize("field,value", [
    ("max_nodes", 0), ("max_nodes", -1),
    ("max_seconds", 0), ("max_seconds", -1.0), ("max_seconds", float("nan")),
])
def test_budget_rejects_non_positive_limits(field, value):
    with pytest.raises(InvalidArgumentError, match=f"{field} must be positive"):
        SearchBudget(**{field: value})
    with pytest.raises(InvalidArgumentError, match=f"{field} must be positive"):
        SearchBudget()._replace(**{field: value})


class TestColorability:
    def test_two_colors_refuted_for_nine_three(self):
        assert is_r_colorable(9, 3, 2) is None

    def test_two_colors_suffice_for_twelve_four(self):
        coloring = is_r_colorable(12, 4, 2)
        assert coloring is not None
        assert_proper(12, 4, coloring)

    def test_budget_kill_is_indeterminate(self):
        # Neither a coloring nor a refutation.  Propagation refutes r = 2
        # before the first node; r = 3 needs more than 10.
        with pytest.raises(BudgetExceededError):
            is_r_colorable(30, 3, 3, SearchBudget(max_nodes=10))

    @pytest.mark.parametrize("n", range(3, 23))
    def test_agrees_with_fixed_order_oracle(self, n):
        # A refutation cannot be re-verified the way a coloring can, so the
        # search must agree with plain backtracking on colorable versus
        # refuted.  All 840 probes with N <= 22 take about 2 s.
        for k in range(3, n + 1):
            for r in range(1, 5):
                found = is_r_colorable(n, k, r) is not None
                assert found == helpers.fixed_order_colorable(n, k, r), (n, k, r)

    @pytest.mark.parametrize("n,k,r,max_nodes", [
        (29, 3, 4, 20_000), (25, 5, 2, 1_000), (35, 5, 2, 2_000),
    ])
    def test_refuted_within_budget(self, n, k, r, max_nodes):
        # One branch per longest monochromatic run refutes these in 13,608,
        # 187 and 807 nodes.
        assert is_r_colorable(n, k, r, SearchBudget(max_nodes=max_nodes)) is None

    def test_colors_past_modulus_build_no_huge_mask(self):
        # Any r >= N is the probe r = N: N colors always suffice.
        coloring = is_r_colorable(9, 3, 10**9)
        assert progressions.is_proper_coloring(9, 3, 10**9, coloring)

    def test_trivial_when_no_edges(self):
        assert is_r_colorable(4, 5, 1) == (0, 0, 0, 0)

    def test_coloring_from_missing_edges_is_caught(self, monkeypatch):
        # A search that sees only the edge {0,1,2} returns a 2-coloring with
        # {3,4,5} monochromatic; the class check must refuse to hand it back.
        monkeypatch.setattr(search, "enumerate_progressions",
                            lambda n, k: [CyclicProgression(n, (0, 1, 2))])
        with pytest.raises(InternalInconsistencyError):
            is_r_colorable(9, 3, 2)


class TestChromaticNumber:
    @pytest.mark.parametrize("n,k,expected", [
        (9, 3, 3),
        (12, 4, 2),
        (15, 3, 4),
    ])
    def test_frozen_values(self, n, k, expected):
        res = chromatic_number(n, k)
        assert res.value == expected
        assert res.status == STATUS_EXACT

    def test_coloring_is_proper_and_uses_value_colors(self):
        res = chromatic_number(12, 3)
        assert len(set(res.coloring)) == res.value
        assert_proper(12, 3, res.coloring)

    def test_all_probes_killed_gives_checked_fallback(self, monkeypatch):
        # r = 1 and 2 are refuted within 10 nodes; r = 3..30 are killed.
        res = chromatic_number(30, 3, SearchBudget(max_nodes=10))
        assert (res.value, res.coloring) == (30, tuple(range(30)))
        assert res.status == STATUS_UPPER_BOUND_ONLY
        # The fallback passes the same check as a searched coloring.
        monkeypatch.setattr(search, "is_proper_coloring", lambda *args: False)
        with pytest.raises(InternalInconsistencyError):
            chromatic_number(30, 3, SearchBudget(max_nodes=10))

    @pytest.mark.parametrize("n,k,expected", [
        (34, 3, 4), (36, 3, 4), (37, 3, 4), (34, 5, 3), (35, 5, 3),
        # Refuting r = 4 takes 13,608, 24,996 and 47,711 nodes.
        (29, 3, 5), (33, 3, 5), (39, 3, 5),
    ])
    def test_values_beyond_the_grid(self, n, k, expected):
        # About 3 s in all, 1.8 s of it (39,3).
        res = chromatic_number(n, k)
        assert (res.value, res.status) == (expected, STATUS_EXACT)

    def test_matches_refutation_boundary(self):
        res = chromatic_number(9, 3)
        assert is_r_colorable(9, 3, res.value - 1) is None
        assert is_r_colorable(9, 3, res.value) is not None

    @pytest.mark.parametrize("modulus", [0, -3])
    def test_rejects_non_positive_modulus(self, modulus):
        with pytest.raises(InvalidArgumentError):
            chromatic_number(modulus, 3)
        with pytest.raises(InvalidArgumentError):
            is_r_colorable(modulus, 3, 2)


# (value, witness, status, nodes_explored) and (value, coloring, status) under
# a 30,000-node budget.  Any change to the bound, the branching order or the
# color order changes some of these.
PINNED_BUDGET = SearchBudget(max_nodes=30_000)
PINNED_B = {
    (30, 3): (8, (0, 1, 3, 4, 9, 10, 12, 13), STATUS_EXACT, 1334),
    (33, 3): (8, (0, 1, 3, 4, 9, 10, 12, 13), STATUS_EXACT, 2065),
    (40, 5): (24, (0, 3, 4, 5, 6, 8, 9, 10, 11, 14, 16, 18, 20, 23, 24, 25,
                   26, 28, 29, 30, 31, 34, 36, 38), STATUS_EXACT, 7161),
    (32, 4): (13, (0, 1, 2, 5, 6, 8, 9, 14, 15, 16, 18, 25, 30),
              STATUS_EXACT, 9728),
    (40, 8): (29, (0, 3, 4, 5, 6, 7, 8, 9, 12, 13, 14, 15, 17, 19, 20, 22,
                   23, 24, 25, 27, 28, 29, 30, 32, 33, 35, 37, 38, 39),
              STATUS_EXACT, 27119),
    (36, 6): (22, (0, 1, 2, 3, 5, 6, 7, 8, 9, 13, 14, 15, 16, 18, 19, 21, 22,
                   23, 24, 25, 32, 33), STATUS_LOWER_BOUND_ONLY, 30001),
    (15, 3): (4, (0, 1, 3, 4), STATUS_EXACT, 64),
    (18, 5): (10, (0, 1, 2, 3, 5, 6, 7, 8, 10, 11), STATUS_EXACT, 210),
    (17, 6): (10, (0, 1, 2, 3, 4, 6, 7, 8, 9, 11), STATUS_EXACT, 132),
    (19, 5): (10, (0, 1, 2, 3, 5, 6, 7, 8, 10, 12), STATUS_EXACT, 298),
}
PINNED_CHI = {
    (20, 3): (4, (0, 0, 1, 1, 0, 0, 1, 2, 2, 3, 2, 0, 3, 3, 0, 2, 2, 1, 3, 1),
              STATUS_EXACT),
    (17, 5): (3, (0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 1, 1, 2, 1, 1), STATUS_EXACT),
    (26, 3): (4, (0, 0, 1, 1, 0, 0, 3, 2, 1, 1, 3, 1, 1, 0, 0, 2, 2, 0, 0, 3, 3,
                  2, 2, 3, 3, 1), STATUS_EXACT),
}


class TestSearchTreeIsPinned:
    @pytest.mark.parametrize("n,k", list(PINNED_B))
    def test_independence(self, n, k):
        res = independence_number(n, k, PINNED_BUDGET)
        assert (res.value, res.witness, res.status, res.nodes_explored) == \
            PINNED_B[n, k]

    def test_independence_grid(self):
        # A crc32 over the search benchmark's b grid and five heavy cells
        # under its budget: any change to the bound, the branching order or
        # the edge order moves some node count or witness.
        cells = [(n, k) for n in range(8, 21) for k in range(3, 7)]
        cells += [(30, 3), (33, 3), (32, 4), (40, 5), (36, 4)]
        rows = []
        for n, k in cells:
            res = independence_number(n, k, PINNED_BUDGET)
            rows.append((n, k, res.value, res.status, res.nodes_explored,
                         res.witness))
        assert sum(row[4] for row in rows) == 43_010
        assert f"{zlib.crc32(repr(sorted(rows)).encode()):08x}" == "525990ec"

    @pytest.mark.parametrize("n,k", list(PINNED_CHI))
    def test_chromatic(self, n, k):
        res = chromatic_number(n, k, PINNED_BUDGET)
        assert (res.value, res.coloring, res.status) == PINNED_CHI[n, k]


def test_searches_leave_no_cyclic_garbage():
    # The search state must be freed by reference counting when a call
    # returns, also after a budget kill, not left for the cycle collector.
    gc.collect()
    gc.disable()
    try:
        independence_number(20, 4)
        chromatic_number(17, 3)
        res = independence_number(30, 3, SearchBudget(max_nodes=10))
        assert res.status == STATUS_LOWER_BOUND_ONLY
        with pytest.raises(BudgetExceededError):
            is_r_colorable(30, 3, 3, SearchBudget(max_nodes=10))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("solve", [independence_number, chromatic_number])
def test_enumeration_cap_refuses_before_allocating(solve):
    # N = 10^6 is past progressions.ENUMERATION_CAP: the refusal comes before
    # any per-vertex table is built.
    tracemalloc.start()
    try:
        with pytest.raises(InvalidArgumentError):
            solve(10**6, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
