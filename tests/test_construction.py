import re

import pytest

from cyclicvdw import (
    InvalidArgumentError,
    build_avoiding,
    build_forbidden,
    build_partition,
    find_contained_progression,
    forbidden_size_formula,
    theorem_bounds,
)
from cyclicvdw.construction import EXACT_BY_SINGLETON, closed_diffs

import helpers

# The 38-element forbidden set for m=10, k=9, written out in full.
F_10_9 = (
    8, 17, 24, 25, 26, 33, 34, 35, 42, 43, 44, 51, 52, 53, 60, 61, 62,
    69, 70, 71, 72, 73, 74, 75, 76, 77, 78, 79, 80, 81, 82, 83, 84, 85,
    86, 87, 88, 89,
)


class TestBuildForbidden:
    def test_m3_k15(self):
        assert build_forbidden(3, 15).union == (14, 29, 42, 43, 44)

    def test_m10_k9(self):
        assert build_forbidden(10, 9).union == F_10_9

    def test_singleton_difference_set(self):
        # Divisors of 7 above 1 exceed 3, so the only block is {k-1, ..., mk-1}.
        forb = build_forbidden(3, 7)
        assert forb.diffs == (1,)
        assert forb.union == (6, 13, 20)

    def test_blocks_disjoint_and_sizes_add_up(self):
        for mk in range(3, 501):
            for k in range(3, mk + 1):
                if mk % k:
                    continue
                m = mk // k
                forb = build_forbidden(m, k)
                seen = set()
                for block in forb.blocks:
                    assert not (seen & set(block)), (m, k)
                    seen |= set(block)
                assert len(seen) == forbidden_size_formula(m, k), (m, k)

    @pytest.mark.parametrize("m,k,message", [
        pytest.param(0, 3, "m must be positive, got 0", id="m0-k3"),
        pytest.param(-2, 4, "m must be positive, got -2", id="m-2-k4"),
        pytest.param(0, 2, "m must be positive, got 0", id="m0-k2"),
        pytest.param(3, 2, "k must be >= 3, got 2", id="m3-k2"),
    ])
    @pytest.mark.parametrize("entry", [
        build_forbidden, build_avoiding, forbidden_size_formula, theorem_bounds,
        build_partition,
    ], ids=lambda f: f.__name__)
    def test_rejects_small_k(self, entry, m, k, message):
        # The m check comes before the k check at every entry point.
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
            entry(m, k)


class TestSizeFormula:
    @pytest.mark.parametrize("m,k,expected", [(3, 4, 5), (9, 9, 29), (10, 9, 38)])
    def test_examples(self, m, k, expected):
        assert forbidden_size_formula(m, k) == expected


class TestBuildAvoiding:
    def test_m3_k15(self):
        b = build_avoiding(3, 15)
        assert len(b) == 40
        assert set(b) == set(range(45)) - {14, 29, 42, 43, 44}

    def test_m1(self):
        assert build_avoiding(1, 5) == (0, 1, 2, 3)

    def test_m3_k4_is_progression_free(self):
        b = build_avoiding(3, 4)
        assert len(b) == 7
        assert not helpers.contains_progression(b, 12, 4)

    def test_avoidance_small_sweep(self):
        for mk in range(3, 101):
            for k in range(3, mk + 1):
                if mk % k:
                    continue
                m = mk // k
                assert find_contained_progression(
                    build_avoiding(m, k), mk, k
                ) is None, (m, k)

    def test_forbidden_covers_every_progression(self):
        # Every k-term progression mod mk meets F.
        from cyclicvdw import enumerate_progressions
        for mk in range(3, 101):
            for k in range(3, mk + 1):
                if mk % k:
                    continue
                m = mk // k
                forb = set(build_forbidden(m, k).union)
                for p in enumerate_progressions(mk, k):
                    assert forb & set(p.elements), (m, k, p.elements)


class TestTheoremBounds:
    @pytest.mark.parametrize("m,k,lower,upper", [
        (3, 4, 7, 9),
        (9, 9, 52, 72),
        (3, 15, 40, 42),
    ])
    def test_examples(self, m, k, lower, upper):
        b = theorem_bounds(m, k)
        assert (b.lower, b.upper) == (lower, upper)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_prime_squares(self, p):
        b = theorem_bounds(p, p)
        assert (b.lower, b.upper) == ((p - 1) ** 2, p * (p - 1))
        assert b.exact is None

    def test_exact_filled_for_singleton(self):
        b = theorem_bounds(2, 5)
        assert b.exact == 8 and b.exactness_reason == EXACT_BY_SINGLETON

    def test_lower_never_exceeds_upper(self):
        for mk in range(3, 301):
            for k in range(3, mk + 1):
                if mk % k:
                    continue
                b = theorem_bounds(mk // k, k)
                assert b.lower <= b.upper


class TestExactness:
    def test_examples(self):
        assert theorem_bounds(2, 5).exact == 8
        assert theorem_bounds(3, 4).exact is None
        assert theorem_bounds(9, 9).exact is None

    def test_m_at_least_k_never_exact(self):
        for k in range(3, 12):
            for m in range(k, 2 * k):
                assert theorem_bounds(m, k).exact is None

    def test_exact_iff_singleton_diffs(self):
        for m in range(1, 41):
            for k in range(3, 41):
                assert ((theorem_bounds(m, k).exact is not None)
                        == (closed_diffs(m, k) == (1,))), (m, k)


class TestBoundSanity:
    def test_search_value_sits_between_bounds(self):
        from cyclicvdw import SearchBudget, independence_number
        budget = SearchBudget(max_nodes=2_000_000, max_seconds=2.0)
        for mk in range(3, 37):
            for k in range(3, mk + 1):
                if mk % k:
                    continue
                m = mk // k
                b = theorem_bounds(m, k)
                res = independence_number(mk, k, budget=budget)
                if res.status != "exact":
                    continue
                assert b.lower <= res.value <= b.upper, (m, k)
