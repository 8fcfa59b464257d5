import gc
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclicvdw import (
    CyclicProgression,
    InvalidArgumentError,
    canonical_diffs,
    check_conjecture,
    conjectured_difference_set,
    difference_gcd_set,
    enumerate_progressions,
    find_contained_progression,
)
from cyclicvdw import progressions
from cyclicvdw.construction import closed_diffs
from cyclicvdw.progressions import is_proper_coloring

import helpers


@pytest.fixture
def restore_gc():
    """Puts the cycle collector back as the test found it."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


class TestCanonicalDiffs:
    @pytest.mark.parametrize("n,k,expected", [
        (12, 6, (1, 2, 5)),
        (12, 5, (1, 2, 5)),
        (9, 3, (1, 2, 3, 4)),
    ])
    def test_examples(self, n, k, expected):
        assert canonical_diffs(n, k) == expected

    def test_rejects_small_k_or_modulus(self):
        with pytest.raises(InvalidArgumentError):
            canonical_diffs(12, 2)
        with pytest.raises(InvalidArgumentError):
            canonical_diffs(4, 5)

    @given(st.integers(3, 40).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(k, 60))))
    def test_matches_raw_generation(self, kn):
        k, n = kn
        assert list(canonical_diffs(n, k)) == helpers.brute_canonical_diffs(n, k)

    @given(st.integers(3, 40).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(k, 80))))
    def test_lemma_both_directions(self, kn):
        # d is canonical iff generation from base 0 yields k distinct residues.
        k, n = kn
        admissible = set(canonical_diffs(n, k))
        for d in range(1, (n + 1) // 2):
            generated = len({i * d % n for i in range(k)}) == k
            assert generated == (d in admissible)


class TestCyclicProgressionRecord:
    def test_equal_and_same_hash_across_generating_pairs(self):
        # A progression is its element set, whichever pair generated it.
        a = CyclicProgression(12, tuple(sorted(i * 4 % 12 for i in range(3))))
        b = CyclicProgression(12, tuple(sorted((4 + i * 4) % 12 for i in range(3))))
        c = CyclicProgression(modulus=12, elements=(0, 4, 8))
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)
        assert len({a, b, c}) == 1
        assert CyclicProgression(12, (0, 4, 8)) in enumerate_progressions(12, 3)

    def test_unequal_across_moduli_and_to_plain_tuples(self):
        p = CyclicProgression(12, (0, 1, 2))
        assert p != CyclicProgression(13, (0, 1, 2))
        assert p != CyclicProgression(12, (0, 1, 3))
        assert p != (0, 1, 2)
        assert p != (12, (0, 1, 2))

    @pytest.mark.parametrize("field,value", [("modulus", 1), ("elements", ())])
    def test_fields_are_read_only(self, field, value):
        p = CyclicProgression(12, (0, 4, 8))
        with pytest.raises(AttributeError):
            setattr(p, field, value)
        assert (p.modulus, p.elements) == (12, (0, 4, 8))

    def test_repr(self):
        assert (repr(CyclicProgression(12, (0, 4, 8)))
                == "CyclicProgression(modulus=12, elements=(0, 4, 8))")

    def test_record_size(self):
        # The enumeration holds about N^2/2 records at once.
        assert sys.getsizeof(CyclicProgression(12, (0, 4, 8))) <= 48


class TestEnumerateProgressions:
    def test_full_ring_collapses_to_one(self):
        progs = enumerate_progressions(9, 9)
        assert len(progs) == 1
        assert progs[0].elements == tuple(range(9))

    def test_four_mod_three(self):
        elems = {p.elements for p in enumerate_progressions(4, 3)}
        assert elems == {(0, 1, 2), (1, 2, 3), (0, 2, 3), (0, 1, 3)}

    def test_k_above_modulus_is_empty(self):
        assert enumerate_progressions(5, 6) == []

    @pytest.mark.parametrize("n", [0, -3])
    def test_non_positive_modulus_rejected(self, n):
        with pytest.raises(InvalidArgumentError):
            enumerate_progressions(n, 3)

    def test_cap_enforced(self):
        with pytest.raises(InvalidArgumentError):
            enumerate_progressions(10_001, 3)

    @pytest.mark.parametrize("n", [*range(3, 31), 97, 360])
    def test_dedupe_matches_brute_force(self, n):
        # Past N = 30 a single k checks the bulk path at scale.
        for k in {97: [3], 360: [6]}.get(n, range(3, n + 1)):
            progs = enumerate_progressions(n, k)
            assert [p.elements for p in progs] == sorted(
                tuple(sorted(e)) for e in helpers.brute_progression_sets(n, k))

    @pytest.mark.parametrize("enabled", [True, False])
    def test_leaves_collector_state_as_found(self, enabled, restore_gc):
        (gc.enable if enabled else gc.disable)()
        assert enumerate_progressions(30, 3)
        assert gc.isenabled() is enabled

    def test_collector_back_on_when_emission_raises(self, monkeypatch, restore_gc):
        built = []

        def failing_record(modulus, elements):
            if len(built) == 5:
                raise RuntimeError("record constructor failed")
            built.append(elements)
            return CyclicProgression(modulus, elements)

        monkeypatch.setattr(progressions, "CyclicProgression", failing_record)
        gc.enable()
        with pytest.raises(RuntimeError):
            enumerate_progressions(30, 3)
        assert len(built) == 5
        assert gc.isenabled()

    def test_single_congruence_class_for_dividing_diffs(self):
        # Progressions whose difference divides N stay in one class mod d.
        for n in range(3, 61):
            for k in (3, 4, 5):
                if k > n:
                    continue
                for d in canonical_diffs(n, k):
                    if n % d == 0:
                        assert len({i * d % n for i in range(k)}) == k
                        for t in range(n):
                            elements = {(t + i * d) % n for i in range(k)}
                            assert len({x % d for x in elements}) == 1


class TestFindContainedProgression:
    def test_complement_of_multiples(self):
        s = [x for x in range(12) if x not in (0, 4, 8)]
        hit = find_contained_progression(s, 12, 4)
        assert hit is not None
        assert set(hit.elements) <= set(s)

    def test_shifted_divisor_progression(self):
        s = [x for x in range(12) if x not in (0, 4, 8)]
        hit = find_contained_progression(s, 12, 4)
        assert hit is not None
        assert {1, 3, 5, 7} <= set(s)

    def test_set_equal_to_progression(self):
        hit = find_contained_progression({0, 1, 2}, 9, 3)
        assert hit is not None and hit.elements == (0, 1, 2)

    def test_rejects_residues_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            find_contained_progression({0, 12}, 12, 3)

    @pytest.mark.parametrize("n", range(3, 25))
    def test_absent_iff_no_enumerated_edge_inside(self, n):
        # Spot-check with a deterministic pseudo-random pattern per modulus.
        k = 3
        s = {x for x in range(n) if (x * x + x) % 7 < 4}
        expected = helpers.contains_progression(s, n, k)
        assert (find_contained_progression(s, n, k) is not None) == expected

    def test_dense_and_sparse_paths_agree(self):
        n, k = 30, 3
        dense = set(range(n)) - {1, 7}
        sparse = {0, 3, 6, 9}
        for s in (dense, sparse):
            got = find_contained_progression(s, n, k)
            assert (got is not None) == helpers.contains_progression(s, n, k)
            if got is not None:
                assert set(got.elements) <= s

    def test_witness_is_first_hit_in_d_then_t_order(self):
        rng = random.Random(20250907)
        for _ in range(3000):
            n = rng.randint(3, 30)
            k = rng.randint(3, n)
            density = rng.random()
            s = {x for x in range(n) if rng.random() < density}
            expected = None
            for d in helpers.brute_canonical_diffs(n, k):
                expected = next(
                    ((t, d) for t in range(n)
                     if all((t + i * d) % n in s for i in range(k))),
                    None,
                )
                if expected is not None:
                    break
            got = find_contained_progression(s, n, k)
            if expected is None:
                assert got is None, (n, k, sorted(s))
            else:
                assert got is not None, (n, k, sorted(s))
                t, d = expected
                assert got == CyclicProgression(
                    n, tuple(sorted((t + i * d) % n for i in range(k))))


class TestIsProperColoring:
    @given(st.lists(st.integers(0, 2), min_size=3, max_size=16))
    def test_proper_iff_no_class_holds_a_progression(self, coloring):
        n = len(coloring)
        expected = not any(
            helpers.contains_progression([x for x in range(n) if coloring[x] == c],
                                         n, 3)
            for c in range(3)
        )
        assert is_proper_coloring(n, 3, 3, coloring) == expected

    # Short, out-of-range and non-list colorings are covered by the cached
    # chi records of test_cli.
    @pytest.mark.parametrize("last", [-1, True, 1.0])
    def test_rejects_negative_or_non_int_color(self, last):
        coloring = (0, 0, 1, 1, 0, 0, 1, last)
        assert is_proper_coloring(8, 3, 2, (0, 0, 1, 1, 0, 0, 1, 1))
        assert not is_proper_coloring(8, 3, 2, coloring)


class TestDifferenceGcdSet:
    @pytest.mark.parametrize("n,k,expected", [
        (12, 4, (1, 2)),
        (81, 9, (1, 3, 9)),
        (90, 9, (1, 3, 9)),
    ])
    def test_closed_form_examples(self, n, k, expected):
        assert closed_diffs(n // k, k) == expected

    def test_brute_force_non_multiple(self):
        # k does not divide N here; no closed form applies.  Recorded outcome:
        # both gcd values divide k anyway.
        values = difference_gcd_set(12, 5)
        assert values == (1, 5)
        assert values == tuple(helpers.brute_difference_set(12, 5))

    @pytest.mark.parametrize("diffs", [
        pytest.param(lambda n: closed_diffs(n // 3, 3), id="closed_form"),
        pytest.param(lambda n: difference_gcd_set(n, 3), id="brute_force"),
    ])
    @pytest.mark.parametrize("n", [-3, 0])
    def test_rejects_modulus_below_k(self, n, diffs):
        with pytest.raises(InvalidArgumentError):
            diffs(n)

    def test_methods_agree_when_k_divides_n(self):
        for n in range(3, 201):
            for k in range(3, n + 1):
                if n % k:
                    continue
                brute = difference_gcd_set(n, k)
                closed = closed_diffs(n // k, k)
                assert brute == closed, (n, k)

    def test_brute_force_refuses_a_modulus_past_the_cap(self):
        cap = progressions.DIFFERENCE_SCAN_CAP
        for n in (cap + 1, 10**30):  # refused before the scan starts
            with pytest.raises(InvalidArgumentError, match="difference-set limit"):
                difference_gcd_set(n, 3)

    def test_closed_forms_scan_no_further_than_the_divisors(self):
        # g | k (or g | nk) bounds g, so a huge m costs nothing.
        assert closed_diffs(10**30, 6) == (1, 2, 3, 6)
        assert conjectured_difference_set(10**30, 2, 3) == (1, 2, 3, 6)

    @given(st.integers(3, 60).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(k, 120))))
    def test_one_always_present(self, kn):
        k, n = kn
        assert 1 in difference_gcd_set(n, k)


class TestConjecture:
    @pytest.mark.parametrize("m,n,k,expected", [
        (3, 1, 4, (1, 2)),
        (5, 2, 3, (1, 2, 3)),
        (4, 3, 1, (1, 3)),
    ])
    def test_conjectured_set(self, m, n, k, expected):
        assert conjectured_difference_set(m, n, k) == expected

    def test_rejects_m_not_above_n(self):
        with pytest.raises(InvalidArgumentError):
            conjectured_difference_set(2, 3, 3)

    def test_proven_case_agrees(self):
        assert check_conjecture(3, 1, 4).agrees

    def test_recorded_outcomes_for_larger_n(self):
        # Frozen brute-force outcomes; the conjecture fails on both triples.
        rep = check_conjecture(5, 2, 3)
        assert rep.brute_force == (1, 2)
        assert not rep.agrees
        rep = check_conjecture(4, 3, 2)
        assert rep.brute_force == (1, 3)
        assert not rep.agrees

    def test_large_modulus_is_brute_forced(self):
        # mk = 3,000: the brute force runs for every modulus, with no cap.
        assert check_conjecture(100, 1, 30).agrees
