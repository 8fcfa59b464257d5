import pytest

from cyclicvdw import (
    InternalInconsistencyError,
    InvalidArgumentError,
    build_forbidden,
    build_partition,
    split_alternating,
    wc_lower_bounds,
)
from cyclicvdw import coloring
from cyclicvdw.coloring import (
    PROV_THREE_COLORS,
    PROV_THREE_PLUS_GAMMA,
    PROV_TWO_COLORS,
    REGIME_K_EQ_M,
    REGIME_K_GT_M,
    REGIME_K_LT_M,
    gamma_parts,
    wc_bound_for,
)

import helpers


class TestSplitAlternating:
    def test_forbidden_set_three_three(self):
        f = build_forbidden(3, 3).union
        assert f == (2, 5, 6, 7, 8)
        assert split_alternating(f, 3) == ((2, 6, 8), (5, 7))

    def test_segment_width_follows_k(self):
        first, second = split_alternating(range(10), 5)
        assert first == (0, 1, 4, 5, 8, 9)
        assert second == (2, 3, 6, 7)

    def test_halves_cover_input(self):
        for k in range(3, 9):
            vals = list(range(4 * k))
            first, second = split_alternating(vals, k)
            assert sorted(first + second) == vals
            assert not set(first) & set(second)


class TestGammaParts:
    @pytest.mark.parametrize("m,k,expected", [(4, 3, 2), (5, 3, 3), (10, 4, 8)])
    def test_examples(self, m, k, expected):
        assert gamma_parts(m, k) == expected


class TestBuildPartition:
    def test_two_part_regime(self):
        plan = build_partition(2, 5)
        assert plan.regime == REGIME_K_GT_M
        assert [label for label, _ in plan.parts] == ["B", "F"]
        assert plan.part_count == 2

    def test_three_part_regime(self):
        plan = build_partition(3, 3)
        assert plan.regime == REGIME_K_EQ_M
        assert [label for label, _ in plan.parts] == ["B", "F'", "F''"]
        assert dict(plan.parts)["F'"] == (2, 6, 8)
        assert dict(plan.parts)["F''"] == (5, 7)

    def test_gamma_regime(self):
        plan = build_partition(5, 3)
        assert plan.regime == REGIME_K_LT_M
        assert plan.gamma == 3
        assert [label for label, _ in plan.parts] == \
            ["B", "Fk'", "Fk''", "E_1", "E_2", "E_3"]
        assert dict(plan.parts)["E_1"] == (9, 10)

    def test_parts_partition_the_ring(self):
        for m, k in [(2, 7), (4, 4), (7, 3), (6, 4)]:
            plan = build_partition(m, k)
            elems = [x for _, part in plan.parts for x in part]
            assert sorted(elems) == list(range(m * k))

    def test_every_part_is_progression_free(self):
        for m, k in [(2, 7), (4, 4), (7, 3), (6, 4), (8, 5)]:
            n = m * k
            for label, part in build_partition(m, k).parts:
                assert not helpers.contains_progression(part, n, k), (m, k, label)

    def test_part_count_matches_regime(self):
        for k in range(3, 7):
            for m in range(1, 9):
                plan = build_partition(m, k)
                if k > m:
                    assert plan.part_count == 2
                elif k == m:
                    assert plan.part_count == 3
                else:
                    assert plan.part_count == 3 + gamma_parts(m, k)

    def test_non_covering_plan_is_internal_failure(self, monkeypatch):
        # An F short of its first element leaves a residue in no part.
        def short(m, k):
            forb = build_forbidden(m, k)
            return forb._replace(union=forb.union[1:])

        monkeypatch.setattr(coloring, "build_forbidden", short)
        with pytest.raises(InternalInconsistencyError, match="do not partition"):
            build_partition(3, 4)

    def test_part_holding_a_progression_is_internal_failure(self, monkeypatch):
        # B = Z_12 and F empty: the parts cover Z_12 once, but B is not free.
        def empty(m, k):
            return build_forbidden(m, k)._replace(union=())

        monkeypatch.setattr(coloring, "build_avoiding",
                            lambda m, k: tuple(range(m * k)))
        monkeypatch.setattr(coloring, "build_forbidden", empty)
        with pytest.raises(InternalInconsistencyError, match="do not partition"):
            build_partition(3, 4)

    def test_overlapping_parts_are_internal_failure(self, monkeypatch):
        # B plus an element of F: every residue is covered and both parts are
        # free, but that element lies in two parts.  At (4,6) the third
        # element of F keeps B free.
        real = coloring.build_avoiding
        extra = build_forbidden(4, 6).union[2]

        def overlapping(m, k):
            return real(m, k) + (extra,)

        monkeypatch.setattr(coloring, "build_avoiding", overlapping)
        assert not helpers.contains_progression(overlapping(4, 6), 24, 6)
        with pytest.raises(InternalInconsistencyError, match="do not partition"):
            build_partition(4, 6)


class TestWcLowerBounds:
    def test_k3_table(self):
        rows = [(r.k, r.r, r.strict_lower, r.provenance)
                for r in wc_lower_bounds(3, 5)]
        assert rows == [
            (3, 2, 6, PROV_TWO_COLORS),
            (3, 3, 9, PROV_THREE_COLORS),
            (3, 5, 12, PROV_THREE_PLUS_GAMMA),
            (3, 6, 15, PROV_THREE_PLUS_GAMMA),
        ]

    def test_single_rows(self):
        assert wc_bound_for(2, 5).to_dict() == {
            "k": 5, "r": 2, "strict_lower": 10, "provenance": PROV_TWO_COLORS,
        }
        row = wc_bound_for(4, 4)
        assert (row.r, row.strict_lower) == (3, 16)
        row = wc_bound_for(5, 3)
        assert (row.r, row.strict_lower) == (6, 15)

    def test_rows_match_their_partitions(self):
        # r and the strict lower bound follow the regime, and they are the
        # part count and modulus of the verified partition.
        for k in range(3, 11):
            for m in range(1, 13):
                row = wc_bound_for(m, k)
                r, provenance = ((2, PROV_TWO_COLORS) if k > m
                                 else (3, PROV_THREE_COLORS) if k == m
                                 else (3 + gamma_parts(m, k), PROV_THREE_PLUS_GAMMA))
                assert (row.k, row.r, row.strict_lower, row.provenance) == \
                    (k, r, m * k, provenance), (m, k)
                assert row.r == build_partition(m, k).part_count, (m, k)

    def test_bounds_never_decrease_in_m(self):
        rows = wc_lower_bounds(4, 8)
        lows = [r.strict_lower for r in rows]
        assert lows == sorted(lows)

    def test_rejects_m_max_below_k(self):
        with pytest.raises(InvalidArgumentError):
            wc_lower_bounds(4, 3)
