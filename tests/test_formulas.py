"""Closed-form sphere counts and the identities tying them together."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from vrlat.formulas import (
    GapVector,
    adjacent_pair_betti2,
    cross_polytope_sphere_dim,
    gap_vector,
    layer_increment,
    power_betti3,
    prefix_betti3,
    prefix_betti3_terms,
    prefix_increment,
    skip_increment,
    skip_layer_sum,
    skip_pair_betti3,
    uniform_betti2,
    upto_betti3,
)
from vrlat.setfam import Subset


def S(elems, m):
    return Subset.of(elems, m)


def sized_subsets(m, lo=1):
    for n in range(lo, m + 1):
        for c in combinations(range(1, m + 1), n):
            yield S(c, m)


class TestGapVector:
    def test_first_entry_conventions(self):
        g = gap_vector(S((2, 3, 5), 6))
        assert g.zero_based == (2, 0, 1)
        assert g.one_based == (1, 0, 1)

    def test_dense_prefix_has_no_gaps(self):
        g = gap_vector(S((1, 2, 3), 5))
        assert g.zero_based == (1, 0, 0)
        assert g.one_based == (0, 0, 0)

    def test_exhaustive_first_entry_identity(self):
        for a in sized_subsets(9):
            g = gap_vector(a)
            assert g.zero_based[0] == g.one_based[0] + 1
            assert g.zero_based[1:] == g.one_based[1:]
            # entries plus elements tile the prefix of the ground line
            assert sum(g.zero_based) + a.size == a.elements[-1] + 1

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            gap_vector(Subset.empty(4))

    def test_constructor_rejects_inconsistent_vectors(self):
        with pytest.raises(ValueError):
            GapVector((1, 0), (1, 0))
        with pytest.raises(ValueError):
            GapVector((1, 0), (0, 1))


class TestIncrements:
    def test_least_triple(self):
        assert prefix_increment(S((1, 2, 3), 3)) == 1

    def test_shifted_triple(self):
        assert prefix_increment(S((2, 3, 4), 4)) == 2

    def test_quadruple(self):
        assert prefix_increment(S((1, 2, 3, 4), 4)) == 4

    def test_skip_values(self):
        assert skip_increment(S((2, 3, 4, 5), 5)) == 4
        assert skip_increment(S((1, 2, 3), 3)) == 0

    def test_small_sets_rejected(self):
        for fn in (prefix_increment, skip_increment):
            with pytest.raises(ValueError):
                fn(S((1, 2), 3))

    def test_offset_identity_exhaustive(self):
        # prefix and skip variants differ by a fixed binomial in the size
        for a in sized_subsets(10, lo=3):
            n = a.size
            assert prefix_increment(a) == skip_increment(a) + comb(n - 1, 2)

    @given(st.sets(st.integers(1, 16), min_size=3, max_size=10))
    def test_increment_bounds(self, elems):
        # the first gap entry is at least 1 in the prefix convention, so
        # every eligible subset contributes at least one sphere
        a = S(tuple(sorted(elems)), 16)
        assert prefix_increment(a) >= 1
        assert skip_increment(a) >= 0


class TestLayerAndPowerCounts:
    def test_layer_values(self):
        assert layer_increment(4, 3) == 5
        assert layer_increment(4, 4) == 4
        assert layer_increment(3, 3) == 1

    def test_layer_rejects_small_size(self):
        with pytest.raises(ValueError):
            layer_increment(5, 2)

    def test_power_values(self):
        assert power_betti3(3) == 1
        assert power_betti3(4) == 9
        assert power_betti3(5) == 49

    def test_power_rejects_small_ground(self):
        with pytest.raises(ValueError):
            power_betti3(2)

    def test_power_equals_layer_total(self):
        for m in range(3, 13):
            assert power_betti3(m) == sum(
                layer_increment(m, k) for k in range(3, m + 1)
            )


class TestUniformAndAdjacent:
    def test_uniform_values(self):
        assert uniform_betti2(5, 2) == 4
        assert uniform_betti2(6, 3) == 19
        assert uniform_betti2(7, 2) == 20

    def test_uniform_two_layer_collapses_to_binomial(self):
        for m in range(4, 21):
            assert uniform_betti2(m, 2) == comb(m - 1, 3)

    def test_uniform_contractible_regime(self):
        for m, n in [(5, 1), (5, 4), (5, 5), (5, 0), (3, 2)]:
            with pytest.raises(ValueError, match="contractible regime"):
                uniform_betti2(m, n)

    def test_adjacent_values(self):
        assert adjacent_pair_betti2(5, 2) == 19
        assert adjacent_pair_betti2(4, 2) == 4
        assert adjacent_pair_betti2(6, 2) == 55

    def test_adjacent_contractible_regime(self):
        with pytest.raises(ValueError):
            adjacent_pair_betti2(5, 4)


class TestPrefixAndUpto:
    def test_least_triple_prefix(self):
        for m in (3, 5, 8):
            assert prefix_betti3(m, S((1, 2, 3), m)) == 1

    def test_interval_sum(self):
        assert prefix_betti3(4, S((2, 3, 4), 4)) == 5

    def test_full_ground_matches_power_count(self):
        for m in range(3, 11):
            assert prefix_betti3(m, Subset.full(m)) == power_betti3(m)

    def test_small_prefixes_count_zero(self):
        assert prefix_betti3(5, S((2, 4), 5)) == 0
        assert prefix_betti3(5, Subset.empty(5)) == 0

    def test_prefix_is_cumulative_increment_sum(self):
        # anchor the closed form to a direct sweep over the order
        m = 5
        from vrlat.setfam import gen_prefix

        for a in sized_subsets(m, lo=3):
            expected = sum(
                prefix_increment(b)
                for b in gen_prefix(m, a).vertices
                if b.size >= 3
            )
            assert prefix_betti3(m, a) == expected

    @pytest.mark.parametrize("m", range(1, 7))
    def test_prefix_terms_are_a_prefix_of_the_full_list(self, m):
        # the prefix suite reads every prefix_betti3(m, a) as a running total
        # of this one list
        full = prefix_betti3_terms(m, Subset.full(m))
        for a in sized_subsets(m, lo=0):
            terms = prefix_betti3_terms(m, a)
            assert terms == full[: len(terms)]
            assert len(terms) == sum(
                1 for b in sized_subsets(m, lo=3) if b.sort_key() <= a.sort_key()
            )

    def test_upto_values(self):
        assert upto_betti3(4, 4) == 9
        assert upto_betti3(5, 3) == layer_increment(5, 3)
        for m in range(3, 11):
            assert upto_betti3(m, m) == power_betti3(m)

    def test_upto_small_bound_is_zero(self):
        assert upto_betti3(6, 2) == 0
        assert upto_betti3(6, 0) == 0


class TestSkipPair:
    def test_skip_layer_values(self):
        assert skip_layer_sum(5, 2) == 4
        assert skip_layer_sum(4, 2) == 0
        five_terms = [
            S(c, 6) for c in combinations(range(2, 7), 4)
        ]
        assert len(five_terms) == 5
        assert skip_layer_sum(6, 2) == sum(skip_increment(a) for a in five_terms)

    def test_skip_layer_out_of_range(self):
        with pytest.raises(ValueError):
            skip_layer_sum(5, 1)
        with pytest.raises(ValueError):
            skip_layer_sum(3, 2)

    def test_skip_pair_values(self):
        assert skip_pair_betti3(5, 1) == 5
        assert skip_pair_betti3(5, 2) == 5
        assert skip_pair_betti3(6, 2) == skip_layer_sum(6, 2) + comb(5, 4)

    def test_skip_pair_thin_layer_is_binomial(self):
        for m in range(4, 12):
            assert skip_pair_betti3(m, 1) == comb(m, 4)

    def test_skip_pair_cone_case(self):
        assert skip_pair_betti3(6, 0) == 0

    def test_skip_pair_out_of_range(self):
        with pytest.raises(ValueError):
            skip_pair_betti3(4, 3)


class TestCrossPolytope:
    def test_values(self):
        assert cross_polytope_sphere_dim(4, 2) == 2
        assert cross_polytope_sphere_dim(6, 3) == 9
        assert cross_polytope_sphere_dim(2, 1) == 0

    def test_requires_half_ground(self):
        with pytest.raises(ValueError):
            cross_polytope_sphere_dim(5, 2)
