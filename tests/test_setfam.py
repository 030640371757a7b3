"""Vertex layer: subsets, the metric, the order, generators, isometries."""

from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from vrlat.setfam import (
    EQ,
    GT,
    LT,
    MAX_GROUND,
    SetFamily,
    Subset,
    complement_map,
    dist,
    fix_element_subfamily,
    gen_prefix,
    gen_uniform,
    gen_union,
    order_cmp,
)


def S(elems, m):
    return Subset.of(elems, m)


@st.composite
def subsets(draw, max_m=12):
    m = draw(st.integers(1, max_m))
    bits = draw(st.integers(0, (1 << m) - 1))
    return Subset(bits, m)


@st.composite
def subset_pairs(draw, max_m=12):
    m = draw(st.integers(1, max_m))
    a = draw(st.integers(0, (1 << m) - 1))
    b = draw(st.integers(0, (1 << m) - 1))
    return Subset(a, m), Subset(b, m)


def all_subsets(m):
    return [Subset(bits, m) for bits in range(1 << m)]


class TestSubset:
    def test_rejects_bits_above_ground(self):
        with pytest.raises(ValueError):
            Subset(0b1000, 3)

    def test_rejects_oversized_ground(self):
        with pytest.raises(ValueError):
            Subset(0, MAX_GROUND + 1)

    def test_elements_and_size(self):
        a = S((1, 3, 5), 6)
        assert a.elements == (1, 3, 5)
        assert a.size == 3
        assert a.contains(3) and not a.contains(2)

    def test_serialization(self):
        assert str(S((1, 3, 5), 6)) == "{1,3,5}"
        assert str(Subset.empty(4)) == "{}"
        assert Subset.parse("{1,3,5}", 6) == S((1, 3, 5), 6)
        assert Subset.parse("{}", 4) == Subset.empty(4)

    def test_complement(self):
        assert S((1, 2), 4).complement() == S((3, 4), 4)
        a = S((2, 4), 5)
        assert a.complement().complement() == a


class TestDist:
    def test_symmetric_difference_count(self):
        assert dist(S((1, 2), 3), S((2, 3), 3)) == 2

    def test_identity(self):
        a = S((1, 4), 5)
        assert dist(a, a) == 0

    def test_disjoint_heavy(self):
        assert dist(S((1, 2, 3), 5), S((1, 4, 5), 5)) == 4

    def test_ground_mismatch(self):
        with pytest.raises(ValueError, match="ground-set mismatch"):
            dist(S((1,), 3), S((1,), 4))

    @given(subset_pairs())
    def test_symmetry_and_identity(self, pair):
        a, b = pair
        assert dist(a, b) == dist(b, a)
        assert (dist(a, b) == 0) == (a == b)

    @given(subsets(max_m=10), st.integers(0, 1023), st.integers(0, 1023))
    def test_triangle_inequality(self, a, b_bits, c_bits):
        b = Subset(b_bits & ((1 << a.m) - 1), a.m)
        c = Subset(c_bits & ((1 << a.m) - 1), a.m)
        assert dist(a, c) <= dist(a, b) + dist(b, c)

    def test_within_layer_distances_are_even(self):
        fam = gen_uniform(6, 3)
        for a, b in combinations(fam.vertices, 2):
            assert dist(a, b) % 2 == 0

    def test_distance_two_means_nested_within_two(self):
        # for |A| < |B|: dist <= 2 iff A is inside B missing at most 2 elements
        for a in all_subsets(6):
            for b in all_subsets(6):
                if a.size >= b.size:
                    continue
                nested = (a.bits & b.bits) == a.bits and b.size - a.size <= 2
                assert (dist(a, b) <= 2) == nested


class TestOrderCmp:
    def test_cardinality_first(self):
        assert order_cmp(S((3,), 3), S((1, 2), 3)) == LT

    def test_lex_within_layer(self):
        assert order_cmp(S((1, 3), 3), S((2, 3), 3)) == LT

    def test_equal(self):
        assert order_cmp(S((2, 3), 3), S((2, 3), 3)) == EQ

    def test_ground_mismatch(self):
        with pytest.raises(ValueError):
            order_cmp(S((1,), 3), S((1,), 4))

    def test_total_order_on_small_powerset(self):
        subs = all_subsets(5)
        for a in subs:
            for b in subs:
                c = order_cmp(a, b)
                assert c in (LT, EQ, GT)
                assert (c == EQ) == (a == b)
                assert order_cmp(b, a) == -c
        # transitivity via sorting consistency
        ordered = sorted(subs, key=Subset.sort_key)
        for x, y in zip(ordered, ordered[1:]):
            assert order_cmp(x, y) == LT


class TestGenerators:
    def test_uniform_counts(self):
        assert len(gen_uniform(4, 2)) == 6
        assert gen_uniform(4, 0).vertices == (Subset.empty(4),)

    def test_uniform_first_vertex(self):
        assert gen_uniform(5, 2).vertices[0] == S((1, 2), 5)

    def test_uniform_empty_range(self):
        with pytest.raises(ValueError, match="empty parameter range"):
            gen_uniform(3, 4)

    def test_prefix_full_ground_is_powerset(self):
        fam = gen_prefix(4, Subset.full(4))
        assert len(fam) == 16

    def test_prefix_least_singleton(self):
        fam = gen_prefix(3, S((1,), 3))
        assert fam.vertices == (Subset.empty(3), S((1,), 3))

    def test_prefix_midlayer_count(self):
        # sizes 0..2 of [4] plus the single 3-set {1,2,3}
        assert len(gen_prefix(4, S((1, 2, 3), 4))) == 12

    def test_prefix_is_downward_closed_under_order(self):
        a = S((2, 4), 5)
        fam = gen_prefix(5, a)
        keys = [v.sort_key() for v in fam.vertices]
        assert keys == sorted(keys)
        assert fam.vertices[-1] == a
        outside = [s for s in all_subsets(5) if s not in fam]
        for s in outside:
            assert order_cmp(s, a) == GT

    def test_union_disjoint_layers(self):
        fam = gen_union([gen_uniform(5, 2), gen_uniform(5, 3)])
        assert len(fam) == 20

    def test_union_idempotent(self):
        fam = gen_union([gen_uniform(5, 2), gen_uniform(5, 2)])
        assert len(fam) == 10

    def test_union_skip_layers(self):
        assert len(gen_union([gen_uniform(4, 1), gen_uniform(4, 3)])) == 8

    def test_union_ground_mismatch(self):
        with pytest.raises(ValueError):
            gen_union([gen_uniform(4, 1), gen_uniform(5, 1)])

    def test_family_index_is_stable_position(self):
        fam = gen_uniform(5, 2)
        for i, v in enumerate(fam.vertices):
            assert fam.index(v) == i
        with pytest.raises(KeyError):
            fam.index(S((1, 2, 3), 5))

    def test_family_rejects_unsorted_vertices(self):
        with pytest.raises(ValueError):
            SetFamily(3, (S((2,), 3), S((1,), 3)))

    def test_from_subsets_computes_each_key_once(self, monkeypatch):
        # the sort and the order check share one key per vertex
        subsets = [*gen_uniform(6, 4), *gen_uniform(6, 2), *gen_uniform(6, 4)]
        calls = []
        sort_key = Subset.sort_key

        def counted(self):
            calls.append(self)
            return sort_key(self)

        monkeypatch.setattr(Subset, "sort_key", counted)
        fam = SetFamily.from_subsets(6, subsets)
        assert len(fam) == 30
        assert len(calls) <= len(fam)
        assert fam.vertices == (*gen_uniform(6, 2), *gen_uniform(6, 4))
        calls.clear()
        with pytest.raises(ValueError):
            SetFamily(6, fam.vertices[::-1])
        assert calls


class TestComplementMap:
    def test_maps_layer_to_opposite_layer(self):
        image = complement_map(gen_uniform(5, 2))
        assert image.vertices == gen_uniform(5, 3).vertices

    def test_involution(self):
        fam = gen_union([gen_uniform(4, 1), gen_uniform(4, 2)])
        assert complement_map(complement_map(fam)).vertices == fam.vertices

    def test_isometry_on_pairs(self):
        fam = gen_uniform(4, 2)
        image = complement_map(fam)
        for a, b in combinations(range(len(fam)), 2):
            d1 = dist(fam.vertices[a], fam.vertices[b])
            d2 = dist(
                fam.vertices[a].complement(), fam.vertices[b].complement()
            )
            assert d1 == d2
        assert len(image) == len(fam)


class TestFixElementSubfamily:
    def test_counts(self):
        sub, _ = fix_element_subfamily(5, 2, 1)
        assert len(sub) == 4

    def test_full_set_case(self):
        sub, _ = fix_element_subfamily(4, 4, 2)
        assert sub.vertices == (Subset.full(4),)

    def test_element_out_of_range(self):
        with pytest.raises(ValueError):
            fix_element_subfamily(4, 2, 5)

    def test_witness_is_order_preserving_isometry(self):
        sub, witness = fix_element_subfamily(5, 3, 2)
        target = gen_uniform(4, 2)
        mapped = [witness.apply(v) for v in sub.vertices]
        assert tuple(mapped) == target.vertices
        for (i, a), (j, b) in combinations(enumerate(sub.vertices), 2):
            assert dist(a, b) == dist(mapped[i], mapped[j])

    def test_witness_rejects_missing_element(self):
        _, witness = fix_element_subfamily(5, 2, 1)
        with pytest.raises(ValueError):
            witness.apply(S((2, 3), 5))
