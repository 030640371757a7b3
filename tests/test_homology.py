"""Boundary columns, Z/2 reduction, and exact integer homology."""

import ast
import functools
import gc
import itertools
import math
import operator
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vrlat.homology as hm
from vrlat.complexes import (
    Complex,
    build_flag,
    full_subcomplex,
    link,
    mirrored,
    star,
)
from vrlat.formulas import power_betti3, prefix_increment, skip_increment, upto_betti3
from vrlat.homology import (
    BettiVector,
    MatrixTooLarge,
    SNFDiagonal,
    TruncatedComplex,
    betti_z2,
    euler_characteristic,
    homology_integer,
    prefix_betti_z2,
    smith_diagonal,
)
from vrlat.setfam import SetFamily, Subset, gen_prefix, gen_uniform, gen_union

from oracles import (
    bf_betti,
    bf_boundary_columns,
    bf_coboundary_pivots,
    bf_components,
    bf_gf2_rank,
    bf_integer_columns,
    bf_simplices,
)
from tuples import (
    TORSION_FIXTURES,
    derived_complexes,
    from_layers,
    projective_plane,
    projective_plane_cone,
    projective_plane_join,
    projective_plane_join_points,
    simplices,
    vertex_indices,
    vertex_key,
)


def upto(m: int, n: int) -> SetFamily:
    return gen_union([gen_uniform(m, i) for i in range(0, n + 1)])


def f73_subfamily(seed: int) -> SetFamily:
    """A seeded half of F(7,3): 17 of its 35 sets."""
    chosen = random.Random(seed).sample(gen_uniform(7, 3).vertices, 17)
    return SetFamily.from_subsets(7, sorted(chosen, key=lambda s: s.sort_key()))


def octahedron():
    return build_flag(gen_uniform(4, 2), 2, 2)


def marked(pivots: bytearray) -> set[int]:
    """The rows whose pivot byte is set."""
    return {r for r, p in enumerate(pivots) if p}


def pivot_rows(k: Complex, d: int, pivots: bytearray | None) -> bytearray:
    """The pivot rows _reduce_coboundary returned for delta^d, with None,
    a dimension the counts settle, read as its apparent rows."""
    return k.apparent_rows(d) if pivots is None else pivots


def coboundaries(k: Complex, modulus: int):
    """d and the rank, torsion and pivot rows of delta^d, for every d, from
    the reduction driver."""
    return enumerate(hm._coboundaries(k, modulus, k.max_dim))


def record_builds(monkeypatch) -> list[int]:
    """The keys Complex.coboundary is called with from now on, in call
    order."""
    keys = []
    build = Complex.coboundary

    def recorded(k, key):
        keys.append(key)
        return build(k, key)

    monkeypatch.setattr(Complex, "coboundary", recorded)
    return keys


def hypercube_sample() -> SetFamily:
    """A 33-set subfamily of power(6) whose scale-3 complex, its columns
    walked last to first, has a pivot -2 under a later entry 1, an
    artefact of the column order, not torsion.  The reducer walks first
    to last and takes no gcd step on it."""
    text = (
        "{1} {2} {3} {4} {5} {1,3} {2,3} {2,5} {3,6} {4,5} {4,6} {5,6} "
        "{1,2,4} {1,3,4} {1,3,5} {1,3,6} {2,3,4} {2,3,5} {2,3,6} {2,4,6} "
        "{3,4,5} {1,2,3,4} {1,2,3,5} {1,2,3,6} {1,3,4,5} {2,3,4,6} {3,4,5,6} "
        "{1,2,3,4,5} {1,2,3,4,6} {1,2,3,5,6} {1,2,4,5,6} {2,3,4,5,6} "
        "{1,2,3,4,5,6}"
    )
    return SetFamily.from_subsets(6, [Subset.parse(t, 6) for t in text.split()])


class TestBoundaryMatrix:
    def test_octahedron_shapes(self):
        k = octahedron()
        layers = simplices(k)
        d1 = bf_integer_columns(layers[0], layers[1])
        d2 = bf_integer_columns(layers[1], layers[2])
        assert len(d1) == 12 and len(d2) == 8
        assert {r for c in d1 for r in c} == set(range(6))
        assert {r for c in d2 for r in c} == set(range(12))
        assert all(sorted(c.values()) == [-1, 1] for c in d1)
        assert all(sorted(c.values()) == [-1, 1, 1] for c in d2)

    def test_boundary_of_boundary_vanishes_over_integers(self):
        layers = simplices(build_flag(gen_uniform(5, 2), 2, 3))
        for dim in (2, 3):
            lower = bf_integer_columns(layers[dim - 2], layers[dim - 1])
            for col in bf_integer_columns(layers[dim - 1], layers[dim]):
                acc: dict[int, int] = {}
                for face, sign in col.items():
                    for r, v in lower[face].items():
                        acc[r] = acc.get(r, 0) + sign * v
                assert all(v == 0 for v in acc.values())


class TestBettiZ2:
    @pytest.mark.parametrize(
        "family, scale, through",
        [
            (gen_uniform(4, 2), 2, 2),
            (gen_uniform(5, 2), 2, 3),
            (upto(3, 3), 1, 3),
            (upto(3, 3), 2, 3),
            (upto(4, 4), 1, 4),
            (gen_union([gen_uniform(5, 2), gen_uniform(5, 3)]), 2, 3),
            (gen_prefix(4, Subset.parse("{1,2,4}", 4)), 2, 3),
        ],
    )
    def test_matches_bruteforce(self, family, scale, through):
        k = build_flag(family, scale, through + 1)
        got = betti_z2(k, through)
        assert list(got.values) == bf_betti(family, scale, through)

    def test_zeroth_number_counts_components(self):
        fam = gen_uniform(4, 2)
        for scale in (0, 2):
            k = build_flag(fam, scale, 1)
            got = betti_z2(k, 0)
            assert got.values[0] == bf_components(fam, scale) - 1

    def test_octahedron_sphere_profile(self):
        assert betti_z2(octahedron(), 2).values == (0, 0, 1)

    def test_truncation_drops_trailing_dimensions(self):
        # facets reach dimension 4, so a depth-3 build cannot settle b3
        k = build_flag(gen_uniform(6, 2), 2, 3)
        assert not k.complete
        got = betti_z2(k, 3)
        assert got.complete_through == 2
        assert len(got.values) == 3

    def test_complete_complex_pads_with_zeros(self):
        got = betti_z2(octahedron(), 5)
        assert got.values == (0, 0, 1, 0, 0, 0)
        assert got.complete_through == 5

    def test_negative_through_rejected(self):
        with pytest.raises(ValueError):
            betti_z2(octahedron(), -1)

    def test_deterministic(self):
        k = build_flag(upto(4, 2), 2, 3)
        assert betti_z2(k, 3) == betti_z2(k, 3)

    @pytest.mark.parametrize(
        "family, scale, through",
        [
            (gen_uniform(5, 2), 2, 3),
            (upto(3, 3), 1, 3),
            (gen_prefix(4, Subset.parse("{1,2,4}", 4)), 2, 3),
        ],
    )
    def test_shuffled_layers_match_lexicographic(self, family, scale, through):
        k = build_flag(family, scale, through + 1)
        rng = random.Random(11)
        layers = tuple(tuple(rng.sample(layer, len(layer))) for layer in simplices(k))
        assert layers != simplices(k)
        shuffled = from_layers(
            k.family, k.scale, k.max_dim, layers, flag=k.flag, complete=k.complete
        )
        got = betti_z2(shuffled, through)
        assert got == betti_z2(k, through)
        assert list(got.values) == bf_betti(family, scale, through)


@st.composite
def small_family(draw, max_m: int = 4, max_size: int = 7):
    """A family of at most max_size subsets of an m-set, m <= max_m, and a
    scale 0..m."""
    m = draw(st.integers(min_value=2, max_value=max_m))
    all_subsets = [Subset(bits, m) for bits in range(1 << m)]
    picked = draw(
        st.lists(
            st.sampled_from(all_subsets), min_size=1, max_size=max_size, unique=True
        )
    )
    fam = SetFamily.from_subsets(m, picked)
    return fam, draw(st.integers(min_value=0, max_value=m))


class TestPrefixBettiZ2:
    @settings(max_examples=80, deadline=None)
    @given(small_family(max_m=5, max_size=10), st.integers(min_value=1, max_value=4))
    def test_every_prefix_matches_its_own_reduction(self, case, max_dim):
        fam, scale = case
        full = build_flag(fam, scale, len(fam))
        assert full.complete
        for i, got in enumerate(prefix_betti_z2(full, max_dim)):
            sub = full_subcomplex(full, range(i + 1))
            assert got == betti_z2(sub, max_dim)
            if i < 8:
                prefix = SetFamily(fam.m, fam.vertices[: i + 1])
                assert list(got.values) == bf_betti(prefix, scale, max_dim)
        # a truncated build: each prefix is complete until its first
        # (max_dim+1)-clique, as if it were built on its own
        k = build_flag(fam, scale, max_dim)
        for i, got in enumerate(prefix_betti_z2(k, max_dim)):
            own = build_flag(SetFamily(fam.m, fam.vertices[: i + 1]), scale, max_dim)
            assert got == betti_z2(own, max_dim if own.complete else max_dim - 1)

    @pytest.mark.parametrize("m, max_dim", [(4, 2), (5, 3), (5, 4)])
    def test_power_set_prefixes_match_prefix_builds(self, m, max_dim):
        k = build_flag(gen_prefix(m, Subset.full(m)), 2, max_dim)
        got = prefix_betti_z2(k, max_dim)
        assert len(got) == 1 << m
        assert {bv.complete_through for bv in got} == {max_dim - 1, max_dim}
        for a, bv in zip(k.family.vertices, got):
            own = build_flag(gen_prefix(m, a), 2, max_dim)
            assert bv == betti_z2(own, max_dim if own.complete else max_dim - 1)

    def test_truncated_non_flag_complex_stays_truncated(self):
        k = build_flag(gen_prefix(4, Subset.full(4)), 2, 3)
        cut = from_layers(k.family, 2, 2, simplices(k)[:3], flag=False, complete=False)
        for i, got in enumerate(prefix_betti_z2(cut, 3)):
            assert got.complete_through == 1
            assert got == betti_z2(full_subcomplex(cut, range(i + 1)), 3)

    @pytest.mark.parametrize(
        "family, scale, through",
        [(gen_prefix(m, Subset.full(m)), 2, 4) for m in range(1, 7)]
        + [(gen_prefix(m, Subset.full(m)), r, 3) for m in range(1, 6) for r in (1, 3)]
        + [(gen_uniform(6, 3), 2, 3), (gen_uniform(6, 3), 4, 3),
           (gen_uniform(4, 2), 2, 3), (gen_prefix(5, Subset.full(5)), 3, 7)],
    )
    def test_mirror_symmetric_build_matches_prefix_builds(
        self, family, scale, through
    ):
        # complementation reverses the (size, lex) order and keeps distances,
        # so v -> n-1-v is an automorphism and the pass reduces k itself
        k = build_flag(family, scale, through + 1)
        for i, (f, chi, bv) in enumerate(hm._prefix_z2(k, through)):
            own = build_flag(SetFamily(family.m, family.vertices[: i + 1]), scale, through + 1)
            assert f == own.f_vector
            assert chi == (euler_characteristic(own) if own.complete else None)
            assert bv == betti_z2(own, through)

    @pytest.mark.parametrize("scale", [2, 3])
    def test_mirror_asymmetric_build_matches_each_prefix(self, scale):
        k = build_flag(gen_uniform(5, 2), scale, 4)
        n = len(k.family)
        assert k.adjacency != tuple(
            int(f"{a:0{n}b}"[::-1], 2) for a in reversed(k.adjacency)
        )
        for i, got in enumerate(prefix_betti_z2(k, 3)):
            assert got == betti_z2(full_subcomplex(k, range(i + 1)), 3)
        # the relabelled copy is built, and the births are counted from its
        # subtrees
        for i, (f, chi, _) in enumerate(hm._prefix_z2(k, 3)):
            own = build_flag(SetFamily(5, k.family.vertices[: i + 1]), scale, 4)
            assert f == own.f_vector
            assert chi == (euler_characteristic(own) if own.complete else None)

    def test_mirror_symmetric_graph_of_a_non_flag_complex(self):
        # the graph of power(4) is mirror symmetric, but keeping only the
        # triangles on vertex 0 makes the complex itself not so
        k = build_flag(gen_prefix(4, Subset.full(4)), 2, 2)
        vertices, edges, triangles = simplices(k)
        layers = (vertices, edges, tuple(t for t in triangles if t[0] == 0))
        part = from_layers(k.family, 2, 2, layers, flag=False, complete=True)
        assert part.adjacency == k.adjacency
        for i, got in enumerate(prefix_betti_z2(part, 2)):
            assert got == betti_z2(full_subcomplex(part, range(i + 1)), 2)
        for i, (f, _, _) in enumerate(hm._prefix_z2(part, 2)):
            assert f == full_subcomplex(part, range(i + 1)).f_vector

    def test_power_set_prefix_task_builds_one_complex(self, monkeypatch):
        import vrlat.cli as cli
        import vrlat.complexes as cx

        made = []

        class Counted(Complex):
            def __init__(self, *args, **kwargs):
                made.append(len(args[2][1]) - 1)  # max_dim, from the f-vector
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cx, "Complex", Counted)
        monkeypatch.setattr(hm, "Complex", Counted)
        m, bases = cli._suite_tasks("prefix", 5)[-1]
        entries = cli._prefix_entries(m, bases, None, None)
        assert all(e.status == "ok" and e.match for e in entries)
        assert made == [4]  # power(5) through dim 4, from build_flag

    def test_build_flag_supplies_the_first_clique_birth(self):
        k = build_flag(gen_prefix(5, Subset.full(5)), 2, 3)
        assert not k.complete
        # the same layers, not from build_flag: the constructor's expansion
        # reads the first clique birth off the same top layer
        copy = from_layers(k.family, 2, 3, simplices(k), flag=True, complete=False)
        assert copy.complete_below == k.complete_below
        assert prefix_betti_z2(k, 3) == prefix_betti_z2(copy, 3)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_upto_prefixes_match_closed_form(self, m):
        # upto(m, n) is the prefix of power(m) that ends at the last n-subset
        power = gen_prefix(m, Subset.full(m))
        got = prefix_betti_z2(build_flag(power, 2, 4), 3)
        end = -1
        for n in range(m + 1):
            end += math.comb(m, n)
            assert SetFamily(m, power.vertices[: end + 1]) == upto(m, n)
            assert got[end].values == (0, 0, 0, upto_betti3(m, n))

    @pytest.mark.parametrize("m", range(3, 8))
    def test_prefix_links_are_wedges_of_increment_two_spheres(self, m):
        # prefix_increment(A) counts the 2-spheres of the link of A in the
        # scale-2 complex of the prefix ending at A: for each vertex i with
        # |A| >= 3, the link of i in the full subcomplex K_i on vertices
        # 0..i is a flag complex with reduced Betti numbers
        # (0, 0, prefix_increment(A)), and the 2-spheres of all the links
        # are the 3-spheres of power(m)
        k = build_flag(gen_prefix(m, Subset.full(m)), 2, 4)
        checked = spheres = 0
        for i, a in enumerate(k.family.vertices):
            if a.size >= 3:
                lk = link(full_subcomplex(k, range(i + 1)), i)
                b = betti_z2(lk, 2).values
                assert lk.flag
                assert b == (0, 0, prefix_increment(a)), a
                checked += 1
                spheres += b[2]
        assert checked == 2**m - 1 - m - math.comb(m, 2)
        assert spheres == power_betti3(m)

    @pytest.mark.parametrize("m, n", [(5, 1), (6, 2), (7, 2), (7, 3), (8, 3)])
    def test_two_layer_links_are_wedges_of_skip_increment_two_spheres(self, m, n):
        # skip_increment(A) counts the 2-spheres of the link of each
        # (n+2)-set A in the scale-2 complex of F(m,n) + F(m,n+2) on the
        # vertices up to A, the one-based gaps where prefix_increment has
        # zero-based ones
        fam = gen_union([gen_uniform(m, n), gen_uniform(m, n + 2)])
        k = build_flag(fam, 2, 4)
        for a in gen_uniform(m, n + 2):
            i = fam.index(a)
            lk = link(full_subcomplex(k, range(i + 1)), i)
            assert betti_z2(lk, 2).values == (0, 0, skip_increment(a)), a

    def test_negative_through_rejected(self):
        with pytest.raises(ValueError):
            prefix_betti_z2(octahedron(), -1)


class TestCoboundaryPivots:
    @settings(max_examples=80, deadline=None)
    @given(small_family(max_m=5, max_size=10), st.integers(min_value=1, max_value=3))
    def test_vertex_coboundary_matches_naive_reduction(self, case, scale):
        fam, _ = case
        k = build_flag(fam, scale, 1)
        edges = sorted(simplices(k)[1])
        for modulus in (0, 2):
            rank, torsion, pivots = hm._reduce_coboundary(k, 0, bytearray(), modulus)
            pivots = pivot_rows(k, 0, pivots)
            assert {edges[r] for r in marked(pivots)} == bf_coboundary_pivots(
                fam, scale, 0, modulus
            )
            assert len(pivots) == k.f_vector[1]
            assert rank == pivots.count(1)
            assert rank == len(fam) - bf_components(fam, scale)
            assert torsion == ()

    @pytest.mark.parametrize("modulus", [2, 0])
    @pytest.mark.parametrize(
        "family, scale",
        [
            (gen_union([gen_uniform(5, 2), gen_uniform(5, 3)]), 1),
            (gen_union([gen_uniform(6, 2), gen_uniform(6, 3)]), 1),
            (gen_union([upto(6, 1), gen_uniform(6, 5), gen_uniform(6, 6)]), 1),
            (gen_union([gen_uniform(4, 1), gen_uniform(4, 2), gen_uniform(4, 4)]), 1),
        ],
        ids=["F52+F53", "F62+F63", "disconnected", "last-isolated"],
    )
    def test_vertex_coboundary_walks_childless_vertices(
        self, family, scale, modulus, monkeypatch
    ):
        # vertices with no later neighbour (the upper layer, the last of a
        # component) are reduced by the walk, with no triangle to certify
        # the rank; the last vertex, the augmentation's pivot row, is
        # cleared, so its column is never built
        k = build_flag(family, scale, 1)
        assert not hm._certified(k, 0)
        keys = record_builds(monkeypatch)
        rank, torsion, pivots = hm._reduce_coboundary(k, 0, bytearray(), modulus)
        edges = simplices(k)[1]
        assert {edges[r] for r in marked(pivots)} == bf_coboundary_pivots(
            family, scale, 0, modulus
        )
        assert rank == pivots.count(1) == len(family) - bf_components(family, scale)
        assert torsion == ()
        assert keys
        assert 1 << (len(k.adjacency) - 1 - vertex_indices(k)[-1]) not in keys

    @settings(max_examples=60, deadline=None)
    @given(small_family(max_m=5, max_size=10))
    def test_cleared_reduction_matches_naive_reduction(self, case):
        # clearing drops only columns in the span of the others, and the
        # apparent pairs settle columns unreduced, so every dimension's
        # pivot rows are those of a naive reduction with neither
        # (the oracle walks the columns the other way).  Over Z the rank is
        # the rational rank, and the unit pivot rows are among the pivots.
        # The pivot rows are one byte per row of the next layer
        fam, scale = case
        k = build_flag(fam, scale, 4)
        for modulus in (2, 0):
            for d, (rank, torsion, pivots) in coboundaries(k, modulus):
                got = pivot_rows(k, d, pivots)
                rows = simplices(k)[d + 1]
                expected = bf_coboundary_pivots(fam, scale, d, modulus)
                assert rank == len(expected)
                assert len(got) == k.f_vector[d + 1]
                if modulus:
                    assert {rows[r] for r in marked(got)} == expected
                    assert got.count(1) == rank
                else:
                    assert {rows[r] for r in marked(got)} <= expected
                    assert rank - got.count(1) >= len(torsion)

    @pytest.mark.parametrize("modulus", [2, 0])
    @TORSION_FIXTURES
    def test_nonunit_pivot_rows_are_unmarked(self, make, modulus):
        # mod 2 every pivot row is marked; over Z a non-unit pivot row is
        # unmarked, so the next dimension does not clear its column, and
        # each invariant factor above 1 comes from one such row
        k = make()
        for d, (rank, torsion, pivots) in coboundaries(k, modulus):
            got = pivot_rows(k, d, pivots)
            assert len(got) == k.f_vector[d + 1]
            if modulus:
                assert got.count(1) == rank
            else:
                assert rank - got.count(1) >= len(torsion)

    @pytest.mark.parametrize(
        "m, additions, builds",
        [(4, 9, 14), (5, 98, 103), (6, 627, 552), (7, 3076, 2441)],
        ids=["4", "5", "6", "7"],
    )
    def test_power_set_top_coboundary_reduces_only_essential_columns(
        self, m, additions, builds
    ):
        # walked first to last, every column of delta^3 on power(m) that
        # has a pivot is an apparent pair, so the only columns the reducer
        # adds to are the b3 essential cocycles, which reduce to zero.  A
        # raw apparent column rebuilt for an addition is kept, so no key
        # is built twice.  The copy carries no top count, so nothing
        # certifies the rank of delta^3 and the walk reduces every column:
        # an incomplete non-flag complex has none
        k = build_flag(gen_prefix(m, Subset.full(m)), 2, 4)
        copy = from_layers(k.family, 2, 4, simplices(k), flag=False, complete=False)
        assert copy.parents[-1] is None
        added_to, keys, pivots = self._top_coboundary_work(copy)
        # the list keeps every column alive, so distinct columns have
        # distinct ids
        assert len({id(col) for col in added_to}) == power_betti3(m)
        assert not any(added_to)
        assert len(added_to) == additions
        assert len(keys) == len(set(keys)) == builds
        # build_flag's top count certifies rank delta^3 = W_3, so every
        # childless column is skipped unbuilt, with the same pivot rows
        assert self._top_coboundary_work(k) == ([], [], pivots)

    @staticmethod
    def _top_coboundary_work(k):
        """The columns added to and the keys built while delta^3 of k is
        reduced mod 2, and its pivot rows."""
        reduced = hm._coboundaries(k, 2, k.max_dim)
        for _ in range(3):
            next(reduced)
        added_to = []
        subtract = hm._subtract

        def counted(col, *args):
            added_to.append(col)
            subtract(col, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hm, "_subtract", counted)
            keys = record_builds(mp)
            _, _, pivots = next(reduced)
        return added_to, keys, pivot_rows(k, 3, pivots)

    @pytest.mark.parametrize(
        "interleaved, builds", [(False, 176), (True, 43)], ids=["join", "interleaved"]
    )
    def test_integer_route_builds_each_column_once(
        self, interleaved, builds, monkeypatch
    ):
        # over Z a raw apparent column is rebuilt once and kept, in the main
        # loop and in the non-unit residual: the interleaved join's residual
        # rebuilds two raw unit columns
        keys = record_builds(monkeypatch)
        k = projective_plane_join(interleaved)
        torsion = [homology_integer(k, d)[1] for d in range(6)]
        assert torsion == [()] * 3 + [(2,)] * 2 + [()]
        assert len(keys) == len(set(keys)) == builds

    @pytest.mark.parametrize("modulus", [2, 0])
    @pytest.mark.parametrize(
        "family, scale, through",
        [
            (gen_prefix(4, Subset.full(4)), 2, 3),
            (gen_prefix(5, Subset.full(5)), 2, 2),
            (gen_prefix(6, Subset.full(6)), 2, 1),
            (gen_uniform(6, 3), 4, 1),
            (f73_subfamily(1), 4, 2),
            (f73_subfamily(2), 4, 1),
        ],
        ids=["power4", "power5", "power6", "F63", "F73-seed1", "F73-seed2"],
    )
    def test_child_block_tops_are_pivots(self, family, scale, through, modulus):
        # a column s with a non-empty child block is the smallest face of
        # its block's last row, so no column walked before s reaches that
        # row and the reducer files s there without looking: the naive
        # reduction, with no clearing and walked the other way, must have
        # every such row of a column the reducer does not clear as a pivot.
        # The oracle enumerates every vertex subset, so the dimensions are
        # kept low
        k = build_flag(family, scale, through + 1)
        cleared = bytearray(k.f_vector[0])
        for d, (_, _, pivots) in coboundaries(k, modulus):
            rows, ends = simplices(k)[d + 1], k.block_ends(d)
            tops = {
                rows[end - 1]
                for j, (start, end) in enumerate(zip((0, *ends), ends))
                if start < end and not cleared[j]
            }
            assert tops
            assert tops <= bf_coboundary_pivots(family, scale, d, modulus)
            cleared = pivot_rows(k, d, pivots)

    @pytest.mark.parametrize("modulus", [2, 0])
    def test_settled_dimension_walks_nothing(self, modulus, monkeypatch):
        # F(6,3) at scale 4 is the 9-sphere on 20 vertices: the counts
        # settle delta^0..delta^7, which return W_d and None with no column
        # built and no apparent rows made.  delta^8 has one free row, the
        # sphere's class; it reads delta^7's apparent rows as its cleared
        # columns, which hold all its childless ones
        k = build_flag(gen_uniform(6, 3), 4, 19)
        keys = record_builds(monkeypatch)
        made = []
        apparent = Complex.apparent_rows

        def recorded(k, d):
            made.append(d)
            return apparent(k, d)

        monkeypatch.setattr(Complex, "apparent_rows", recorded)
        settled = []
        for d, (rank, torsion, pivots) in coboundaries(k, modulus):
            if pivots is None:
                settled.append(d)
                assert (rank, torsion, keys, made) == (parents(k, d), (), [], [])
            elif d == 8:
                assert (made, keys) == ([7, 8], [])
            keys.clear()
            made.clear()
        assert settled == list(range(8))

    @pytest.mark.parametrize("d", [2, 3], ids=["walked", "settled"])
    def test_short_cleared_is_refused(self, d):
        # one byte short would walk the last column as uncleared with no
        # error
        k = build_flag(gen_prefix(5, Subset.full(5)), 2, 4)
        cleared = k.apparent_rows(d - 1)
        hm._reduce_coboundary(k, d, cleared, 2)
        with pytest.raises(ValueError, match="cleared"):
            hm._reduce_coboundary(k, d, cleared[:-1], 2)

    @pytest.mark.parametrize("modulus", [2, 0])
    @pytest.mark.parametrize("seed", [4, 13])
    def test_sibling_pivots_match_keyed_columns(self, seed, modulus, monkeypatch):
        # in a flag complex a childless column's top coface is read off its
        # sibling's child block, and the column is keyed only if its row
        # is already a pivot or a later column meets it there.  A flag=False
        # copy keys every uncleared childless column, first to last, and
        # both walks give the same ranks, torsion and pivot rows
        k = build_flag(f73_subfamily(seed), 4, 16)
        copy = Complex(k.family, k.scale, tree_of(k), flag=False)
        read = []
        key = Complex.key

        def recorded(c, d, j):
            read.append(j)
            return key(c, d, j)

        monkeypatch.setattr(Complex, "key", recorded)
        walks = []
        for c in (k, copy):
            out, keyed = [], []
            for d, (rank, torsion, pivots) in coboundaries(c, modulus):
                out.append((rank, torsion, pivot_rows(c, d, pivots)))
                keyed.append(list(read))
                read.clear()
            walks.append((out, keyed))
        (flag_out, flag_keyed), (copy_out, copy_keyed) = walks
        assert flag_out == copy_out
        assert all(js == sorted(set(js)) for js in copy_keyed)
        assert sum(map(len, flag_keyed)) < sum(map(len, copy_keyed)) / 2
        # a column settled unkeyed is keyed when a later column, walked
        # after it, meets its row: its index then follows a larger one
        rebuilt = any(a > b for js in flag_keyed for a, b in zip(js, js[1:]))
        assert rebuilt == (seed == 13)


def tree_of(k: Complex, cands=None, counts=None):
    """k's clique tree, to build a copy of k, with other candidate sets or
    other parent counts if given."""
    return (
        k.vertex_mask, k.f_vector, k.cands if cands is None else cands, k.adjacency,
        k.complete_below, k.parents if counts is None else counts,
    )


def parents(k: Complex, d: int) -> int:
    """W_d, the d-simplices with a coface s + (u,), u > max(s): read off
    the child-block ends below the top, and at the top of a flag complex
    off the simplex tuples and the graph, so in the full flag complex."""
    if d < k.max_dim:
        ends = k.block_ends(d)
        return sum(1 for start, end in zip((0, *ends), ends) if start < end)
    if not k.flag:
        return 0
    adjacency = k.adjacency
    return sum(
        1 for s in simplices(k)[d]
        if functools.reduce(operator.and_, (adjacency[v] for v in s)) >> (s[-1] + 1)
    )


def assert_rank_certificate(k: Complex, modulus: int) -> list[int]:
    """Check the facts the rank certificate rests on in every dimension of
    a complete or build_flag complex, and that the lazy route, which walks
    no dimension the counts settle, and the walk that reduces every column
    agree on rank, torsion and pivot rows; return the settled dimensions."""
    assert k.parents[-1] == parents(k, k.max_dim)
    routes, settled = [], []
    certify = hm._certified
    for lazy in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            if not lazy:
                mp.setattr(hm, "_certified", lambda k, d: False)
            got, cleared = [], b""
            for d, (rank, torsion, pivots) in coboundaries(k, modulus):
                ends = k.block_ends(d)
                # no cleared column has a child block
                assert all(
                    start == end
                    for c, start, end in zip(cleared, (0, *ends), ends)
                    if c
                )
                # W_d <= rank delta^d <= Z_(d+1), and no free row certifies
                childless = k.f_vector[d + 1] - parents(k, d + 1)
                assert parents(k, d) <= rank <= childless
                assert certify(k, d) == (parents(k, d) == childless)
                if lazy and pivots is None:
                    assert k.f_vector[d + 1] and certify(k, d)
                    settled.append(d)
                cleared = pivot_rows(k, d, pivots)
                got.append((rank, torsion, cleared))
            routes.append(got)
    lazy, walked = routes
    assert lazy == walked
    for d in range(k.max_dim):
        # the apparent rows are the last rows of the nonempty child blocks,
        # and where the counts settle a dimension they are all its pivots
        ends = k.block_ends(d)
        last = {end - 1 for start, end in zip((0, *ends), ends) if start < end}
        assert marked(k.apparent_rows(d)) == last
        if d in settled:
            assert walked[d][2] == k.apparent_rows(d)
    return settled


class TestRankCertificate:
    @settings(max_examples=60, deadline=None)
    @given(small_family(max_m=5, max_size=10))
    def test_certificate_facts_on_small_flag_complexes(self, case):
        fam, scale = case
        k = build_flag(fam, scale, 4)
        for modulus in (2, 0):
            assert_rank_certificate(k, modulus)

    @pytest.mark.parametrize("modulus", [2, 0])
    @TORSION_FIXTURES
    def test_certificate_facts_on_torsion_fixtures(self, make, modulus):
        # over Z the cone and the join take gcd steps, and three of the
        # four have torsion
        assert_rank_certificate(make(), modulus)

    @pytest.mark.parametrize("modulus", [2, 0])
    @pytest.mark.parametrize(
        "family, scale, max_dim, settled",
        [
            (hypercube_sample(), 3, 10, [8]),
            (gen_prefix(4, Subset.full(4)), 3, 10, [0, 1, 2, 3, 4, 5]),
            (gen_prefix(5, Subset.full(5)), 3, 10, [0, 1, 8]),
            (gen_prefix(5, Subset.full(5)), 2, 4, [0, 1, 3]),
            (gen_prefix(6, Subset.full(6)), 2, 4, [0, 1, 3]),
        ],
        ids=["sample", "Q4", "Q5", "power5", "power6"],
    )
    def test_certificate_facts_on_hypercubes(
        self, family, scale, max_dim, settled, modulus
    ):
        # the counts are taken in every nonempty dimension; Q_4 at scale 3
        # is the 16-vertex cross-polytope, S^7, so only delta^6 is walked,
        # and at scale 2 delta^2's free rows number the paper's b3
        k = build_flag(family, scale, max_dim)
        assert assert_rank_certificate(k, modulus) == settled

    @pytest.mark.parametrize("modulus", [2, 0])
    @pytest.mark.parametrize(
        "family",
        [gen_uniform(6, 3), f73_subfamily(1), f73_subfamily(2), f73_subfamily(3)],
        ids=["F63", "F73-seed1", "F73-seed2", "F73-seed3"],
    )
    def test_certificate_facts_on_bench_shapes(self, family, modulus):
        # the integer benchmark's shapes: complete complexes at scale 4,
        # F(6,3) the 20-vertex cross-polytope and halves of F(7,3)
        k = build_flag(family, 4, len(family) - 1)
        assert k.complete
        assert assert_rank_certificate(k, modulus)

    def test_each_layer_is_counted_once(self):
        # W_d is counted by the expansion and carried in the tree, so the
        # mod-2 route, the integer route and the prefix pass, though each
        # reads W_d and W_(d+1), count no layer again
        counted = []

        class Cands(list):
            def count(self, value):
                counted.append(id(self))
                return super().count(value)

        k = build_flag(gen_uniform(6, 3), 4, 19)
        c = Complex(k.family, k.scale, tree_of(k, tuple(map(Cands, k.cands))), flag=True)
        assert betti_z2(c, 9) == betti_z2(k, 9)
        assert [homology_integer(c, d) for d in range(10)] == [(0, ())] * 9 + [(1, ())]
        assert prefix_betti_z2(c, 9) == prefix_betti_z2(k, 9)
        assert counted == []

    @pytest.mark.parametrize("modulus", [2, 0])
    def test_false_top_count_is_rejected_by_the_naive_reduction(self, modulus):
        # through dimension 2 the sample's delta^1 has rank 319 > W_1 = 318:
        # a free row takes a pivot no apparent pair gives.  A top count
        # claiming no free row skips that column, and the naive reduction
        # finds the pivot the certified walk missed
        fam = hypercube_sample()
        k = build_flag(fam, 3, 2)
        lie = Complex(
            fam, 3, tree_of(k, counts=(*k.parents[:-1], k.f_vector[2] - parents(k, 1))),
            flag=True,
        )
        expected = bf_coboundary_pivots(fam, 3, 1, modulus)
        rows = simplices(k)[2]
        cleared = hm._reduce_coboundary(k, 0, bytearray(), modulus)[2]
        for c, honest in ((k, True), (lie, False)):
            rank, _, pivots = hm._reduce_coboundary(c, 1, cleared, modulus)
            pivots = pivot_rows(c, 1, pivots)
            assert (rank == len(expected)) is honest
            assert ({rows[r] for r in marked(pivots)} == expected) is honest


# names of the clique tree's layout and graph, which only complexes.py
# reads; Complex's other methods turn them into rows, columns and keys
LAYOUT = {"cands", "block_ends", "split", "adjacency", "flag", "vertex_indices"}


def tree_reads(source: str) -> list[str]:
    """The underscore names a module imports from .complexes, and the
    underscore attributes, other than dunders, and the LAYOUT attributes
    it reads off any object."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) == (1, "complexes"):
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, ast.Attribute):
            private = node.attr.startswith("_") and not node.attr.endswith("__")
            if private or node.attr in LAYOUT:
                found.append(node.attr)
    return found


class TestTreeRoute:
    def test_reducer_reads_the_tree_through_complex_alone(self):
        # the tree's layout is private to complexes.py: homology.py imports
        # no underscore name from it and reads no underscore attribute and
        # no layout attribute, so it walks the tree by Complex's methods
        # (row, key, coboundary, childless, ...)
        source = Path(__file__).resolve().parent.parent / "src" / "vrlat" / "homology.py"
        assert tree_reads(source.read_text()) == []
        assert tree_reads("from .complexes import Complex, _bits\nk._ends[0]") == [
            "_bits", "_ends"
        ]
        assert tree_reads("k.cands[d]\nk.flag and k.split(d, j)") == [
            "cands", "flag", "split"
        ]

    def test_settled_complexes_make_no_block_ends(self, monkeypatch):
        # build_flag makes no layer's block ends, and betti_z2 on a complex
        # whose every dimension the counts settle makes none either; the
        # other complexes of the suite walk a dimension and make some
        import vrlat.cli as cli

        built, prefixed = [], []
        build, prefix = cli.build_flag, cli._prefix_z2

        def recorded_build(*args, **kwargs):
            built.append(build(*args, **kwargs))
            assert built[-1]._ends == [None] * built[-1].max_dim
            return built[-1]

        def recorded_prefix(k, through):
            prefixed.append(k)
            return prefix(k, through)

        monkeypatch.delenv("VRLAT_THREADS", raising=False)
        monkeypatch.setattr(cli, "build_flag", recorded_build)
        monkeypatch.setattr(cli, "_prefix_z2", recorded_prefix)
        cli.run_verify("all", 7)
        settled = []
        for k in built:
            if any(k is p for p in prefixed):
                continue
            made = [d for d, ends in enumerate(k._ends) if ends is not None]
            if all(hm._certified(k, d) for d in range(k.max_dim) if k.f_vector[d + 1]):
                settled.append(k)
                assert made == []
            else:
                assert made
        assert len(settled) == 5

    def test_reduction_never_builds_the_tuple_view(self):
        # the reducer and the prefix pass read the clique tree alone: a
        # Complex has no tuple view (the tests make one off the tree), so
        # the integer route, betti_z2 and _prefix_z2 build no simplex tuple
        assert not any(hasattr(Complex, name) for name in ("simplices", "has"))
        cases = [
            (gen_uniform(6, 3), 4, 9, True),
            (gen_prefix(5, Subset.full(5)), 2, 4, True),
            (f73_subfamily(3), 4, 16, False),
        ]
        for family, scale, max_dim, symmetric in cases:
            k = build_flag(family, scale, max_dim)
            top = max(d for d, f in enumerate(k.f_vector) if f)
            through = top if k.complete else max_dim - 1
            groups = [homology_integer(k, d) for d in range(through + 1)]
            # universal coefficients: the mod-2 Betti numbers count the
            # free rank and the even invariant factors of H_d and H_(d-1)
            even = [sum(1 for t in tors if t % 2 == 0) for _, tors in groups]
            assert betti_z2(k, through).values == tuple(
                rank + even[d] + (even[d - 1] if d else 0)
                for d, (rank, _) in enumerate(groups)
            )
            # a graph that v -> n-1-v maps onto itself needs no copy
            assert (mirrored(k) is k) == symmetric
            if symmetric:
                assert hm._prefix_z2(k, through)[-1][2] == betti_z2(k, through)


def assert_keyed_columns_are_coboundaries(k: Complex) -> None:
    layers = simplices(k)
    for d in range(k.max_dim):
        rows = layers[d + 1]
        for r, t in enumerate(rows):
            assert k.row(vertex_key(k, t)) == r
        blocks = zip(layers[d], (0, *k.block_ends(d)), k.block_ends(d))
        for j, (s, start, end) in enumerate(blocks):
            key = vertex_key(k, s)
            assert k.key(d, j) == key
            # (delta s)(t) = (-1)^i where t[i] is the vertex s lacks
            cofaces = {
                r: (-1) ** next(i for i, v in enumerate(t) if v not in s)
                for r, t in enumerate(rows)
                if set(s) <= set(t)
            }
            col = k.coboundary(key)
            assert {vertex_key(k, rows[r]): v for r, v in cofaces.items()} == col
            if not col:
                continue
            low = min(col)
            assert k.row(low) == max(cofaces)
            if start < end:
                # an apparent pair: its pivot less its largest vertex is s
                assert low & (low - 1) == key


class TestKeyedColumns:
    @settings(max_examples=60, deadline=None)
    @given(small_family(max_size=8), st.integers(min_value=0, max_value=2**32))
    def test_keyed_columns_match_naive_coboundaries(self, case, seed):
        # flag complexes (build_flag, a link, a full subcomplex, a shuffled
        # copy) take every common neighbour; stars and skeletons keep only
        # the cofaces the tree holds
        fam, scale = case
        k = build_flag(fam, scale, len(fam) - 1)
        for c in [k, *derived_complexes(k, random.Random(seed))]:
            assert_keyed_columns_are_coboundaries(c)

    @TORSION_FIXTURES
    def test_torsion_fixtures(self, make):
        assert_keyed_columns_are_coboundaries(make())

    @pytest.mark.parametrize("modulus", [2, 0])
    def test_flag_reduction_descends_only_to_pivots(self, monkeypatch, modulus):
        # in a flag complex every common neighbour gives a stored coface,
        # so the only descents are of low keys, each once, and each finds
        # a pivot row; a non-flag copy checks its cofaces by descent too,
        # and its top count is unknown, as for any incomplete non-flag one
        k = build_flag(gen_prefix(5, Subset.full(5)), 2, 4)
        copy = Complex(
            k.family, k.scale, tree_of(k, counts=(*k.parents[:-1], None)), flag=False
        )
        found = []
        row = Complex.row

        def recorded(self, key):
            found.append((key, row(self, key)))
            return found[-1][1]

        monkeypatch.setattr(Complex, "row", recorded)
        for c, flag in ((k, True), (copy, False)):
            for d, (_, _, pivots) in coboundaries(c, modulus):
                keys = [key for key, _ in found]
                got = marked(pivot_rows(c, d, pivots))
                if flag:
                    assert len(keys) == len(set(keys))
                    assert {r for _, r in found} <= got
                elif d == 3:
                    assert not {r for _, r in found} <= got
                found.clear()


def dense_betti_z2(k: Complex) -> list[int]:
    """Reduced Z/2 Betti numbers of a complete complex from dense ranks of
    its own boundary matrices."""
    layers = [sorted(layer) for layer in simplices(k)] + [[]]
    ranks = [1 if layers[0] else 0] + [
        bf_gf2_rank(bf_boundary_columns(layers[d - 1], layers[d]), len(layers[d - 1]))
        for d in range(1, k.max_dim + 2)
    ]
    return [len(layers[d]) - ranks[d] - ranks[d + 1] for d in range(k.max_dim + 1)]


class TestDerivedComplexes:
    @settings(max_examples=60, deadline=None)
    @given(small_family(max_size=8), st.integers(min_value=0, max_value=2**32))
    def test_ranks_match_dense_ranks(self, case, seed):
        # these complexes sort shuffled layers and count their child-block
        # ends by a merge walk when they are made
        fam, scale = case
        k = build_flag(fam, scale, len(fam) - 1)
        for sub in derived_complexes(k, random.Random(seed)):
            assert sub.complete
            want = dense_betti_z2(sub)
            assert list(betti_z2(sub, sub.max_dim).values) == want
            # universal coefficients: b_d mod 2 is the free rank of H_d plus
            # the even invariant factors of H_d and of H_(d-1)
            groups = [homology_integer(sub, d) for d in range(sub.max_dim + 1)]
            even = [sum(1 for t in torsion if t % 2 == 0) for _, torsion in groups]
            assert [
                rank + even[d] + (even[d - 1] if d else 0)
                for d, (rank, _) in enumerate(groups)
            ] == want


def assert_one_answer(c: Complex, cliques) -> None:
    """betti_z2 of c and the prefix pass's last prefix, all of c, agree,
    the pass's Euler characteristic, if it gives one, is c's, and a flag
    c is complete exactly when its vertices span no clique of
    cliques[c.max_dim + 1], the scale graph's (c.max_dim+2)-cliques."""
    through = c.max_dim + 1
    _, chi, bv = hm._prefix_z2(c, through)[-1]
    assert betti_z2(c, through) == bv
    if chi is not None:
        assert euler_characteristic(c) == chi
    if c.flag:
        on = set(vertex_indices(c))
        deeper = cliques[c.max_dim + 1]
        assert c.complete == (not any(on.issuperset(t) for t in deeper))


class TestOneAnswer:
    # completeness is read off the clique tree alone, so betti_z2, the
    # prefix pass and the Euler characteristic cannot disagree on it
    @settings(max_examples=60, deadline=None)
    @given(
        small_family(max_m=5, max_size=10),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_derived_complexes(self, case, max_dim, seed):
        fam, scale = case
        rng = random.Random(seed)
        k = build_flag(fam, scale, max_dim)
        cliques = bf_simplices(fam, scale, max_dim + 1)
        n = len(fam)
        subs = [full_subcomplex(k, rng.sample(range(n), rng.randint(1, n))) for _ in range(3)]
        for c in [k, *derived_complexes(k, rng), *subs]:
            assert_one_answer(c, cliques)

    @pytest.mark.parametrize(
        "family",
        [
            gen_uniform(5, 2),
            gen_uniform(6, 3),
            gen_prefix(4, Subset.full(4)),
            gen_union([gen_uniform(6, 2), gen_uniform(6, 4)]),
        ],
        ids=["F52", "F63", "power4", "F62+F64"],
    )
    def test_full_subcomplexes_of_truncated_flag_complexes(self, family):
        # every prefix and some seeded vertex sets; a full subcomplex whose
        # vertices span no clique above the top is complete, as a fresh
        # build on them is, though the complex it is cut from is not
        n = len(family)
        cliques = bf_simplices(family, 2, 5)
        rng = random.Random(7)
        for max_dim in range(1, 5):
            k = build_flag(family, 2, max_dim)
            vertex_sets = [range(i + 1) for i in range(n)]
            vertex_sets += [rng.sample(range(n), rng.randint(1, n)) for _ in range(10)]
            for vertices in vertex_sets:
                sub = full_subcomplex(k, vertices)
                assert_one_answer(sub, cliques)
                on = SetFamily(family.m, tuple(family.vertices[v] for v in sorted(vertices)))
                assert sub.complete == build_flag(on, 2, max_dim).complete


class TestSmithDiagonal:
    def test_upper_triangular_example(self):
        cols = [{0: 2}, {0: 4, 1: 6}]
        assert smith_diagonal(cols).diag == (2, 6)

    def test_unit_entry_example(self):
        cols = [{0: 1, 1: 3}, {0: 2, 1: 4}]
        assert smith_diagonal(cols).diag == (1, 2)

    def test_zero_matrix(self):
        assert smith_diagonal([{}, {}]).diag == ()

    def test_explicit_zero_entries_are_dropped(self):
        assert smith_diagonal([{0: 1, 1: 0}, {0: 2}]).diag == (1,)
        assert smith_diagonal([{0: 0}, {1: 2, 2: 0}]).diag == (2,)

    def test_diagonal_matrix_reordered(self):
        cols = [{0: 6}, {1: 2}, {2: 4}]
        assert smith_diagonal(cols).diag == (2, 2, 12)
        # gcd/lcm pairs make the chain: 4, 6, 10 -> 2, 2, 60
        assert smith_diagonal([{0: 4}, {1: 6}, {2: 10}]).diag == (2, 2, 60)

    def test_carries_dimension_tag(self):
        assert smith_diagonal([{0: 1}], dim=3).dim == 3

    @pytest.mark.parametrize("shape", ["wide", "tall"])
    def test_residual_over_limit_refused_before_elimination(self, monkeypatch, shape):
        def unreachable(*args):
            raise AssertionError("elimination reached")

        monkeypatch.setattr(hm, "_subtract", unreachable)
        # the guard bounds the area, rows times columns: one entry over
        # _RESIDUAL_LIMIT ** 2 on a square, and two columns one row over
        # half of it, though two columns need at most two pivots
        if shape == "wide":
            n = hm._RESIDUAL_LIMIT + 1
            rows, cols = n, [{j: 2} for j in range(n)]
        else:
            rows = hm._RESIDUAL_LIMIT ** 2 // 2 + 1
            cols = [{r: 2 for r in range(rows)}, {r: 4 - r % 2 * 2 for r in range(rows)}]
        with pytest.raises(MatrixTooLarge) as err:
            smith_diagonal(cols, dim=4)
        assert (err.value.n_rows, err.value.n_cols) == (rows, len(cols))
        assert err.value.limit == hm._RESIDUAL_LIMIT

    def test_residual_at_limit_reaches_elimination(self):
        n = hm._RESIDUAL_LIMIT
        assert smith_diagonal([{j: 2} for j in range(n)]).diag == (2,) * n

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
                min_size=1,
                max_size=8,
            )
        )
    )
    def test_matches_dense_snf(self, rows):
        # sympy is the independent oracle; the columns come as a one-shot
        # generator, as the bench passes them
        from sympy import Matrix
        from sympy.matrices.normalforms import smith_normal_form

        n_rows, n_cols = len(rows), len(rows[0])
        got = smith_diagonal(
            {i: rows[i][j] for i in range(n_rows) if rows[i][j]} for j in range(n_cols)
        ).diag
        snf = smith_normal_form(Matrix(rows))
        want = sorted(
            abs(int(snf[i, i])) for i in range(min(n_rows, n_cols)) if snf[i, i] != 0
        )
        assert list(got) == want


class TestIntegerHomology:
    def test_octahedron(self):
        k = octahedron()
        assert homology_integer(k, 0) == (0, ())
        assert homology_integer(k, 1) == (0, ())
        assert homology_integer(k, 2) == (1, ())

    def test_projective_plane_torsion(self):
        k = projective_plane()
        # every edge bounds exactly two of the ten triangles
        _, edges, triangles = simplices(k)
        counts = {e: 0 for e in edges}
        for t in triangles:
            for i in range(3):
                counts[t[:i] + t[i + 1:]] += 1
        assert set(counts.values()) == {2}

        assert homology_integer(k, 0) == (0, ())
        assert homology_integer(k, 1) == (0, (2,))
        assert homology_integer(k, 2) == (0, ())
        assert betti_z2(k, 2).values == (0, 1, 1)
        assert euler_characteristic(k) == 1

    def test_cone_has_no_homology(self):
        k = build_flag(upto(4, 2), 2, 3)
        for dim in range(3):
            assert homology_integer(k, dim) == (0, ())

    def test_above_top_dimension_of_complete_complex(self):
        assert homology_integer(octahedron(), 7) == (0, ())

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            homology_integer(octahedron(), -1)

    def test_truncated_complex_refused(self):
        k = build_flag(gen_uniform(6, 2), 2, 2)
        assert not k.complete
        with pytest.raises(TruncatedComplex):
            homology_integer(k, 2)
        with pytest.raises(TruncatedComplex):
            homology_integer(k, 5)

    @pytest.mark.parametrize(
        "make, f_vector, groups, betti",
        [
            *[
                (
                    functools.partial(projective_plane_join, interleaved),
                    (12, 66, 200, 345, 300, 100),
                    [(0, ())] * 3 + [(0, (2,)), (0, (2,)), (0, ())],
                    # universal coefficients: Z/2 in H~_3 and H~_4 gives 1,
                    # 1 + 1 and 1
                    (0, 0, 0, 1, 2, 1),
                )
                for interleaved in (False, True)
            ],
            (
                # the reduction over Z meets pivots 2 that the gcd step
                # turns into units; set aside for the Smith normal form
                # instead, they leave a residual of 7 rows and 91 columns
                functools.partial(projective_plane_join_points, 8),
                (20, 162, 728, 1945, 3060, 2500, 800),
                [(0, ())] * 4 + [(0, (2,) * 7)] * 2 + [(0, ())],
                (0, 0, 0, 0, 7, 14, 7),
            ),
            (
                # the dimension-5 residual is 110 rows by 11 columns, under
                # the guard's 90 x 90 area though taller than 90 rows
                functools.partial(projective_plane_join_points, 12),
                (24, 210, 992, 2745, 4440, 3700, 1200),
                [(0, ())] * 4 + [(0, (2,) * 11)] * 2 + [(0, ())],
                (0, 0, 0, 0, 11, 22, 11),
            ),
        ],
        ids=["False", "True", "points", "points12"],
    )
    def test_projective_plane_join_torsion(self, make, f_vector, groups, betti):
        k = make()
        assert k.f_vector == f_vector
        assert [homology_integer(k, d) for d in range(len(f_vector))] == groups
        assert betti_z2(k, len(f_vector) - 1).values == betti

    def test_torsion_needs_no_sympy(self):
        # sympy is a test-only oracle: with it unimportable, the torsion
        # fixtures and a non-unit residual get their invariant factors
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(tests.parent / "src"), str(tests)]
        ))
        code = (
            "import sys\n"
            "sys.modules['sympy'] = None\n"
            "from tuples import projective_plane, projective_plane_join\n"
            "from vrlat.homology import homology_integer, smith_diagonal\n"
            "print(homology_integer(projective_plane(), 1))\n"
            "for interleaved in (False, True):\n"
            "    k = projective_plane_join(interleaved)\n"
            "    print([homology_integer(k, d)[1] for d in range(6)])\n"
            "print(smith_diagonal([{0: 4, 1: 6}, {0: 6, 1: 4}]).diag)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        torsion = str([(), (), (), (2,), (2,), ()])
        assert proc.stdout.splitlines() == [
            "(0, (2,))", torsion, torsion, "(2, 10)"
        ]

    def test_cone_over_projective_plane_is_torsion_free(self):
        k = projective_plane_cone()
        assert [homology_integer(k, d) for d in range(4)] == [(0, ())] * 4

    def test_free_rank_agrees_with_z2_in_torsion_free_cases(self):
        k = build_flag(gen_uniform(5, 2), 2, 3)
        z2 = betti_z2(k, 3)
        for dim in range(4):
            rank, torsion = homology_integer(k, dim)
            assert torsion == ()
            assert rank == z2.values[dim]

    def test_deterministic(self):
        k = projective_plane()
        assert homology_integer(k, 1) == homology_integer(k, 1)

    @pytest.mark.parametrize(
        "make",
        [
            octahedron,
            projective_plane,
            lambda: build_flag(upto(3, 3), 1, 7),
            lambda: build_flag(gen_uniform(5, 2), 2, 5),
            lambda: star(build_flag(gen_uniform(5, 2), 2, 5), 0),
        ],
    )
    def test_call_order_does_not_matter(self, make):
        k = make()
        dims = list(range(k.max_dim + 1))
        want = [homology_integer(k, d) for d in dims]
        shuffled = dims[:]
        random.Random(7).shuffle(shuffled)
        for order in (dims[::-1], shuffled):
            k = make()
            got = {d: homology_integer(k, d) for d in order}
            assert [got[d] for d in dims] == want

    def test_failed_dimension_is_reduced_again(self, monkeypatch):
        # a failure stores nothing for its dimension, so every call that
        # needs it reduces it again: it raises again while the guard is
        # down, and once the guard is back the same complex carries on
        k = projective_plane()
        monkeypatch.setattr(hm, "_RESIDUAL_LIMIT", 0)
        for _ in range(2):
            with pytest.raises(MatrixTooLarge):
                homology_integer(k, 1)
        monkeypatch.undo()
        assert homology_integer(k, 1) == (0, (2,))
        assert homology_integer(k, 2) == (0, ())
        assert homology_integer(k, 5) == (0, ())

    @pytest.mark.parametrize(
        "family", [gen_uniform(6, 3), f73_subfamily(1)], ids=["F63", "F73-seed1"]
    )
    def test_memo_keeps_no_complex_alive(self, family):
        # the integer benchmark's shapes, through their top nonempty
        # dimension: the memo holds each complex's ranks and pivot rows,
        # never the complex itself
        k = build_flag(family, 4, len(family) - 1)
        top = max(d for d, f in enumerate(k.f_vector) if f)
        assert top < k.max_dim
        assert [homology_integer(k, d) for d in range(top + 1)]
        ref = weakref.ref(k)
        del k
        gc.collect()
        assert ref() is None

    def _count_snf_calls(self, monkeypatch) -> list:
        calls = []
        snf = hm.smith_diagonal

        def counted(columns, dim=0):
            calls.append(dim)
            return snf(columns, dim)

        monkeypatch.setattr(hm, "smith_diagonal", counted)
        return calls

    def test_projective_plane_falls_back_to_smith_form(self, monkeypatch):
        calls = self._count_snf_calls(monkeypatch)
        assert homology_integer(projective_plane(), 1) == (0, (2,))
        # delta^1 (the transpose of the 2-boundary) meets a non-unit pivot
        assert calls == [2]

    def test_projective_plane_z2_needs_no_smith_form(self, monkeypatch):
        # mod 2 every pivot is a unit, so the integer fallback never runs,
        # and the integer memo leaves the mod-2 result alone
        calls = self._count_snf_calls(monkeypatch)
        k = projective_plane()
        assert betti_z2(k, 2).values == (0, 1, 1)
        assert calls == []
        assert homology_integer(k, 1) == (0, (2,))
        assert calls == [2]
        assert betti_z2(k, 2).values == (0, 1, 1)
        assert calls == [2]

    def test_nine_sphere_certified_without_smith_form(self, monkeypatch):
        calls = self._count_snf_calls(monkeypatch)
        k = build_flag(gen_uniform(6, 3), 4, 19)
        assert k.complete
        got = [homology_integer(k, d) for d in range(k.max_dim + 1)]
        assert got == [(1, ()) if d == 9 else (0, ()) for d in range(20)]
        assert calls == []

    def test_hypercube_sample_needs_no_smith_form(self, monkeypatch):
        calls = self._count_snf_calls(monkeypatch)
        k = build_flag(hypercube_sample(), 3, 32)
        assert k.complete and sum(k.f_vector) == 17508
        got = [homology_integer(k, d) for d in range(k.max_dim + 1)]
        want = [(0, ())] * (k.max_dim + 1)
        want[3], want[4] = (1, ()), (2, ())
        assert got == want
        assert calls == []

    def test_hypercube_at_scale_three_needs_no_smith_form(self, monkeypatch):
        # VR(Q_6; 3): 853,680 simplices, complete through dimension 11
        calls = self._count_snf_calls(monkeypatch)
        k = build_flag(gen_prefix(6, Subset.full(6)), 3, 12)
        assert k.complete and sum(k.f_vector) == 853680 and not k.f_vector[12]
        got = [homology_integer(k, d) for d in range(12)]
        want = [(0, ())] * 12
        want[4], want[7] = (11, ()), (60, ())
        assert got == want
        assert calls == []


class TestGcdStep:
    @pytest.mark.parametrize(
        "a, b",
        [(2, 3), (3, -2), (-4, 6), (6, 10), (4, 2), (2, 4), (-6, 3), (5, 1)],
    )
    def test_pair_keeps_the_gcd_and_loses_the_low_row(self, a, b):
        # (4, 2) and (-6, 3) have x = 0, (2, 4) has y = 0: the zero
        # combinations must leave no zero entries behind
        low = 9
        settled = {low: a, 5: 1, 3: -2, 1: 3}
        col = {low: b, 5: 2, 4: -1, 1: 3}
        kept, rest = hm._gcd_step(settled, col, low)
        assert abs(kept[low]) == math.gcd(a, b)
        assert low not in rest
        assert 0 not in kept.values() and 0 not in rest.values()
        # the 2x2 operation has determinant -1, so it flips every 2x2 minor
        for r1, r2 in itertools.combinations(sorted(settled.keys() | col.keys()), 2):
            before = settled.get(r1, 0) * col.get(r2, 0) - col.get(r1, 0) * settled.get(r2, 0)
            after = kept.get(r1, 0) * rest.get(r2, 0) - rest.get(r1, 0) * kept.get(r2, 0)
            assert after == -before

    def test_cancelled_rows_are_dropped(self):
        # 3 * settled - 2 * col vanishes on row 0
        kept, rest = hm._gcd_step({1: 2, 0: 2}, {1: 3, 0: 3}, 1)
        assert kept in ({1: 1, 0: 1}, {1: -1, 0: -1})
        assert rest == {}


class TestEulerCharacteristic:
    def test_sphere_value(self):
        assert euler_characteristic(octahedron()) == 2

    def test_incomplete_complex_refused(self):
        k = build_flag(gen_uniform(6, 2), 2, 2)
        with pytest.raises(TruncatedComplex):
            euler_characteristic(k)

    def test_alternating_identity_with_betti(self):
        for k in (octahedron(), build_flag(upto(3, 3), 1, 7), projective_plane()):
            b = betti_z2(k, k.max_dim)
            assert euler_characteristic(k) == 1 + sum(
                (-1) ** d * v for d, v in enumerate(b.values)
            )


class TestResultTypes:
    def test_betti_vector_validates_coefficients(self):
        with pytest.raises(ValueError):
            BettiVector(coeff="q", values=(0,), complete_through=0)

    def test_betti_vector_validates_length(self):
        with pytest.raises(ValueError):
            BettiVector(coeff="z2", values=(0, 0), complete_through=2)

    def test_snf_diagonal_validates_chain(self):
        with pytest.raises(ValueError):
            SNFDiagonal(1, (2, 3))
        with pytest.raises(ValueError):
            SNFDiagonal(1, (0, 2))
        assert SNFDiagonal(1, (1, 2, 6)).diag == (1, 2, 6)


@st.composite
def small_complete_complex(draw):
    fam, scale = draw(small_family())
    return build_flag(fam, scale, len(fam) - 1) if len(fam) > 1 else build_flag(fam, scale, 0)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_complete_complex())
    def test_betti_matches_bruteforce(self, k):
        through = min(3, k.max_dim)
        got = betti_z2(k, through)
        want = bf_betti(k.family, k.scale, through)
        assert list(got.values[: through + 1]) == want

    @settings(max_examples=60, deadline=None)
    @given(small_complete_complex())
    def test_euler_identity(self, k):
        assert k.complete
        b = betti_z2(k, k.max_dim)
        assert euler_characteristic(k) == 1 + sum(
            (-1) ** d * v for d, v in enumerate(b.values)
        )

    @settings(max_examples=60, deadline=None)
    @given(small_complete_complex())
    def test_integer_homology_matches_smith_forms(self, k):
        # the route the coboundary reduction replaced: Smith normal forms
        # of the d and d+1 boundaries, computed afresh for every d
        def rank_and_diag(d):
            if d < 1 or d > k.max_dim or not k.f_vector[d]:
                return 0, ()
            columns = bf_integer_columns(*simplices(k)[d - 1:d + 1])
            diag = smith_diagonal(columns, d).diag
            return len(diag), diag

        for d in range(k.max_dim + 1):
            lower = (1 if k.f_vector[0] else 0) if d == 0 else rank_and_diag(d)[0]
            upper, diag = rank_and_diag(d + 1)
            want = (k.f_vector[d] - lower - upper, tuple(v for v in diag if v > 1))
            assert homology_integer(k, d) == want

    @settings(max_examples=30, deadline=None)
    @given(small_complete_complex())
    def test_integer_rank_never_exceeds_z2(self, k):
        # universal coefficients: mod-2 numbers absorb torsion from both sides
        through = min(2, k.max_dim)
        z2 = betti_z2(k, through)
        for dim in range(through + 1):
            rank, _ = homology_integer(k, dim)
            assert rank <= z2.values[dim]
