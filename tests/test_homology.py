"""Boundary columns, Z/2 reduction, and exact integer homology."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vrlat.homology as hm
from vrlat.complexes import (
    Complex,
    build_flag,
    full_subcomplex,
    star,
)
from vrlat.formulas import power_betti3, upto_betti3
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
)
from test_complexes import derived_complexes


def upto(m: int, n: int) -> SetFamily:
    return gen_union([gen_uniform(m, i) for i in range(0, n + 1)])


def f73_subfamily(seed: int) -> SetFamily:
    """A seeded half of F(7,3): 17 of its 35 sets."""
    chosen = random.Random(seed).sample(gen_uniform(7, 3).vertices, 17)
    return SetFamily.from_subsets(7, sorted(chosen, key=lambda s: s.sort_key()))


def octahedron():
    return build_flag(gen_uniform(4, 2), 2, 2)


# the classical six-vertex triangulation of the real projective plane
RP2_FACES = (
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5),
)


def from_facets(n: int, facets) -> Complex:
    """The complete (non-flag) complex on vertices 0..n-1 spanned by facets."""
    top = max(len(f) for f in facets) - 1
    layers = [set() for _ in range(top + 1)]
    for f in facets:
        for size in range(1, len(f) + 1):
            layers[size - 1].update(itertools.combinations(sorted(f), size))
    simplices = tuple(tuple(sorted(layer)) for layer in layers)
    return Complex(gen_uniform(n, 1), 2, top, simplices, flag=False, complete=True)


def projective_plane():
    """RP^2 on six vertices; every pair of vertices spans an edge."""
    return from_facets(6, RP2_FACES)


def projective_plane_join(interleaved: bool) -> Complex:
    """RP^2 * RP^2: by the Kunneth formula for joins, H~_3 = Z/2 (from
    Z/2 (x) Z/2) and H~_4 = Z/2 (from Tor(Z/2, Z/2)), all else 0.  The
    copies sit on 0..5 and 6..11, or on the even and the odd labels."""
    first, second = (
        (lambda v: 2 * v, lambda v: 2 * v + 1) if interleaved
        else (lambda v: v, lambda v: v + 6)
    )
    return from_facets(
        12,
        [
            tuple(map(first, t)) + tuple(map(second, u))
            for t in RP2_FACES
            for u in RP2_FACES
        ],
    )


def projective_plane_cone() -> Complex:
    """The cone over RP^2 with apex 0: contractible, so torsion-free."""
    return from_facets(7, [(0,) + tuple(v + 1 for v in t) for t in RP2_FACES])


def hypercube_sample() -> SetFamily:
    """A 33-set subfamily of power(6) whose scale-3 complex has a pivot -2
    under a later entry 1: a gcd step settles it, as it is an artefact of
    the column order, not torsion."""
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
        d1 = bf_integer_columns(k.simplices[0], k.simplices[1])
        d2 = bf_integer_columns(k.simplices[1], k.simplices[2])
        assert len(d1) == 12 and len(d2) == 8
        assert {r for c in d1 for r in c} == set(range(6))
        assert {r for c in d2 for r in c} == set(range(12))
        assert all(sorted(c.values()) == [-1, 1] for c in d1)
        assert all(sorted(c.values()) == [-1, 1, 1] for c in d2)

    def test_boundary_of_boundary_vanishes_over_integers(self):
        k = build_flag(gen_uniform(5, 2), 2, 3)
        for dim in (2, 3):
            lower = bf_integer_columns(k.simplices[dim - 2], k.simplices[dim - 1])
            for col in bf_integer_columns(k.simplices[dim - 1], k.simplices[dim]):
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
        layers = tuple(tuple(rng.sample(layer, len(layer))) for layer in k.simplices)
        assert layers != k.simplices
        shuffled = Complex(
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
        cut = Complex(k.family, 2, 2, k.simplices[:3], flag=False, complete=False)
        for i, got in enumerate(prefix_betti_z2(cut, 3)):
            assert got.complete_through == 1
            assert got == betti_z2(full_subcomplex(cut, range(i + 1)), 3)

    @pytest.mark.parametrize(
        "family, scale, through",
        [(gen_prefix(m, Subset.full(m)), 2, 4) for m in range(1, 7)]
        + [(gen_prefix(m, Subset.full(m)), r, 3) for m in range(1, 6) for r in (1, 3)]
        + [(gen_uniform(6, 3), 2, 3), (gen_uniform(6, 3), 4, 3),
           (gen_uniform(4, 2), 2, 3)],
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

    def test_mirror_symmetric_graph_of_a_non_flag_complex(self):
        # the graph of power(4) is mirror symmetric, but keeping only the
        # triangles on vertex 0 makes the complex itself not so
        k = build_flag(gen_prefix(4, Subset.full(4)), 2, 2)
        layers = k.simplices[:2] + (tuple(t for t in k.simplices[2] if t[0] == 0),)
        part = Complex(k.family, 2, 2, layers, flag=False, complete=True)
        assert part.adjacency == k.adjacency
        for i, got in enumerate(prefix_betti_z2(part, 2)):
            assert got == betti_z2(full_subcomplex(part, range(i + 1)), 2)

    def test_power_set_prefix_task_builds_one_complex(self, monkeypatch):
        import vrlat.cli as cli
        import vrlat.complexes as cx

        made = []

        class Counted(Complex):
            def __init__(self, *args, **kwargs):
                made.append(args[2])  # max_dim
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cx, "Complex", Counted)
        monkeypatch.setattr(hm, "Complex", Counted)
        _, m, scale, max_dim, coeff, power, specs = cli._suite_tasks("prefix", 5)[-1]
        entries = cli._prefix_entries(m, scale, max_dim, coeff, power, specs, None, None)
        assert all(e.status == "ok" and e.match for e in entries)
        assert made == [4]  # power(5) through dim 4, from build_flag

    def test_build_flag_supplies_the_first_clique_birth(self, monkeypatch):
        import vrlat.complexes as cx

        k = build_flag(gen_prefix(5, Subset.full(5)), 2, 3)
        assert not k.complete
        # the same layers, not from build_flag: found by walking the top layer
        copy = Complex(k.family, 2, 3, k.simplices, flag=True, complete=False)
        expected = prefix_betti_z2(copy, 3)

        def walk(_):
            raise AssertionError("build_flag's complex walked its top layer")

        monkeypatch.setattr(cx, "_first_clique_birth", walk)
        assert prefix_betti_z2(k, 3) == expected

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

    def test_negative_through_rejected(self):
        with pytest.raises(ValueError):
            prefix_betti_z2(octahedron(), -1)


class TestCoboundaryPivots:
    @settings(max_examples=80, deadline=None)
    @given(small_family(max_m=5, max_size=10), st.integers(min_value=1, max_value=3))
    def test_spanning_forest_matches_naive_reduction(self, case, scale):
        fam, _ = case
        k = build_flag(fam, scale, 1)
        edges = sorted(k.simplices[1])
        for modulus in (0, 2):
            rank, torsion, pivots = hm._reduce_coboundary(k, 0, set(), modulus)
            assert {edges[r] for r in pivots} == bf_coboundary_pivots(
                fam, scale, 0, modulus
            )
            assert rank == len(fam) - bf_components(fam, scale)
            assert torsion == ()

    @settings(max_examples=60, deadline=None)
    @given(small_family(max_m=5, max_size=10))
    def test_cleared_reduction_matches_naive_reduction(self, case):
        # clearing drops only columns in the span of the others, and the
        # apparent pairs settle columns unreduced, so every dimension's
        # pivot rows are those of a naive reduction with neither
        # (the oracle walks the columns the other way).  Over Z the rank is
        # the rational rank, and the unit pivot rows are among the pivots
        fam, scale = case
        k = build_flag(fam, scale, 4)
        for modulus in (2, 0):
            pivots: set[int] = set()
            for d in range(4):
                rank, _, pivots = hm._reduce_coboundary(k, d, pivots, modulus)
                rows = k.simplices[d + 1]
                expected = bf_coboundary_pivots(fam, scale, d, modulus)
                assert rank == len(expected)
                if modulus:
                    assert {rows[r] for r in pivots} == expected
                else:
                    assert {rows[r] for r in pivots} <= expected

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_power_set_top_coboundary_reduces_only_essential_columns(
        self, m, monkeypatch
    ):
        # walked first to last, every column of delta^3 on power(m) that
        # has a pivot is an apparent pair, so the only columns the reducer
        # adds to are the b3 essential cocycles, which reduce to zero
        k = build_flag(gen_prefix(m, Subset.full(m)), 2, 4)
        pivots: set[int] = set()
        for d in range(3):
            _, _, pivots = hm._reduce_coboundary(k, d, pivots, modulus=2)
        added_to = []
        subtract = hm._subtract

        def counted(col, *args):
            added_to.append(col)
            subtract(col, *args)

        monkeypatch.setattr(hm, "_subtract", counted)
        hm._reduce_coboundary(k, 3, pivots, modulus=2)
        # the list keeps every column alive, so distinct columns have
        # distinct ids
        assert len({id(col) for col in added_to}) == power_betti3(m)
        assert not any(added_to)

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
        cleared: set[int] = set()
        for d in range(through + 1):
            rows, ends = k.simplices[d + 1], k.ends[d]
            tops = {
                rows[end - 1]
                for j, (start, end) in enumerate(zip((0, *ends), ends))
                if start < end and j not in cleared
            }
            assert tops
            assert tops <= bf_coboundary_pivots(family, scale, d, modulus)
            _, _, cleared = hm._reduce_coboundary(k, d, cleared, modulus)


class TestTreeRoute:
    def test_reduction_never_builds_the_tuple_view(self, monkeypatch):
        # the reducer and the prefix pass read the clique tree alone: the
        # integer route, betti_z2 and _prefix_z2 build no simplex tuple
        def refused(self):
            raise AssertionError("the tuple view of the complex was built")

        monkeypatch.setattr(Complex, "simplices", property(refused))
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
            if symmetric:
                # a graph that v -> n-1-v maps onto itself needs no copy
                assert hm._prefix_z2(k, through)[-1][2] == betti_z2(k, through)


def vertex_key(k: Complex, simplex) -> int:
    """The reversed vertex mask of a simplex: bit n-1-v for each vertex v."""
    n = len(k.adjacency)
    return sum(1 << (n - 1 - v) for v in simplex)


def assert_keyed_columns_are_coboundaries(k: Complex) -> None:
    layers = k.simplices
    for d in range(k.max_dim):
        rows = layers[d + 1]
        for r, t in enumerate(rows):
            assert k.row(vertex_key(k, t)) == r
        blocks = zip(layers[d], (0, *k.ends[d]), k.ends[d])
        for j, (s, start, end) in enumerate(blocks):
            key = vertex_key(k, s)
            assert hm._key(k, d, j) == key
            # (delta s)(t) = (-1)^i where t[i] is the vertex s lacks
            cofaces = {
                r: (-1) ** next(i for i, v in enumerate(t) if v not in s)
                for r, t in enumerate(rows)
                if set(s) <= set(t)
            }
            col = hm._keyed_column(k, key)
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
        # flag complexes (build_flag, a full subcomplex, a shuffled copy)
        # take every common neighbour; stars, links and skeletons keep only
        # the cofaces the tree holds
        fam, scale = case
        k = build_flag(fam, scale, len(fam) - 1)
        for c in [k, *derived_complexes(k, random.Random(seed))]:
            assert_keyed_columns_are_coboundaries(c)

    @pytest.mark.parametrize(
        "make",
        [
            projective_plane,
            projective_plane_cone,
            lambda: projective_plane_join(False),
            lambda: projective_plane_join(True),
        ],
        ids=["rp2", "cone", "join", "join-interleaved"],
    )
    def test_torsion_fixtures(self, make):
        assert_keyed_columns_are_coboundaries(make())

    @pytest.mark.parametrize("modulus", [2, 0])
    def test_flag_reduction_descends_only_to_pivots(self, monkeypatch, modulus):
        # in a flag complex every common neighbour gives a stored coface,
        # so the only descents are of low keys, each once, and each finds
        # a pivot row; a non-flag copy checks its cofaces by descent too
        k = build_flag(gen_prefix(5, Subset.full(5)), 2, 4)
        copy = Complex(
            k.family, k.scale, k.max_dim, flag=False, complete=k.complete,
            adjacency=k.adjacency, tree=(k.labels, k.cands),
        )
        found = []
        row = Complex.row

        def recorded(self, key):
            found.append((key, row(self, key)))
            return found[-1][1]

        monkeypatch.setattr(Complex, "row", recorded)
        for c, flag in ((k, True), (copy, False)):
            pivots: set[int] = set()
            for d in range(4):
                found.clear()
                _, _, pivots = hm._reduce_coboundary(c, d, pivots, modulus)
                keys = [key for key, _ in found]
                if flag:
                    assert len(keys) == len(set(keys))
                    assert {r for _, r in found} <= pivots
                elif d == 3:
                    assert not {r for _, r in found} <= pivots


def dense_betti_z2(k: Complex) -> list[int]:
    """Reduced Z/2 Betti numbers of a complete complex from dense ranks of
    its own boundary matrices."""
    layers = [sorted(layer) for layer in k.simplices] + [[]]
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

    def test_carries_dimension_tag(self):
        assert smith_diagonal([{0: 1}], dim=3).dim == 3

    @pytest.mark.parametrize("shape", ["wide", "tall"])
    def test_residual_over_limit_refused_before_sympy(self, monkeypatch, shape):
        def unreachable(cols):
            raise AssertionError("sympy reached")

        monkeypatch.setattr(hm, "_snf_residual", unreachable)
        n = hm._RESIDUAL_LIMIT + 1
        if shape == "wide":
            cols = [{j: 2} for j in range(n)]
        else:
            cols = [{r: 2 for r in range(n)}, {r: 4 - r % 2 * 2 for r in range(n)}]
        with pytest.raises(MatrixTooLarge) as err:
            smith_diagonal(cols, dim=4)
        assert max(err.value.n_rows, err.value.n_cols) == n
        assert err.value.limit == hm._RESIDUAL_LIMIT

    def test_residual_at_limit_reaches_sympy(self):
        n = hm._RESIDUAL_LIMIT
        assert smith_diagonal([{j: 2} for j in range(n)]).diag == (2,) * n

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    def test_matches_dense_snf(self, rows):
        from sympy import Matrix
        from sympy.matrices.normalforms import smith_normal_form

        cols = [
            {i: rows[i][j] for i in range(3) if rows[i][j]} for j in range(3)
        ]
        got = smith_diagonal(cols).diag
        snf = smith_normal_form(Matrix(rows))
        want = sorted(abs(snf[i, i]) for i in range(3) if snf[i, i] != 0)
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
        counts = {e: 0 for e in k.simplices[1]}
        for t in k.simplices[2]:
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

    def test_truncated_complex_refused(self):
        k = build_flag(gen_uniform(6, 2), 2, 2)
        assert not k.complete
        with pytest.raises(TruncatedComplex):
            homology_integer(k, 2)
        with pytest.raises(TruncatedComplex):
            homology_integer(k, 5)

    @pytest.mark.parametrize("interleaved", [False, True])
    def test_projective_plane_join_torsion(self, interleaved):
        k = projective_plane_join(interleaved)
        assert k.f_vector == (12, 66, 200, 345, 300, 100)
        got = [homology_integer(k, d) for d in range(6)]
        assert got == [(0, ())] * 3 + [(0, (2,)), (0, (2,)), (0, ())]
        # universal coefficients: Z/2 in H~_3 and H~_4 gives 1, 1 + 1 and 1
        assert betti_z2(k, 5).values == (0, 0, 0, 1, 2, 1)

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
        # and the integer memo on the complex leaves the mod-2 result alone
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
            columns = bf_integer_columns(k.simplices[d - 1], k.simplices[d])
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
