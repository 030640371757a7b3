"""Boundary columns, Z/2 reduction, and exact integer homology."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vrlat.homology as hm
from vrlat.complexes import Complex, build_flag, full_subcomplex, skeleton, star
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

from oracles import bf_betti, bf_components


def upto(m: int, n: int) -> SetFamily:
    return gen_union([gen_uniform(m, i) for i in range(0, n + 1)])


def octahedron():
    return build_flag(gen_uniform(4, 2), 2, 2)


def projective_plane():
    """The classical six-vertex triangulation, assembled by hand."""
    fam = gen_uniform(6, 1)
    edges = tuple(itertools.combinations(range(6), 2))
    faces = tuple(
        sorted(
            [
                (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 4),
                (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5),
            ]
        )
    )
    verts = tuple((i,) for i in range(6))
    return Complex(fam, 2, 2, (verts, edges, faces), flag=False, complete=True)


class TestBoundaryMatrix:
    def test_octahedron_shapes(self):
        k = octahedron()
        d1 = list(hm._integer_columns(k, 1))
        d2 = list(hm._integer_columns(k, 2))
        assert len(d1) == 12 and len(d2) == 8
        assert {r for c in d1 for r in c} == set(range(6))
        assert {r for c in d2 for r in c} == set(range(12))
        assert all(sorted(c.values()) == [-1, 1] for c in d1)
        assert all(sorted(c.values()) == [-1, 1, 1] for c in d2)

    def test_boundary_of_boundary_vanishes_over_integers(self):
        k = build_flag(gen_uniform(5, 2), 2, 3)
        for dim in (2, 3):
            lower = list(hm._integer_columns(k, dim - 1))
            for col in hm._integer_columns(k, dim):
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

    def test_negative_through_rejected(self):
        with pytest.raises(ValueError):
            prefix_betti_z2(octahedron(), -1)


class TestSmithDiagonal:
    def test_upper_triangular_example(self):
        cols = [{0: 2}, {0: 4, 1: 6}]
        assert smith_diagonal(cols).diag == (2, 6)

    def test_unit_entry_example(self):
        cols = [{0: 1, 1: 3}, {0: 2, 1: 4}]
        assert smith_diagonal(cols).diag == (1, 2)

    def test_zero_matrix(self):
        assert smith_diagonal([{}, {}]).diag == ()

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

    def test_size_guard(self):
        with pytest.raises(MatrixTooLarge) as err:
            homology_integer(octahedron(), 1, max_cols=3)
        assert err.value.n_cols == 12
        assert err.value.limit == 3

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
            diag = smith_diagonal(hm._integer_columns(k, d), d).diag
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
