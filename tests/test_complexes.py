"""Complex construction, subcomplex operators, and facet enumeration."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrlat.complexes import (
    BuildBudgetExceeded,
    _distance_adjacency,
    Complex,
    build_flag,
    facet_dump,
    full_subcomplex,
    is_cone,
    link,
    maximal_simplices_bk,
    maximal_simplices_closed_form,
    mirrored,
    sc_hypothesis_check,
    skeleton,
    star,
    star_cluster,
)
from vrlat.homology import betti_z2
from vrlat.setfam import SetFamily, Subset, dist, gen_prefix, gen_uniform, gen_union

from oracles import (
    bf_betti,
    bf_facets,
    bf_full_subcomplex,
    bf_link,
    bf_simplices,
    bf_star,
    bf_star_cluster,
)
from tuples import (
    derived_complexes,
    from_layers,
    has,
    relabelled,
    simplices,
    vertex_indices,
    vertex_key,
)


def upto(m: int, n: int) -> SetFamily:
    return gen_union([gen_uniform(m, i) for i in range(0, n + 1)])


def octahedron():
    # pairs of [4] at scale 2: six vertices, antipodal = complementary
    return build_flag(gen_uniform(4, 2), 2, 2)


def _column(k: Complex, d: int, j: int) -> dict[int, int]:
    """The raw coboundary column of the j-th d-simplex: row index -> sign
    of each stored coface, largest row first, its keyed column with each
    key descended to its row."""
    return {k.row(t): v for t, v in k.coboundary(k.key(d, j)).items()}


def simplex_set(k):
    return {s for layer in simplices(k) for s in layer}


class TestBuildFlag:
    def test_octahedron_profile(self):
        k = octahedron()
        assert k.f_vector == (6, 12, 8)
        assert k.complete
        assert k.flag

    @pytest.mark.parametrize(
        "family, scale, max_dim",
        [
            (gen_uniform(4, 2), 2, 3),
            (gen_uniform(5, 2), 2, 4),
            (upto(3, 3), 1, 3),
            (upto(4, 2), 2, 4),
            (gen_prefix(4, Subset.parse("{1,2,4}", 4)), 2, 3),
        ],
    )
    def test_matches_bruteforce(self, family, scale, max_dim):
        k = build_flag(family, scale, max_dim)
        expected = bf_simplices(family, scale, max_dim)
        assert [list(layer) for layer in simplices(k)] == expected

    def test_distance_adjacency_is_pairwise_dist(self):
        rng = random.Random(11)
        for _ in range(40):
            m = rng.randint(1, 8)
            picked = rng.sample(range(1 << m), rng.randint(1, min(40, 1 << m)))
            fam = SetFamily.from_subsets(m, [Subset(bits, m) for bits in picked])
            for scale in range(m + 1):
                n = len(fam)
                assert _distance_adjacency(fam, scale) == tuple(
                    sum(
                        1 << j
                        for j in range(n)
                        if j != i and dist(fam.vertices[i], fam.vertices[j]) <= scale
                    )
                    for i in range(n)
                )

    def test_singleton_layer_is_full_simplex(self):
        # singletons are pairwise at distance 2
        for m in range(2, 7):
            k = build_flag(gen_uniform(m, 1), 2, m)
            assert k.f_vector[m - 1] == 1
            assert k.complete

    def test_scale_zero_is_discrete(self):
        k = build_flag(gen_uniform(5, 2), 0, 2)
        assert k.f_vector == (10, 0, 0)
        assert k.complete

    def test_odd_scale_collapses_on_uniform_layers(self):
        # distances inside a layer are even, so scale 3 adds nothing over 2
        for m in range(4, 7):
            a = build_flag(gen_uniform(m, 2), 2, 3)
            b = build_flag(gen_uniform(m, 2), 3, 3)
            assert simplices(a) == simplices(b)

    def test_layers_are_lexicographically_sorted(self):
        k = build_flag(upto(4, 2), 2, 4)
        for layer in simplices(k):
            assert list(layer) == sorted(layer)

    def test_flag_closure(self):
        # pairwise adjacent triples must span stored triangles
        k = build_flag(gen_uniform(5, 2), 2, 2)
        adj = k.adjacency
        for u, v, w in itertools.combinations(range(len(k.family)), 3):
            if adj[u] >> v & 1 and adj[u] >> w & 1 and adj[v] >> w & 1:
                assert has(k, (u, v, w))

    def test_incomplete_marker(self):
        # the octahedron truncated below its top dimension
        k = build_flag(gen_uniform(4, 2), 2, 1)
        assert not k.complete
        assert betti_z2(k, 1).complete_through == 0

    def test_budget_exceeded_names_dimension(self):
        with pytest.raises(BuildBudgetExceeded) as err:
            build_flag(gen_uniform(5, 2), 2, 3, max_simplices=20)
        assert err.value.dim_reached == 1
        assert err.value.budget == 20

    def test_budget_smaller_than_vertex_count(self):
        with pytest.raises(BuildBudgetExceeded) as err:
            build_flag(gen_uniform(5, 2), 2, 3, max_simplices=5)
        assert err.value.dim_reached == 0

    def test_negative_max_dim_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            build_flag(gen_uniform(4, 2), 2, -1)

    def test_empty_family_rejected(self):
        fam = SetFamily.from_subsets(3, [])
        with pytest.raises(ValueError):
            build_flag(fam, 2, 1)

    def test_single_vertex_complex(self):
        fam = SetFamily.from_subsets(3, [Subset.parse("{1}", 3)])
        k = build_flag(fam, 2, 2)
        assert k.f_vector == (1, 0, 0)
        assert k.complete
        assert is_cone(k) == 0


class TestFacets:
    @pytest.mark.parametrize(
        "family, scale",
        [
            (gen_uniform(4, 2), 2),
            (gen_uniform(5, 2), 2),
            (gen_uniform(6, 2), 2),
            (gen_uniform(4, 1), 2),
            (upto(3, 3), 1),
            (upto(3, 3), 2),
            (gen_prefix(4, Subset.parse("{2,3,4}", 4)), 2),
        ],
    )
    def test_bron_kerbosch_matches_bruteforce(self, family, scale):
        assert maximal_simplices_bk(family, scale) == bf_facets(family, scale)

    def test_octahedron_has_eight_facets(self):
        facets = maximal_simplices_bk(gen_uniform(4, 2), 2)
        assert len(facets) == 8
        assert all(len(f) == 3 for f in facets)

    def test_full_simplex_single_facet(self):
        assert maximal_simplices_bk(gen_uniform(4, 1), 2) == [(0, 1, 2, 3)]

    def test_closed_form_matches_enumeration(self):
        # two vertex classes only separate once m >= n + 2
        for m in range(4, 7):
            for n in range(2, m - 1):
                fam = gen_uniform(m, n)
                got = maximal_simplices_closed_form(m, n)
                assert got == maximal_simplices_bk(fam, 2), (m, n)

    def test_closed_form_at_top_boundary_subsumes_core(self):
        # at m = n + 1 the hull simplex swallows every core simplex
        listed = maximal_simplices_closed_form(4, 3)
        hull = max(listed, key=len)
        assert all(set(s) <= set(hull) for s in listed)
        assert maximal_simplices_bk(gen_uniform(4, 3), 2) == [hull]

    def test_closed_form_counts(self):
        import math

        for m in range(4, 8):
            for n in range(2, m - 1):
                want = math.comb(m, n - 1) + math.comb(m, n + 1)
                assert len(maximal_simplices_closed_form(m, n)) == want

    def test_closed_form_domain(self):
        with pytest.raises(ValueError):
            maximal_simplices_closed_form(5, 1)
        with pytest.raises(ValueError):
            maximal_simplices_closed_form(4, 4)

    def test_known_facets_of_pairs_of_four(self):
        fam = gen_uniform(4, 2)
        facets = set(maximal_simplices_bk(fam, 2))
        # all pairs through element 1: {1,2}, {1,3}, {1,4}
        core = tuple(
            sorted(fam.index(Subset.parse(t, 4)) for t in ("{1,2}", "{1,3}", "{1,4}"))
        )
        # all pairs inside {1,2,3}
        hull = tuple(
            sorted(fam.index(Subset.parse(t, 4)) for t in ("{1,2}", "{1,3}", "{2,3}"))
        )
        assert core in facets
        assert hull in facets

    def test_triple_layer_facet_count(self):
        assert len(maximal_simplices_bk(gen_uniform(6, 3), 2)) == 30

    def test_every_simplex_lies_in_a_facet(self):
        fam = gen_uniform(5, 3)
        k = build_flag(fam, 2, 4)
        facets = [set(f) for f in maximal_simplices_bk(fam, 2)]
        for layer in simplices(k):
            for s in layer:
                assert any(set(s) <= f for f in facets)

    def test_facets_are_mutually_incomparable(self):
        facets = [set(f) for f in maximal_simplices_bk(gen_uniform(5, 2), 2)]
        for a, b in itertools.combinations(facets, 2):
            assert not a <= b and not b <= a


class TestTupleLayers:
    @pytest.mark.parametrize(
        "layers, face",
        [
            # an edge whose vertex 3 is missing
            ((((0,),), ((0, 3),)), (3,)),
            # a triangle whose edge (1,2) is missing
            ((((0,), (1,), (2,)), ((0, 1), (0, 2)), ((0, 1, 2),)), (1, 2)),
        ],
    )
    def test_layers_must_hold_every_facet(self, layers, face):
        with pytest.raises(ValueError, match=rf"lacks its face {re.escape(str(face))}"):
            from_layers(
                gen_uniform(4, 1), 2, len(layers) - 1, layers, flag=False,
                complete=True,
            )

    def test_layers_must_fit_max_dim_and_the_adjacency(self):
        k = build_flag(gen_uniform(4, 1), 2, 2)
        with pytest.raises(ValueError, match="above max_dim"):
            from_layers(k.family, 2, 1, simplices(k), flag=False, complete=True)
        no_edges = (0,) * 4
        with pytest.raises(ValueError, match="off the adjacency"):
            from_layers(
                k.family, 2, 2, simplices(k), flag=False, complete=True,
                adjacency=no_edges,
            )
        with pytest.raises(ValueError, match="not a 1-simplex"):
            from_layers(k.family, 2, 1, (((0,), (1,)), ((0, 1, 1),)), flag=False,
                        complete=True)


class TestStarAndLink:
    def test_star_is_contractible(self):
        k = octahedron()
        st_ = star(k, 0)
        assert betti_z2(st_, 2).values == (0, 0, 0)

    def test_star_contains_closed_neighborhood(self):
        k = octahedron()
        st_ = star(k, 0)
        assert (0,) in simplices(st_)[0]
        for s in simplices(st_)[1]:
            assert has(k, s)

    def test_star_of_isolated_vertex(self):
        k = build_flag(gen_uniform(4, 2), 0, 1)
        st_ = star(k, 2)
        assert st_.f_vector == (1, 0)
        assert simplices(st_)[0] == ((2,),)

    def test_star_of_minimum_in_small_power_family(self):
        # square on the four subsets of [2]; the empty set sees both singletons
        k = build_flag(gen_prefix(2, Subset.full(2)), 1, 2)
        st_ = star(k, 0)
        assert st_.f_vector == (3, 2, 0)

    def test_star_skips_top_simplices_its_vertex_would_extend(self):
        # K_4 through dim 1: the edge (1,2) and vertex 0 span a triangle
        # above max_dim, so (1,2) is not in the star of 0.  The key of that
        # triangle has max_dim + 2 bits, which no stored simplex has
        k = build_flag(gen_uniform(4, 1), 2, 1)
        assert k.row(0b1110) == -1
        st_ = star(k, 0)
        assert [list(layer) for layer in simplices(st_)] == bf_star(simplices(k), 0)
        assert simplices(st_)[1] == ((0, 1), (0, 2), (0, 3))

    def test_link_of_octahedron_vertex_is_a_circle(self):
        k = octahedron()
        lk = link(k, 0)
        assert lk.f_vector == (4, 4, 0)
        assert betti_z2(lk, 1).values == (0, 1)

    def test_link_of_isolated_vertex_is_empty(self):
        k = build_flag(gen_uniform(4, 2), 0, 1)
        lk = link(k, 0)
        assert lk.f_vector == (0, 0)

    def test_link_of_top_prefix_vertex_is_a_sphere(self):
        # adding {1,2,3} to its strict down-set cones off an octahedron
        fam = gen_prefix(5, Subset.parse("{1,2,3}", 5))
        k = build_flag(fam, 2, 4)
        lk = link(k, fam.index(Subset.parse("{1,2,3}", 5)))
        assert lk.f_vector[:3] == (6, 12, 8)
        assert betti_z2(lk, 2).values == (0, 0, 1)

    def test_unknown_vertex_rejected(self):
        k = octahedron()
        with pytest.raises(ValueError):
            star(k, 17)
        with pytest.raises(ValueError):
            link(k, -1)

    def test_subcomplexes_drop_flag_marker(self):
        k = octahedron()
        assert not star(k, 0).flag
        assert not link(k, 0).flag
        assert not star_cluster(k, [0, 1]).flag


class TestStarCluster:
    def test_single_vertex_cluster_is_the_star(self):
        k = octahedron()
        assert simplices(star_cluster(k, [3])) == simplices(star(k, 3))

    def test_all_vertices_cluster_is_everything(self):
        k = build_flag(upto(4, 2), 2, 3)
        sc = star_cluster(k, range(len(k.family)))
        assert simplices(sc) == simplices(k)

    def test_cluster_can_cover_while_single_stars_do_not(self):
        k = octahedron()
        # antipodal pair: their stars jointly hit every facet
        sc = star_cluster(k, [0, 5])
        assert len(simplices(sc)[2]) == 8
        assert len(simplices(star(k, 0))[2]) == 4

    @pytest.mark.parametrize(
        "family, scale, max_dim",
        [
            (gen_uniform(4, 2), 2, 2),
            (upto(3, 3), 1, 3),
            (gen_uniform(5, 2), 2, 3),
        ],
    )
    def test_cluster_and_complement_cover(self, family, scale, max_dim):
        # simplices either touch L or live entirely outside it
        k = build_flag(family, scale, max_dim)
        nverts = len(k.family)
        for l_size in (1, nverts // 2):
            l_set = list(range(l_size))
            rest = [v for v in range(nverts) if v not in l_set]
            covered = simplex_set(star_cluster(k, l_set))
            if rest:
                covered |= simplex_set(full_subcomplex(k, rest))
            assert covered == simplex_set(k)

    def test_full_subcomplex_keeps_flag_marker(self):
        k = octahedron()
        sub = full_subcomplex(k, [0, 1, 2, 3])
        assert sub.flag
        assert all(0 <= u <= 3 for s in simplices(sub)[1] for u in s)


class TestSkeleton:
    def test_vertex_skeleton(self):
        k = octahedron()
        sk = skeleton(k, 0)
        assert sk.f_vector == (6,)
        assert sk.complete
        assert not sk.flag

    def test_edge_skeleton_of_solid_simplex(self):
        k = build_flag(gen_uniform(4, 1), 2, 3)
        sk = skeleton(k, 1)
        assert betti_z2(sk, 1).values == (0, 3)

    def test_two_skeleton_of_five_simplex(self):
        k = build_flag(gen_uniform(6, 1), 2, 5)
        sk = skeleton(k, 2)
        assert betti_z2(sk, 2).values == (0, 0, 10)

    def test_dimension_above_built_range_rejected(self):
        k = octahedron()
        with pytest.raises(ValueError, match="rebuild"):
            skeleton(k, 5)


class TestConeAndHypothesis:
    def test_down_closed_family_is_coned_by_minimum(self):
        k = build_flag(upto(5, 2), 2, 3)
        assert is_cone(k) == 0

    def test_octahedron_is_not_a_cone(self):
        assert is_cone(octahedron()) is None

    def test_cone_detection_needs_flag_complex(self):
        sk = skeleton(octahedron(), 1)
        with pytest.raises(ValueError):
            is_cone(sk)
        with pytest.raises(ValueError):
            sc_hypothesis_check(sk, [0, 1])

    def test_hypothesis_holds_on_fixed_element_pairs(self):
        fam = gen_uniform(5, 2)
        k = build_flag(fam, 2, 3)
        l_set = [i for i, s in enumerate(fam.vertices) if s.contains(1)]
        assert sc_hypothesis_check(k, l_set) is None

    def test_hypothesis_holds_on_fixed_element_triples(self):
        fam = gen_uniform(6, 3)
        k = build_flag(fam, 2, 2)
        l_set = [i for i, s in enumerate(fam.vertices) if s.contains(1)]
        assert sc_hypothesis_check(k, l_set) is None

    def test_hypothesis_violation_is_reported_in_index_order(self):
        # the two singletons are far apart but both below the full set
        fam = gen_prefix(2, Subset.full(2))
        k = build_flag(fam, 1, 2)
        assert sc_hypothesis_check(k, [0, 1, 2]) == (1, 2)

    def test_violating_pair_really_violates(self):
        fam = gen_prefix(2, Subset.full(2))
        k = build_flag(fam, 1, 2)
        v, w = sc_hypothesis_check(k, [0, 1, 2])
        assert not has(k, tuple(sorted((v, w))))
        common = k.adjacency[v] & k.adjacency[w]
        assert common >> 3 & 1  # the full set is the shared outside neighbor


class TestFacetDump:
    def test_golden_dump(self):
        fam = gen_uniform(4, 2)
        text = facet_dump(fam, 2, [(0, 1, 3), (0, 1, 2)], "F(4,2)")
        assert text == (
            "m=4 scale=2 family=F(4,2)\n"
            "{1,2} {1,3} {1,4}\n"
            "{1,2} {1,3} {2,3}\n"
        )

    def test_dump_round_trips_through_parse(self):
        fam = gen_uniform(5, 2)
        facets = maximal_simplices_bk(fam, 2)
        body = facet_dump(fam, 2, facets, "F(5,2)").splitlines()[1:]
        seen = [
            tuple(fam.index(Subset.parse(tok, 5)) for tok in line.split())
            for line in body
        ]
        assert seen == facets


@st.composite
def small_family_and_scale(draw):
    m = draw(st.integers(min_value=2, max_value=4))
    all_subsets = [Subset(bits, m) for bits in range(1 << m)]
    picked = draw(
        st.lists(st.sampled_from(all_subsets), min_size=1, max_size=8, unique=True)
    )
    fam = SetFamily.from_subsets(m, sorted(picked, key=lambda s: s.sort_key()))
    scale = draw(st.integers(min_value=0, max_value=m))
    return fam, scale


def assert_graph_holds_edges(c: Complex) -> None:
    """c's depth is its f-vector's, every stored edge is an edge of c's
    graph, and a flag complex through dim >= 1 stores exactly its graph's
    edges on its vertices."""
    assert c.max_dim == len(c.f_vector) - 1 == len(c.cands)
    stored = [0] * len(c.family)
    for a, b in simplices(c)[1] if c.max_dim else ():
        stored[a] |= 1 << b
        stored[b] |= 1 << a
    assert all(s & ~a == 0 for s, a in zip(stored, c.adjacency, strict=True))
    if c.flag and c.max_dim:
        mask = c.vertex_mask
        assert stored == [a & mask if mask >> v & 1 else 0 for v, a in enumerate(c.adjacency)]


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        small_family_and_scale(),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_complexes_carry_their_expansion_graph(self, fam_scale, max_dim, seed):
        # Complex reads its depth and its graph off the tree: build_flag's
        # scale graph, a derived complex's parent graph induced on its
        # vertices (which may hold edges it does not store), a skeleton's
        # parent graph, and the relabelled graph of a mirrored copy
        fam, scale = fam_scale
        rng = random.Random(seed)
        k = build_flag(fam, scale, max_dim)
        made = [
            k,
            *derived_complexes(k, rng),
            star_cluster(k, rng.sample(range(len(fam)), rng.randint(1, len(fam)))),
            *(skeleton(k, d) for d in range(max_dim + 1)),
        ]
        for c in made + [mirrored(c) for c in made]:
            assert_graph_holds_edges(c)

    def test_verify_suite_complexes_carry_their_expansion_graph(self, monkeypatch):
        # every complex the verify suites make, by build_flag or by the
        # prefix pass's mirrored copy, holds the same invariants
        import vrlat.cli as cli
        import vrlat.complexes as cx

        made = []

        class Checked(Complex):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                assert_graph_holds_edges(self)
                made.append(self.flag)

        monkeypatch.delenv("VRLAT_THREADS", raising=False)
        monkeypatch.setattr(cx, "Complex", Checked)
        report = cli.run_verify("all", 6)
        assert all(e.status == "ok" for e in report.entries)
        assert made and all(made)

    @settings(max_examples=60, deadline=None)
    @given(small_family_and_scale())
    def test_build_agrees_with_bruteforce(self, fam_scale):
        fam, scale = fam_scale
        k = build_flag(fam, scale, 3)
        assert [list(layer) for layer in simplices(k)] == bf_simplices(fam, scale, 3)

    @settings(max_examples=60, deadline=None)
    @given(
        small_family_and_scale(),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_child_block_ends_match_bruteforce(self, fam_scale, max_dim, seed):
        # block_ends(d)[j] is where the child block of the j-th d-simplex
        # ends: the number of (d+1)-simplices t with t[:-1] <= that simplex.
        # Every complex makes them from its candidate sets when first read
        fam, scale = fam_scale
        k = build_flag(fam, scale, max_dim)
        assert [list(layer) for layer in simplices(k)] == bf_simplices(fam, scale, max_dim)
        for c in [k, *derived_complexes(k, random.Random(seed))]:
            layers = [sorted(layer) for layer in simplices(c)]
            assert [list(layer) for layer in simplices(c)] == layers
            assert len(c.cands) == c.max_dim
            for d, ends in enumerate(map(c.block_ends, range(c.max_dim))):
                assert list(ends) == [
                    sum(1 for t in layers[d + 1] if t[:-1] <= s) for s in layers[d]
                ]

    @settings(max_examples=60, deadline=None)
    @given(
        small_family_and_scale(),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_tree_matches_tuple_layers(self, fam_scale, max_dim, seed):
        # has() and the coboundary columns read the clique tree alone, and
        # must agree with the tuple layers on every complex: derived ones
        # (a link's layer 0 lacks vertices), shuffled ones, and one
        # relabelled v -> n-1-v from its tuple layers, which must also be
        # the library's own relabelled copy (mirrored), the prefix pass's
        fam, scale = fam_scale
        n = len(fam)
        k = build_flag(fam, scale, max_dim)
        for c in [k, relabelled(k), *derived_complexes(k, random.Random(seed))]:
            layers = simplices(c)
            assert simplices(mirrored(c)) == simplices(relabelled(c))
            stored = {s for layer in layers for s in layer}
            for size in range(1, c.max_dim + 2):
                for s in itertools.combinations(range(n), size):
                    assert has(c, s) == (s in stored)
            for d in range(c.max_dim):
                for j, s in enumerate(layers[d]):
                    # (delta s)(t) = (-1)^i where t[i] is the vertex s lacks
                    expected = sorted(
                        (
                            (r, (-1) ** next(i for i, v in enumerate(t) if v not in s))
                            for r, t in enumerate(layers[d + 1])
                            if set(s) <= set(t)
                        ),
                        reverse=True,
                    )
                    assert list(_column(c, d, j).items()) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        small_family_and_scale(),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_labels_and_ends_are_made_on_read(self, fam_scale, max_dim, seed):
        # the tree keeps only candidate sets: a simplex's key is read off
        # its ancestors' candidate sets, and no layer's block ends exist
        # until one is read, on every kind of complex
        fam, scale = fam_scale
        k = build_flag(fam, scale, max_dim)
        assert k._ends == [None] * max_dim
        for c in [k, relabelled(k), *derived_complexes(k, random.Random(seed))]:
            if c is not k:
                assert c._ends == [None] * c.max_dim
            for d in range(c.max_dim):
                ends = c.block_ends(d)
                counts = map(int.bit_count, c.cands[d])
                assert list(ends) == list(itertools.accumulate(counts))
                assert c.block_ends(d) is ends
            layers = simplices(c)
            for d, layer in enumerate(layers):
                for j, s in enumerate(layer):
                    # key and row are inverse maps, and a split is the
                    # parent's index and the label
                    assert c.key(d, j) == vertex_key(c, s)
                    assert c.row(c.key(d, j)) == j
                    if d:
                        assert c.split(d, j) == (layers[d - 1].index(s[:-1]), s[-1])

    @settings(max_examples=60, deadline=None)
    @given(
        small_family_and_scale(),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_complete_below_matches_bruteforce(self, fam_scale, max_dim, seed):
        # the simplices on vertices 0..i are a complete complex while no
        # (max_dim+1)-simplex ends at i or below; every flag complex reads
        # that off the top candidates of the expansion that made it, and an
        # incomplete non-flag complex claims no complete prefix
        fam, scale = fam_scale
        n = len(fam)
        deeper = bf_simplices(fam, scale, max_dim + 1)[max_dim + 1]
        k = build_flag(fam, scale, max_dim)
        for c in [k, *derived_complexes(k, random.Random(seed))]:
            vertices = {s[0] for s in simplices(c)[0]}
            if c.complete:
                expected = n
            elif not c.flag:
                expected = 0
            else:
                expected = min(
                    (t[-1] for t in deeper if vertices.issuperset(t)), default=n
                )
            assert c.complete_below == expected

    @settings(max_examples=60, deadline=None)
    @given(
        small_family_and_scale(),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_derived_complexes_match_the_tuple_filters(self, fam_scale, max_dim, seed):
        # stars, links, star clusters and full subcomplexes of truncated
        # and complete flag complexes, and of a star (not flag), against
        # set filters over the tuple layers
        fam, scale = fam_scale
        rng = random.Random(seed)
        k = build_flag(fam, scale, max_dim)
        v = rng.randrange(len(fam))
        st_ = star(k, v)
        for c in (k, st_):
            layers, verts = simplices(c), vertex_indices(c)
            u = rng.choice(verts)
            cluster = rng.sample(verts, rng.randint(1, len(verts)))
            sub = rng.sample(verts, rng.randint(1, len(verts)))
            cases = [
                (star(c, u), bf_star(layers, u)),
                (link(c, u), bf_link(layers, u)),
                (star_cluster(c, cluster), bf_star_cluster(layers, cluster)),
                (full_subcomplex(c, sub), bf_full_subcomplex(layers, sub)),
            ]
            for derived, expected in cases:
                assert [list(layer) for layer in simplices(derived)] == expected
                assert derived.complete == c.complete

    @settings(max_examples=60, deadline=None)
    @given(
        small_family_and_scale(),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_flag_tuple_layers_carry_the_expansion_counts(
        self, fam_scale, max_dim, seed
    ):
        # a flag complex made from its layers, in any order, over its graph
        # (given, or from its edges when it has them) has build_flag's
        # complete_below and top_parents
        fam, scale = fam_scale
        rng = random.Random(seed)
        k = build_flag(fam, scale, max_dim)
        layers = tuple(tuple(rng.sample(layer, len(layer))) for layer in simplices(k))
        for adjacency in (k.adjacency, None) if max_dim else (k.adjacency,):
            c = from_layers(
                fam, scale, max_dim, layers, flag=True, complete=k.complete,
                adjacency=adjacency,
            )
            assert simplices(c) == simplices(k)
            assert c.adjacency == k.adjacency
            assert (c.complete_below, c.top_parents) == (k.complete_below, k.top_parents)

    @settings(max_examples=60, deadline=None)
    @given(small_family_and_scale())
    def test_facets_agree_with_bruteforce(self, fam_scale):
        fam, scale = fam_scale
        assert maximal_simplices_bk(fam, scale) == bf_facets(fam, scale)

    @settings(max_examples=40, deadline=None)
    @given(small_family_and_scale())
    def test_star_betti_vanishes(self, fam_scale):
        # stars are cones, so all reduced homology dies
        fam, scale = fam_scale
        k = build_flag(fam, scale, len(fam) - 1)
        b = betti_z2(star(k, 0), min(3, len(fam) - 1))
        assert all(v == 0 for v in b.values)
