"""Tuple views of complexes, complexes made from tuple layers, and the
hand-built torsion fixtures.

The library stores a complex as its clique tree and reads nothing else.
The tests also see it as layers of sorted vertex-index tuples
(simplices), ask whether a tuple is stored (has), and make complexes from
tuple layers given in any order (from_layers): the clique expansion of a
graph that keeps only the given simplices, as the library's derived
complexes are made.
"""

import itertools
import random

import pytest

from vrlat.complexes import (
    Complex,
    Simplex,
    _bits,
    _expand,
    full_subcomplex,
    link,
    skeleton,
    star,
)
from vrlat.setfam import gen_uniform


def vertex_key(k: Complex, simplex) -> int:
    """The reversed vertex mask of a simplex: bit n-1-v for each vertex v."""
    n = len(k.adjacency)
    return sum(1 << (n - 1 - v) for v in simplex)


def vertex_indices(k: Complex) -> tuple[int, ...]:
    """k's vertices in order, the bits of its vertex mask."""
    return tuple(_bits(k.vertex_mask))


def simplices(k: Complex) -> tuple[tuple[Simplex, ...], ...]:
    """k's layers as vertex-index tuples, read off the tree: a simplex's
    children are it plus each bit of its candidate set, in order."""
    layers = [tuple((v,) for v in vertex_indices(k))]
    for cands in k.cands:
        layers.append(tuple(s + (u,) for s, c in zip(layers[-1], cands) for u in _bits(c)))
    return tuple(layers)


def has(k: Complex, simplex: Simplex) -> bool:
    """Whether the simplex is stored, by one descent (Complex.row)."""
    if not 0 < len(simplex) <= k.max_dim + 1:
        return False
    n, last = len(k.adjacency), -1
    for v in simplex:
        if not last < v < n:
            return False
        last = v
    return k.row(vertex_key(k, simplex)) >= 0


def from_layers(
    family, scale: int, max_dim: int, layers, *, flag: bool, complete: bool,
    adjacency: tuple[int, ...] | None = None,
) -> Complex:
    """The complex of the given tuple layers, each in any order: the
    expansion of the adjacency (by default the graph of the given edges)
    that keeps the given simplices.  Raises ValueError unless every given
    simplex has all its facets and is a clique of the adjacency through
    max_dim."""
    n = len(family)
    given: dict[int, Simplex] = {}
    for d, layer in enumerate(layers):
        for s in layer:
            key = sum(1 << (n - 1 - v) for v in set(s) if 0 <= v < n)
            if not key.bit_count() == len(s) == d + 1:
                raise ValueError(f"{s} is not a {d}-simplex on vertices 0..{n - 1}")
            given[key] = s
    edges = [0] * n
    for key, s in given.items():
        if len(s) == 2:
            edges[s[0]] |= 1 << s[1]
            edges[s[1]] |= 1 << s[0]
        for v in s if len(s) > 1 else ():
            if key ^ 1 << (n - 1 - v) not in given:
                face = tuple(u for u in s if u != v)
                raise ValueError(f"simplex {s} lacks its face {face}")
    adjacency = tuple(edges) if adjacency is None else adjacency
    tree = _expand(adjacency, (1 << n) - 1, max_dim, given.__contains__)
    if sum(tree[1]) != len(given):
        raise ValueError(f"given simplices lie above max_dim={max_dim} or off the adjacency")
    return Complex(family, scale, tree, flag=flag, complete=complete)


def shuffled(k: Complex, rng: random.Random) -> Complex:
    """k made again from its tuple layers, each in a random order."""
    layers = tuple(tuple(rng.sample(layer, len(layer))) for layer in simplices(k))
    return from_layers(
        k.family, k.scale, k.max_dim, layers, flag=k.flag, complete=k.complete,
        adjacency=k.adjacency,
    )


def relabelled(k: Complex) -> Complex:
    """k with its vertices relabelled v -> n-1-v, made from tuple layers."""
    n = len(k.family)
    layers = tuple(
        tuple(tuple(n - 1 - v for v in reversed(s)) for s in layer)
        for layer in simplices(k)
    )
    return from_layers(
        k.family, k.scale, k.max_dim, layers, flag=k.flag, complete=k.complete
    )


def derived_complexes(k: Complex, rng: random.Random) -> list[Complex]:
    """A star, a link, a skeleton, a full subcomplex and a shuffled copy
    of k: complexes build_flag did not make."""
    n = len(k.family)
    copy = shuffled(k, rng)
    return [
        star(k, rng.randrange(n)),
        link(k, rng.randrange(n)),
        skeleton(k, rng.randint(0, k.max_dim)),
        full_subcomplex(k, rng.sample(range(n), rng.randint(1, n))),
        copy,
    ]


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
    layers = tuple(tuple(sorted(layer)) for layer in layers)
    return from_layers(gen_uniform(n, 1), 2, top, layers, flag=False, complete=True)


def projective_plane() -> Complex:
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


def projective_plane_join_points(points: int) -> Complex:
    """RP^2 * RP^2 * (points isolated vertices), the copies on 0..5 and
    6..11 and the points from 12 on.  Joining with p points maps H~_d to
    H~_(d+1) (x) Z^(p-1), so H~_4 = H~_5 = (Z/2)^(p-1), all else 0."""
    return from_facets(
        12 + points,
        [
            t + tuple(v + 6 for v in u) + (12 + p,)
            for t in RP2_FACES
            for u in RP2_FACES
            for p in range(points)
        ],
    )


def projective_plane_cone() -> Complex:
    """The cone over RP^2 with apex 0: contractible, so torsion-free."""
    return from_facets(7, [(0,) + tuple(v + 1 for v in t) for t in RP2_FACES])


# hand-built non-flag complexes, three of them with torsion
TORSION_FIXTURES = pytest.mark.parametrize(
    "make",
    [
        projective_plane,
        projective_plane_cone,
        lambda: projective_plane_join(False),
        lambda: projective_plane_join(True),
    ],
    ids=["rp2", "cone", "join", "join-interleaved"],
)
