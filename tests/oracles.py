"""Brute-force reference implementations.

Everything here recomputes quantities from first principles (powerset
enumeration, dense Gaussian elimination, union-find) so the library's
incremental flag expansion, sparse reduction, and closed-form counts can
be checked against an independent route.  Only the vertex/metric layer of
the library is imported; none of the code under test is reused.
"""

from fractions import Fraction
from itertools import combinations

from vrlat.setfam import SetFamily, dist


def diameter_ok(family: SetFamily, idxs, scale: int) -> bool:
    """True if every pair of the chosen vertices is within the scale."""
    verts = family.vertices
    return all(
        dist(verts[a], verts[b]) <= scale for a, b in combinations(idxs, 2)
    )


def bf_simplices(family: SetFamily, scale: int, max_dim: int) -> list[list[tuple[int, ...]]]:
    """All simplices of the Vietoris-Rips complex, dimension by dimension.

    Checks every vertex subset of size <= max_dim + 1 against the diameter
    bound.  Exponential in spirit but fine for the small instances used in
    tests.
    """
    out: list[list[tuple[int, ...]]] = []
    n = len(family.vertices)
    for d in range(max_dim + 1):
        layer = [
            tuple(c)
            for c in combinations(range(n), d + 1)
            if diameter_ok(family, c, scale)
        ]
        out.append(layer)
    return out


def bf_facets(family: SetFamily, scale: int) -> list[tuple[int, ...]]:
    """Inclusion-maximal simplices by filtering the full powerset.

    Only usable for families with at most ~16 vertices.
    """
    n = len(family.vertices)
    if n > 16:
        raise ValueError("brute-force facet search capped at 16 vertices")
    cliques = []
    for mask in range(1, 1 << n):
        idxs = [i for i in range(n) if mask >> i & 1]
        if diameter_ok(family, idxs, scale):
            cliques.append(frozenset(idxs))
    facets = [
        c for c in cliques
        if not any(c < other for other in cliques)
    ]
    return sorted(tuple(sorted(c)) for c in facets)


def bf_star_cluster(layers, l_vertices) -> list[list[tuple[int, ...]]]:
    """The simplices of the tuple layers whose union with one of the given
    vertices is also in the layers, by set filters."""
    stored = {s for layer in layers for s in layer}
    return [
        [
            s for s in layer
            if any(tuple(sorted(set(s) | {v})) in stored for v in l_vertices)
        ]
        for layer in layers
    ]


def bf_star(layers, v: int) -> list[list[tuple[int, ...]]]:
    return bf_star_cluster(layers, (v,))


def bf_link(layers, v: int) -> list[list[tuple[int, ...]]]:
    """The star of v less the simplices that hold v."""
    return [[s for s in layer if v not in s] for layer in bf_star(layers, v)]


def bf_full_subcomplex(layers, vertices) -> list[list[tuple[int, ...]]]:
    """The simplices of the tuple layers on the given vertices."""
    keep = set(vertices)
    return [[s for s in layer if keep.issuperset(s)] for layer in layers]


def bf_gf2_rank(columns: list[list[int]], n_rows: int) -> int:
    """Rank of a 0/1 matrix over GF(2) by dense row elimination."""
    rows = [[0] * len(columns) for _ in range(n_rows)]
    for j, col in enumerate(columns):
        for i in col:
            rows[i][j] = 1
    rank = 0
    for j in range(len(columns)):
        pivot = next((i for i in range(rank, n_rows) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(n_rows):
            if i != rank and rows[i][j]:
                rows[i] = [(x + y) % 2 for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def bf_boundary_columns(lower: list[tuple[int, ...]], upper: list[tuple[int, ...]]) -> list[list[int]]:
    """Face-index columns of the boundary map from upper to lower simplices."""
    pos = {s: i for i, s in enumerate(lower)}
    cols = []
    for s in upper:
        cols.append(sorted(pos[s[:i] + s[i + 1:]] for i in range(len(s))))
    return cols


def bf_integer_columns(
    lower: list[tuple[int, ...]], upper: list[tuple[int, ...]]
) -> list[dict[int, int]]:
    """Signed columns {face index: (-1)^i} of the integer boundary map from
    upper to lower simplices, where face i drops the i-th vertex."""
    pos = {s: i for i, s in enumerate(lower)}
    return [
        {pos[s[:i] + s[i + 1:]]: (-1) ** i for i in range(len(s))} for s in upper
    ]


def bf_betti(family: SetFamily, scale: int, through: int) -> list[int]:
    """Reduced Betti numbers over GF(2), all ranks done densely.

    Builds the complex through dimension through + 1 so the top requested
    Betti number is honest; the caller must pick instances small enough for
    the powerset sweep.
    """
    layers = bf_simplices(family, scale, through + 1)
    ranks = [0] * (through + 2)
    for d in range(1, through + 2):
        if layers[d]:
            cols = bf_boundary_columns(layers[d - 1], layers[d])
            ranks[d] = bf_gf2_rank(cols, len(layers[d - 1]))
    betti = []
    for k in range(through + 1):
        f_k = len(layers[k])
        low = ranks[k] if k >= 1 else (1 if f_k else 0)
        betti.append(f_k - low - ranks[k + 1])
    return betti


def bf_components(family: SetFamily, scale: int) -> int:
    """Connected components of the scale graph via union-find."""
    n = len(family.vertices)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in combinations(range(n), 2):
        if dist(family.vertices[a], family.vertices[b]) <= scale:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    return len({find(x) for x in range(n)})


def bf_coboundary_pivots(
    family: SetFamily, scale: int, dim: int, modulus: int
) -> set[tuple[int, ...]]:
    """Pivot (dim+1)-simplices of delta^dim by naive column reduction.

    Rows are the (dim+1)-simplices and columns the dim-simplices, both in
    lexicographic order; (delta^dim s)(t) = (-1)^i when s is t without its
    i-th vertex.  Columns are reduced from the last to the first with no
    clearing, and a column's pivot is its largest row.  The library's
    reducer walks the columns the other way, first to last, and clears:
    this walk is kept on purpose, so the two routes share neither the walk
    nor the clearing, yet must find the same pivot rows (the pivots in a
    row suffix count its rank, whatever the walk).  Entries are rationals
    for modulus 0 and residues for modulus 2.
    """
    layers = bf_simplices(family, scale, dim + 1)
    cols: dict[tuple[int, ...], dict[int, Fraction | int]] = {
        s: {} for s in layers[dim]
    }
    for r, t in enumerate(layers[dim + 1]):
        for i in range(dim + 2):
            cols[t[:i] + t[i + 1:]][r] = 1 if modulus else Fraction((-1) ** i)
    settled: dict[int, dict[int, Fraction | int]] = {}
    for s in reversed(layers[dim]):
        col = cols[s]
        while col:
            low = max(col)
            if low not in settled:
                settled[low] = col
                break
            other = settled[low]
            factor = col[low] * other[low] if modulus else col[low] / other[low]
            for r, x in other.items():
                new = col.get(r, 0) - factor * x
                if modulus:
                    new %= modulus
                if new:
                    col[r] = new
                else:
                    col.pop(r, None)
    return {layers[dim + 1][r] for r in settled}
