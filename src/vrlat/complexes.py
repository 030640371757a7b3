"""Flag complexes of set families at a distance scale.

A complex stores its simplices as dimension-graded sorted tuples of vertex
indices into the underlying family.  Construction expands cliques of the
scale graph incrementally (each simplex extended only by higher-indexed
common neighbors), which yields lexicographic order with no duplicates.

Complexes carry two bookkeeping bits.  `flag` records that the object
represents the full clique complex of its 1-skeleton, so graph-level
certificates (cone detection, the star-cluster hypothesis check) are valid;
derived subcomplexes such as stars, links, and skeletons drop it.
`complete` records that no simplex exists beyond the stored dimensions,
which is what entitles Euler-characteristic and top-dimension homology
claims.
"""

from itertools import combinations

from .setfam import SetFamily, Subset, dist, gen_uniform

# A simplex is a strictly increasing tuple of vertex indices.
Simplex = tuple[int, ...]


class BuildBudgetExceeded(RuntimeError):
    """Raised when construction would store more simplices than allowed."""

    def __init__(self, dim_reached: int, simplex_count: int, budget: int):
        self.dim_reached = dim_reached
        self.simplex_count = simplex_count
        self.budget = budget
        super().__init__(
            f"simplex budget {budget} exceeded at dimension {dim_reached} "
            f"({simplex_count} simplices stored so far)"
        )


class Complex:
    """Immutable dimension-graded simplicial complex over a SetFamily."""

    def __init__(
        self,
        family: SetFamily,
        scale: int,
        max_dim: int,
        simplices: tuple[tuple[Simplex, ...], ...],
        *,
        flag: bool,
        complete: bool,
        adjacency: tuple[int, ...] | None = None,
    ):
        self.family = family
        self.scale = scale
        self.max_dim = max_dim
        self.simplices = simplices
        self.flag = flag
        self.complete = complete
        if adjacency is None:
            adjacency = _adjacency_from_edges(len(family), simplices)
        self.adjacency = adjacency
        self._sets: dict[int, set[Simplex]] = {}
        self._index: dict[int, dict[Simplex, int]] = {}
        # integer coboundary reduction, filled bottom up by
        # homology.homology_integer: (rank, torsion) of delta^0, delta^1, ...
        # and the pivot rows of the last one, for clearing the next
        self._coboundary: tuple[list, set[int]] = ([], set())

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.simplices)

    @property
    def vertex_indices(self) -> tuple[int, ...]:
        return tuple(s[0] for s in self.simplices[0])

    def has(self, simplex: Simplex) -> bool:
        d = len(simplex) - 1
        if d < 0 or d > self.max_dim:
            return False
        if d not in self._sets:
            self._sets[d] = set(self.simplices[d])
        return simplex in self._sets[d]

    def index_of(self, dim: int, simplex: Simplex) -> int:
        """Position of a simplex in its dimension's canonical order."""
        if dim not in self._index:
            self._index[dim] = {s: i for i, s in enumerate(self.simplices[dim])}
        return self._index[dim][simplex]

    def __repr__(self) -> str:
        return (
            f"Complex(scale={self.scale}, max_dim={self.max_dim}, "
            f"f_vector={self.f_vector}, flag={self.flag}, complete={self.complete})"
        )


def _distance_adjacency(f: SetFamily, scale: int) -> tuple[int, ...]:
    n = len(f.vertices)
    adj = [0] * n
    for i, j in combinations(range(n), 2):
        if dist(f.vertices[i], f.vertices[j]) <= scale:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return tuple(adj)


def _adjacency_from_edges(n: int, simplices) -> tuple[int, ...]:
    adj = [0] * n
    if len(simplices) > 1:
        for i, j in simplices[1]:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return tuple(adj)


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def build_flag(
    f: SetFamily, r: int, max_dim: int, max_simplices: int | None = None
) -> Complex:
    """Vietoris-Rips complex of the family at scale r, through max_dim.

    Simplices are exactly the vertex sets of pairwise distance <= r.  Raises
    BuildBudgetExceeded (naming the dimension reached) if more than
    max_simplices would be stored.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be nonnegative")
    n = len(f.vertices)
    if n == 0:
        raise ValueError("empty family")
    if max_simplices is not None and n > max_simplices:
        raise BuildBudgetExceeded(0, n, max_simplices)
    adj = _distance_adjacency(f, r)

    layers: list[tuple[Simplex, ...]] = [tuple((i,) for i in range(n))]
    count = n
    # candidate set of a simplex: higher-indexed common neighbors
    cur = [((i,), adj[i] >> (i + 1) << (i + 1)) for i in range(n)]
    complete = False
    for d in range(1, max_dim + 1):
        nxt = []
        for s, cand in cur:
            for u in _bits(cand):
                above = cand >> (u + 1) << (u + 1)
                nxt.append((s + (u,), above & adj[u]))
        count += len(nxt)
        if max_simplices is not None and count > max_simplices:
            raise BuildBudgetExceeded(d, count, max_simplices)
        if not nxt:
            complete = True
            layers.extend(() for _ in range(d, max_dim + 1))
            break
        layers.append(tuple(s for s, _ in nxt))
        cur = nxt
    if not complete:
        # any higher simplex would extend a stored one by a higher-indexed
        # common neighbor, so empty candidate sets certify completeness
        complete = all(cand == 0 for _, cand in cur)
    return Complex(
        f, r, max_dim, tuple(layers), flag=True, complete=complete, adjacency=adj
    )


def _degeneracy_order(adj: tuple[int, ...], n: int) -> list[int]:
    """Repeatedly remove a minimum-degree vertex; ties go to the lowest index."""
    remaining = set(range(n))
    mask = (1 << n) - 1
    order = []
    for _ in range(n):
        v = min(remaining, key=lambda x: ((adj[x] & mask).bit_count(), x))
        order.append(v)
        remaining.discard(v)
        mask ^= 1 << v
    return order


def maximal_simplices_bk(f: SetFamily, r: int) -> list[Simplex]:
    """Facets of the scale-r complex by pivoted Bron-Kerbosch enumeration.

    Deterministic: outer loop in degeneracy order, pivot ties broken by
    index.
    """
    n = len(f.vertices)
    if n == 0:
        raise ValueError("empty family")
    adj = _distance_adjacency(f, r)
    facets: list[int] = []

    def expand(clique: int, candidates: int, excluded: int) -> None:
        if candidates == 0 and excluded == 0:
            facets.append(clique)
            return
        pool = candidates | excluded
        pivot = max(_bits(pool), key=lambda u: (candidates & adj[u]).bit_count())
        for v in _bits(candidates & ~adj[pivot]):
            expand(clique | 1 << v, candidates & adj[v], excluded & adj[v])
            candidates ^= 1 << v
            excluded |= 1 << v

    later = (1 << n) - 1
    for v in _degeneracy_order(adj, n):
        later ^= 1 << v
        expand(1 << v, adj[v] & later, adj[v] & ~later & ~(1 << v))
    return sorted(tuple(_bits(c)) for c in set(facets))


def maximal_simplices_closed_form(m: int, n: int) -> list[Simplex]:
    """The two combinatorial facet families of the n-uniform layer at scale 2.

    Core type: for each (n-1)-set, all n-sets containing it (an (m-n)-simplex).
    Hull type: for each (n+1)-set, all its n-subsets (an n-simplex).
    For m >= n + 2 these are exactly the facets; for m = n + 1 the core
    simplices are faces of the single hull simplex, and the list is returned
    as stated.
    """
    if not 1 < n < m:
        raise ValueError("closed form not applicable")
    fam = gen_uniform(m, n)
    ground = range(1, m + 1)
    out = set()
    for core in combinations(ground, n - 1):
        rest = [e for e in ground if e not in core]
        out.add(
            tuple(sorted(fam.index(Subset.of(core + (x,), m)) for x in rest))
        )
    for hull in combinations(ground, n + 1):
        out.add(
            tuple(
                sorted(
                    fam.index(Subset.of(hull[:i] + hull[i + 1:], m))
                    for i in range(n + 1)
                )
            )
        )
    return sorted(out)


def _require_vertex(k: Complex, v: int) -> None:
    if not 0 <= v < len(k.family) or not k.has((v,)):
        raise ValueError(f"unknown vertex {v}")


def _with_vertex(simplex: Simplex, v: int) -> Simplex:
    if v in simplex:
        return simplex
    return tuple(sorted(simplex + (v,)))


def star(k: Complex, v: int) -> Complex:
    """Subcomplex of simplices whose union with v is a stored simplex of k.

    Always a cone with apex v.
    """
    _require_vertex(k, v)
    layers = tuple(
        tuple(s for s in layer if k.has(_with_vertex(s, v)))
        for layer in k.simplices
    )
    return Complex(k.family, k.scale, k.max_dim, layers, flag=False, complete=k.complete)


def link(k: Complex, v: int) -> Complex:
    """Simplices of the star of v that avoid v."""
    _require_vertex(k, v)
    layers = tuple(
        tuple(s for s in layer if v not in s and k.has(_with_vertex(s, v)))
        for layer in k.simplices
    )
    return Complex(k.family, k.scale, k.max_dim, layers, flag=False, complete=k.complete)


def star_cluster(k: Complex, l_vertices) -> Complex:
    """Union of the stars of the given vertices."""
    verts = sorted(set(l_vertices))
    for v in verts:
        _require_vertex(k, v)
    layers = []
    for layer in k.simplices:
        kept = [
            s for s in layer if any(k.has(_with_vertex(s, v)) for v in verts)
        ]
        layers.append(tuple(kept))
    return Complex(
        k.family, k.scale, k.max_dim, tuple(layers), flag=False, complete=k.complete
    )


def full_subcomplex(k: Complex, vertices) -> Complex:
    """All stored simplices supported on the given vertex set.

    The full subcomplex of a flag complex is again flag, so the marker is
    inherited.
    """
    vs = set(vertices)
    for v in vs:
        _require_vertex(k, v)
    layers = tuple(
        tuple(s for s in layer if all(u in vs for u in s)) for layer in k.simplices
    )
    return Complex(k.family, k.scale, k.max_dim, layers, flag=k.flag, complete=k.complete)


def skeleton(k: Complex, d: int) -> Complex:
    """The d-skeleton, taken as a complex in its own right.

    Truncation is deliberate here, so the result is complete (it contains
    all of its own simplices) but no longer represents a flag complex.
    """
    if not 0 <= d <= k.max_dim:
        raise ValueError(
            f"dimension {d} not built (max_dim={k.max_dim}); rebuild required"
        )
    return Complex(
        k.family, k.scale, d, k.simplices[: d + 1], flag=False, complete=True
    )


def is_cone(k: Complex) -> int | None:
    """A vertex adjacent to every other vertex, if one exists.

    For flag complexes such an apex certifies that the underlying complex
    is a cone, hence contractible; on non-flag complexes the certificate
    is meaningless and the call is refused.
    """
    if not k.flag:
        raise ValueError("cone detection requires a flag complex")
    verts = k.vertex_indices
    vmask = 0
    for v in verts:
        vmask |= 1 << v
    for v in verts:
        if (k.adjacency[v] | 1 << v) & vmask == vmask:
            return v
    return None


def sc_hypothesis_check(k: Complex, l_vertices) -> tuple[int, int] | None:
    """Check the star-cluster collapsibility hypothesis on a vertex set.

    With L the full subcomplex on l_vertices, the hypothesis demands that
    any two vertices of L whose stars share a simplex outside L span an
    edge.  For a flag complex this reduces to the 1-skeleton: a violation
    is a non-adjacent pair with a common neighbor outside L (a witnessing
    shared simplex can always be shrunk to a single outside vertex, and any
    outside common neighbor is itself a witness).  Returns None if the
    hypothesis holds, else the first violating pair in index order.
    """
    if not k.flag:
        raise ValueError("star-cluster check requires a flag complex")
    verts = sorted(set(l_vertices))
    lmask = 0
    for v in verts:
        _require_vertex(k, v)
        lmask |= 1 << v
    for i, v in enumerate(verts):
        for w in verts[i + 1:]:
            if k.adjacency[v] >> w & 1:
                continue
            if k.adjacency[v] & k.adjacency[w] & ~lmask:
                return (v, w)
    return None


def facet_dump(family: SetFamily, scale: int, simplices, family_spec: str) -> str:
    """Serialize simplices: header line, then one simplex per line.

    Vertices are printed in their subset serialization, space separated;
    lines are sorted by vertex index tuple.
    """
    lines = [f"m={family.m} scale={scale} family={family_spec}"]
    for s in sorted(simplices):
        lines.append(" ".join(str(family.vertices[i]) for i in s))
    return "\n".join(lines) + "\n"
