"""Flag complexes of set families at a distance scale.

A complex stores its simplices as a clique tree (a simplex tree, after
Boissonnat and Maria): each simplex is its parent, the simplex without its
largest vertex, plus that vertex, its label.  Construction expands cliques
of the scale graph incrementally (each simplex extended only by
higher-indexed common neighbors), which walks this tree and yields every
layer in lexicographic order with no duplicates.  The tuples of vertex
indices are a view, built on first read, for the derived complexes and
the tests that want them; the reducer reads the tree alone.

Complexes carry two bookkeeping bits.  `flag` records that the object
represents the full clique complex of its 1-skeleton, so graph-level
certificates (cone detection, the star-cluster hypothesis check) are valid;
derived subcomplexes such as stars, links, and skeletons drop it.
`complete` records that no simplex exists beyond the stored dimensions,
which is what entitles Euler-characteristic and top-dimension homology
claims.
"""

from array import array
from functools import reduce
from itertools import accumulate, combinations, islice
from operator import lt, or_

from .setfam import SetFamily, Subset, gen_uniform

# A simplex is a strictly increasing tuple of vertex indices.
Simplex = tuple[int, ...]
# A clique tree: the labels and candidate sets of each layer (see Complex).
Tree = tuple[tuple[array, ...], tuple[list[int], ...]]


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
    """Immutable dimension-graded simplicial complex over a SetFamily.

    The simplices are a clique tree, every layer in lexicographic order.
    labels[d][j] is the largest vertex of the j-th d-simplex.  Its parent
    is the (d-1)-simplex without that vertex, and its children, the
    cofaces s + (u,), u > max(s), form one contiguous block of layer d+1:
    cands[d][j] is the bitset of their labels and ends[d][j] the end of
    the block, the number of (d+1)-simplices t with t[:-1] <= s.  The root
    is the empty simplex, whose children are the vertices (vertex_mask).
    build_flag passes the labels and candidate sets it walks; a complex
    made from tuple layers (sorted if out of order) gets them from one
    merge walk.  simplices[d] holds the d-simplices as tuples, built from
    the tree on first read.

    complete_below says how many vertex prefixes are complete: the
    simplices of k on vertices 0..i are all the simplices of their own
    complex for i < complete_below.  That is len(family) for a complete
    complex and 0 for an incomplete non-flag one.  For an incomplete flag
    complex it is the largest vertex of the first (max_dim+1)-clique of
    the graph: build_flag passes it, otherwise it is found on first use.
    """

    def __init__(
        self,
        family: SetFamily,
        scale: int,
        max_dim: int,
        simplices: tuple[tuple[Simplex, ...], ...] | None = None,
        *,
        flag: bool,
        complete: bool,
        adjacency: tuple[int, ...] | None = None,
        tree: Tree | None = None,
        complete_below: int | None = None,
    ):
        if tree is None:
            simplices = tuple(
                layer if all(map(lt, layer, islice(layer, 1, None)))
                else tuple(sorted(layer))
                for layer in simplices
            )
            tree = _tree(simplices)
        self.family = family
        self.scale = scale
        self.max_dim = max_dim
        self._simplices = simplices
        self.labels, self.cands = tree
        self.ends = tuple(
            array("I", accumulate(map(int.bit_count, c))) for c in self.cands
        )
        self.vertex_mask = reduce(or_, (1 << v for v in self.labels[0]), 0)
        self.flag = flag
        self.complete = complete
        if adjacency is None:
            adjacency = _adjacency_from_edges(len(family), self.labels[0], self.cands)
        self.adjacency = adjacency
        if complete:
            complete_below = len(family)
        elif not flag:
            complete_below = 0
        self._complete_below = complete_below
        # integer coboundary reduction, filled bottom up by
        # homology.homology_integer: (rank, torsion) of delta^0, delta^1, ...
        # and the unit pivot rows of the last one, for clearing the next
        self._coboundary: tuple[list, set[int]] = ([], set())

    @property
    def simplices(self) -> tuple[tuple[Simplex, ...], ...]:
        if self._simplices is None:
            layers = [tuple((v,) for v in self.labels[0])]
            for labels, ends in zip(self.labels[1:], self.ends):
                layers.append(tuple(
                    s + (u,)
                    for s, start, end in zip(layers[-1], (0, *ends), ends)
                    for u in labels[start:end]
                ))
            self._simplices = tuple(layers)
        return self._simplices

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(map(len, self.labels))

    @property
    def complete_below(self) -> int:
        if self._complete_below is None:
            self._complete_below = _first_clique_birth(self)
        return self._complete_below

    @property
    def vertex_indices(self) -> tuple[int, ...]:
        return tuple(self.labels[0])

    def has(self, simplex: Simplex) -> bool:
        """Whether the simplex is stored (see row)."""
        if not 0 < len(simplex) <= self.max_dim + 1:
            return False
        n, key, last = len(self.adjacency), 0, -1
        for v in simplex:
            if not last < v < n:
                return False
            key |= 1 << (n - 1 - v)
            last = v
        return self.row(key) >= 0

    def row(self, key: int) -> int:
        """Index in its layer of the nonempty simplex whose reversed vertex
        mask is key (bit n-1-v for each vertex v, n = len(adjacency)), or
        -1 if it is not stored, by one descent from the root: the
        vertices are the bits from the top down, a node's child u is
        stored if u is a candidate bit, and its index is the end of the
        node's block less the candidates from u up.  The key has at most
        max_dim + 1 bits."""
        n = len(self.adjacency)
        bits, j, d = self.vertex_mask, len(self.labels[0]), 0
        while True:
            top = key.bit_length()
            above = bits >> (n - top)
            if not above & 1:
                return -1
            j -= above.bit_count()
            key ^= 1 << (top - 1)
            if not key:
                return j
            bits, j = self.cands[d][j], self.ends[d][j]
            d += 1

    def __repr__(self) -> str:
        return (
            f"Complex(scale={self.scale}, max_dim={self.max_dim}, "
            f"f_vector={self.f_vector}, flag={self.flag}, complete={self.complete})"
        )


def _first_clique_birth(k: Complex) -> int:
    """Smallest largest vertex of a (max_dim+1)-clique, or len(k.family).

    Each such clique extends its first max_dim+1 vertices, a stored top
    simplex, by a common neighbour above them.
    """
    first = len(k.family)
    adjacency = k.adjacency
    for s in k.simplices[k.max_dim]:
        common = adjacency[s[0]]
        for u in s[1:]:
            common &= adjacency[u]
        above = common >> (s[-1] + 1)
        if above:
            first = min(first, s[-1] + (above & -above).bit_length())
    return first


def _tree(layers: tuple[tuple[Simplex, ...], ...]) -> Tree:
    """Labels and candidate sets of lexicographic layers, by one merge
    walk per pair of layers."""
    labels = tuple(array("I", (s[-1] for s in layer)) for layer in layers)
    cands = []
    for layer, upper in zip(layers, layers[1:]):
        bits, i, n = [], 0, len(upper)
        for s in layer:
            children = 0
            while i < n and upper[i][:-1] == s:
                children |= 1 << upper[i][-1]
                i += 1
            bits.append(children)
        if i < n:
            raise ValueError(f"simplex {upper[i]} lacks its face {upper[i][:-1]}")
        cands.append(bits)
    return labels, tuple(cands)


def _distance_adjacency(f: SetFamily, scale: int) -> tuple[int, ...]:
    # a SetFamily's vertices share one ground set, so dist is the popcount
    # of the xor, with no per-pair ground-set check
    bits = [v.bits for v in f.vertices]
    n = len(bits)
    adj = [0] * n
    for i, a in enumerate(bits):
        for j in range(i + 1, n):
            if (a ^ bits[j]).bit_count() <= scale:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return tuple(adj)


def _adjacency_from_edges(n: int, vertices, cands) -> tuple[int, ...]:
    adj = [0] * n
    for a, above in zip(vertices, cands[0] if cands else ()):
        adj[a] |= above
        for b in _bits(above):
            adj[b] |= 1 << a
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

    Each layer is grown from the one below, kept as the labels and
    candidate bitsets (the higher-indexed common neighbours) of its
    simplices.  Peeling the lowest candidate bit u off a simplex gives the
    next coface, labelled u, whose candidates are the bits left above u
    that are also neighbours of u.  The children of a candidate set do not
    depend on the simplex, so each distinct set is expanded once per call
    and every simplex with it extends the next layer by that expansion.

    So the cofaces s + (u,) of a simplex s, u > max(s), form one
    contiguous child block of the next layer, in order of u (the simplex
    tree's children), and the labels and candidate sets of every layer
    below the top are the complex's tree.  The top layer's
    candidates are the common neighbours that would extend it: their
    lowest bit is the complex's complete_below.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be nonnegative")
    n = len(f.vertices)
    if n == 0:
        raise ValueError("empty family")
    if max_simplices is not None and n > max_simplices:
        raise BuildBudgetExceeded(0, n, max_simplices)
    adj = _distance_adjacency(f, r)

    labels = [array("I", range(n))]
    count = n
    # candidate set of a simplex: higher-indexed common neighbors
    cands = [adj[i] >> (i + 1) << (i + 1) for i in range(n)]
    tree_cands: list[list[int]] = []
    # candidate set -> the labels and candidate sets of its children
    children: dict[int, tuple[list[int], list[int]]] = {}
    complete = False
    for d in range(1, max_dim + 1):
        tree_cands.append(cands)
        layer, nxt_cands = [], []
        for cand in filter(None, cands):
            kids = children.get(cand)
            if kids is None:
                kids = children[cand] = _children(cand, adj)
            layer += kids[0]
            nxt_cands += kids[1]
        count += len(layer)
        if max_simplices is not None and count > max_simplices:
            raise BuildBudgetExceeded(d, count, max_simplices)
        if not layer:
            complete = True
            labels.extend(array("I") for _ in range(d, max_dim + 1))
            tree_cands.extend([] for _ in range(d, max_dim))
            break
        labels.append(array("I", layer))
        cands = nxt_cands
    # any higher simplex would extend a stored one by a higher-indexed
    # common neighbor: empty candidate sets certify completeness, and the
    # lowest candidate is the largest vertex of the first such clique
    birth = None
    if complete or not any(cands):
        complete = True
    else:
        above = reduce(or_, cands)
        birth = (above & -above).bit_length() - 1
    return Complex(
        f, r, max_dim, flag=True, complete=complete, adjacency=adj,
        tree=(tuple(labels), tuple(tree_cands)), complete_below=birth,
    )


def _children(cand: int, adj: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Labels and candidate sets of the children of a candidate set."""
    labels, cands = [], []
    while cand:
        low = cand & -cand
        cand ^= low
        u = low.bit_length() - 1
        labels.append(u)
        cands.append(cand & adj[u])
    return labels, cands


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
    inherited, with the induced graph (which max_dim 0 does not store).
    """
    vs = set(vertices)
    for v in vs:
        _require_vertex(k, v)
    layers = tuple(
        tuple(s for s in layer if all(u in vs for u in s)) for layer in k.simplices
    )
    mask = sum(1 << v for v in vs)
    adjacency = tuple(a & mask if v in vs else 0 for v, a in enumerate(k.adjacency))
    return Complex(
        k.family, k.scale, k.max_dim, layers, flag=k.flag, complete=k.complete,
        adjacency=adjacency,
    )


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
        k.family, k.scale, d, flag=False, complete=True,
        tree=(k.labels[: d + 1], k.cands[:d]),
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
