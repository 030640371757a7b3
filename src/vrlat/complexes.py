"""Flag complexes of set families at a distance scale.

A complex stores its simplices as a clique tree (a simplex tree, after
Boissonnat and Maria): each simplex is its parent, the simplex without its
largest vertex, plus that vertex, its label.  The tree keeps only the
candidate sets, the bitsets of each simplex's children's labels, so a
layer's labels are the bits of the candidate sets below it, in order.
One clique expansion (_expand) builds every tree: each simplex is extended
only by higher-indexed common neighbours, which walks the tree and yields
every layer in lexicographic order with no duplicates.  build_flag expands
the whole scale graph; a full subcomplex, link or mirrored copy of a flag
complex expands its own graph, and the rest keep only the cliques a
membership test admits.  Every tree carries the graph it expanded, so a
Complex is made from what one expansion returns.  No module outside this
one reads the tree's layout: the reducer takes its rows, columns and
subtrees from Complex's methods.

Every tree carries its counts (Complex.parents), and a complex is
complete, with no simplex beyond its stored dimensions, exactly when its
top count is 0: that entitles Euler-characteristic and top-dimension
homology claims.  `flag` records that a complex is the full clique
complex of its 1-skeleton, so graph-level certificates (cone detection,
the star-cluster hypothesis check) are valid; stars, star clusters,
skeletons and the links of non-flag complexes drop it.
"""

from array import array
from bisect import bisect_right
from functools import reduce
from itertools import accumulate, combinations
from operator import not_, or_
from re import Match, finditer

from .setfam import SetFamily, Subset, gen_uniform

# A simplex is a strictly increasing tuple of vertex indices.
Simplex = tuple[int, ...]
# A clique tree: the vertex bitset, the layer sizes, the candidate sets of
# each layer below the top, the graph it expands, complete_below and the
# parent counts, W_0..W_(max_dim-1) and the top count (see Complex).
Tree = tuple[
    int, tuple[int, ...], tuple[list[int], ...], tuple[int, ...], int, tuple[int | None, ...]
]


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

    The simplices are a clique tree from _expand, every layer in
    lexicographic order.  The children of the j-th d-simplex s, its
    cofaces s + (u,), u > max(s), form one contiguous block of layer d+1,
    and cands[d][j] is the bitset of their labels: the labels of layer d+1
    are the bits of cands[d], in order, and those of layer 0 the bits of
    vertex_mask, the root's candidate set.  block_ends(d)[j] is the end of
    that block, the number of (d+1)-simplices t with t[:-1] <= s, made on
    first read, as are the labels of a candidate set.  No simplex tuple
    and no layer of labels is stored.  max_dim is the top layer's
    dimension, len(f_vector) - 1, and adjacency is the graph the tree was
    expanded on: on the vertices of a flag complex built through dim 1 it
    is exactly the stored edges, and otherwise it contains them.

    A simplex s is also its key, its reversed vertex mask: the sum of
    2^(n-1-v) over its vertices v, n = len(adjacency), so a coface is one
    bit more than its face, and of two simplices of one size the
    lexicographically smaller has the larger key.  row and key are the
    tree's two maps, inverse to each other: row(key) descends from the
    root to the index of a simplex in its layer, and key(d, j) climbs from
    the j-th d-simplex by one split (its parent and label) per level.

    complete_below says how many vertex prefixes are complete: the
    simplices of k on vertices 0..i are all the simplices of their own
    complex for i < complete_below.  That is len(family) for a complete
    complex and 0 for an incomplete non-flag one.  For an incomplete flag
    complex it is the largest vertex of the first (max_dim+1)-clique of
    the graph, which the expansion reads off its top layer.

    parents[d] is W_d, the number of d-simplices with a child (a nonempty
    child block), for d < max_dim, and parents[max_dim] the top count, of
    top simplices with a child in the full flag complex (a common
    neighbour above their largest vertex), or None if unknown; complete
    says it is 0.  The coboundary reducer reads them to settle a rank.
    """

    def __init__(self, family: SetFamily, scale: int, tree: Tree, *, flag: bool):
        self.family = family
        self.scale = scale
        self.flag = flag
        (self.vertex_mask, self.f_vector, self.cands, self.adjacency,
         self.complete_below, self.parents) = tree
        self.max_dim = len(self.f_vector) - 1
        self.complete = self.parents[-1] == 0
        self._ends: list[array | None] = [None] * len(self.cands)  # see block_ends
        self._labels: dict[int, list[int]] = {}  # candidate set -> its bits

    def block_ends(self, d: int) -> array:
        """The ends of layer d's child blocks, the running popcount of its
        candidate sets, made on first read."""
        ends = self._ends[d]
        if ends is None:
            ends = self._ends[d] = array("I", accumulate(map(int.bit_count, self.cands[d])))
        return ends

    def row(self, key: int) -> int:
        """Index in its layer of the nonempty simplex whose key is key, or
        -1 if it is not stored, by one descent from the root: the
        vertices are the bits from the top down, a node's child u is
        stored if u is a candidate bit, and its index is the end of the
        node's block less the candidates from u up.  A key of more than
        max_dim + 1 bits is not stored."""
        if key.bit_count() > self.max_dim + 1:
            return -1
        n, ends = len(self.adjacency), self._ends
        bits, j, d = self.vertex_mask, self.f_vector[0], 0
        while True:
            top = key.bit_length()
            above = bits >> (n - top)
            if not above & 1:
                return -1
            j -= above.bit_count()
            key ^= 1 << (top - 1)
            if not key:
                return j
            # a node's layer is not empty, so neither are its ends once made
            bits, j = self.cands[d][j], (ends[d] or self.block_ends(d))[j]
            d += 1

    def key(self, d: int, j: int) -> int:
        """The key of the j-th d-simplex, the inverse of row: one split per
        level up to a vertex, a bit of the root's candidate set."""
        n, key = len(self.adjacency), 0
        for level in range(d, 0, -1):
            j, u = self.split(level, j)
            key |= 1 << (n - 1 - u)
        return key | 1 << (n - 1 - self._label(self.vertex_mask, j))

    def split(self, d: int, j: int) -> tuple[int, int]:
        """The j-th d-simplex, d >= 1, as p + (u,): the index of its parent
        p in layer d-1, one bisection of that layer's block ends, and its
        label u, a bit of p's candidate set."""
        ends = self._ends[d - 1] or self.block_ends(d - 1)
        p = bisect_right(ends, j)
        return p, self._label(self.cands[d - 1][p], j - (ends[p - 1] if p else 0))

    def coboundary(self, key: int) -> dict[int, int]:
        """The coboundary column of the simplex s whose key is key: coface
        key -> sign, smallest key (largest row) first.

        Of two simplices of one size, the one holding min(A ^ B) has the
        higher bit there, so the larger key is the lexicographically
        smaller simplex, and a column's pivot is its smallest key.  Each
        common neighbour v of s's vertices gives the coface
        key | 2^(n-1-v), with sign (-1)^p for the p vertices of s below v,
        the bits of key above v's.  In a flag complex built through s's
        cofaces every such clique is stored; otherwise a coface counts only
        if the tree holds it (row), so stars, skeletons and other non-flag
        complexes stay exact.
        """
        adjacency, n, flag = self.adjacency, len(self.adjacency), self.flag
        common, rest = -1, key
        while rest:
            top = rest.bit_length()
            rest ^= 1 << (top - 1)
            common &= adjacency[n - top]
        col = {}
        while common:
            v = common.bit_length() - 1
            common ^= 1 << v
            t = key | 1 << (n - 1 - v)
            if flag or self.row(t) >= 0:
                col[t] = -1 if (key >> (n - v)).bit_count() & 1 else 1
        return col

    def apparent_rows(self, d: int) -> bytearray:
        """The last row of each nonempty child block of layer d, a byte per
        row of layer d+1: the apparent rows of delta^d.  Byte e of a buffer
        one byte longer stands for row e - 1, the last row of a block that
        ends at e.  An empty block ends where the one before it does and
        marks that row again; leading empty blocks end at 0 and mark byte
        0, which is dropped."""
        rows = bytearray(self.f_vector[d + 1] + 1)
        for e in self.block_ends(d):
            rows[e] = 1
        del rows[0]
        return rows

    def childless(self, d: int, cleared: bytearray):
        """(j, r) for each childless d-simplex j, d < max_dim, whose byte in
        cleared is 0, first to last: r is the row of its top coface where
        the tree gives it, else -1.  A byte mask of the layer's empty
        candidate sets, ANDed with cleared as integers, picks them out with
        no Python step per simplex.

        In a flag complex every coface of a childless s = p + (u,) (split)
        inserts a vertex w < u, so if a candidate w of p is a neighbour of
        u, the largest gives the top coface p + (w, u), the child u of the
        sibling p + (w,): its row is the sibling's block start plus the
        sibling's candidates below u.
        """
        cands = self.cands[d]
        if sibling := self.flag and d:
            starts, ends = self.block_ends(d - 1), self.block_ends(d)
            above = self.cands[d - 1]
        free = int.from_bytes(bytes(map(not_, cands)), "little")
        free &= ~int.from_bytes(cleared, "little")
        for j in map(Match.start, finditer(b"\1", free.to_bytes(self.f_vector[d], "little"))):
            r = -1
            if sibling:
                # s = p + (u,), u a bit of p's candidates c; w + 1 = top
                p, u = self.split(d, j)
                c = above[p]
                if top := (c & self.adjacency[u] & ((1 << u) - 1)).bit_length():
                    sib = (starts[p - 1] if p else 0) + (c & ((1 << (top - 1)) - 1)).bit_count()
                    r = (ends[sib - 1] if sib else 0) + (cands[sib] & ((1 << u) - 1)).bit_count()
            yield j, r

    def subtrees(self):
        """Per layer 1..max_dim, bottom up, (v, start, end) for each vertex
        v: rows start..end-1 are the simplices whose smallest vertex is v.
        Its span in layer d+1 ends where its last d-simplex's block does."""
        verts = list(_bits(self.vertex_mask))
        ends = range(1, len(verts) + 1)
        for d in range(self.max_dim):
            block = self.block_ends(d)
            ends = [block[e - 1] if e else 0 for e in ends]
            yield zip(verts, [0, *ends], ends)

    def _label(self, cand: int, i: int) -> int:
        """Bit i of a candidate set, its bits memoized as they are read."""
        labels = self._labels.get(cand) or self._labels.setdefault(cand, list(_bits(cand)))
        return labels[i]

    def __repr__(self) -> str:
        return (
            f"Complex(scale={self.scale}, max_dim={self.max_dim}, "
            f"f_vector={self.f_vector}, flag={self.flag}, complete={self.complete})"
        )


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


def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def build_flag(
    f: SetFamily, r: int, max_dim: int, max_simplices: int | None = None
) -> Complex:
    """Vietoris-Rips complex of the family at scale r, through max_dim.

    Simplices are exactly the vertex sets of pairwise distance <= r, the
    expansion of the scale graph with no membership test, whose top count
    certifies completeness.  Raises BuildBudgetExceeded (naming the dimension
    reached) if more than max_simplices would be stored.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be nonnegative")
    n = len(f.vertices)
    if n == 0:
        raise ValueError("empty family")
    tree = _expand(_distance_adjacency(f, r), (1 << n) - 1, max_dim, None, max_simplices)
    return Complex(f, r, tree, flag=True)


def _expand(
    adj: tuple[int, ...],
    vertices: int,
    max_dim: int,
    member=None,
    max_simplices: int | None = None,
) -> Tree:
    """Clique tree through max_dim of the graph adj on the vertex bitset,
    with adj itself, the top layer's complete_below and the parent counts.

    Each layer is grown from the candidate sets (the higher-indexed common
    neighbours) of the one below, and only they and its size are kept.
    Peeling the lowest candidate bit u off a simplex gives the next coface,
    labelled u, whose candidates are the bits left above u that are also
    neighbours of u: the cofaces s + (u,), u > max(s), form one child block
    of the next layer, in order of u.  With no membership test the
    children of a candidate set do not depend on the simplex, so each
    distinct set is expanded once per call, and no label is made: a
    candidate set stands for its children.  With one, a simplex is kept
    only if member(key) holds for its reversed vertex mask (the key
    Complex.row reads), which needs the labels, read off the candidate set
    with _bits; a parent's candidate set becomes the bitset of its kept
    children, and the kept simplices must be closed under faces.

    W_d counts layer d's nonempty candidate sets.  The top layer's would
    extend it: their lowest bit is the largest vertex of the first clique
    of adj above max_dim (len(adj) if none), and the top simplices with
    one are the top count, 0 exactly when no clique of adj lies above the
    top.  Raises BuildBudgetExceeded if more than max_simplices are kept.
    """
    n = len(adj)
    verts = [v for v in _bits(vertices) if member is None or member(1 << (n - 1 - v))]
    count = len(verts)
    if max_simplices is not None and count > max_simplices:
        raise BuildBudgetExceeded(0, count, max_simplices)
    sizes = [count]
    # candidate set of a simplex: higher-indexed common neighbours
    cands = [adj[v] & (vertices >> (v + 1) << (v + 1)) for v in verts]
    keys = [1 << (n - 1 - v) for v in verts] if member else []
    tree_cands: list[list[int]] = []
    # candidate set -> the candidate sets of its children
    children: dict[int, list[int]] = {}
    for d in range(1, max_dim + 1):
        nxt_cands = []
        if member is None:
            tree_cands.append(cands)
            for cand in filter(None, cands):
                kids = children.get(cand)
                if kids is None:
                    kids = children[cand] = _children(cand, adj)
                nxt_cands += kids
        else:
            kept, nxt_keys = [], []
            for key, cand in zip(keys, cands):
                bits = 0
                for u, c in zip(_bits(cand), _children(cand, adj)):
                    t = key | 1 << (n - 1 - u)
                    if member(t):
                        bits |= 1 << u
                        nxt_cands.append(c)
                        nxt_keys.append(t)
                kept.append(bits)
            tree_cands.append(kept)
            keys = nxt_keys
        count += len(nxt_cands)
        if max_simplices is not None and count > max_simplices:
            raise BuildBudgetExceeded(d, count, max_simplices)
        sizes.append(len(nxt_cands))
        cands = nxt_cands
        if not cands:
            sizes += [0] * (max_dim - d)
            tree_cands.extend([] for _ in range(d, max_dim))
            break
    above = reduce(or_, cands, 0)
    below = (above & -above).bit_length() - 1 if above else n
    parents = tuple(len(c) - c.count(0) for c in (*tree_cands, cands))
    return sum(1 << v for v in verts), tuple(sizes), tuple(tree_cands), adj, below, parents


def _children(cand: int, adj: tuple[int, ...]) -> list[int]:
    """Candidate sets of the children of a candidate set, in label order.

    The labels are the bits of cand; only a caller with a membership test
    needs them, and it reads them with _bits.
    """
    cands = []
    while cand:
        low = cand & -cand
        cand ^= low
        cands.append(cand & adj[low.bit_length() - 1])
    return cands


def maximal_simplices_bk(f: SetFamily, r: int) -> list[Simplex]:
    """Facets of the scale-r complex by pivoted Bron-Kerbosch enumeration.

    One call from the empty clique reports each maximal clique once: a
    vertex that has been branched on moves to the excluded set, and a
    clique with an excluded common neighbour is not maximal.  Pivot ties
    are broken by index, and the facets are returned sorted.
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

    expand(0, (1 << n) - 1, 0)
    return sorted(tuple(_bits(c)) for c in facets)


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


def _vertex_mask(k: Complex, vertices) -> int:
    """Bitset of the given vertices, each of which k must store."""
    mask = 0
    for v in vertices:
        if not 0 <= v < len(k.family) or not k.vertex_mask >> v & 1:
            raise ValueError(f"unknown vertex {v}")
        mask |= 1 << v
    return mask


def _derived(k: Complex, vertices: int, depth: int, member) -> Complex:
    """The expansion through depth of k's graph induced on the vertex
    bitset, within k's vertices, that keeps the cliques member admits.
    The complex carries that graph, which may hold edges it does not store."""
    mask = vertices & k.vertex_mask
    adjacency = tuple(a & mask if mask >> v & 1 else 0 for v, a in enumerate(k.adjacency))
    return _expanded(k, adjacency, mask, depth, member)


def _expanded(
    k: Complex, adjacency: tuple[int, ...], vertices: int, depth: int, member
) -> Complex:
    """The expansion of a graph on a vertex bitset through depth that
    keeps the cliques member admits, a complex on k's family.  With no
    test it is the graph's flag complex, whose top count is exact; a
    test keeps only some cliques, so the result is complete if k is, and
    otherwise has an unknown top count and no complete prefix."""
    *tree, below, parents = _expand(adjacency, vertices, depth, member)
    if member is not None:
        below, top = (len(k.family), 0) if k.complete else (0, None)
        parents = (*parents[:-1], top)
    return Complex(k.family, k.scale, (*tree, below, parents), flag=member is None)


def star(k: Complex, v: int) -> Complex:
    """Subcomplex of simplices whose union with v is a stored simplex of k.

    Always a cone with apex v.
    """
    return star_cluster(k, (v,))


def link(k: Complex, v: int) -> Complex:
    """Simplices of the star of v that avoid v, through k.max_dim - 1, as
    a link simplex s needs s + (v,) stored (through 0 if k stops there).
    In a flag complex built through dim 1 or more it is the flag complex
    of v's neighbours, flag too, expanded with no membership test."""
    _vertex_mask(k, (v,))
    vkey = 1 << (len(k.adjacency) - 1 - v)
    member = None if k.flag and k.max_dim else (lambda key: k.row(key | vkey) >= 0)
    return _derived(k, k.adjacency[v], max(k.max_dim - 1, 0), member)


def star_cluster(k: Complex, l_vertices) -> Complex:
    """Union of the stars of the given vertices.

    A simplex is kept if its union with one of them is stored in k, so it
    lies on their closed neighbourhoods, which the expansion walks.
    """
    mask = _vertex_mask(k, l_vertices)
    around = reduce(or_, (k.adjacency[v] for v in _bits(mask)), mask)
    vkeys = [1 << (len(k.adjacency) - 1 - v) for v in _bits(mask)]
    return _derived(k, around, k.max_dim, lambda key: any(k.row(key | b) >= 0 for b in vkeys))


def full_subcomplex(k: Complex, vertices) -> Complex:
    """All stored simplices supported on the given vertex set.

    The full subcomplex of a flag complex is again flag, the flag complex
    of the induced graph, so the marker is inherited and the expansion of
    that graph needs no membership test: it is complete when no clique
    of that graph lies above the top, even if k is not.
    """
    member = None if k.flag else (lambda key: k.row(key) >= 0)
    return _derived(k, _vertex_mask(k, vertices), k.max_dim, member)


def skeleton(k: Complex, d: int) -> Complex:
    """The d-skeleton, taken as a complex in its own right.

    Truncation is deliberate here, so the result is complete (it contains
    all of its own simplices) but no longer represents a flag complex.
    """
    if not 0 <= d <= k.max_dim:
        raise ValueError(
            f"dimension {d} not built (max_dim={k.max_dim}); rebuild required"
        )
    tree = (k.vertex_mask, k.f_vector[: d + 1], k.cands[:d], k.adjacency, len(k.family))
    return Complex(k.family, k.scale, (*tree, (*k.parents[:d], 0)), flag=False)


def mirrored(k: Complex) -> Complex:
    """k with its vertices relabelled v -> n-1-v, n = len(k.family).

    A flag complex whose graph and vertex set the relabelling maps onto
    themselves is mapped onto itself, simplex for simplex, and is returned
    as it is.  Otherwise the copy is the expansion of the relabelled graph
    on the relabelled vertices, which keeps only the images of k's
    simplices unless k is flag.  A clique too large for the top layer
    exists in every vertex order, so a flag copy is complete when k is.
    """
    n = len(k.family)

    def mirror(bits: int) -> int:  # v -> n-1-v on a vertex bitset
        return int(f"{bits:0{n}b}"[::-1], 2)

    adjacency, vertices = tuple(map(mirror, reversed(k.adjacency))), mirror(k.vertex_mask)
    if k.flag and adjacency == k.adjacency and vertices == k.vertex_mask:
        return k
    # the copy's simplex of key t is the image of k's of key mirror(t)
    member = None if k.flag else (lambda key: k.row(mirror(key)) >= 0)
    return _expanded(k, adjacency, vertices, k.max_dim, member)


def is_cone(k: Complex) -> int | None:
    """A vertex adjacent to every other vertex, if one exists.

    For flag complexes such an apex certifies that the underlying complex
    is a cone, hence contractible; on non-flag complexes the certificate
    is meaningless and the call is refused.
    """
    if not k.flag:
        raise ValueError("cone detection requires a flag complex")
    vmask = k.vertex_mask
    for v in _bits(vmask):
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
    lmask = _vertex_mask(k, l_vertices)
    verts = list(_bits(lmask))
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
