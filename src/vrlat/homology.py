"""Reduced simplicial homology by bottom-up coboundary reduction.

Both coefficient rings use one reducer.  It reduces the coboundaries
delta^0, delta^1, ... in order, over Z or over Z/2, and rank delta^d is
rank d_(d+1).  Columns are the d-simplices, walked first to last, and a
column's pivot is its largest row.  delta^d skips (clears) every column
whose simplex is a unit pivot row of delta^(d-1): that column is
equivalent to a cocycle with a unit pivot entry.  delta^0 needs no column
operations: its pivots are the edges that join two components of a
union-find forest, taken from the largest edge down.

The pivot rows do not depend on the walk: after column operations that
leave distinct largest-row pivots, the pivots in a row suffix count the
rank of those rows, and clearing drops only columns in the span of
lower-indexed ones.  Walked first to last, a column's top coface is
rarely a pivot of an earlier, lexicographically smaller simplex, so
nearly every column that has a pivot settles unreduced as an apparent
pair, as in Ripser, and the columns left to reduce are mostly the
essential cocycles, which reduce to zero.

Pivot rows and columns are indices into the layers of the complex's
clique tree (see Complex), and no simplex tuple is built.  A simplex's
cofaces s + (u,), u > max(s), are its child block, contiguous in the next
layer, and a column with a non-empty child block is always an apparent
pair with the block's last row, filed with nothing built.  Only a
childless column, and a rebuilt one, enumerate their cofaces, as Ripser
does, from the adjacency bitsets: a column is keyed by each coface's
reversed vertex mask, the sum of 2^(n-1-v) over its vertices v, so a
coface is one bit more than its face and the pivot is the smallest key.
A pivot key becomes its row index by one descent of the tree, memoized
per reduction, and a raw apparent column is rebuilt from its pivot's key
less the lowest bit, which drops the pivot's largest vertex.

betti_z2 runs the reduction mod 2 on every call, where every nonzero
entry is a unit.  Integer homology runs it over Z once per complex and
memoizes the ranks on the complex.  Over Z a column whose pivot entry is
not a multiple of the settled one meets it in an extended-gcd step (the
column Hermite step), so every column operation is unimodular and the
reduction never restarts.  When every pivot ends +-1, rank delta^d is
rank d_(d+1) exactly and the absence of torsion is certified.  Otherwise
the non-unit pivot columns, fully reduced on the unit pivot rows, are a
small residual whose Smith normal form (smith_diagonal) gives the other
invariant factors, and the next dimension clears from the unit pivot
rows only.  Torsion of the d-th reduced group is read off the invariant
factors of d_(d+1).

prefix_betti_z2 runs the same reducer mod 2 once as a persistence pass
over the vertex filtration (a simplex is born at its largest vertex) and
reads off the Z/2 Betti numbers of every vertex prefix of the complex.
The pass reduces the complex with its vertices relabelled v -> n-1-v.
When that relabelling maps a flag complex's graph onto itself, as
complementation does on power(m), the relabelled complex is the complex
itself, and the pass reduces it with no copy.
"""

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, count

from .complexes import Complex


class MatrixTooLarge(RuntimeError):
    """Raised when the residual left for sympy's exact SNF exceeds
    _RESIDUAL_LIMIT rows or columns."""

    def __init__(self, dim: int, n_rows: int, n_cols: int, limit: int):
        self.dim = dim
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.limit = limit
        super().__init__(
            f"non-unit residual of the dimension-{dim} boundary is "
            f"{n_rows} x {n_cols}; its exact Smith normal form is guarded to "
            f"{limit} rows/columns"
        )


class TruncatedComplex(ValueError):
    """Raised when a computation needs dimensions beyond what was built."""


@dataclass(frozen=True)
class BettiVector:
    """Reduced Betti numbers b0..b_complete_through.

    Entries above complete_through are unknowable from the built complex
    and are absent rather than zero.
    """

    coeff: str
    values: tuple[int, ...]
    complete_through: int

    def __post_init__(self):
        if self.coeff not in ("z2", "int"):
            raise ValueError(f"unknown coefficient tag {self.coeff!r}")
        if len(self.values) != self.complete_through + 1:
            raise ValueError("values must cover exactly dimensions 0..complete_through")


@dataclass(frozen=True)
class SNFDiagonal:
    """Nonzero Smith normal form diagonal of a boundary operator."""

    dim: int
    diag: tuple[int, ...]

    def __post_init__(self):
        for a, b in zip(self.diag, self.diag[1:]):
            if a == 0 or b % a != 0:
                raise ValueError("diagonal must form a divisibility chain")


def betti_z2(k: Complex, through: int) -> BettiVector:
    """Reduced Z/2 Betti numbers b0..b_through.

    b_d = f_d - rank d_d - rank d_{d+1}.  Dimensions whose upper boundary
    was not built are dropped from the result (complete_through marks the
    last reliable entry); a complete complex supports any through.
    """
    if through < 0:
        raise ValueError("through must be nonnegative")
    ct = through if k.complete else min(through, k.max_dim - 1)
    # rank d_(d+1) = rank delta^d, reduced mod 2 without the integer memo
    # on the complex, so the two coefficient routes stay independent
    ranks, pivots = [], set()
    for d in range(min(ct + 1, k.max_dim)):
        rank, _, pivots = _reduce_coboundary(k, d, pivots, modulus=2)
        ranks.append(rank)
    values = _reduced_betti(k.f_vector, ranks, ct)
    return BettiVector(coeff="z2", values=values, complete_through=ct)


def _reduced_betti(f_vector, ranks, through: int) -> tuple[int, ...]:
    """b_d = f_d - r_d - r_(d+1) for d = 0..through, where r_(d+1) =
    ranks[d] is rank d_(d+1) and r_0 = [f_0 > 0]; f-vector entries and
    ranks past the given ones are 0."""
    r = [1 if f_vector[0] else 0, *ranks]
    r += [0] * (through + 2 - len(r))
    f = list(f_vector) + [0] * (through + 1 - len(f_vector))
    return tuple(f[d] - r[d] - r[d + 1] for d in range(through + 1))


def prefix_betti_z2(k: Complex, through: int) -> tuple[BettiVector, ...]:
    """betti_z2 of every vertex prefix of k, from one persistence pass.

    Entry i is betti_z2(K_i, through), where K_i holds the simplices of k
    on vertices 0..i.  K_i is complete if k is, and also, for a flag
    complex, while no (max_dim+1)-clique of k's graph lies on 0..i, that
    is, for i < k.complete_below, which build_flag reads off the top
    layer's candidates, so no further layer is built.

    The vertex filtration gives a simplex birth i at its largest vertex
    i, so rank d_(d+1) on K_i is the rank of the rows of delta^d born by
    i.  With the vertices relabelled v -> n-1-v those rows are a
    lexicographic suffix, and after column operations (clearing included)
    that leave distinct largest-row pivots, the rank of a row suffix is
    the number of pivots in it.  So one run of the mod-2 coboundary
    reducer on the relabelled complex counts every prefix's ranks: the
    pivots are the persistence pairs' deaths.

    The relabelled complex is k itself when k is flag (its layers are all
    the cliques of its graph through max_dim) and the relabelling maps k's
    graph onto itself: it then maps the cliques onto themselves, simplex
    for simplex.  The pass never reads layer 0, so isolated vertices do
    not matter.  That holds for power(m) and for the middle layer
    F(2n, n), since complementation keeps distances and reverses the
    (size, lex) order.  Both conditions are checked at run time;
    otherwise a relabelled copy is made and reduced.
    """
    return tuple(bv for _, _, bv in _prefix_z2(k, through))


def _prefix_z2(
    k: Complex, through: int
) -> list[tuple[tuple[int, ...], int | None, BettiVector]]:
    """f-vector, Euler characteristic (None unless complete) and betti_z2
    of every vertex prefix K_i of k; see prefix_betti_z2, which says when
    k is its own relabelled copy and is reduced with no copy built."""
    if through < 0:
        raise ValueError("through must be nonnegative")
    n = len(k.family)
    top = min(through + 1, k.max_dim)
    adjacency = tuple(int(f"{a:0{n}b}"[::-1], 2) for a in reversed(k.adjacency))
    if k.flag and adjacency == k.adjacency:
        # k's layers are the cliques of its graph, which v -> n-1-v maps
        # onto itself: the relabelled copy is k
        flipped = k
    else:
        flipped = Complex(
            k.family,
            k.scale,
            top,
            tuple(
                tuple(tuple(n - 1 - v for v in reversed(s)) for s in layer)
                for layer in k.simplices[: top + 1]
            ),
            flag=k.flag,
            complete=False,
            adjacency=adjacency,
        )
    # births[d][i]: f_d of K_i; deaths[d][i]: rank d_d on K_i, from the
    # pivot rows of delta^(d-1).  A simplex is born at its label, and a
    # pivot row's first vertex is the layer-0 node whose subtree holds it:
    # subtree_ends[i] is where the subtree of that node ends in layer d + 1
    births = []
    for labels in k.labels:
        born = Counter(labels)
        births.append(list(accumulate(born[v] for v in range(n))))
    deaths = [[0] * n]
    pivots: set[int] = set()
    vertices = flipped.labels[0]
    subtree_ends = range(1, len(vertices) + 1)
    for d in range(top):
        _, _, pivots = _reduce_coboundary(flipped, d, pivots, modulus=2)
        ends = flipped.ends[d]
        subtree_ends = [ends[e - 1] if e else 0 for e in subtree_ends]
        rows = sorted(pivots)
        below = [bisect_left(rows, e) for e in subtree_ends]
        died = [0] * n
        for v, a, b in zip(vertices, [0, *below], below):
            died[n - 1 - v] = b - a
        deaths.append(list(accumulate(died)))
    out = []
    for i, f in enumerate(zip(*births)):
        complete = i < k.complete_below
        ct = through if complete else min(through, k.max_dim - 1)
        values = _reduced_betti(f, [deaths[d][i] for d in range(1, top + 1)], ct)
        bv = BettiVector(coeff="z2", values=values, complete_through=ct)
        out.append((f, _alternating_sum(f) if complete else None, bv))
    return out


def _snf_residual(cols: list[dict[int, int]]) -> list[int]:
    """Exact SNF diagonal of a matrix with no unit entries left."""
    if not cols:
        return []
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    rows = sorted({r for col in cols for r in col})
    snf = smith_normal_form(Matrix([[col.get(r, 0) for col in cols] for r in rows]))
    diag = (abs(int(snf[i, i])) for i in range(min(snf.rows, snf.cols)))
    return sorted(v for v in diag if v)


# The non-unit residual is densified for sympy, whose exact SNF time
# explodes past a few dozen rows or columns, so larger residuals are refused
# instead of hanging.  Measured with sympy 1.14 on a 2-core x86 host, dense
# matrices with entries drawn from {0, 0, 0, 2, -2, 4}, 8 seeds per size:
# 40 x 40 took at most 1.2 s and 45 x 45 at most 0.6 s; 48 x 48 took up to
# 11.7 s, 50 x 50 did not finish within 60 s for one seed of 3, and no
# 60 x 60 seed finished in 60 s.  A 200 x 40 residual did not finish within
# 30 s for one seed of 3, so rows are guarded as well as columns.
_RESIDUAL_LIMIT = 40


def smith_diagonal(columns, dim: int = 0) -> SNFDiagonal:
    """Invariant factors of an integer matrix given as sparse columns.

    Accepts any iterable of {row: value} columns; zero entries are
    dropped.  Each +-1 entry is a pivot in turn: column operations clear
    the rest of its row, so a row operation would clear the rest of its
    column without touching any other, and the pivot contributes an
    invariant factor 1.  What is left once no entry is +-1 goes through
    sympy's exact Smith normal form.  The integer coboundary reduction
    hands it only its non-unit residual; called on a whole boundary, it is
    an independent route to the same invariant factors.
    """
    cols = [c for c in ({r: v for r, v in col.items() if v} for col in columns) if c]
    units = 0
    while True:
        pivot = next(
            ((j, r) for j, col in enumerate(cols) for r, v in col.items() if v in (1, -1)),
            None,
        )
        if pivot is None:
            break
        j, r = pivot
        pivot_col = cols.pop(j)
        for target in cols:
            factor = target.get(r, 0) * pivot_col[r]
            if factor:
                _subtract(target, factor, pivot_col)
        cols = [col for col in cols if col]
        units += 1
    residual_rows = len({r for col in cols for r in col})
    if max(residual_rows, len(cols)) > _RESIDUAL_LIMIT:
        raise MatrixTooLarge(dim, residual_rows, len(cols), _RESIDUAL_LIMIT)
    diag = [1] * units + _snf_residual(cols)
    return SNFDiagonal(dim, tuple(diag))


def _subtract(col: dict, factor: int, other: dict, modulus: int = 0) -> None:
    """col -= factor * other in place, each updated entry reduced mod
    modulus unless it is 0; zero entries are dropped."""
    for r, v in other.items():
        new = col.get(r, 0) - factor * v
        if modulus:
            new %= modulus
        if new:
            col[r] = new
        else:
            del col[r]


def _key(k: Complex, d: int, j: int) -> int:
    """Reversed vertex mask of the j-th d-simplex (see _keyed_column): its
    vertices are the labels of its ancestors, one bisection of the
    child-block ends per level."""
    labels, ends, n = k.labels, k.ends, len(k.adjacency)
    key = 1 << (n - 1 - labels[d][j])
    for level in range(d - 1, -1, -1):
        j = bisect_right(ends[level], j)
        key |= 1 << (n - 1 - labels[level][j])
    return key


def _keyed_column(k: Complex, key: int) -> dict[int, int]:
    """The raw coboundary column of the simplex s whose reversed vertex
    mask is key: coface key -> sign, smallest key (largest row) first.

    key(t) = sum of 2^(n-1-v) over t's vertices v, n = len(k.adjacency).
    Of two simplices of one size, the one holding min(A ^ B) has the
    higher bit there, so the larger key is the lexicographically smaller
    simplex, and a column's pivot is its smallest key.  Each common
    neighbour v of s's vertices gives the coface key | 2^(n-1-v), with
    sign (-1)^p for the p vertices of s below v, the bits of key above
    v's.  In a flag complex built through s's cofaces every such clique
    is stored; otherwise a coface counts only if the tree holds it
    (Complex.row), so stars, links and skeletons stay exact.
    """
    adjacency, n, flag = k.adjacency, len(k.adjacency), k.flag
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
        if flag or k.row(t) >= 0:
            col[t] = -1 if (key >> (n - v)).bit_count() & 1 else 1
    return col


def _column(k: Complex, d: int, j: int) -> dict[int, int]:
    """The raw coboundary column of the j-th d-simplex: row index -> sign
    of each stored coface, largest row first, its keyed column with each
    key descended to its row."""
    return {k.row(t): v for t, v in _keyed_column(k, _key(k, d, j)).items()}


def _spanning_forest(k: Complex) -> tuple[int, tuple[int, ...], set[int]]:
    """Rank, torsion and pivot rows of delta^0, by union-find on the edges.

    The pivot rows of a reduced delta^0 are the rows where the rank of the
    row suffix goes up, and the rank of a set of edge rows is the number
    of vertices less the number of components they leave, over Z and mod 2
    alike.  So walking the edges from the largest down, the pivots are
    exactly the edges that join two components.  An incidence matrix is
    totally unimodular, so there is never torsion.
    """
    vertices, labels, ends = k.labels[0], k.labels[1], k.ends[0]
    parent = list(range(len(k.family)))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    pivots = set()
    for i in range(len(vertices) - 1, -1, -1):
        a = root(vertices[i])
        for r in range(ends[i] - 1, ends[i - 1] - 1 if i else -1, -1):
            b = root(labels[r])
            if a != b:
                # the vertex's tree now hangs below b
                parent[a] = b
                a = b
                pivots.add(r)
    return len(pivots), (), pivots


def _gcd_step(
    settled: dict[int, int], col: dict[int, int], low: int
) -> tuple[dict[int, int], dict[int, int]]:
    """The column Hermite step on two columns whose largest row is low.

    With a = settled[low], b = col[low] and g = gcd(a, b) = x*a + y*b, the
    pair becomes (x*settled + y*col, (b/g)*settled - (a/g)*col).  The first
    keeps low with entry g (of either sign), the second loses it, and the
    2x2 operation has determinant -1, so it is unimodular.  x or y may be 0,
    and entries may cancel, so zero entries are dropped.
    """
    a, b = settled[low], col[low]
    x, y, g, x1, y1, h = 1, 0, a, 0, 1, b
    while h:
        q = g // h
        x, y, g, x1, y1, h = x1, y1, h, x - q * x1, y - q * y1, g - q * h
    p, q = b // g, a // g
    kept: dict[int, int] = {}
    rest: dict[int, int] = {}
    for r in settled.keys() | col.keys():
        u, v = settled.get(r, 0), col.get(r, 0)
        if first := x * u + y * v:
            kept[r] = first
        if second := p * u - q * v:
            rest[r] = second
    return kept, rest


def _reduce_coboundary(
    k: Complex, dim: int, cleared: set[int], modulus: int = 0
) -> tuple[int, tuple[int, ...], set[int]]:
    """Rank, torsion and unit pivot rows of delta^dim, skipping cleared
    columns.

    Entries are integers for modulus 0 and residues mod 2 for modulus 2.
    Rows and columns index the complex's own lexicographic layers dim + 1
    and dim.  Columns are reduced from the first to the last.  delta^0 goes
    to _spanning_forest, which finds the same pivots with no column
    operations.

    A column s with a non-empty child block, if not cleared, is an
    apparent pair with the block's last row t = s + (u,), and settles
    with no lookup.  t is s's largest coface, since every other coface
    inserts a vertex below max(s) and lies before the block.  And s is
    the lexicographically smallest face of t: dropping t[i], i <= dim,
    puts t[i+1] > t[i] at position i.  So every column walked before s,
    raw or reduced (a combination of earlier columns), is zero in row t,
    and t is not yet a pivot.  Such a column is kept as its index alone.
    When a later column meets its pivot t, it is rebuilt by _keyed_column
    from key(s) = key(t) less its lowest bit, which is t's largest
    vertex u.  On this walk nearly every column addition is against such
    a raw column, so a rebuilt one is kept for the later additions on its
    row.  A childless column is built once, its key read off one
    bisection of the ends per level (_key), and settles unreduced if its
    top coface is not yet a pivot.

    Built columns are keyed by coface key (see _keyed_column), so a
    column's low row is its smallest key, and each low key becomes its
    row index by one descent (Complex.row), memoized for the call; the
    pivot rows stay row indices.

    A column whose low entry is a multiple of the settled pivot's is
    reduced by subtraction; otherwise (over Z only) _gcd_step replaces the
    pair, leaving the gcd as the settled pivot.  Every operation is
    unimodular.  If some pivots are still not +-1 at the end, their
    columns are fully reduced on the unit pivot rows (a raw unit column
    is rebuilt once and kept for the rest), and the invariant
    factors are 1 per unit pivot plus smith_diagonal of that residual,
    whose few columns are turned into row indices first.
    Only unit pivot rows are returned for the next dimension to clear:
    clearing a non-unit row is valid over Q but not over Z.  Mod 2 every
    nonzero entry is a unit, so the torsion is always empty.
    """
    if dim >= k.max_dim or not k.f_vector[dim + 1]:
        return 0, (), set()
    if dim == 0:
        return _spanning_forest(k)
    ends = k.ends[dim]
    # pivot row -> the column index if the column is raw, else the column
    reduced: dict[int, int | dict[int, int]] = {}
    nonunit: set[int] = set()  # pivot rows whose entry is not +-1
    rows: dict[int, int] = {}  # coface key -> row index

    def row(t: int) -> int:
        r = rows.get(t)
        if r is None:
            r = rows[t] = k.row(t)
        return r

    for j, start, end in zip(count(), chain((0,), ends), ends):
        if j in cleared:
            continue
        if start < end:
            reduced[end - 1] = j
            continue
        col = _keyed_column(k, _key(k, dim, j))
        while col:
            low = min(col)
            r = row(low)
            settled = reduced.get(r)
            if settled is None:
                reduced[r] = col
                if col[low] not in (1, -1):
                    nonunit.add(r)
                break
            if isinstance(settled, int):
                # rebuilt once, from the pivot without its largest vertex
                # (low's lowest bit): later additions on this row reuse it
                settled = reduced[r] = _keyed_column(k, low & (low - 1))
                if next(iter(settled)) != low:
                    # a wrong apparent pair would make this loop run forever
                    raise RuntimeError(f"raw column filed under row {r}")
            a, b = settled[low], col[low]
            if b % a:
                reduced[r], col = _gcd_step(settled, col, low)
                if reduced[r][low] in (1, -1):
                    nonunit.discard(r)
                continue
            _subtract(col, b // a, settled, modulus)
    units = reduced.keys() - nonunit
    if not nonunit:
        return len(reduced), (), units
    residual = []
    for pivot in sorted(nonunit):
        col = reduced[pivot]
        # largest unit row first: a unit column has no row above its pivot,
        # so the rows cleared before stay clear
        while q := min((t for t in col if row(t) in units), default=0):
            unit = reduced[row(q)]
            if isinstance(unit, int):
                # rebuilt once: later residual columns reuse it
                unit = reduced[row(q)] = _keyed_column(k, q & (q - 1))
            _subtract(col, col[q] * unit[q], unit)
        residual.append({row(t): v for t, v in col.items()})
    snf = smith_diagonal(residual, dim + 1)
    return len(reduced), tuple(v for v in snf.diag if v > 1), units


def homology_integer(k: Complex, dim: int) -> tuple[int, tuple[int, ...]]:
    """Free rank and torsion coefficients of the dim-th reduced group.

    Needs the ranks of the dim and dim+1 boundaries and the invariant
    factors of the dim+1 boundary, so the complex must be built through
    dim+1 (or be complete).  They come from the coboundary reduction
    memoized on the complex: delta^0..delta^dim are reduced once each, in
    order, the first time any call needs them, so later calls for any
    dimension reuse the work.  Torsion is empty by certificate when every
    pivot of delta^dim is +-1; otherwise it is read off the Smith normal
    form of the reduction's small non-unit residual, which raises
    MatrixTooLarge past _RESIDUAL_LIMIT rows or columns.
    """
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    if dim > k.max_dim:
        if k.complete:
            return (0, ())
        raise TruncatedComplex(f"dimension {dim} not built (max_dim={k.max_dim})")
    if dim == k.max_dim and not k.complete:
        raise TruncatedComplex(
            f"dimension {dim+1} boundary unavailable (max_dim={k.max_dim}, truncated)"
        )
    f = k.f_vector
    # (rank, torsion) of delta^0, delta^1, ... and the last one's unit pivot rows
    done, pivots = k._coboundary
    for d in range(len(done), dim + 1):
        rank, torsion, pivots = _reduce_coboundary(k, d, pivots)
        done.append((rank, torsion))
        k._coboundary = (done, pivots)
    betti = _reduced_betti(f, [rank for rank, _ in done[: dim + 1]], dim)
    return (betti[dim], done[dim][1])


def euler_characteristic(k: Complex) -> int:
    """Alternating sum of the f-vector; demands a complete complex."""
    if not k.complete:
        raise TruncatedComplex("Euler characteristic requires a complete complex")
    return _alternating_sum(k.f_vector)


def _alternating_sum(f_vector: tuple[int, ...]) -> int:
    return sum((-1) ** d * n for d, n in enumerate(f_vector))
