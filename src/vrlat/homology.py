"""Reduced simplicial homology by bottom-up coboundary reduction.

Both coefficient rings use one reducer.  It reduces the coboundaries
delta^0, delta^1, ... in order, over Z or over Z/2, and rank delta^d is
rank d_(d+1).  Columns are the d-simplices, walked first to last, and a
column's pivot is its largest row.  delta^d skips (clears) every column
whose simplex is a unit pivot row of delta^(d-1): that column is
equivalent to a cocycle with a unit pivot entry.  delta^0 clears the last
vertex, the one pivot row, with entry 1, of the augmentation 1 -> sum of
the vertices, whose rank is r_0 = [f_0 > 0].

The pivot rows do not depend on the walk: after column operations that
leave distinct largest-row pivots, the pivots in a row suffix count the
rank of those rows, and clearing drops only columns in the span of
lower-indexed ones.  Walked first to last, a column's top coface is
rarely a pivot of an earlier, lexicographically smaller simplex, so
nearly every column that has a pivot settles unreduced as an apparent
pair, as in Ripser.  The columns left are the childless ones.  Where
the counts below prove that they all reduce to zero, the dimension is
settled with no walk at all; otherwise only its uncleared childless
columns are visited, and they are reduced.

The counts certify the rank.  Let W_d be the number of d-simplices with
a child (a coface s + (u,), u > max(s)) and Z_(d+1) the number of
childless (d+1)-simplices.  A column with a child block is an apparent
pair with a +-1 entry in its block's last row, a childless row, and no
two share that row, so rank delta^d >= W_d, over Z and mod 2 alike.  And
im delta^d lies in ker delta^(d+1), of dimension at most f_(d+1) -
W_(d+1) = Z_(d+1), so rank delta^d <= Z_(d+1).  Complex.parents holds
each W_d, the top one counted in the full flag complex, or unknown.
When the free rows, the Z_(d+1) - W_d childless rows that are no
apparent pair's pivot, number 0, rank delta^d = W_d, and every other
column lies in the span of the apparent columns.  Their pivots are +-1
on distinct rows, so it reduces to zero over Z as well, with no torsion.
This is Ripser's apparent-pair argument (Bauer, arXiv:1908.02518) read
as a discrete Morse count (Forman, "Morse theory for cell complexes",
1998).

Rows and columns are indices into the layers of the complex's clique
tree, and a built column is keyed by its cofaces' keys; only Complex
reads the tree, and its methods give rows, keys, columns and subtrees.  A
dimension's pivot rows are a bytearray, 1 byte per row, which the next
dimension reads as its cleared columns.

One driver (_coboundaries) reduces delta^0, delta^1, ... in order and
hands each dimension's pivot rows to the next; betti_z2, the prefix pass
and homology_integer all read it.  betti_z2 runs it mod 2 on every call,
where every nonzero entry is a unit.  Integer homology runs it over Z
once per complex, and this module keeps the ranks and the last pivot
rows in its own memo, keyed weakly by the complex.  Over Z a column
whose pivot entry is not a multiple of the settled one meets it in an
extended-gcd step (the column Hermite step), so every column operation
is unimodular and the reduction never restarts.  When every pivot ends
+-1, rank delta^d is rank d_(d+1) exactly and the absence of torsion is
certified.  Otherwise the non-unit pivot columns, fully reduced on the
unit pivot rows, are a small residual whose Smith normal form
(smith_diagonal) gives the other invariant factors, and the next
dimension clears from the unit pivot rows only.  Torsion of the d-th
reduced group is read off the invariant factors of d_(d+1).

prefix_betti_z2 runs the same reducer mod 2 once as a persistence pass
over the vertex filtration (a simplex is born at its largest vertex) and
reads off the Z/2 Betti numbers of every vertex prefix of the complex.
The pass reduces the complex with its vertices relabelled v -> n-1-v.
When that relabelling maps a flag complex's graph and vertices onto
themselves, as complementation does on power(m), the relabelled complex
is the complex itself, and the pass reduces it with no copy.
"""

from dataclasses import dataclass
from itertools import accumulate
from math import gcd
from weakref import WeakKeyDictionary

from .complexes import Complex, mirrored


class MatrixTooLarge(RuntimeError):
    """Raised when smith_diagonal meets its first pivot that is not +-1
    with more than _RESIDUAL_LIMIT ** 2 entries, rows times columns, left."""

    def __init__(self, dim: int, n_rows: int, n_cols: int, limit: int):
        self.dim = dim
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.limit = limit
        super().__init__(
            f"non-unit residual of the dimension-{dim} boundary is "
            f"{n_rows} x {n_cols}; its exact Smith normal form is guarded to "
            f"{limit} x {limit} entries"
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
    ct = _decided(through, k.complete, k.max_dim)
    # rank d_(d+1) = rank delta^d, reduced mod 2 without the integer memo,
    # so the two coefficient routes stay independent
    ranks = [rank for rank, _, _ in _coboundaries(k, 2, ct + 1)]
    values = _reduced_betti(k.f_vector, ranks, ct)
    return BettiVector(coeff="z2", values=values, complete_through=ct)


def _decided(through: int, complete: bool, max_dim: int) -> int:
    """The last dimension up to through whose Betti number a complex built
    through max_dim decides: any if it is complete, else max_dim - 1, as
    b_d needs the (d+1)-simplices."""
    return through if complete else min(through, max_dim - 1)


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
    is, for i < k.complete_below, which its expansion reads off the top
    layer's candidates, so no further layer is built.

    The vertex filtration gives a simplex birth i at its largest vertex
    i, so rank d_(d+1) on K_i is the rank of the rows of delta^d born by
    i.  With the vertices relabelled v -> n-1-v those rows are a
    lexicographic suffix, and after column operations (clearing included)
    that leave distinct largest-row pivots, the rank of a row suffix is
    the number of pivots in it.  So one run of the mod-2 coboundary
    reducer on the relabelled complex counts every prefix's ranks: the
    pivots are the persistence pairs' deaths.  The births, each prefix's
    f-vector, are counted from the same subtrees of the relabelled
    complex, a simplex born at i lying under its vertex n-1-i.

    The relabelled complex (complexes.mirrored) is k itself when k is
    flag (its layers are all the cliques of its graph through max_dim) and
    the relabelling maps k's graph and vertices onto themselves.  That
    holds for power(m) and for the middle layer F(2n, n), since
    complementation keeps distances and reverses the (size, lex) order;
    otherwise a copy is built.
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
    flipped = mirrored(k)
    # births[d][i]: f_d of K_i; deaths[d][i]: rank d_d on K_i, from the
    # pivot rows of delta^(d-1).  A simplex born at i lies in the copy's
    # subtree of its vertex n-1-i
    births = [list(accumulate(k.vertex_mask >> v & 1 for v in range(n)))]
    deaths = [[0] * n]
    reduced = _coboundaries(flipped, 2, top)
    for d, spans in enumerate(flipped.subtrees()):
        _, _, rows = next(reduced, (0, (), b""))
        if rows is None:
            rows = flipped.apparent_rows(d)
        born, died = [0] * n, [0] * n
        for v, a, b in spans:
            born[n - 1 - v], died[n - 1 - v] = b - a, rows.count(1, a, b)
        births.append(list(accumulate(born)))
        deaths.append(list(accumulate(died)))
    out = []
    for i, f in enumerate(zip(*births)):
        complete = i < k.complete_below
        ct = _decided(through, complete, k.max_dim)
        values = _reduced_betti(f, [deaths[d][i] for d in range(1, top + 1)], ct)
        bv = BettiVector(coeff="z2", values=values, complete_through=ct)
        out.append((f, _alternating_sum(f) if complete else None, bv))
    return out


# Past the first pivot that is not +-1 the entries of a dense residual
# grow with its size, and so does the time, so larger residuals are
# refused instead of hanging.  Measured with Python 3.11 on a 2-core x86
# host, dense matrices with entries drawn from {0, 0, 0, 2, -2, 4}, worst
# of 8 seeds per size: 40 x 40 took 0.025 s, 60 x 60 0.14 s, 80 x 80
# 0.61 s, 90 x 90 1.03-1.17 s and 100 x 100 1.75 s, with invariant factors
# of up to 77 digits.  The guard bounds the area, rows times columns, at
# 90 x 90: the smaller side bounds the pivots, and thinner shapes of that
# area are faster, 180 x 45 0.26 s, 270 x 30 0.08 s and 810 x 10 0.01 s
# (either way round).
_RESIDUAL_LIMIT = 90


def smith_diagonal(columns, dim: int = 0) -> SNFDiagonal:
    """Invariant factors of an integer matrix given as sparse columns.

    Accepts any iterable of {row: value} columns; zero entries are
    dropped.  Each step pivots on an entry p of least absolute value, so
    +-1 entries come first: column operations reduce the rest of p's row
    mod p, and row operations the rest of its column.  Once both are
    clear, |p| is an invariant factor and its row and column are dropped;
    otherwise a remainder smaller than |p| is the next pivot.  gcd/lcm
    pairs then turn the diagonal into a divisibility chain (Cohen, "A
    Course in Computational Algebraic Number Theory", 2.4).  At the first
    pivot that is not +-1, MatrixTooLarge is raised if more than
    _RESIDUAL_LIMIT ** 2 entries, rows times columns, are left.  The
    integer coboundary reduction hands it only its non-unit residual;
    called on a whole boundary, it is an independent route to the same
    invariant factors.
    """
    cols = [c for c in ({r: v for r, v in col.items() if v} for col in columns) if c]
    diag = []
    guarded = False
    while cols:
        j, r = _least(cols)
        p = cols[j][r]
        if p not in (1, -1) and not guarded:
            # rows and columns only shrink, so only the first check can fail
            guarded = True
            n_rows = len({s for col in cols for s in col})
            if n_rows * len(cols) > _RESIDUAL_LIMIT ** 2:
                raise MatrixTooLarge(dim, n_rows, len(cols), _RESIDUAL_LIMIT)
        pivot = cols.pop(j)
        for col in cols:
            if r in col:
                _subtract(col, col[r] // p, pivot)
        # row s -= q * row r leaves a remainder in the pivot column and
        # touches only the columns whose row r kept a remainder
        rest = [col for col in cols if r in col]
        for s, v in list(pivot.items()):
            if s != r and (q := v // p):
                for col in (pivot, *rest):
                    # col[r] is nonzero, so a zero result had an entry to drop
                    if new := col.get(s, 0) - q * col[r]:
                        col[s] = new
                    else:
                        del col[s]
        if rest or len(pivot) > 1:
            cols.append(pivot)
        else:
            diag.append(abs(p))
        cols = [col for col in cols if col]
    diag.sort()
    for i in range(diag.count(1), len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return SNFDiagonal(dim, tuple(diag))


def _least(cols: list[dict[int, int]]) -> tuple[int, int]:
    """(column, row) of an entry of least absolute value, the first +-1."""
    least, at = 0, None
    for j, col in enumerate(cols):
        for r, v in col.items():
            if not least or abs(v) < least:
                least, at = abs(v), (j, r)
                if least == 1:
                    return at
    return at


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


def _certified(k: Complex, dim: int) -> bool:
    """Whether the counts prove rank delta^dim = W_dim: Z_(dim+1) - W_dim,
    the free rows, is 0 (see the module docstring).  Unknown, so False,
    at the top layer of a complex whose top count is None."""
    above = k.parents[dim + 1]
    return above is not None and k.f_vector[dim + 1] - above == k.parents[dim]


def _reduce_coboundary(
    k: Complex, dim: int, cleared: bytearray | None, modulus: int = 0
) -> tuple[int, tuple[int, ...], bytearray | None]:
    """Rank, torsion and unit pivot rows of delta^dim, skipping cleared
    columns.

    Entries are integers for modulus 0 and residues mod 2 for modulus 2.
    Rows and columns index the complex's own lexicographic layers dim + 1
    and dim; cleared has 1 byte per column and the pivot rows 1 per row.
    None, as cleared or as the pivot rows, stands for the apparent rows
    of the dimension below or of this one (Complex.apparent_rows), built only if
    they are read.  delta^0 ignores cleared and clears the last vertex,
    the augmentation's unit pivot row.

    A column s with a non-empty child block, if not cleared, is an
    apparent pair with the block's last row t = s + (u,).  t is s's
    largest coface, since every other coface inserts a vertex below
    max(s) and lies before the block.  And s is the lexicographically
    smallest face of t: dropping t[i], i <= dim, puts t[i+1] > t[i] at
    position i.  So every column walked before s, raw or reduced (a
    combination of earlier columns), is zero in row t, and t is not yet a
    pivot.  Such a column is t's byte alone, as in Ripser, and since no
    earlier column reads row t, every apparent row is marked before the
    walk.  When a later column meets its pivot t, it is rebuilt by
    Complex.coboundary from key(s) = key(t) less its lowest bit, which is t's
    largest vertex u.  On this walk nearly every column addition is
    against such a raw column, so a rebuilt one is kept for the later
    additions on its row.

    A column s with a child block is never cleared.  The last vertex has
    no child, and for dim > 0 a cleared s is the largest row of a reduced
    column z of delta^(dim-1), so delta^dim z = 0 would be z(s) times
    column s plus columns before s, which are all zero in row t, while
    z(s) is not.  So the apparent rows do not depend on cleared, and
    there are W_dim of them (see the module docstring).  The counts are
    taken first (_certified).  If no row is free, the rank is W_dim, and
    every childless column reduces to zero with no torsion: nothing is
    walked, and the pivot rows are returned as None.  Otherwise the walk
    visits only the uncleared childless columns (Complex.childless),
    first to last, each built at most once from its key (Complex.key)
    and keyed by coface key (Complex.coboundary).  Where the tree gives
    a column's top coface (in a flag complex) and that row is no pivot
    yet, the column settles there unbuilt, keyed only if a later column
    meets it.  Each low key becomes its row index by one descent
    (Complex.row), memoized for the call.

    A column whose low entry is a multiple of the settled pivot's is
    reduced by subtraction; otherwise (over Z only) _gcd_step replaces the
    pair, leaving the gcd as the settled pivot.  Every operation is
    unimodular.  If some pivots are still not +-1 at the end, their
    columns are fully reduced on the unit pivot rows (a raw unit column
    is rebuilt once and kept for the rest), and the invariant
    factors are 1 per unit pivot plus smith_diagonal of that residual,
    whose few columns are turned into row indices first.
    The non-unit pivot rows are unmarked before the pivot rows are
    returned for the next dimension to clear: clearing a non-unit row is
    valid over Q but not over Z.  Mod 2 every nonzero entry is a unit, so
    the torsion is always empty.
    """
    if dim >= k.max_dim or not k.f_vector[dim + 1]:
        return 0, (), bytearray()
    if dim == 0:
        # the augmentation 1 -> sum of the vertices has one pivot, the last
        # vertex, with entry 1
        cleared = bytearray(k.f_vector[0] - 1) + b"\1"
    elif cleared is not None and len(cleared) < k.f_vector[dim]:
        # the walk below would take the columns past its end as uncleared
        raise ValueError(
            f"cleared has {len(cleared)} bytes for the "
            f"{k.f_vector[dim]} columns of delta^{dim}"
        )
    if _certified(k, dim):
        return k.parents[dim], (), None
    if cleared is None:
        cleared = k.apparent_rows(dim - 1)
    pivots = k.apparent_rows(dim)
    # pivot row -> its column, once built: a pivot row with no entry is a
    # raw column, apparent or settled unbuilt
    reduced: dict[int, dict[int, int]] = {}
    nonunit: set[int] = set()  # pivot rows whose entry is not +-1
    rows: dict[int, int] = {}  # coface key -> row index
    unbuilt: dict[int, int] = {}  # pivot row -> index of its raw column

    def row(t: int) -> int:
        r = rows.get(t)
        if r is None:
            r = rows[t] = k.row(t)
        return r

    def settled(r: int, low: int) -> dict[int, int]:
        # a raw column is built once, when met: an apparent one from its
        # pivot less its largest vertex (low's lowest bit), one settled
        # unbuilt from its index; later additions reuse it
        col = reduced.get(r)
        if col is None:
            j = unbuilt.pop(r, None)
            col = reduced[r] = k.coboundary(low & (low - 1) if j is None else k.key(dim, j))
            if next(iter(col)) != low:
                # a wrong raw pair would make the reduction run forever
                raise RuntimeError(f"raw column filed under row {r}")
        return col

    for j, r in k.childless(dim, cleared):
        if r >= 0 and not pivots[r]:
            # the top coface is no pivot yet: the column settles unbuilt
            pivots[r], unbuilt[r] = 1, j
            continue
        col = k.coboundary(k.key(dim, j))
        while col:
            low = min(col)
            r = row(low)
            if not pivots[r]:
                pivots[r] = 1
                reduced[r] = col
                if col[low] not in (1, -1):
                    nonunit.add(r)
                break
            other = settled(r, low)
            a, b = other[low], col[low]
            if b % a:
                reduced[r], col = _gcd_step(other, col, low)
                if reduced[r][low] in (1, -1):
                    nonunit.discard(r)
                continue
            _subtract(col, b // a, other, modulus)
    rank = pivots.count(1)
    if not nonunit:
        return rank, (), pivots
    for r in nonunit:
        pivots[r] = 0
    residual = []
    for pivot in sorted(nonunit):
        col = reduced[pivot]
        # largest unit row first: a unit column has no row above its pivot,
        # so the rows cleared before stay clear
        while q := min((t for t in col if pivots[row(t)]), default=0):
            unit = settled(row(q), q)
            _subtract(col, col[q] * unit[q], unit)
        residual.append({row(t): v for t, v in col.items()})
    snf = smith_diagonal(residual, dim + 1)
    return rank, tuple(v for v in snf.diag if v > 1), pivots


def _coboundaries(
    k: Complex, modulus: int, stop: int, start: int = 0, pivots: bytearray | None = None
):
    """Rank, torsion and unit pivot rows of delta^start, ..., delta^(stop-1),
    at most through delta^(max_dim-1), reduced in order, each on demand:
    every dimension clears the columns of the one below's pivot rows,
    starting from the given ones (None for apparent rows), as in Ripser's
    clearing order."""
    for d in range(start, min(stop, k.max_dim)):
        rank, torsion, pivots = _reduce_coboundary(k, d, pivots, modulus)
        yield rank, torsion, pivots


# complex -> [(rank, torsion) of delta^0, delta^1, ... over Z, the last
# one's unit pivot rows], to carry on from: a failed dimension is not
# stored, so a later call reduces it again.  Values do not refer to the
# complex, which keeps it collectable
_integer = WeakKeyDictionary()


def homology_integer(k: Complex, dim: int) -> tuple[int, tuple[int, ...]]:
    """Free rank and torsion coefficients of the dim-th reduced group.

    Needs the ranks of the dim and dim+1 boundaries and the invariant
    factors of the dim+1 boundary, so the complex must be built through
    dim+1 (or be complete).  They come from the coboundary driver over Z,
    memoized per complex in this module: delta^0..delta^dim are reduced
    once each, in order, the first time any call needs them, so later
    calls for any dimension reuse the work.  Torsion is empty by
    certificate when every pivot of delta^dim is +-1; otherwise it is
    read off the Smith normal form of the reduction's small non-unit
    residual, which raises MatrixTooLarge past _RESIDUAL_LIMIT ** 2
    entries, rows times columns.
    """
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    if _decided(dim, k.complete, k.max_dim) < dim:
        raise TruncatedComplex(f"dimension {dim + 1} not built (max_dim={k.max_dim})")
    if dim > k.max_dim:
        return (0, ())
    memo = _integer.get(k)
    if memo is None:
        memo = _integer[k] = [[], None]
    done, pivots = memo
    for rank, torsion, pivots in _coboundaries(k, 0, dim + 1, len(done), pivots):
        done.append((rank, torsion))
        memo[1] = pivots
    # b_dim = f_dim - rank d_dim - rank d_(dim+1), where rank d_0 = [f_0 > 0]
    # and delta^max_dim of a complete complex is 0
    below = done[dim - 1][0] if dim else int(k.f_vector[0] > 0)
    rank, torsion = done[dim] if dim < len(done) else (0, ())
    return (k.f_vector[dim] - below - rank, torsion)


def euler_characteristic(k: Complex) -> int:
    """Alternating sum of the f-vector; demands a complete complex."""
    if not k.complete:
        raise TruncatedComplex("Euler characteristic requires a complete complex")
    return _alternating_sum(k.f_vector)


def _alternating_sum(f_vector: tuple[int, ...]) -> int:
    return sum((-1) ** d * n for d, n in enumerate(f_vector))
