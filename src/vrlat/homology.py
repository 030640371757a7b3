"""Reduced simplicial homology by bottom-up coboundary reduction.

Both coefficient rings use one reducer.  It reduces the coboundaries
delta^0, delta^1, ... in order, over Z or over Z/2, and rank delta^d is
rank d_(d+1).  Columns are the d-simplices in reverse order and a
column's pivot is its largest row.  delta^d skips (clears) every column
whose simplex is a pivot row of delta^(d-1): that column is equivalent to
a cocycle with a unit pivot entry.

betti_z2 runs the reduction mod 2 on every call, where every nonzero
entry is a unit.  Integer homology runs it over Z once per complex and
memoizes the ranks on the complex.  When every pivot is +-1 the column
operations, clearing included, are unimodular, so rank delta^d is rank
d_(d+1) exactly and the absence of torsion is certified.  A dimension
that meets a non-unit pivot falls back to the Smith normal form of
d_(d+1) (unit pivots eliminated sparsely, any residual handed to sympy's
exact SNF), and the next dimension then runs without clearing.  Torsion
of the d-th reduced group is read off the invariant factors of d_(d+1).

prefix_betti_z2 runs the same reducer mod 2 once as a persistence pass
over the vertex filtration (a simplex is born at its largest vertex) and
reads off the Z/2 Betti numbers of every vertex prefix of the complex.
"""

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from .complexes import Complex


class MatrixTooLarge(RuntimeError):
    """Raised when an exact SNF request exceeds the size guard."""

    def __init__(self, dim: int, n_rows: int, n_cols: int, limit: int):
        self.dim = dim
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.limit = limit
        super().__init__(
            f"boundary matrix for dimension {dim} is {n_rows} x {n_cols}; "
            f"exact integer reduction is guarded to {limit} rows/columns"
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
    top = min(ct + 1, k.max_dim)
    ranks = {0: 1 if k.f_vector[0] else 0}
    # rank d_(d+1) = rank delta^d, reduced mod 2 without the integer memo
    # on the complex, so the two coefficient routes stay independent
    pivots: set[int] = set()
    for d in range(top):
        ranks[d + 1], _, pivots = _reduce_coboundary(k, d, pivots, modulus=2)
    values = []
    for d in range(ct + 1):
        f_d = k.f_vector[d] if d <= k.max_dim else 0
        values.append(f_d - ranks.get(d, 0) - ranks.get(d + 1, 0))
    return BettiVector(coeff="z2", values=tuple(values), complete_through=ct)


def prefix_betti_z2(k: Complex, through: int) -> tuple[BettiVector, ...]:
    """betti_z2 of every vertex prefix of k, from one persistence pass.

    Entry i is betti_z2(K_i, through), where K_i holds the simplices of k
    on vertices 0..i.  K_i is complete if k is, and also, for a flag
    complex, while no (max_dim+1)-clique of k's graph lies on 0..i: that
    is the birth of the first such clique, read off the common neighbours
    of the top layer, so no further layer is built.

    The vertex filtration gives a simplex birth i at its largest vertex
    i, so rank d_(d+1) on K_i is the rank of the rows of delta^d born by
    i.  With the vertices relabelled v -> n-1-v those rows are a
    lexicographic suffix, and after column operations (clearing included)
    that leave distinct largest-row pivots, the rank of a row suffix is
    the number of pivots in it.  So one run of the mod-2 coboundary
    reducer on the relabelled complex counts every prefix's ranks: the
    pivots are the persistence pairs' deaths.
    """
    return tuple(bv for _, _, bv in _prefix_z2(k, through))


def _prefix_z2(
    k: Complex, through: int
) -> list[tuple[tuple[int, ...], int | None, BettiVector]]:
    """f-vector, Euler characteristic (None unless complete) and betti_z2
    of every vertex prefix K_i of k; see prefix_betti_z2."""
    if through < 0:
        raise ValueError("through must be nonnegative")
    n = len(k.family)
    top = min(through + 1, k.max_dim)
    flipped = Complex(
        k.family,
        k.scale,
        top,
        tuple(
            tuple(sorted(tuple(n - 1 - v for v in reversed(s)) for s in layer))
            for layer in k.simplices[: top + 1]
        ),
        flag=k.flag,
        complete=False,
        adjacency=tuple(int(f"{a:0{n}b}"[::-1], 2) for a in reversed(k.adjacency)),
    )
    # births[d][i]: f_d of K_i; deaths[d][i]: rank d_d on K_i, from the
    # pivot rows of delta^(d-1)
    births = []
    for layer in k.simplices:
        born = [0] * n
        for s in layer:
            born[s[-1]] += 1
        births.append(list(accumulate(born)))
    deaths = [[0] * n]
    pivots: set[int] = set()
    for d in range(top):
        _, _, pivots = _reduce_coboundary(flipped, d, pivots, modulus=2)
        died = [0] * n
        rows = flipped.simplices[d + 1]
        for r in pivots:
            died[n - 1 - rows[r][0]] += 1
        deaths.append(list(accumulate(died)))
    first_clique = n if k.complete else 0 if not k.flag else _first_clique_birth(k)
    out = []
    for i, f in enumerate(zip(*births)):
        complete = i < first_clique
        ct = through if complete else min(through, k.max_dim - 1)
        ranks = [1 if f[0] else 0] + [deaths[d][i] for d in range(1, top + 1)]
        ranks += [0] * (ct + 2 - len(ranks))
        values = tuple(
            (f[d] if d <= k.max_dim else 0) - ranks[d] - ranks[d + 1]
            for d in range(ct + 1)
        )
        bv = BettiVector(coeff="z2", values=values, complete_through=ct)
        out.append((f, _alternating_sum(f) if complete else None, bv))
    return out


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


def _integer_columns(k: Complex, dim: int):
    # generator over sparse signed columns; the face-position dict is local
    # so nothing outlives the consumer
    pos = {s: i for i, s in enumerate(k.simplices[dim - 1])}
    for s in k.simplices[dim]:
        yield {
            pos[s[:i] + s[i + 1:]]: (-1 if i % 2 else 1) for i in range(dim + 1)
        }


def _snf_residual(cols: dict[int, dict[int, int]]) -> list[int]:
    """Exact SNF diagonal of a matrix with no unit entries left."""
    if not cols:
        return []
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    row_ids = sorted({r for col in cols.values() for r in col})
    row_pos = {r: i for i, r in enumerate(row_ids)}
    dense = [[0] * len(cols) for _ in row_ids]
    for j, col_id in enumerate(sorted(cols)):
        for r, v in cols[col_id].items():
            dense[row_pos[r]][j] = v
    snf = smith_normal_form(Matrix(dense))
    out = []
    for i in range(min(snf.rows, snf.cols)):
        v = abs(int(snf[i, i]))
        if v:
            out.append(v)
    return sorted(out)


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

    Accepts any iterable of {row: value} columns.  Unit pivots are
    eliminated first (cheapest fill by Markowitz cost, ties by row then
    column), each contributing an invariant factor 1; the residual, if
    any, goes through sympy's exact Smith normal form.

    The heap holds roughly one candidate entry per live column: popping a
    dead or demoted candidate rescans just that column, so the heap stays
    small even when elimination churns millions of entries.
    """
    cols: dict[int, dict[int, int]] = {
        j: dict(col) for j, col in enumerate(columns) if col
    }
    rows: dict[int, set[int]] = {}
    for j, col in cols.items():
        for r in col:
            rows.setdefault(r, set()).add(j)

    heap: list[tuple[int, int, int]] = []
    cand: dict[int, int] = {}  # cheapest cost currently pushed per column

    def push_candidate(j: int) -> None:
        col = cols[j]
        best = None
        for r, v in col.items():
            if v in (1, -1):
                key = (len(rows[r]), r)
                if best is None or key < best:
                    best = key
        if best is None:
            cand.pop(j, None)
        else:
            cost = (best[0] - 1) * (len(col) - 1)
            cand[j] = cost
            heapq.heappush(heap, (cost, best[1], j))

    for j in sorted(cols):
        push_candidate(j)

    units = 0
    while heap:
        cost, r, j = heapq.heappop(heap)
        col = cols.get(j)
        if col is None:
            continue
        if col.get(r) not in (1, -1):
            push_candidate(j)  # candidate died; rescan the column
            continue
        current = (len(rows[r]) - 1) * (len(col) - 1)
        if current > cost:
            cand[j] = current
            heapq.heappush(heap, (current, r, j))  # stale, reinsert at true cost
            continue
        pivot_col = cols.pop(j)
        cand.pop(j, None)
        p = pivot_col[r]
        for r2 in pivot_col:
            rows[r2].discard(j)
        # column ops clear row r; the implicit row op clearing column j
        # touches nothing else because row r is then zero outside j
        for j2 in list(rows.get(r, ())):
            target = cols[j2]
            factor = target[r] * p
            for r2, v in pivot_col.items():
                new = target.get(r2, 0) - factor * v
                if new:
                    if r2 not in target:
                        rows[r2].add(j2)
                    target[r2] = new
                    if new in (1, -1):
                        unit_cost = (len(rows[r2]) - 1) * (len(target) - 1)
                        if cand.get(j2, unit_cost + 1) > unit_cost:
                            cand[j2] = unit_cost
                            heapq.heappush(heap, (unit_cost, r2, j2))
                else:
                    target.pop(r2, None)
                    rows[r2].discard(j2)
            if not target:
                del cols[j2]
                cand.pop(j2, None)
        rows.pop(r, None)
        units += 1
    residual_rows = sum(1 for js in rows.values() if js)
    if max(residual_rows, len(cols)) > _RESIDUAL_LIMIT:
        raise MatrixTooLarge(dim, residual_rows, len(cols), _RESIDUAL_LIMIT)
    diag = [1] * units + _snf_residual(cols)
    return SNFDiagonal(dim, tuple(diag))


def _cofaces(s, adjacency, positions: dict):
    """(row, sign) of each stored coface of s, largest row first.

    Candidates are the common neighbours of s's vertices; only those found
    among the stored simplices count, so non-flag complexes stay exact.
    Inserting v at position p of s gives a coface whose boundary holds s
    with sign (-1)^p.  Adding a larger vertex gives a lexicographically
    larger coface, so with rows ranked lexicographically the vertices are
    tried from the top down.
    """
    common = adjacency[s[0]]
    for u in s[1:]:
        common &= adjacency[u]
    while common:
        v = common.bit_length() - 1
        common ^= 1 << v
        p = bisect_left(s, v)
        row = positions.get(s[:p] + (v,) + s[p:])
        if row is not None:
            yield row, -1 if p & 1 else 1


def _reduce_coboundary(
    k: Complex, dim: int, cleared: set[int], modulus: int = 0
) -> tuple[int, tuple[int, ...], set[int]]:
    """Rank, torsion and pivot rows of delta^dim, skipping cleared columns.

    Entries are integers for modulus 0 and residues mod 2 for modulus 2.
    Rows and columns are ranked lexicographically, whatever order the
    complex stores them in.  Columns are reduced from the last to the
    first.  A raw coboundary has only +-1 entries, so a column whose top
    coface is not yet a pivot settles at once and is kept as its index
    alone, to be rebuilt if a later column needs it.  Over Z, on the first
    pivot that is not +-1 the reduction is abandoned and the Smith normal
    form of the (dim+1)-boundary decides; it leaves no pivot rows, so the
    next dimension runs without clearing.  Mod 2 every nonzero entry is a
    unit, so that never happens and the torsion is always empty.
    """
    if dim >= k.max_dim or not k.f_vector[dim + 1]:
        return 0, (), set()
    # local, so only one dimension's position dict is alive at a time
    positions = {t: i for i, t in enumerate(sorted(k.simplices[dim + 1]))}
    layer = sorted(k.simplices[dim])
    adjacency = k.adjacency
    # pivot row -> the column index if the column is raw, else the column
    reduced: dict[int, int | dict[int, int]] = {}
    for j in range(len(layer) - 1, -1, -1):
        if j in cleared:
            continue
        top = next(_cofaces(layer[j], adjacency, positions), None)
        if top is None:
            continue
        if top[0] not in reduced:
            reduced[top[0]] = j
            continue
        col = dict(_cofaces(layer[j], adjacency, positions))
        while col:
            low = max(col)
            settled = reduced.get(low)
            if settled is None:
                if col[low] not in (1, -1):
                    del positions, reduced  # free them before the Smith form
                    snf = smith_diagonal(_integer_columns(k, dim + 1), dim + 1)
                    return len(snf.diag), tuple(v for v in snf.diag if v > 1), set()
                reduced[low] = col
                break
            if isinstance(settled, int):
                settled = dict(_cofaces(layer[settled], adjacency, positions))
            factor = col[low] * settled[low]  # settled[low] is its own inverse
            for r, v in settled.items():
                new = col.get(r, 0) - factor * v
                if modulus:
                    new %= modulus
                if new:
                    col[r] = new
                else:
                    del col[r]
    return len(reduced), (), set(reduced)


def homology_integer(
    k: Complex, dim: int, max_cols: int = 20000
) -> tuple[int, tuple[int, ...]]:
    """Free rank and torsion coefficients of the dim-th reduced group.

    Needs the ranks of the dim and dim+1 boundaries and the invariant
    factors of the dim+1 boundary, so the complex must be built through
    dim+1 (or be complete).  They come from the coboundary reduction
    memoized on the complex: delta^0..delta^dim are reduced once each, in
    order, the first time any call needs them, so later calls for any
    dimension reuse the work.  Torsion is empty by certificate unless a
    dimension met a non-unit pivot and fell back to the Smith normal form.
    Guarded against boundary matrices above max_cols rows or columns: the
    dim and dim+1 boundaries on every call, and every lower boundary the
    call has to reduce.
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

    def check_size(d):
        if 1 <= d <= k.max_dim and f[d] and (f[d] > max_cols or f[d - 1] > max_cols):
            raise MatrixTooLarge(d, f[d - 1], f[d], max_cols)

    check_size(dim)
    check_size(dim + 1)
    # (rank, torsion) of delta^0, delta^1, ... and the last one's pivot rows
    done, pivots = k._coboundary
    for d in range(len(done), dim + 1):
        check_size(d + 1)
        rank, torsion, pivots = _reduce_coboundary(k, d, pivots)
        done.append((rank, torsion))
        k._coboundary = (done, pivots)
    rank_lower = (1 if f[0] else 0) if dim == 0 else done[dim - 1][0]
    rank_upper, torsion = done[dim]
    return (f[dim] - rank_lower - rank_upper, torsion)


def euler_characteristic(k: Complex) -> int:
    """Alternating sum of the f-vector; demands a complete complex."""
    if not k.complete:
        raise TruncatedComplex("Euler characteristic requires a complete complex")
    return _alternating_sum(k.f_vector)


def _alternating_sum(f_vector: tuple[int, ...]) -> int:
    return sum((-1) ** d * n for d, n in enumerate(f_vector))
