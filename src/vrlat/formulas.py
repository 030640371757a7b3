"""Closed-form sphere counts for scale-2 complexes over subset families.

Each verified family of complexes here is homotopy equivalent to a wedge sum
of spheres of one dimension; these functions return the number of copies.
They are pure integer arithmetic (no complexes are built), which makes them
the oracles that the homology pipeline is checked against:

  uniform_betti2(m, n)        2-spheres for the n-uniform layer
  adjacent_pair_betti2(m, n)  2-spheres for the union of layers n and n+1
  skip_pair_betti3(m, n)      3-spheres for the union of layers n and n+2
  prefix_betti3(m, a)         3-spheres for the order prefix ending at a
  upto_betti3(m, n)           3-spheres for all subsets of size at most n
  power_betti3(m)             3-spheres for the whole power set
  cross_polytope_sphere_dim   the one sphere of the scale-(m-2) half layer

The per-vertex building blocks (prefix_increment, skip_increment) count how
many new spheres appear when a single vertex is appended to a growing
family; they are driven by the gap structure of the vertex's element list.

Every count except cross_polytope_sphere_dim is defined by NAME_terms,
which checks the domain and returns the summands as (label template,
label args, value) triples; NAME itself is the sum of the values.  Labels
are only formatted by `vrlat formula --show-terms`, so the oracle path
never builds a string.
"""

import math
from dataclasses import dataclass
from itertools import combinations

from .setfam import Subset

Term = tuple[str, tuple, int]


@dataclass(frozen=True)
class GapVector:
    """Gap counts between consecutive elements of a subset.

    For elements i_1 < ... < i_n, entry j >= 1 of either vector counts the
    integers skipped strictly between i_j and i_{j+1}.  The vectors differ
    only in the first entry: zero_based[0] counts the missing values below
    i_1 on a ground line that starts at 0 (so it equals i_1), while
    one_based[0] starts the line at 1 (so it equals i_1 - 1).
    """

    zero_based: tuple[int, ...]
    one_based: tuple[int, ...]

    def __post_init__(self) -> None:
        zb, ob = self.zero_based, self.one_based
        if len(zb) != len(ob) or not zb:
            raise ValueError("gap vectors must be nonempty and equally long")
        if zb[0] != ob[0] + 1 or zb[1:] != ob[1:]:
            raise ValueError("gap vectors disagree beyond the first-entry convention")


def gap_vector(a: Subset) -> GapVector:
    """Gap structure of a nonempty subset."""
    elems = a.elements
    if not elems:
        raise ValueError("gap vector of the empty set is undefined")
    zero_based = [elems[0]]
    zero_based.extend(elems[j] - elems[j - 1] - 1 for j in range(1, len(elems)))
    one_based = [elems[0] - 1] + zero_based[1:]
    return GapVector(tuple(zero_based), tuple(one_based))


def _total(terms: list[Term]) -> int:
    return sum(value for _, _, value in terms)


def _gap_terms(a: Subset, gaps: tuple[int, ...]) -> list[Term]:
    n = a.size
    if n < 3:
        raise ValueError("increment counts are defined for subsets of size >= 3")
    terms = [("C({},2)", (k,), math.comb(k, 2)) for k in range(2, n - 1)]
    terms += [
        ("gap[{}]*C({},2)", (l, n - l), gaps[l - 1] * math.comb(n - l, 2))
        for l in range(1, n - 1)
    ]
    return terms


def prefix_increment_terms(a: Subset) -> list[Term]:
    return _gap_terms(a, gap_vector(a).zero_based)


def prefix_increment(a: Subset) -> int:
    """New 3-spheres contributed when a joins the prefix family ending at a.

    Equivalently, the number of 2-spheres in the link of a inside the
    scale-2 complex on the prefix family.  Uses the zero-based gap vector.
    """
    return _total(prefix_increment_terms(a))


def skip_increment_terms(a: Subset) -> list[Term]:
    return _gap_terms(a, gap_vector(a).one_based)


def skip_increment(a: Subset) -> int:
    """Two-layer analogue of prefix_increment, using one-based gaps.

    Satisfies prefix_increment(a) == skip_increment(a) + C(|a| - 1, 2).
    """
    return _total(skip_increment_terms(a))


def layer_increment_terms(m: int, n: int) -> list[Term]:
    if n < 3:
        raise ValueError("increment counts are defined for subsets of size >= 3")
    if n > m:
        raise ValueError("empty parameter range")
    subsets = (Subset.of(c, m) for c in combinations(range(1, m + 1), n))
    return [("{}", (b,), prefix_increment(b)) for b in subsets]


def layer_increment(m: int, n: int) -> int:
    """Sum of prefix_increment over every n-subset of [m].

    The number of 3-spheres added when the whole cardinality-n layer is
    appended to the family of all smaller subsets.
    """
    return _total(layer_increment_terms(m, n))


def power_betti3_terms(m: int) -> list[Term]:
    if m < 3:
        raise ValueError("power-set count defined for m >= 3")
    return [
        ("(i={},j={})", (i, j), (j + 1) * (2 ** (m - 2) - 2 ** (i - 1)))
        for i in range(1, m)
        for j in range(i)
    ]


def power_betti3(m: int) -> int:
    """3-spheres in the scale-2 complex on the whole power set of [m].

    Closed form; equals the sum of layer_increment(m, k) for k = 3..m,
    which the tests verify.
    """
    return _total(power_betti3_terms(m))


def uniform_betti2_terms(m: int, n: int) -> list[Term]:
    if not 1 < n < m - 1:
        raise ValueError("contractible regime")
    return [
        ("k={}", (k,), math.comb(m + k - 1 - n, k + 1) * math.comb(k, 2))
        for k in range(2, n + 1)
    ]


def uniform_betti2(m: int, n: int) -> int:
    """2-spheres in the scale-2 complex on all n-subsets of [m].

    Defined for 1 < n < m - 1; the remaining layers (n in {0, 1, m-1, m})
    give contractible complexes.  For n = 2 the value collapses to
    C(m - 1, 3).
    """
    return _total(uniform_betti2_terms(m, n))


def adjacent_pair_betti2_terms(m: int, n: int) -> list[Term]:
    if not 1 < n < m - 1:
        raise ValueError("contractible regime")
    return [
        ("single_layer", (), uniform_betti2(m, n)),
        (
            "C({},{})*C({},2)",
            (m, n + 2, n + 1),
            math.comb(m, n + 2) * math.comb(n + 1, 2),
        ),
    ]


def adjacent_pair_betti2(m: int, n: int) -> int:
    """2-spheres for the union of the n- and (n+1)-layers at scale 2."""
    return _total(adjacent_pair_betti2_terms(m, n))


def prefix_betti3_terms(m: int, a: Subset) -> list[Term]:
    if a.m != m:
        raise ValueError("ground-set mismatch")
    n = a.size
    # combinations by size, lexicographic within a size, is the total
    # order of the prefix family, so no sort is needed
    subsets = (
        Subset.of(c, m)
        for k in range(3, n + 1)
        for c in combinations(range(1, m + 1), k)
        if k < n or c <= a.elements
    )
    return [("{}", (b,), prefix_increment(b)) for b in subsets]


def prefix_betti3(m: int, a: Subset) -> int:
    """3-spheres for the scale-2 complex on the prefix family ending at a.

    Sums prefix_increment over every size->=3 subset up to a in the total
    order.  Prefixes ending at a subset of size <= 2 are contractible, so
    they count zero.
    """
    return _total(prefix_betti3_terms(m, a))


def upto_betti3_terms(m: int, n: int) -> list[Term]:
    if not 0 <= n <= m:
        raise ValueError("empty parameter range")
    return [("layer {}", (k,), layer_increment(m, k)) for k in range(3, n + 1)]


def upto_betti3(m: int, n: int) -> int:
    """3-spheres for the scale-2 complex on all subsets of size at most n.

    Zero for n <= 2 (the empty set is then within scale of every vertex,
    so the complex is a cone).
    """
    return _total(upto_betti3_terms(m, n))


def skip_layer_sum_terms(m: int, n: int) -> list[Term]:
    if n < 2 or n + 2 > m:
        raise ValueError("out of range")
    subsets = (Subset.of(c, m) for c in combinations(range(2, m + 1), n + 2))
    return [("{}", (b,), skip_increment(b)) for b in subsets]


def skip_layer_sum(m: int, n: int) -> int:
    """Sum of skip_increment over the (n+2)-subsets of [m] avoiding 1.

    The top-block contribution in the two-layer recursion behind
    skip_pair_betti3; requires n >= 2 and n + 2 <= m.
    """
    return _total(skip_layer_sum_terms(m, n))


def skip_pair_betti3_terms(m: int, n: int) -> list[Term]:
    if n == 0:
        return []
    if n < 0 or n + 2 > m:
        raise ValueError("out of range")
    terms = [
        ("k={}: layers ({},{})", (k, m + k - n, k), skip_layer_sum(m + k - n, k))
        for k in range(2, n + 1)
    ]
    terms.append(("C({},4)", (m + 1 - n,), math.comb(m + 1 - n, 4)))
    return terms


def skip_pair_betti3(m: int, n: int) -> int:
    """3-spheres for the union of the n- and (n+2)-layers at scale 2.

    n = 0 gives a cone (the empty set neighbors every 2-subset), so 0.
    The recursion that proves the count needs n < m - 3; the formula also
    reproduces the right numbers on the boundary cases with n + 2 <= m,
    where complement symmetry or a cone vertex settles the homotopy type,
    and the tests pin those cases against computed homology.
    """
    return _total(skip_pair_betti3_terms(m, n))


def cross_polytope_sphere_dim(m: int, n: int) -> int:
    """Dimension of the sphere realized by the half layer at scale m - 2.

    For m = 2n the n-subsets of [m] at scale m - 2 form the boundary of a
    cross-polytope: every vertex is within scale of all others except its
    complement.  The sphere dimension is C(2n, n) / 2 - 1.
    """
    if m != 2 * n:
        raise ValueError("cross-polytope case requires m = 2n")
    return math.comb(2 * n, n) // 2 - 1
