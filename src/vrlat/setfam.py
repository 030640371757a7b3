"""Subsets of {1, ..., m}, the symmetric-difference metric, and family generators.

A subset is stored as a machine-word bit set (bit i - 1 set iff i is a
member), which makes the symmetric-difference distance a single XOR plus
popcount.  Families are kept sorted under the cardinality-then-lexicographic
total order, so every vertex has a stable integer index and downstream
complexes and reports are deterministic.  A family keeps its vertices'
order keys: the generators supply them with the vertices (a combination of
1..m is its own key's element tuple), and a union merges its parts by them,
so no key is recomputed on the way from a spec to its family.
"""

from bisect import bisect_right
from dataclasses import InitVar, dataclass, field
from itertools import combinations, repeat

MAX_GROUND = 63

# order_cmp results
LT, EQ, GT = -1, 0, 1


@dataclass(frozen=True)
class Subset:
    """A subset of {1, ..., m} as a bit set.

    bits: bit i - 1 set iff element i is present; m: ground-set size.
    """

    bits: int
    m: int

    def __post_init__(self) -> None:
        if not 1 <= self.m <= MAX_GROUND:
            raise ValueError(f"ground-set size must be in 1..{MAX_GROUND}, got {self.m}")
        if self.bits < 0 or self.bits >> self.m:
            raise ValueError(f"bit set {self.bits:#x} has members above {self.m}")

    @classmethod
    def of(cls, elements, m: int) -> "Subset":
        """Subset from an iterable of elements in 1..m."""
        bits = 0
        for e in elements:
            if not 1 <= e <= m:
                raise ValueError(f"element {e} outside 1..{m}")
            bits |= 1 << (e - 1)
        return cls(bits, m)

    @classmethod
    def empty(cls, m: int) -> "Subset":
        return cls(0, m)

    @classmethod
    def full(cls, m: int) -> "Subset":
        return cls((1 << m) - 1, m)

    @classmethod
    def parse(cls, text: str, m: int) -> "Subset":
        """Parse the brace serialization, e.g. "{1,3,5}" or "{}"."""
        t = text.strip()
        if not (t.startswith("{") and t.endswith("}")):
            raise ValueError(f"subset must be brace-delimited, got {text!r}")
        inner = t[1:-1].strip()
        if not inner:
            return cls.empty(m)
        return cls.of((int(p) for p in inner.split(",")), m)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    @property
    def elements(self) -> tuple[int, ...]:
        out, bits = [], self.bits
        while bits:
            low = bits & -bits
            out.append(low.bit_length())
            bits ^= low
        return tuple(out)

    def contains(self, element: int) -> bool:
        return 1 <= element <= self.m and bool(self.bits >> (element - 1) & 1)

    def complement(self) -> "Subset":
        return Subset(self.bits ^ ((1 << self.m) - 1), self.m)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Key realizing the total order: cardinality, then sorted elements."""
        return (self.size, self.elements)

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.elements) + "}"


def dist(a: Subset, b: Subset) -> int:
    """Symmetric-difference distance |a Δ b|."""
    if a.m != b.m:
        raise ValueError("ground-set mismatch")
    return (a.bits ^ b.bits).bit_count()


def order_cmp(a: Subset, b: Subset) -> int:
    """Compare under the total order; returns LT, EQ, or GT.

    Smaller cardinality comes first; ties are broken lexicographically on
    the sorted element lists.
    """
    if a.m != b.m:
        raise ValueError("ground-set mismatch")
    ka, kb = a.sort_key(), b.sort_key()
    return LT if ka < kb else GT if ka > kb else EQ


@dataclass(frozen=True)
class SetFamily:
    """A strictly increasing (under the total order) sequence of subsets of [m].

    The family keeps the order keys (Subset.sort_key) it checked, one per
    vertex: a caller that has them already passes them as sort_keys, and
    they are computed otherwise.  They are not compared or shown.
    """

    m: int
    vertices: tuple[Subset, ...]
    _pos: dict = field(default=None, init=False, repr=False, compare=False)
    _keys: list = field(default=None, init=False, repr=False, compare=False)
    # the vertices' sort keys, if the caller has computed them already
    sort_keys: InitVar[list | None] = None

    def __post_init__(self, sort_keys) -> None:
        for v in self.vertices:
            if v.m != self.m:
                raise ValueError("ground-set mismatch")
        keys = sort_keys or [v.sort_key() for v in self.vertices]
        if any(x >= y for x, y in zip(keys, keys[1:])):
            raise ValueError("family vertices must be strictly increasing")
        object.__setattr__(self, "_pos", {v.bits: i for i, v in enumerate(self.vertices)})
        object.__setattr__(self, "_keys", keys)

    @classmethod
    def from_subsets(cls, m: int, subsets) -> "SetFamily":
        """Deduplicate and sort arbitrary subsets into a family."""
        unique = {s.bits: s for s in subsets}
        # each key once, for the sort and the order check; distinct bits
        # have distinct keys, so no two subsets are compared
        ordered = sorted((s.sort_key(), s) for s in unique.values())
        return cls(m, tuple(s for _, s in ordered), [key for key, _ in ordered])

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __contains__(self, s: Subset) -> bool:
        return s.m == self.m and s.bits in self._pos

    def index(self, s: Subset) -> int:
        """Stable vertex index of a subset in this family."""
        if s.m != self.m or s.bits not in self._pos:
            raise KeyError(f"{s} not in family")
        return self._pos[s.bits]


def _layer(m: int, n: int) -> tuple[list[Subset], list[tuple]]:
    """The n-subsets of [m] in order, with their order keys.

    Within one cardinality layer the total order is plain lexicographic
    order, so the combinations iterator already emits vertices in order,
    and a combination c of 1..m is the element tuple of its key (n, c).
    """
    keys = [(n, c) for c in combinations(range(1, m + 1), n)]
    bits = map(sum, combinations([1 << i for i in range(m)], n))
    return list(map(Subset, bits, repeat(m))), keys


def gen_uniform(m: int, n: int) -> SetFamily:
    """All n-element subsets of [m], sorted."""
    if not 1 <= m <= MAX_GROUND:
        raise ValueError(f"ground-set size must be in 1..{MAX_GROUND}, got {m}")
    if not 0 <= n <= m:
        raise ValueError("empty parameter range")
    verts, keys = _layer(m, n)
    return SetFamily(m, tuple(verts), keys)


def gen_prefix(m: int, a: Subset) -> SetFamily:
    """All subsets of [m] up to and including a, under the total order."""
    if a.m != m:
        raise ValueError("ground-set mismatch")
    verts: list[Subset] = []
    keys: list[tuple] = []
    for k in range(a.size + 1):
        layer, layer_keys = _layer(m, k)
        verts += layer
        keys += layer_keys
    # the layers through a's are in order, and a's own ends at a
    cut = bisect_right(keys, a.sort_key())
    return SetFamily(m, tuple(verts[:cut]), keys[:cut])


def gen_union(parts) -> SetFamily:
    """Deduplicated sorted merge of families over one ground set, by the
    order keys the parts keep."""
    parts = list(parts)
    if not parts:
        raise ValueError("union of no families")
    m = parts[0].m
    if any(p.m != m for p in parts):
        raise ValueError("ground-set mismatch")
    if len(parts) == 1:
        return parts[0]
    # equal keys are equal subsets; the parts are sorted runs, which the
    # sort merges
    by_key = {}
    for p in parts:
        by_key.update(zip(p._keys, p.vertices))
    keys = sorted(by_key)
    return SetFamily(m, tuple(map(by_key.__getitem__, keys)), keys)


def complement_map(f: SetFamily) -> SetFamily:
    """Image of the family under complementation, an isometry."""
    return SetFamily.from_subsets(f.m, (v.complement() for v in f))


@dataclass(frozen=True)
class ElementDeletion:
    """Relabeling witness: drop one fixed element and close the index gap.

    Elements below the fixed one keep their name; elements above shift down
    by one.  XOR-compatible, so pairwise distances are preserved on subsets
    that all contain the fixed element.
    """

    m: int
    element: int

    def apply(self, s: Subset) -> Subset:
        if s.m != self.m:
            raise ValueError("ground-set mismatch")
        if not s.contains(self.element):
            raise ValueError(f"{s} does not contain the fixed element {self.element}")
        low = s.bits & ((1 << (self.element - 1)) - 1)
        high = s.bits >> self.element
        return Subset(low | high << (self.element - 1), self.m - 1)


def fix_element_subfamily(m: int, n: int, a: int) -> tuple[SetFamily, ElementDeletion]:
    """The n-subsets of [m] containing a, plus the relabeling witness.

    The witness maps the subfamily isometrically onto the (n-1)-subsets of
    [m-1]; deleting the shared element preserves the total order, so vertex
    i of the subfamily corresponds to vertex i of gen_uniform(m-1, n-1).
    """
    if not 1 <= a <= m:
        raise ValueError(f"element {a} outside 1..{m}")
    if not 1 <= n <= m:
        raise ValueError("empty parameter range")
    rest = [e for e in range(1, m + 1) if e != a]
    verts = (Subset.of((a, *c), m) for c in combinations(rest, n - 1))
    return SetFamily.from_subsets(m, verts), ElementDeletion(m, a)
