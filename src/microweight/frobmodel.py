"""Block-structured exponent-lattice model of eigenvalue sets.

Multiplicative eigenvalue groups are torsion-free of finite rank, so they
embed in Z^r and every multiplicative identity becomes exact integer
arithmetic.  A point carries one scalar block (always exponent 1 on
construction) and two factor blocks; products of factor sets, the
shifted-difference statistic, scalar-square recovery, the conjugation
involution and the line/difference sets all live here.

The O(n^2) pair loops run on packed ints (``linalg.pack_points``): the
pairwise sums are one ``Counter.update`` per point, the fiber differences
one set update per point, and the line triples stream from
``affgeom.midpoint_triples``, which packs its points the same way.  Only
what a function returns is unpacked into tuples.  ``t_eta_count`` stays
on tuples: it is the independent recount behind the level-sets check.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .affgeom import (Configuration, detect_e7_config, midpoint_triples,
                      no_three_collinear)
from .linalg import pack_points, sub


# The largest product build_delta accepts.  At 1024 points each CLI
# operation takes at most 4.6 s and 90 MB peak RSS (Python 3.11, shared
# 2-core x86-64 host): the slowest is b-set on a 1024-point progression,
# the largest level-sets on a product whose 525k pairwise sums are all
# distinct.  The pair loops grow as the square of the product size.
MAX_PRODUCT_SIZE = 1024


class StructureError(ValueError):
    """Input violates the product-decomposition hypotheses."""


@dataclass(frozen=True)
class BlockStructure:
    """Dimensions of the three lattice blocks: scalar (always 1), first
    factor, second factor."""
    d1: int
    d2: int

    @property
    def total_dim(self):
        return 1 + self.d1 + self.d2

    def block1(self, point):
        return tuple(point[1:1 + self.d1])

    def block2(self, point):
        return tuple(point[1 + self.d1:])


@dataclass
class EigenSet:
    """A set of lattice points with the declared block structure,
    together with the factor sets it was built from."""
    structure: BlockStructure
    elements: frozenset
    factor1: frozenset
    factor2: frozenset

    def __len__(self):
        return len(self.elements)

    def support(self):
        return tuple(sorted(self.elements))

    def __contains__(self, p):
        return tuple(p) in self.elements


def _lattice_entry(x):
    """An integer coordinate; bools, floats and non-integral values are
    rejected instead of coerced."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)) or x.denominator != 1:
        raise ValueError(f"lattice coordinate {x!r} is not an integer")
    return int(x)


def _lattice_point(p):
    """A point as a tuple of integer coordinates; a point that is not a
    list or tuple is rejected."""
    if not isinstance(p, (list, tuple)):
        raise ValueError(f"lattice point {p!r} is not a list of coordinates")
    return tuple(map(_lattice_entry, p))


def build_delta(d1_points, d2_points):
    """Product set with scalar exponent 1 on every element; a product of
    more than MAX_PRODUCT_SIZE points is rejected before it is built."""
    d1_points = frozenset(map(_lattice_point, d1_points))
    d2_points = frozenset(map(_lattice_point, d2_points))
    if not d1_points or not d2_points:
        raise StructureError("both factor sets must be nonempty")
    size = len(d1_points) * len(d2_points)
    if size > MAX_PRODUCT_SIZE:
        raise StructureError(
            f"product of {len(d1_points)} x {len(d2_points)} = {size} points "
            f"exceeds the limit of {MAX_PRODUCT_SIZE}")
    d1 = len(next(iter(d1_points)))
    d2 = len(next(iter(d2_points)))
    if any(len(p) != d1 for p in d1_points) or any(len(p) != d2 for p in d2_points):
        raise StructureError("factor points have inconsistent dimensions")
    structure = BlockStructure(d1, d2)
    elements = frozenset((1,) + a + b for a, b in product(d1_points, d2_points))
    return EigenSet(structure, elements, d1_points, d2_points)


def inverse_closed(points):
    """True iff the set is closed under negation."""
    pts = {tuple(p) for p in points}
    return pts == {tuple(-x for x in p) for p in pts}


def t_eta_count(delta, eta):
    """Number of elements d for which eta - d is again an element."""
    eta = _lattice_point(eta)
    if len(eta) != delta.structure.total_dim:
        raise StructureError("eta does not match the lattice dimension")
    return sum(sub(eta, d) in delta.elements for d in delta.elements)


def _pair_sum_counts(delta):
    """``(counts, unpack)``: the t_eta_count of every pairwise sum eta,
    from one pass over the ordered pairs (eta - d is an element exactly
    when (d, eta - d) is a pair summing to eta).  ``counts`` is keyed by
    the packed int of eta (``linalg.pack_points``) and ``unpack`` turns a
    key back into eta."""
    keys, unpack = pack_points(delta.elements)
    counts = Counter()
    for a in keys:
        counts.update(map(a.__add__, keys))
    return counts, unpack


def sum_set(delta):
    """All pairwise sums of elements (as a set)."""
    counts, unpack = _pair_sum_counts(delta)
    return set(map(unpack, counts))


def invariant_level_sets(delta):
    """Partition of the pairwise-sum set by the shifted-difference count."""
    counts, unpack = _pair_sum_counts(delta)
    levels = {}
    for key, count in counts.items():
        levels.setdefault(count, set()).add(unpack(key))
    return levels


def recover_lambda_sq(delta):
    """The unique pairwise sum whose shifted-difference count equals the
    number of elements; equals twice the scalar unit for any product set
    with negation-closed factors."""
    total = len(delta)
    counts, unpack = _pair_sum_counts(delta)
    hits = [key for key, count in counts.items() if count == total]
    if len(hits) != 1:
        raise StructureError(
            f"expected exactly one full-count sum, found {len(hits)}; "
            "the factor sets are not negation-closed")
    return unpack(hits[0])


def weil_involution(delta, x):
    """Identity on the scalar block, negation on both factor blocks."""
    x = _lattice_point(x)
    if len(x) != delta.structure.total_dim:
        raise StructureError("point does not match the lattice dimension")
    return x[:1] + tuple(-v for v in x[1:])


def line_set(delta):
    """Iterator over all ordered triples of distinct elements (d1, mid, d2)
    with 2*mid = d1 + d2, in sorted (d1, mid) order."""
    return midpoint_triples(delta.elements)


def b_set(delta):
    """Differences endpoint-minus-midpoint over all line triples; closed
    under negation by construction."""
    out = set()
    for d1, mid, d2 in midpoint_triples(delta.elements):
        out.add(sub(d1, mid))
        out.add(sub(d2, mid))
    return out


def fiber_constancy_check(delta):
    """The line triples that do not project to a single point of the
    second factor block, in sorted (d1, mid) order; an empty tuple means
    every line triple is constant on the second block.

    Precondition: the second factor has no collinear triples (it is a
    cube-vertex set); violated preconditions are rejected with a witness.
    """
    s = delta.structure
    if s.d2 > 0:
        cfg2 = Configuration(delta.factor2)
        ok2, witness = no_three_collinear(cfg2)
        if not ok2:
            raise StructureError(
                f"second factor contains a collinear triple: {witness}")
    return tuple((d1, mid, d2) for d1, mid, d2 in midpoint_triples(delta.elements)
                 if not s.block2(d1) == s.block2(mid) == s.block2(d2))


def _fibers(delta):
    """Group the support by second-block value."""
    s = delta.structure
    fibers = {}
    for p in delta.support():
        fibers.setdefault(s.block2(p), []).append(p)
    return fibers


def e7_fiber_projection_check(delta):
    """Detect 56-point weight-system configurations on the canonical
    second-block fibers.

    Returns one ``(b2, mapping, diffs)`` per fiber that carries such a
    configuration: the second-block value, the detected affine map and the
    set of pairwise differences of the fiber's points, the zero element
    included, as full lattice points.  A fiber fixes the scalar and the
    second block, so its points are distinct in the first block, and the
    differences vanish on the scalar and second blocks and are closed under
    negation.  A structural error is raised if no fiber carries the
    configuration.
    """
    s = delta.structure
    found = []
    for b2, members in sorted(_fibers(delta).items()):
        if len(members) != 56:
            continue
        pts = [s.block1(p) for p in members]
        mapping = detect_e7_config(Configuration(pts))
        if mapping is None:
            continue
        keys, unpack = pack_points(pts)
        packed = set()
        for a in keys:
            packed.update(map(a.__sub__, keys))
        tail = (0,) * s.d2
        diffs = frozenset((0,) + unpack(k) + tail for k in packed)
        found.append((b2, mapping, diffs))
    if not found:
        raise StructureError("no weight-system configuration found on any fiber")
    return found
