"""Exact affine geometry on finite rational point configurations.

Covers collinearity scans, the level counts of the separating hyperplane
partition of the 56-point weight system, and detection of point sets
affinely isomorphic to that weight system in three stages: size,
antipodality and dimension; the row profile of the hat matrix, an affine
invariant; and a backtracking matching of antipodal pairs that keeps the
hat matrix, which fixes the map.

Caller points are checked by ``linalg.exact_tuple`` (an int or a Fraction
in every coordinate, never a coerced float), and point sets are cleared
to one common denominator by ``linalg.clear_denominators``, so the scans
and the detection run on int tuples.  One kernel (``_hat_form``) gives
the affine dimension and the hat matrix of the centred points: detection
reads its row profile, and the collinearity count, with more than four
points per dimension, first tests whether its diagonal is constant, so
that the points lie on one ellipsoid of their affine hull, which no line
meets three times; otherwise it counts primitive directions as single
ints, packed by ``linalg.pack_points``.  A configuration checks and sorts
its int points on construction; its Fraction points, barycenter, affine
dimension and antipodal symmetry are each computed when first read.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import tee
from math import gcd
from operator import eq, floordiv, mul

from . import linalg
from .linalg import add, clear_denominators, dot, exact_tuple, mat_vec, neg, scale
from .rootsystem import build_root_system, int_points, to_simple_root_coords
from .weylorbit import fundamental_weight, orbit


# detection matching expansions before it gives up (28-35 on E7 images)
NODE_CAP = 10 ** 7


class DetectionInconclusive(RuntimeError):
    """The detection matching hit ``NODE_CAP`` before deciding."""


class Configuration:
    """A finite set of distinct rational points of common dimension.

    Coordinates must be ints or Fractions; a bool, float or string is
    rejected with a ValueError, never coerced.

    ``den`` is the least common denominator of all coordinates and
    ``int_points`` holds the points times ``den`` as sorted tuples of
    ints; construction checks and sorts them and computes nothing else.
    ``points`` (the same points as sorted tuples of Fractions),
    ``barycenter``, ``affine_dimension`` and ``antipodal`` are each
    computed from the int points when first read.  Instances are
    immutable.
    """

    def __init__(self, points):
        den, ints = clear_denominators(points)
        if not ints:
            raise ValueError("a configuration needs at least one point")
        dim = len(ints[0])
        if any(len(q) != dim for q in ints):
            raise ValueError("points have inconsistent dimensions")
        # scaling by den > 0 keeps the lexicographic order
        ints.sort()
        if any(map(eq, ints, ints[1:])):
            raise ValueError("configuration points must be distinct")
        self.int_points = tuple(ints)
        self.den = den
        self.dim = dim

    @cached_property
    def points(self):
        return tuple(tuple(Fraction(x, self.den) for x in q) for q in self.int_points)

    @cached_property
    def barycenter(self):
        n = len(self.int_points) * self.den
        return tuple(Fraction(sum(col), n) for col in zip(*self.int_points))

    @cached_property
    def affine_dimension(self):
        return len(_hat_form(self.int_points)[0])

    @cached_property
    def antipodal(self):
        # p -> 2*barycenter - p reverses the sorted order, so it must pair
        # q_i with q_{n-1-i}: times n*den, n*(q_i + q_{n-1-i}) = 2*sums
        ints = self.int_points
        n = len(ints)
        twice = [2 * sum(col) for col in zip(*ints)]
        return all([n * (x + y) for x, y in zip(p, q)] == twice
                   for p, q in zip(ints, reversed(ints)))

    def __len__(self):
        return len(self.int_points)

    def __repr__(self):
        return f"Configuration({len(self.int_points)} points, dim {self.dim})"


def _direction_keys(ints):
    """``(i, keys)`` for each sorted int point i with at least two later
    points: the packed keys (``linalg.pack_points``) of the primitive
    directions from point i to each later point, in order.

    The packing is linear and one-to-one on differences of two points, so
    the primitive direction (q_j - q_i) / g has the key (K_j - K_i) // g,
    with g the gcd of the coordinate differences.  Every later point
    differs from point i first in a larger coordinate, so each direction
    already has its first nonzero entry positive."""
    keys, _ = linalg.pack_points(ints)
    cols = list(zip(*ints))
    for i in range(len(ints) - 2):
        gcds = map(gcd, *[map(x.__rsub__, col[i + 1:]) for x, col in zip(ints[i], cols)])
        yield i, map(floordiv, map(keys[i].__rsub__, keys[i + 1:]), gcds)


def _hat_form(ints):
    """``(coords, d, adj, centred)``: the hat matrix of n distinct int
    points with coordinate sums s, which no invertible affine map changes.

    The Gram matrix of the centred points y = n q - s (n times the offset
    from the barycenter) is n (n Q^T Q - s s^T), from the raw columns; its
    independent rows pick ``coords``, as many as the affine dimension, on
    which the centred points lose nothing and M = sum y y^T is invertible.
    ``centred(q)`` is y on coords, and ``adj / d = M^-1``, both divided by
    the gcd of the entries of adj to keep them small (``d`` stays an int
    as M adj = d I), so P(x, y) = centred(x)^T adj centred(y) / d."""
    n = len(ints)
    cols = list(zip(*ints))
    sums = [sum(col) for col in cols]
    gram = [[n * (n * sum(map(mul, a, b)) - s * t) for b, t in zip(cols, sums)]
            for a, s in zip(cols, sums)]
    coords = linalg.independent_rows(gram)
    d, adj = linalg.int_inverse([[gram[i][j] for j in coords] for i in coords])
    g = gcd(*[gcd(*row) for row in adj]) or 1

    def centred(q):
        return [n * q[c] - sums[c] for c in coords]
    return coords, d // g, [[x // g for x in row] for row in adj], centred


def _on_one_ellipsoid(ints):
    """True when the distinct int points lie on one nondegenerate
    ellipsoid of their affine hull, so that no line meets three of them:
    the diagonal of their hat matrix (``_hat_form``) is constant, that is
    z^T adj z is one int for every centred point z."""
    _, _, adj, centred = _hat_form(ints)
    values = (sum(map(mul, z, [sum(map(mul, row, z)) for row in adj]))
              for z in map(centred, ints))
    first = next(values, None)
    return all(v == first for v in values)


def collinear_triple_count(config):
    """Exact number of unordered collinear triples in the configuration.

    With more than four points per dimension, where the O(n dim^2)
    ellipsoid test (``_on_one_ellipsoid``) costs less than the O(n^2 dim)
    scan, the points are first tested for lying on one ellipsoid; if they
    do, the count is 0.  Otherwise each triple is counted once, from its
    smallest point, as a pair of later points in the same direction."""
    ints = config.int_points
    if len(ints) > 4 * config.dim and _on_one_ellipsoid(ints):
        return 0
    total = 0
    for _, keys in _direction_keys(ints):
        for k in Counter(keys).values():
            total += k * (k - 1) // 2
    return total


def no_three_collinear(config):
    """(True, None) when no three distinct points are collinear, else
    (False, lexicographically-first witness triple)."""
    if collinear_triple_count(config) == 0:
        return True, None
    ints = config.int_points
    for i, keys in _direction_keys(ints):
        # (b, c) for every later pair in a common direction; the first
        # point of each direction is remembered
        seen, pairs = {}, []
        for j, d in enumerate(keys, start=i + 1):
            b = seen.setdefault(d, j)
            if b != j:
                pairs.append((b, j))
        if pairs:
            b, c = min(pairs)
            return False, tuple(tuple(Fraction(x, config.den) for x in ints[t])
                                for t in (i, b, c))
    raise AssertionError("positive triple count but no witness found")


def midpoint_triples(points):
    """Every triple of distinct points (d1, mid, d2) with 2*mid = d1 + d2,
    in sorted (d1, mid) order; (d2, mid, d1) is listed as well.

    The points are cleared to one common denominator and packed into
    ints (``linalg.pack_points``).  2*mid and d1 + d2 are sums of two
    points, where the packing is linear and one-to-one, so 2*mid = d1 + d2
    is one int equation: for each d1 the doubled keys that equal d1 plus
    some point's key are found by one set intersection."""
    members = sorted(set(map(tuple, points)))
    keys, _ = linalg.pack_points(clear_denominators(members)[1])
    index = {k: i for i, k in enumerate(keys)}
    doubled = {2 * k: j for j, k in enumerate(keys)}
    for i, a in enumerate(keys):
        d1 = members[i]
        # the packing keeps the order, so sorted sums list mid in order
        for s in sorted(doubled.keys() & map(a.__add__, keys)):
            j = doubled[s]
            if j != i:
                yield d1, members[j], members[index[s - a]]


# ---------------------------------------------------------------------------
# the canonical 56-point weight system in integer simple-root coordinates


@lru_cache(maxsize=1)
def omega56():
    """The 56-point minuscule E7 weight system, doubled and written in
    simple-root coordinates so that every entry is an integer."""
    system = build_root_system("E7", 7)
    den, pts = clear_denominators(to_simple_root_coords(system, scale(2, x))
                                  for x in top_orbit()[0])
    assert den == 1
    return frozenset(pts)


# ---------------------------------------------------------------------------
# separating hyperplane partition


@lru_cache(maxsize=1)
def top_orbit():
    """``({w: X}, den)``: the sorted E7 orbit of omega_7, each weight w
    mapped to the int tuple X = den * w at one scale; verify-e7 reads it."""
    system = build_root_system("E7", 7)
    orb = orbit(system, fundamental_weight(system, 7))
    points, den = int_points(system, orb.support)
    return dict(zip(orb.support, points)), den


def separation_partition(w):
    """``{value: count}``: the level counts of the transported
    top-coordinate functional on the 56-point E7 weight system.

    At omega_7 the functional is the last simple-root coordinate, which is
    (omega_7, .) as every E7 root has norm 2.  Transported by a Weyl group
    element g with g(omega_7) = w it is (w, .), since W preserves the inner
    product; so the levels are the doubled inner products 2 (w, x) over
    the orbit.  A w that is not in the orbit raises ValueError.
    """
    points, den = top_orbit()
    w = exact_tuple(w)
    x = points.get(w)
    if x is None:
        raise ValueError(f"{w} is not an element of the E7 weight system")
    # 2 (w, y) = 2 (X.Y) / den^2 for the int tuples X, Y of w and y
    counts = Counter(2 * dot(x, y) for y in points.values())
    level = den * den
    return {Fraction(v, level): n for v, n in counts.items()}


# ---------------------------------------------------------------------------
# detection of configurations affinely isomorphic to the weight system


@dataclass(frozen=True)
class AffineMap:
    """f(x) = matrix . x + translation, exact rationals."""
    matrix: tuple       # rows, shape 7 x ambient_dim
    translation: tuple  # length 7

    def apply(self, x):
        return add(mat_vec(self.matrix, exact_tuple(x)), self.translation)


def _hat_rows(adj, xs, ys):
    """``24 x^T adj y`` for y in ys, one list per x in xs: the rows of
    ``24 d P`` of a ``_hat_form`` on centred points."""
    for x in xs:
        w = [24 * sum(map(mul, row, x)) for row in adj]
        yield [sum(map(mul, w, y)) for y in ys]


@lru_cache(maxsize=1)
def _target():
    """The sorted target points (barycenter 0), their hat matrix ``24 P``
    (entries 3, 1, -1, -3) and its row profile, the same for every row."""
    points = tuple(sorted(omega56()))
    _, d, adj, centred = _hat_form(points)
    ys = list(map(centred, points))
    hat = tuple(tuple(v // d for v in row) for row in _hat_rows(adj, ys, ys))
    return points, hat, Counter(hat[0])


def _profile_matches(d, half_rows, profile):
    """Every row of ``24 d P`` has the target's row profile.  A half row
    holds P of one point of an antipodal pair against one point of every
    pair.  As ``P(-x, y) = P(x, -y) = -P(x, y)``, a full row is a half row
    and its negation, and the other rows are negated rows; the profile is
    symmetric and has no zero, so absolute values decide every full row."""
    want = {d * v: k for v, k in profile.items() if v > 0}
    return all(Counter(map(abs, row)) == want for row in half_rows)


def detect_e7_config(config):
    """Search for an exact affine isomorphism carrying the configuration
    onto the canonical 56-point weight system.

    Returns an AffineMap on success and None when the configuration is
    provably not of that type.  Raises DetectionInconclusive if the
    matching expands more than ``NODE_CAP`` candidates.

    Three stages on machine ints: (1) size, antipodal symmetry (an O(n)
    check, so it comes first) and affine dimension 7, the number of hull
    coordinates of ``_hat_form``; (2) the row profile of its hat matrix P
    of the centred points Y (1/8 and -1/8 once, 1/24 and -1/24 27 times
    each); (3) backtracking that gives each half point, in sorted order, a
    target t (t and its antipode unused) whose row of 24 P agrees on the
    point and on every one matched so far.  P projects onto the columns of
    Y, so matched targets Z that keep P have P Z = Z, and W = M^-1 Y^T Z
    carries Y onto Z: no verify follows.

    A set that passes (2) is positive: P is positive semidefinite of rank
    7; were P(x, x) = 1/24, the +-3/24 of x's half row would sit at some
    y != +-x, and Cauchy-Schwarz would give 9 <= 1 * 24 P(y, y) <= 3.  So
    24 P on the half is the Gram matrix of 28 equiangular lines in R^7
    (|cos| = 1/3), unique up to isometry (Lemmens and Seidel, "Equiangular
    lines", J. Algebra 24, 1973).  The search does not rely on this: it is
    complete on its own.
    """
    target, target_hat, profile = _target()
    if len(config) != len(target):
        return None
    if not config.antipodal:
        return None
    coords, d, adj, centred = _hat_form(config.int_points)
    if len(coords) != 7:
        return None

    n = len(config)
    # negation reverses the sorted order and fixes no point of an even set:
    # the first half holds one of each pair, and target t pairs with n - 1 - t
    half = list(map(centred, config.int_points[:n // 2]))
    # the profile stops at its first failing row; the matching reads all
    rows, kept = tee(_hat_rows(adj, half, half))
    if not _profile_matches(d, rows, profile):
        return None
    need = list(kept)  # 24 d P on the half

    assigned = []
    nodes = 0

    def search():
        nonlocal nodes
        k = len(assigned)
        if k == len(half):
            return True
        for t, hat in enumerate(target_hat):
            if t in assigned or n - 1 - t in assigned or any(
                    d * hat[a] != v for v, a in zip(need[k], assigned + [t])):
                continue
            nodes += 1
            if nodes > NODE_CAP:
                raise DetectionInconclusive(
                    f"node cap {NODE_CAP} exceeded during matching")
            assigned.append(t)
            if search():
                return True
            assigned.pop()
        return False

    if not search():
        return None

    # z = W^T y on coords, with y = n den (p - barycenter): the matrix is
    # s (adj Y^T Z)^T, s = n den / d, and Y^T Z over all points is twice
    # that over the half, as -y goes to -z
    zty = [[2 * sum(map(mul, z, y)) for y in zip(*half)]
           for z in zip(*(target[t] for t in assigned))]
    s = Fraction(n * config.den, d)
    matrix = [[Fraction(0)] * config.dim for _ in range(7)]
    for c, row in zip(coords, adj):
        for r, v in enumerate(mat_vec(zty, row)):
            matrix[r][c] = s * v
    matrix = tuple(map(tuple, matrix))
    return AffineMap(matrix, neg(mat_vec(matrix, config.barycenter)))
