"""Exact affine geometry on finite rational point configurations.

Covers collinearity scans, the level counts of the separating hyperplane
partition of the 56-point weight system, and detection of point sets
affinely isomorphic to that weight system in four stages: size,
antipodality and dimension; the row profile of the hat matrix, an affine
invariant; backtracking on equal hat-matrix entries; and an integer
verify of the assembled map.

Caller points are checked by ``linalg.exact_tuple`` (an int or a Fraction
in every coordinate, never a coerced float), and point sets are cleared
to one common denominator by ``linalg.clear_denominators``, so the scans
and the detection run on int tuples.  The collinearity count first
tests, when there are more than four points per dimension, whether the
points lie on one ellipsoid of their affine hull, which no line meets
three times; otherwise it counts primitive directions as single ints,
packed by ``linalg.pack_points``.  A configuration checks and sorts its
int points on construction; its Fraction points, barycenter, affine
dimension and antipodal symmetry are each computed when first read.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from operator import eq, floordiv, mul

from . import linalg
from .linalg import add, clear_denominators, dot, exact_tuple, mat_vec, neg, scale, sub
from .rootsystem import (build_root_system, int_points, int_weight,
                         to_simple_root_coords)
from .weylorbit import fundamental_weight, orbit, orbit_words


class DetectionInconclusive(RuntimeError):
    """Backtracking search hit the node-expansion cap before deciding."""


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
        base, *rest = self.int_points
        return len(linalg.independent_rows([sub(q, base) for q in rest], self.dim))

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


def _on_one_ellipsoid(ints):
    """True when the distinct int points lie on one nondegenerate
    ellipsoid of their affine hull, so that no line meets three of them.

    With y = n q - sums the centred points (n times the offset from the
    barycenter) and C the matrix with rows y, the rows of C^T C that are
    independent pick coordinates on which the columns of C are
    independent.  On those coordinates the centred points z lose nothing,
    M = sum z z^T is positive definite, and ``int_inverse`` gives
    adj = det(M) M^-1, so the test is that z^T adj z is one int for every
    point.  Dividing adj by the gcd of its entries changes none of the
    comparisons and keeps the values small: on the sign vectors of rank m
    adj is a huge multiple of the identity."""
    n = len(ints)
    sums = [sum(col) for col in zip(*ints)]
    cols = [[n * x - s for x in col] for col, s in zip(zip(*ints), sums)]
    gram = [[sum(map(mul, a, b)) for b in cols] for a in cols]
    coords = linalg.independent_rows(gram)
    _, adj = linalg.int_inverse([[gram[i][j] for j in coords] for i in coords])
    g = gcd(*[gcd(*row) for row in adj])
    adj = [[x // g for x in row] for row in adj]
    values = (sum(map(mul, z, [sum(map(mul, row, z)) for row in adj]))
              for z in zip(*[cols[c] for c in coords]))
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
    orb = orbit(system, fundamental_weight(system, 7))
    den, pts = clear_denominators(to_simple_root_coords(system, scale(2, x))
                                  for x in orb.support)
    assert den == 1
    return frozenset(pts)


# ---------------------------------------------------------------------------
# separating hyperplane partition


@lru_cache(maxsize=1)
def _top_orbit():
    """The E7 orbit of omega_7: its words, the orbit as int tuples at one
    scale ``den``, and the last-coordinate dual as an ``int_weight`` pair.
    The dual is the vector d of the span with (d, alpha_j) equal to 1 for
    the last simple root and 0 otherwise, so (d, x) is the last
    simple-root coordinate of any x in the span."""
    system = build_root_system("E7", 7)
    words = orbit_words(system, fundamental_weight(system, 7))
    points, den = int_points(system, words)
    form = system.int_form
    dual = int_weight(system, form.dual(system.rank - 1))
    return words, points, den, dual


def separation_partition(w):
    """``{value: count}``: the level counts of the transported
    top-coordinate functional on the 56-point E7 weight system.

    The functional realizing the 1/27/27/1 partition for the highest
    weight is the last simple-root coordinate (doubled); for any other
    orbit element w it is transported along the reflection word reaching
    w.  Values are reported on the doubled weight coordinates.  A w that
    is not in the orbit raises ValueError.
    """
    words, points, den, (d, d_scale) = _top_orbit()
    w = exact_tuple(w)
    if w not in words:
        raise ValueError(f"{w} is not an element of the E7 weight system")
    form = build_root_system("E7", 7).int_form
    for i in words[w]:
        d, d_scale = form.reflect(form.simple[i], d, d_scale)
    # the functional 2d / d_scale takes the value 2 (d.x) / (d_scale * den)
    counts = Counter(2 * dot(d, x) for x in points)
    level = d_scale * den
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


def _hat(points, cols):
    """``(d, row)``: ``d = det(X^T X)`` for the full-rank int points X,
    and ``row(x)`` lists ``24 d P(x, y)`` as ints for y in cols, where
    ``P(x, y) = x^T (X^T X)^-1 y``.  On the points, P is the hat matrix
    ``X (X^T X)^-1 X^T``, which no invertible linear map changes."""
    gram_cols = list(zip(*points))
    d, inv = linalg.int_inverse([[dot(a, b) for b in gram_cols] for a in gram_cols])

    def row(x):
        w = [24 * v for v in mat_vec(inv, x)]
        return [sum(map(mul, w, y)) for y in cols]
    return d, row


@lru_cache(maxsize=1)
def _target():
    """The sorted target points (barycenter 0), their hat matrix ``24 P``
    (entries 3, 1, -1, -3) and its row profile, the same for every row."""
    points = tuple(sorted(omega56()))
    d, hat_row = _hat(points, points)
    hat = tuple(tuple(v // d for v in hat_row(x)) for x in points)
    return points, hat, Counter(hat[0])


def _profile_matches(d, half_rows, profile):
    """Every row of ``24 d P`` has the target's row profile.  A half row
    holds P of one point of an antipodal pair against one point of every
    pair.  As ``P(-x, y) = P(x, -y) = -P(x, y)``, a full row is a half row
    and its negation, and the other rows are negated rows; the profile is
    symmetric and has no zero, so absolute values decide every full row."""
    want = {d * v: k for v, k in profile.items() if v > 0}
    return all(Counter(map(abs, row)) == want for row in half_rows)


def detect_e7_config(config, node_cap=10 ** 7):
    """Search for an exact affine isomorphism carrying the configuration
    onto the canonical 56-point weight system.

    Returns an AffineMap on success and None when the configuration is
    provably not of that type.  Raises DetectionInconclusive if the
    backtracking search exceeds ``node_cap`` candidate expansions.

    Four stages on machine ints: (1) size, antipodal symmetry (an O(n)
    check, so it comes first) and affine dimension 7; (2) the row profile
    of the hat matrix P of the centred points (1/8 and -1/8 once, 1/24 and
    -1/24 27 times each); (3) backtracking that assigns target images to 7
    independent basis points, keeping a candidate only when P is equal on
    every assigned pair; (4) a verify that the linear map fixed by the
    basis images carries every point into the target, since equal P on the
    basis does not imply that.
    """
    target, target_hat, profile = _target()
    if len(config) != len(target):
        return None
    if not config.antipodal:
        return None
    if config.affine_dimension != 7:
        return None

    # the centred points y = (n den / g) (p - barycenter), as ints
    n = len(config)
    sums = [sum(col) for col in zip(*config.int_points)]
    centred = [tuple(n * x - t for x, t in zip(q, sums)) for q in config.int_points]
    g = gcd(*(x for y in centred for x in y))
    centred = [tuple(x // g for x in y) for y in centred]
    # negation reverses the sorted order and, with an even number of
    # points, fixes none: the first half holds one point of each pair
    basis = linalg.independent_rows(centred[:n // 2], 7)
    # coordinates independent on the basis are independent on its span,
    # which holds every centred point
    coords = linalg.independent_rows(list(zip(*(centred[k] for k in basis))), 7)
    pts = [tuple(y[c] for c in coords) for y in centred]
    half = pts[:n // 2]

    d, hat_row = _hat(pts, half)
    if not _profile_matches(d, map(hat_row, half), profile):
        return None

    # 24 P on the basis pairs, None where it is not an integer
    need = [[q if r == 0 else None for q, r in (divmod(row[j], d) for j in basis)]
            for row in (hat_row(half[k]) for k in basis)]
    # kappa . B = e * y: the basis coordinates of y, times e
    e, b_inv = linalg.int_inverse([pts[i] for i in basis])
    b_inv_cols = list(zip(*b_inv))
    kappas = [[sum(map(mul, col, y)) for col in b_inv_cols] for y in pts]
    target_set = {tuple(e * x for x in t) for t in target}

    def maps_onto_target(assigned):
        image_cols = list(zip(*(target[a] for a in assigned)))
        return {tuple(sum(map(mul, col, kappa)) for col in image_cols)
                for kappa in kappas} == target_set

    nodes = 0

    def search(assigned):
        nonlocal nodes
        k = len(assigned)
        for t in range(len(target)):
            # P on (basis k, basis i) for every i <= k, the pair (k, k) too
            if t in assigned or any(target_hat[t][a] != c
                                    for c, a in zip(need[k], assigned + [t])):
                continue
            nodes += 1
            if nodes > node_cap:
                raise DetectionInconclusive(
                    f"node cap {node_cap} exceeded during matching")
            assigned.append(t)
            found = search(assigned) if k < 6 else maps_onto_target(assigned)
            if found:
                return True
            assigned.pop()
        return False

    assigned = []
    if not search(assigned):
        return None

    # on coords, y maps to (y . E) . T / e, with E = e B^-1 and T the
    # basis images as rows: the matrix is s (E . T) transposed, with
    # s = n den / (g e), built once, in Fractions
    s = Fraction(n * config.den, g * e)
    image_cols = list(zip(*(target[a] for a in assigned)))
    matrix = [[Fraction(0)] * config.dim for _ in range(7)]
    for c, row in zip(coords, b_inv):
        for r, v in enumerate(mat_vec(image_cols, row)):
            matrix[r][c] = s * v
    matrix = tuple(map(tuple, matrix))
    return AffineMap(matrix, neg(mat_vec(matrix, config.barycenter)))
