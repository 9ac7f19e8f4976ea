"""Exact affine geometry on finite rational point configurations.

Covers collinearity scans, cube-vertex coordinate checks, the separating
hyperplane partition of the 56-point weight system, and detection of
point sets affinely isomorphic to that weight system.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import linalg
from .linalg import add, dot, mat_vec, neg, scale, sub, vec
from .rootsystem import (as_fractions, build_root_system, int_points, int_weight,
                         to_simple_root_coords)
from .weylorbit import fundamental_weight, orbit, orbit_words


class DetectionInconclusive(RuntimeError):
    """Backtracking search hit the node-expansion cap before deciding."""


class Configuration:
    """A finite set of distinct rational points of common dimension.

    ``points`` holds the points as sorted tuples of Fractions.  The
    integer form is built once on construction: ``den`` is the least
    common denominator of all coordinates and ``int_points[i]`` is
    ``den * points[i]`` as a tuple of ints, in the same order.  Affine
    dimension, barycenter and antipodal symmetry are computed from the
    integer form and cached; instances are immutable.
    """

    def __init__(self, points):
        pts = [vec(p) for p in points]
        if not pts:
            raise ValueError("a configuration needs at least one point")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise ValueError("points have inconsistent dimensions")
        den = lcm(*{x.denominator for p in pts for x in p})
        ints = [tuple(x.numerator * (den // x.denominator) for x in p) for p in pts]
        if len(set(ints)) != len(ints):
            raise ValueError("configuration points must be distinct")
        # scaling by den > 0 keeps the lexicographic order
        pairs = sorted(zip(ints, pts))
        self.points = tuple(p for _, p in pairs)
        self.int_points = tuple(q for q, _ in pairs)
        self.den = den
        self.dim = dim
        n = len(pts)
        sums = [sum(col) for col in zip(*ints)]
        self.barycenter = tuple(Fraction(s, n * den) for s in sums)
        base = self.int_points[0]
        self.affine_dimension = linalg.rank(
            [sub(q, base) for q in self.int_points[1:]])
        # p is mirrored to 2*barycenter - p; times n*den that is 2*sums - n*q
        scaled = {tuple(n * x for x in q) for q in self.int_points}
        self.antipodal = all(
            tuple(2 * s - n * x for s, x in zip(sums, q)) in scaled
            for q in self.int_points)

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"Configuration({len(self.points)} points, dim {self.dim})"


def affine_dimension(config):
    return config.affine_dimension


def _directions_from(int_points, i):
    """Primitive integer directions from point i to each later point.

    The points are sorted, so every later point differs from point i first
    in a larger coordinate: each direction already has its first nonzero
    entry positive and needs no sign normalization.
    """
    p = int_points[i]
    out = []
    for q in int_points[i + 1:]:
        d = sub(q, p)
        g = gcd(*d)
        out.append(d if g == 1 else tuple(x // g for x in d))
    return out


def collinear_triple_count(config):
    """Exact number of unordered collinear triples in the configuration.

    Each triple is counted once, from its smallest point, as a pair of
    later points in the same direction."""
    ints = config.int_points
    total = 0
    for i in range(len(ints)):
        for k in Counter(_directions_from(ints, i)).values():
            total += k * (k - 1) // 2
    return total


def no_three_collinear(config):
    """(True, None) when no three distinct points are collinear, else
    (False, lexicographically-first witness triple)."""
    if collinear_triple_count(config) == 0:
        return True, None
    ints = config.int_points
    for i in range(len(ints)):
        # (b, c) for every later pair in a common direction; the first
        # point of each direction is remembered
        seen, pairs = {}, []
        for j, d in enumerate(_directions_from(ints, i), start=i + 1):
            b = seen.setdefault(d, j)
            if b != j:
                pairs.append((b, j))
        if pairs:
            b, c = min(pairs)
            return False, (config.points[i], config.points[b], config.points[c])
    raise AssertionError("positive triple count but no witness found")


def midpoint_triples(points):
    """Every triple of distinct points (d1, mid, d2) with 2*mid = d1 + d2,
    in sorted (d1, mid) order; (d2, mid, d1) is listed as well."""
    members = sorted(set(map(tuple, points)))
    member_set = set(members)
    for d1 in members:
        for mid in members:
            if mid != d1:
                d2 = sub(add(mid, mid), d1)
                if d2 in member_set:
                    yield d1, mid, d2


def is_pm1_in_basis(config, basis, origin):
    """True iff every point is origin plus a {-1,+1} combination of the
    independent basis vectors."""
    basis = [vec(b) for b in basis]
    if linalg.rank(basis) != len(basis):
        raise ValueError("basis vectors are linearly dependent")
    origin = vec(origin)
    for p in config.points:
        coeffs = linalg.solve_in_basis(basis, sub(p, origin))
        if coeffs is None or any(c not in (1, -1) for c in coeffs):
            return False
    return True


# ---------------------------------------------------------------------------
# the canonical 56-point weight system in integer simple-root coordinates


@lru_cache(maxsize=1)
def omega56():
    """The 56-point minuscule E7 weight system, doubled and written in
    simple-root coordinates so that every entry is an integer."""
    system = build_root_system("E7", 7)
    orb = orbit(system, fundamental_weight(system, 7))
    pts = []
    for x in orb.support:
        coords = to_simple_root_coords(system, scale(2, x))
        assert linalg.is_integral(coords)
        pts.append(tuple(int(c) for c in coords))
    return frozenset(pts)


@lru_cache(maxsize=1)
def omega56_configuration():
    return Configuration(omega56())


# ---------------------------------------------------------------------------
# separating hyperplane partition


@lru_cache(maxsize=1)
def _top_orbit():
    """The E7 orbit of omega_7: its words, its sorted support, the support
    as int tuples at one scale ``den``, and the last-coordinate dual as an
    ``int_weight`` pair.  The dual is the vector d of the span with
    (d, alpha_j) equal to 1 for the last simple root and 0 otherwise, so
    (d, x) is the last simple-root coordinate of any x in the span."""
    system = build_root_system("E7", 7)
    words = orbit_words(system, fundamental_weight(system, 7))
    support = tuple(sorted(words))
    points, den = int_points(system, support)
    form = system.int_form
    dual = int_weight(system, form.dual(system.rank - 1))
    return words, support, points, den, dual


@dataclass(frozen=True)
class SeparationReport:
    functional: tuple        # ambient coefficient vector of the linear functional
    constant: Fraction
    level_counts: dict       # functional value -> number of weights

    def evaluate(self, x):
        return dot(self.functional, vec(x)) + self.constant


def separation_partition(weights, w):
    """Level counts of the transported top-coordinate functional on the
    56-point weight system.

    The functional realizing the 1/27/27/1 partition for the highest
    weight is the last simple-root coordinate (doubled); for any other
    orbit element it is transported along the reflection word reaching
    that element.  Values are reported on the doubled weight coordinates.
    """
    words, support, points, den, (d, d_scale) = _top_orbit()
    # both supports are sorted, so equal tuples mean equal sets
    if weights.support != support:
        raise ValueError("weights must be the minuscule E7 weight system")
    w = vec(w)
    if w not in weights:
        raise ValueError(f"{w} is not an element of the weight system")
    form = build_root_system("E7", 7).int_form
    for i in words[w]:
        d, d_scale = form.reflect(form.simple[i], d, d_scale)
    # the functional 2d / d_scale takes the value 2 (d.x) / (d_scale * den)
    counts = Counter(2 * dot(d, x) for x in points)
    level = d_scale * den
    functional = as_fractions([[2 * c for c in d]], d_scale)[0]
    return SeparationReport(functional, Fraction(0),
                            {Fraction(v, level): n for v, n in counts.items()})


# ---------------------------------------------------------------------------
# detection of configurations affinely isomorphic to the weight system


@dataclass(frozen=True)
class AffineMap:
    """f(x) = matrix . x + translation, exact rationals."""
    matrix: tuple       # rows, shape 7 x ambient_dim
    translation: tuple  # length 7

    def apply(self, x):
        return add(mat_vec(self.matrix, vec(x)), self.translation)


def _difference_counter(points):
    c = Counter()
    for a in points:
        for b in points:
            if a != b:
                c[sub(a, b)] += 1
    return c


@lru_cache(maxsize=1)
def _target_data():
    target = tuple(sorted(omega56()))
    diffs = _difference_counter(target)
    sigs = {p: tuple(sorted(diffs[sub(p, q)] for q in target if q != p))
            for p in target}
    return target, diffs, sigs, collinear_triple_count(omega56_configuration())


def _greedy_independent(points, k):
    chosen = []
    for p in points:
        if linalg.rank(chosen + [p]) == len(chosen) + 1:
            chosen.append(p)
            if len(chosen) == k:
                return chosen
    return None


def detect_e7_config(config, node_cap=10 ** 7):
    """Search for an exact affine isomorphism carrying the configuration
    onto the canonical 56-point weight system.

    Returns an AffineMap on success and None when the configuration is
    provably not of that type.  Raises DetectionInconclusive if the
    backtracking search exceeds ``node_cap`` candidate expansions (never
    observed on genuine instances; the invariant prefilters do the work).

    The search runs on the centred integer points ``s * (p - barycenter)``
    with ``s = len(config) * config.den``; the assembled matrix is scaled
    back by ``s``.
    """
    target, target_diffs, target_sigs, target_collinear = _target_data()
    target_set = set(target)
    if len(config) != len(target):
        return None
    if config.affine_dimension != 7:
        return None
    if not config.antipodal:
        return None
    if collinear_triple_count(config) != target_collinear:
        return None

    n = len(config)
    s = n * config.den
    sums = [sum(col) for col in zip(*config.int_points)]
    # n*q - sums keeps the sorted order of the integer points
    pts = tuple(tuple(n * x - t for x, t in zip(q, sums)) for q in config.int_points)
    pts_set = set(pts)
    diffs = _difference_counter(pts)
    if sorted(diffs.values()) != sorted(target_diffs.values()):
        return None
    sigs = {p: tuple(sorted(diffs[sub(p, q)] for q in pts if q != p)) for p in pts}
    if sorted(sigs.values()) != sorted(target_sigs.values()):
        return None

    basis = _greedy_independent(list(pts), 7)
    if basis is None:
        return None
    # coordinates in the basis: K = (B^T B)^{-1} B^T, shape 7 x d; every
    # centred point lies in the span of the basis
    inv = linalg.invert([[dot(bi, bj) for bj in basis] for bi in basis])
    k_rows = [tuple(dot(r, col) for col in zip(*basis)) for r in inv]
    coords = [mat_vec(k_rows, p) for p in pts]

    nodes = 0

    def compatible(candidate, assigned):
        bnew = basis[len(assigned)]
        for i, qi in enumerate(assigned):
            bi = basis[i]
            if diffs[sub(bnew, bi)] != target_diffs.get(sub(candidate, qi), 0):
                return False
        for i, qi in enumerate(assigned):
            bi = basis[i]
            step, image_step = sub(bnew, bi), sub(candidate, qi)
            for j, qj in enumerate(assigned):
                if i == j:
                    continue
                probe = add(step, basis[j])
                image = add(image_step, qj)
                if (probe in pts_set) != (image in target_set):
                    return False
            probe = sub(bi, step)  # reflection of bnew through bi
            image = sub(qi, image_step)
            if (probe in pts_set) != (image in target_set):
                return False
        return True

    def verify(assigned):
        image = set()
        for kappa in coords:
            y = (Fraction(0),) * 7
            for c, q in zip(kappa, assigned):
                if c:
                    y = add(y, scale(c, q))
            image.add(y)
        return image == target_set

    def search(assigned, used):
        nonlocal nodes
        level = len(assigned)
        bnew = basis[level]
        sig = sigs[bnew]
        for candidate in target:
            if candidate in used:
                continue
            if target_sigs[candidate] != sig:
                continue
            nodes += 1
            if nodes > node_cap:
                raise DetectionInconclusive(
                    f"node cap {node_cap} exceeded during matching")
            if not compatible(candidate, assigned):
                continue
            assigned.append(candidate)
            used.add(candidate)
            if len(assigned) == 7:
                if verify(assigned):
                    return list(assigned)
            else:
                result = search(assigned, used)
                if result is not None:
                    return result
            assigned.pop()
            used.remove(candidate)
        return None

    images = search([], set())
    if images is None:
        return None

    # the explicit matrix: coordinates in the basis followed by the
    # assigned images, times s to act on the unscaled points
    matrix = tuple(tuple(s * dot(image_col, k_col) for k_col in zip(*k_rows))
                   for image_col in zip(*images))
    translation = neg(mat_vec(matrix, config.barycenter))
    return AffineMap(matrix, translation)
