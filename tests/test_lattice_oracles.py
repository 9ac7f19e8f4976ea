"""The integer-lattice kernels of affgeom and linalg against plain Fraction
oracles written here, sharing no code with the library.

Configurations are random rational point sets in dimensions 1-4, with
negative numerators and denominators, planted collinear triples and
planted antipodal symmetry.  The collinearity scans also get point sets
in dimensions 0-6 with coordinates past 2**64, where the packing base of
the direction keys is huge, and sets of more than four points per
dimension on which the ellipsoid certificate is tried first: affine
images of sets on one ellipsoid, and the same sets with one point moved
off it or added inside it.  The hat-matrix kernel behind the certificate
and the E7 detection is held against the orthogonal projection onto the
columns of the centred points, by Fraction Gram-Schmidt.
"""

import random

from fractions import Fraction
from itertools import combinations, permutations, product
from operator import mul

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import apply_affine, random_affine_map
from microweight import affgeom, linalg
from microweight.affgeom import (Configuration, collinear_triple_count,
                                 midpoint_triples, no_three_collinear)

nonzero = st.integers(-4, 4).filter(bool)
rationals = st.builds(Fraction, st.integers(-6, 6), nonzero)


@st.composite
def point_sets(draw, max_points=9):
    """Distinct rational points in a random order.  Some sets get points
    on lines through two earlier points, some are mirrored through a
    random center."""
    dim = draw(st.integers(1, 4))
    point = st.tuples(*[rationals] * dim)
    pts = draw(st.lists(point, min_size=1, max_size=max_points))
    hub = min(pts)
    for _ in range(draw(st.integers(0, 4))):
        a = hub if draw(st.booleans()) else draw(st.sampled_from(pts))
        b = draw(st.sampled_from(pts))
        t = draw(rationals)
        pts.append(tuple(x + t * (y - x) for x, y in zip(a, b)))
    if draw(st.booleans()):
        center = draw(point)
        pts += [tuple(2 * c - x for c, x in zip(center, p)) for p in pts]
    return draw(st.permutations(sorted(set(pts))))


def is_collinear(a, b, c):
    """Every 2x2 minor of the two difference vectors vanishes."""
    u = [y - x for x, y in zip(a, b)]
    v = [z - x for x, z in zip(a, c)]
    return all(u[i] * v[j] == u[j] * v[i]
               for i in range(len(u)) for j in range(i + 1, len(u)))


def fraction_rank(rows):
    """Gaussian elimination over Fraction, pivoting on the first nonzero
    entry of each column."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(max((len(row) for row in m), default=0)):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


BIG = 2 ** 64
wide_ints = st.integers(-3, 3) | st.integers(BIG, 4 * BIG) | st.integers(-4 * BIG, -BIG)


@st.composite
def wide_collinear_sets(draw):
    """Int or Fraction point sets in dimensions 0-6 with coordinates past
    2**64, in a random order.  Planted triples a, a + s*g*u, a + t*g*u lie
    on lines whose direction g*u has a gcd of at least g >= 2."""
    dim = draw(st.integers(0, 6))
    point = st.tuples(*[wide_ints] * dim)
    pts = draw(st.lists(point, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.sampled_from(pts))
        g = draw(st.integers(2, 6))
        u = draw(point)
        for t in draw(st.lists(st.integers(-3, 3).filter(bool), min_size=2,
                               max_size=2, unique=True)):
            pts.append(tuple(x + t * g * y for x, y in zip(a, u)))
    den = draw(st.integers(1, 6))
    if den > 1:
        pts = [tuple(Fraction(x, den) for x in p) for p in pts]
    return draw(st.permutations(sorted(set(pts))))


@settings(max_examples=300)
@given(point_sets() | wide_collinear_sets())
def test_collinear_triple_count_matches_brute_force(pts):
    expected = sum(is_collinear(*t) for t in combinations(pts, 3))
    assert collinear_triple_count(Configuration(pts)) == expected


@settings(max_examples=300)
@given(point_sets() | wide_collinear_sets())
# two lines through the smallest point; the later line is completed first
@example([(0, 0), (1, 0), (1, 1), (2, 2), (3, 0)])
def test_witness_is_the_first_collinear_triple(pts):
    pts = [tuple(map(Fraction, p)) for p in pts]
    first = next((t for t in combinations(sorted(pts), 3) if is_collinear(*t)), None)
    ok, witness = no_three_collinear(Configuration(pts))
    assert ok == (first is None)
    assert witness == first


SIGNS_4 = list(product((1, -1), repeat=4))
SIGNS_5 = list(product((1, -1), repeat=5))
# the sign vectors and the points +-2 e_i of dimension 4, all of squared norm 4
AXES_4 = [tuple(2 * s * (i == j) for j in range(4)) for i in range(4) for s in (1, -1)]
CELL_24 = SIGNS_4 + AXES_4


def layered_24_cell(b):
    """The 24-cell in two layers along a new first coordinate, the sign
    vectors at height 0 and the +-2 e_i at height b, and the point at
    height 9b/2 on that axis, which sorts last for b > 0 and first for
    b < 0.  The barycenter is at height b/2, the covariance is diagonal
    (22 b^2 along the axis, 24 elsewhere), and the 24 layered points
    lie on one ellipsoid about the barycenter while the axis point does
    not."""
    return ([(0,) + p for p in SIGNS_4] + [(b,) + p for p in AXES_4]
            + [(Fraction(9 * b, 2), 0, 0, 0, 0)])


@st.composite
def ellipsoid_sets(draw):
    """``(points, on_ellipsoid)``: sets of more than four points per
    dimension, so that ``collinear_triple_count`` tries the ellipsoid
    certificate on them, with the answer it must give known by
    construction.  The bases:

    - the 32 sign vectors of dimension 5, or the 24-cell (``CELL_24``),
      each on a sphere about its barycenter, with covariance a multiple of
      the identity: on their ellipsoid;
    - the same with the barycenter added, which leaves the covariance as
      it is, so every point but the barycenter stays on the ellipsoid;
    - the same with one point replaced by the midpoint of two others,
      which is inside the sphere and on a line with them;
    - ``layered_24_cell``: every point but one on the ellipsoid.

    The base is placed on random coordinates of a dimension at least its
    own (a degenerate hull when larger) and sent through a unimodular map
    with multipliers past 2**64, rows scaled by rational factors or not,
    and a shift past 2**64.  The layered axis stays coordinate 0, which
    no row operation changes, so the axis point sorts first or last."""
    kind = draw(st.sampled_from(["on", "center", "midpoint", "layered"]))
    if kind == "layered":
        base = layered_24_cell(draw(st.integers(-3, 3).filter(bool)))
    else:
        base = list(draw(st.sampled_from([SIGNS_5, CELL_24])))
        if kind == "center":
            base.append((0,) * len(base[0]))
        elif kind == "midpoint":
            i, j, k = draw(st.permutations(range(len(base))))[:3]
            base[i] = tuple(Fraction(x + y, 2) for x, y in zip(base[j], base[k]))
    m = len(base[0])
    dim = draw(st.integers(m, (len(base) - 1) // 4))
    slots = draw(st.permutations(range(dim)))[:m]
    if kind == "layered":
        slots = [0] + [c for c in slots if c][:m - 1]
    rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(draw(st.integers(0, dim))):
        i, j = draw(st.permutations(range(kind == "layered", dim)))[:2]
        k = draw(wide_ints)
        rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
    if draw(st.booleans()):
        factors = draw(st.lists(rationals.filter(bool), min_size=dim, max_size=dim))
        rows = [[f * x for x in row] for f, row in zip(factors, rows)]
    shift = draw(st.tuples(*[wide_ints] * dim))
    points = []
    for p in base:
        x = [0] * dim
        for c, v in zip(slots, p):
            x[c] = v
        points.append(tuple(sum(map(mul, row, x)) + s for row, s in zip(rows, shift)))
    return points, kind == "on"


@st.composite
def line_sets(draw):
    """``(points, on_ellipsoid)``: more than four points per dimension on
    one line, in dimensions 1-3, with coordinates past 2**64; no ellipsoid
    holds five points of a line.  In dimension 0 the single point, which
    the certificate accepts."""
    dim = draw(st.integers(0, 3))
    if dim == 0:
        return [()], True
    a = draw(st.tuples(*[wide_ints] * dim))
    u = draw(st.tuples(*[wide_ints] * dim).filter(any))
    ts = draw(st.lists(st.integers(-20, 20), min_size=4 * dim + 1,
                       max_size=4 * dim + 3, unique=True))
    den = draw(st.integers(1, 6))
    return [tuple(Fraction(x + t * y, den) for x, y in zip(a, u)) for t in ts], False


@settings(max_examples=150, deadline=None)
@given(ellipsoid_sets() | line_sets())
# one point off the ellipsoid, sorted last, first and in the middle
@example((layered_24_cell(2), False))
@example((layered_24_cell(-1), False))
@example((SIGNS_5 + [(0,) * 5], False))
def test_ellipsoid_certificate_matches_brute_force(drawn):
    pts, on_ellipsoid = drawn
    config = Configuration(pts)
    assert len(config) > 4 * config.dim
    assert affgeom._on_one_ellipsoid(config.int_points) == on_ellipsoid
    expected = sum(is_collinear(*t) for t in combinations(pts, 3))
    assert collinear_triple_count(config) == expected


def projection_matrix(pts):
    """The hat matrix of the centred points of pts, in their order: the
    orthogonal projection onto the span of the columns of the centred
    point matrix, from an orthogonal basis of that span."""
    n = len(pts)
    cols = [[Fraction(x) - Fraction(sum(col), n) for x in col] for col in zip(*pts)]
    basis = []
    for v in cols:
        for u in basis:
            f = sum(map(mul, u, v)) / sum(map(mul, u, u))
            v = [x - f * y for x, y in zip(v, u)]
        if any(v):
            basis.append(v)
    return [[sum(u[i] * u[j] / sum(map(mul, u, u)) for u in basis)
             for j in range(n)] for i in range(n)]


def kernel_hat(pts):
    """``(coords, {(p, q): P(p, q)})`` from ``affgeom._hat_form`` on the
    configuration of pts, with P(p, q) = centred(p)^T adj centred(q) / d."""
    config = Configuration(pts)
    coords, d, adj, centred = affgeom._hat_form(config.int_points)
    ys = list(map(centred, config.int_points))
    ws = [[sum(map(mul, row, y)) for row in adj] for y in ys]
    return coords, {(p, q): Fraction(sum(map(mul, w, z)), d)
                    for p, w in zip(config.points, ws)
                    for q, z in zip(config.points, ys)}


@settings(max_examples=200, deadline=None)
@given(point_sets() | wide_collinear_sets(), st.randoms(use_true_random=False))
# dimension 0, a single point, and hulls of dimension 1 and 2 in dimension 3
@example([()], random.Random(1))
@example([(Fraction(3, 2), -7)], random.Random(2))
@example([(0, 0, 0), (1, 2, 3), (-2, -4, -6), (5, 10, 15)], random.Random(3))
@example([(0, 0, 1), (1, 0, 1), (0, 1, 1), (3, 5, 1), (-1, 2, 1)], random.Random(4))
def test_hat_form_matches_fraction_projection(pts, rnd):
    coords, hat = kernel_hat(pts)
    base = pts[0]
    assert len(coords) == fraction_rank([[x - y for x, y in zip(p, base)] for p in pts])
    want = projection_matrix(pts)
    assert all(hat[p, q] == want[i][j]
               for i, p in enumerate(pts) for j, q in enumerate(pts))
    # no injective affine map changes the hat matrix or the dimension
    rows, shift = random_affine_map(rnd, len(base))
    image = {p: apply_affine(rows, shift, p) for p in pts}
    moved_coords, moved = kernel_hat(list(image.values()))
    assert len(moved_coords) == len(coords)
    assert all(moved[image[p], image[q]] == hat[p, q] for p in pts for q in pts)


@settings(max_examples=200)
@given(point_sets())
def test_configuration_invariants_match_fraction_computations(pts):
    config = Configuration(pts)
    n = len(pts)
    barycenter = tuple(sum(col, Fraction(0)) / n for col in zip(*pts))
    assert config.barycenter == barycenter
    base = pts[0]
    assert config.affine_dimension == fraction_rank(
        [[x - y for x, y in zip(p, base)] for p in pts])
    mirrored = {tuple(2 * c - x for c, x in zip(barycenter, p)) for p in pts}
    assert config.antipodal == (mirrored == set(pts))
    assert config.points == tuple(sorted(pts))
    assert all(type(x) is int for q in config.int_points for x in q)
    assert config.int_points == tuple(tuple(config.den * x for x in p)
                                      for p in sorted(pts))


small_int_sets = st.integers(1, 3).flatmap(
    lambda dim: st.lists(st.tuples(*[st.integers(-2, 2)] * dim), max_size=10))


@st.composite
def progression_sets(draw, rational=False):
    """Int or Fraction point sets in dimensions 0-4, with coordinates
    past 2**64 and planted progressions 2b - a."""
    dim = draw(st.integers(0, 4))
    pts = draw(st.lists(st.tuples(*[wide_ints] * dim), min_size=1, max_size=5,
                        unique=True))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        pts.append(tuple(2 * y - x for x, y in zip(a, b)))
    if rational:
        den = draw(st.integers(1, 6))
        pts = [tuple(Fraction(x, den) for x in p) for p in pts]
    return pts


@settings(max_examples=300)
@given(point_sets() | small_int_sets | progression_sets() | progression_sets(rational=True))
@example([(0, 0)])
@example([()])
@example([(Fraction(1, 2),), (Fraction(1, 3),), (Fraction(1, 6),), (Fraction(0),)])
def test_midpoint_triples_match_all_ordered_triples(pts):
    expected = sorted((a, b, c) for a, b, c in permutations(set(pts), 3)
                      if all(2 * y == x + z for x, y, z in zip(a, b, c)))
    got = list(midpoint_triples(pts))
    assert got == expected
    # the triples are made of the given point objects
    given_ids = {id(p) for p in pts}
    assert all(id(p) in given_ids for triple in got for p in triple)


matrices = st.integers(0, 5).flatmap(
    lambda cols: st.lists(st.lists(rationals | st.just(Fraction(0)),
                                   min_size=cols, max_size=cols), max_size=6))


@settings(max_examples=300)
@given(matrices, st.data())
def test_rank_matches_fraction_elimination(rows, data):
    if rows and data.draw(st.booleans()):
        # a planted dependent row and a zero row
        k = data.draw(rationals)
        rows = rows + [[k * x + y for x, y in zip(rows[0], rows[-1])],
                       [Fraction(0)] * len(rows[0])]
    assert linalg.rank(rows) == fraction_rank(rows)


def test_rank_of_empty_and_zero_inputs():
    assert linalg.rank([]) == fraction_rank([]) == 0
    assert linalg.rank([()]) == fraction_rank([()]) == 0
    assert linalg.rank([(0, 0), (Fraction(0), 0)]) == 0
