"""Shared helpers: seeded RNG, random unimodular matrices, random rational
affine maps, and a brute-force Weyl group enumerator used as a test oracle."""

import random
from fractions import Fraction

import pytest

from microweight.linalg import mat_vec, vec
from microweight.rootsystem import reflect


@pytest.fixture
def rng():
    return random.Random(20240817)


def identity_matrix(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]


def random_unimodular(rnd, n, ops=None):
    """Random integer matrix with determinant +-1, built from elementary
    row operations on the identity."""
    if n == 1:
        return [(Fraction(rnd.choice([1, -1])),)]
    rows = identity_matrix(n)
    for _ in range(ops if ops is not None else 3 * n):
        kind = rnd.randrange(3)
        i, j = rnd.sample(range(n), 2)
        if kind == 0:
            k = rnd.choice([-3, -2, -1, 1, 2, 3])
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return [tuple(r) for r in rows]


def random_rational(rnd, max_num=9, max_den=5, nonzero=False):
    while True:
        x = Fraction(rnd.randint(-max_num, max_num), rnd.randint(1, max_den))
        if x != 0 or not nonzero:
            return x


def random_affine_map(rnd, n):
    """Injective rational affine map: unimodular core with random nonzero
    rational row scalings, plus a rational translation."""
    core = random_unimodular(rnd, n)
    # one scalar per row: an independent scalar per entry can make the
    # map singular
    scales = [random_rational(rnd, nonzero=True) for _ in core]
    rows = [tuple(s * a for a in row) for s, row in zip(scales, core)]
    shift = vec(random_rational(rnd) for _ in range(n))
    return rows, shift


def apply_affine(rows, shift, p):
    return tuple(a + b for a, b in zip(mat_vec(rows, vec(p)), shift))


def reflection_matrix(system, alpha):
    """Matrix of the reflection in alpha, columns = images of unit vectors."""
    n = system.ambient_dim
    cols = []
    for j in range(n):
        e = tuple(Fraction(1) if k == j else Fraction(0) for k in range(n))
        cols.append(reflect(system, alpha, e))
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def brute_force_weyl_group(system):
    """All Weyl group elements as matrices, by closure under the generators.
    Only sensible for tiny ranks; this is a test oracle, not library code."""
    gens = [reflection_matrix(system, a) for a in system.simple_roots]
    n = system.ambient_dim
    ident = tuple(tuple(Fraction(1) if i == j else Fraction(0)
                        for j in range(n)) for i in range(n))
    group = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = mat_mul(s, g)
                if h not in group:
                    group.add(h)
                    nxt.append(h)
        frontier = nxt
    return group
