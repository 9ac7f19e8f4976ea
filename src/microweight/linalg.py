"""Exact rational linear algebra over ``fractions.Fraction``.

Vectors are tuples of ints or Fractions, matrices are sequences of row
vectors.  All dimensions in this package stay below ~10, so plain Gaussian
elimination is entirely adequate; there is deliberately no floating point
anywhere.

``clear_denominators`` is the one boundary from exact rationals to ints:
it rejects any entry that is not an int or a Fraction (``exact_tuple``)
and writes the rows as int rows over one common denominator.  The
elimination is fraction-free, on those int rows: ``independent_rows``
and ``int_inverse`` run integer row operations, and ``rank``,
``invert`` and ``solve_in_basis`` clear the denominators of their input
and call them.

``pack_points`` maps each int point of a set to one Python int, so that
the O(n^2) pair loops of the eigenvalue-lattice model add, subtract and
hash single ints instead of tuples; ``unpack`` turns back into a tuple
only what a function returns.
"""

import operator
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

ZERO = Fraction(0)
_EXACT_TYPES = frozenset((int, Fraction))


def exact_tuple(values):
    """The values as a tuple; the type of each must be int or Fraction,
    so a bool, a float or a string is rejected."""
    values = tuple(values)
    if not _EXACT_TYPES.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) not in _EXACT_TYPES)
        raise ValueError(f"coordinate {bad!r} is not an int or a Fraction")
    return values


def clear_denominators(rows, den=1):
    """``(d, ints)``: ``d`` is the least common multiple of ``den`` and
    the denominators of every entry, and ``ints`` holds each row times
    ``d`` as a tuple of ints, in the same order.  Every entry must be an
    int or a Fraction (``exact_tuple``)."""
    rows = [exact_tuple(r) for r in rows]
    d = lcm(den, *{x.denominator for r in rows for x in r})
    return d, [tuple([x.numerator * (d // x.denominator) for x in r]) for r in rows]


def vec(entries):
    """The entries as a tuple of Fractions; each must be an int or a
    Fraction (``exact_tuple``), so a float is rejected, never coerced."""
    return tuple(map(Fraction, exact_tuple(entries)))


def zero_vec(n):
    return (ZERO,) * n


def add(u, v):
    if len(u) != len(v):
        raise ValueError(f"vector lengths differ: {len(u)} and {len(v)}")
    return tuple(map(operator.add, u, v))


def sub(u, v):
    if len(u) != len(v):
        raise ValueError(f"vector lengths differ: {len(u)} and {len(v)}")
    return tuple(map(operator.sub, u, v))


def neg(u):
    return tuple(-a for a in u)


def scale(c, u):
    c = Fraction(c)
    return tuple(c * a for a in u)


def dot(u, v):
    """Exact dot product: an int for int vectors, a Fraction as soon as
    one entry is a Fraction."""
    if len(u) != len(v):
        raise ValueError(f"vector lengths differ: {len(u)} and {len(v)}")
    return sum(map(operator.mul, u, v))


def pack_points(points):
    """``(keys, unpack)`` for a sequence of int points of one dimension.

    ``keys[i]`` reads ``points[i]`` as a balanced base-B numeral, first
    coordinate most significant, with ``B = 4 * M + 1`` and ``M`` the
    largest absolute coordinate.  Every int point whose coordinates have
    absolute value at most ``2 * M``, such as the sum or the difference
    of two of the points, is a balanced numeral in base B, so on those
    points the map is one-to-one and keeps the lexicographic order, and
    it is linear: the key of ``a + b`` is ``key(a) + key(b)``.
    ``unpack`` is the inverse on those points.
    """
    points = list(points)
    dim = len(points[0]) if points else 0
    bound = 2 * max(map(abs, chain.from_iterable(points)), default=0)
    base = 2 * bound + 1
    powers = [base ** e for e in range(dim - 1, -1, -1)]
    keys = [sum(map(operator.mul, p, powers)) for p in points]
    # adding the all-``bound`` numeral makes every digit nonnegative
    offset = bound * sum(powers)

    def unpack(key):
        key += offset
        return tuple([key // p % base - bound for p in powers])

    return keys, unpack


def mat_vec(rows, v):
    return tuple(dot(r, v) for r in rows)


def independent_rows(rows, k=None):
    """Indices of the int rows that are independent of the rows before
    them, up to the first k.  Fraction-free: each row is reduced against
    the echelon rows kept so far, and a kept row is divided by the gcd of
    its entries so that the entries stay small."""
    chosen, echelon = [], []
    for i, v in enumerate(rows):
        for c, e in echelon:
            if v[c]:
                a, b = e[c], v[c]
                v = [a * x - b * y for x, y in zip(v, e)]
        pivot = next((c for c, x in enumerate(v) if x), None)
        if pivot is not None:
            g = gcd(*v)
            echelon.append((pivot, [x // g for x in v]))
            chosen.append(i)
            if len(chosen) == k:
                break
    return chosen


def rank(vectors):
    """Rank over Q of the span of the given vectors, from the independent
    rows among them cleared of denominators."""
    _, rows = clear_denominators(vectors)
    return len(independent_rows(rows, len(rows[0]) if rows else None))


def solve_in_basis(basis, target):
    """Express ``target`` as a rational combination of independent ``basis``
    vectors.

    Returns the coefficient tuple, or None when target is outside the span;
    raises ValueError when the basis is dependent.  Fraction-free: on k
    coordinates where the k basis vectors are independent the coefficients
    solve a square int system (``int_inverse``), and an int check on every
    coordinate decides whether they reach the target.
    """
    _, (*basis, target) = clear_denominators([*basis, target])
    if any(len(b) != len(target) for b in basis):
        raise ValueError("basis and target lengths differ")
    coords = independent_rows(list(zip(*basis)), len(basis))
    if len(coords) < len(basis):
        raise ValueError("basis vectors are linearly dependent")
    # e * coeffs = adj . target on coords, with e = |det| of that block
    e, adj = int_inverse([[b[c] for b in basis] for c in coords])
    scaled = mat_vec(adj, [target[c] for c in coords])
    image = [sum(x * b[i] for x, b in zip(scaled, basis)) for i in range(len(target))]
    if image != [e * t for t in target]:
        return None
    return tuple(Fraction(x, e) for x in scaled)


def int_inverse(rows):
    """``(d, adj)`` for a square int matrix A: ``d`` is ``|det A|`` and
    ``adj`` is ``d * A^-1`` as int rows.

    Fraction-free (Bareiss) Gauss-Jordan elimination: every row update
    ``(a*x - b*y) // prev`` divides exactly, the left block ends as
    ``det * I`` and the right block as ``det * A^-1``.
    """
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if aug[i][k]), None)
        if p is None:
            raise ValueError("matrix is singular")
        aug[k], aug[p] = aug[p], aug[k]
        pivot_row = aug[k]
        a = pivot_row[k]
        for i in range(n):
            b = aug[i][k]
            if i != k:
                aug[i] = [(a * x - b * y) // prev for x, y in zip(aug[i], pivot_row)]
        prev = a
    sign = 1 if prev > 0 else -1
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in aug)


def invert(rows):
    """Inverse of a square rational matrix given as rows: with m the
    common denominator of all entries and the int rows A' = m A,
    A^-1 = m adj(A') / det(A')."""
    m, ints = clear_denominators(rows)
    d, adj = int_inverse(ints)
    return tuple(tuple(Fraction(m * a, d) for a in row) for row in adj)


def solve_square(rows, rhs):
    """Solve A x = rhs for square invertible A (rows of A given)."""
    inv = invert(rows)
    return mat_vec(inv, rhs)
