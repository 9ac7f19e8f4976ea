"""Exact rational linear algebra over ``fractions.Fraction``.

Vectors are tuples of ints or Fractions, matrices are sequences of row
vectors.  All dimensions in this package stay below ~10, so plain Gaussian
elimination is entirely adequate; there is deliberately no floating point
anywhere.

``rank`` is fraction-free: it clears the denominators of each row, then
eliminates with integer row operations, dividing every new row by the gcd
of its entries so that the entries stay small.  ``_eliminate`` keeps the
Fraction elimination that ``solve_in_basis`` and ``invert`` need for
their exact rational results.
"""

import operator
from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(entries):
    """Coerce an iterable of numbers into a tuple of Fractions."""
    return tuple(Fraction(e) for e in entries)


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


def mat_vec(rows, v):
    return tuple(dot(r, v) for r in rows)


def _eliminate(rows):
    """Row-reduce a mutable matrix in place; returns the pivot columns."""
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _integer_row(v):
    """The row scaled by the least common denominator of its entries."""
    v = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
    m = lcm(*(x.denominator for x in v))
    return [x.numerator * (m // x.denominator) for x in v]


def rank(vectors):
    """Rank over Q of the span of the given vectors, by fraction-free
    elimination on their integer multiples."""
    rows = [row for row in map(_integer_row, vectors) if any(row)]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((row for row in rows if row[c]), None)
        if pivot is None:
            continue
        r += 1
        a = pivot[c]
        reduced = []
        for row in rows:
            if row is pivot:
                continue
            b = row[c]
            if b:
                row = [a * x - b * y for x, y in zip(row, pivot)]
                g = gcd(*row)
                if g == 0:
                    continue  # the row was a multiple of the pivot
                if g != 1:
                    row = [x // g for x in row]
            reduced.append(row)
        rows = reduced
        if not rows:
            break
    return r


def solve_in_basis(basis, target):
    """Express ``target`` as a rational combination of independent ``basis``
    vectors.

    Returns the coefficient tuple, or None when target is outside the span.
    """
    basis = list(basis)
    k = len(basis)
    n = len(target)
    # augmented system: columns are the basis vectors, rhs is the target
    rows = [[Fraction(b[i]) for b in basis] + [Fraction(target[i])] for i in range(n)]
    pivots = _eliminate(rows)
    coeffs = [ZERO] * k
    for r, c in enumerate(pivots):
        if c == k:
            return None  # pivot in the rhs column: inconsistent
        coeffs[c] = rows[r][k]
    # consistency of the remaining rows
    for r in range(len(pivots), n):
        if rows[r][k] != 0:
            return None
    return tuple(coeffs)


def invert(rows):
    """Inverse of a square rational matrix given as rows."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [ONE if i == j else ZERO for j in range(n)]
           for i, row in enumerate(rows)]
    pivots = _eliminate(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(aug[i][n:]) for i in range(n))


def solve_square(rows, rhs):
    """Solve A x = rhs for square invertible A (rows of A given)."""
    inv = invert(rows)
    return mat_vec(inv, rhs)


def is_integral(v):
    return all(Fraction(x).denominator == 1 for x in v)
