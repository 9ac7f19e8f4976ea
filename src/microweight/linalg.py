"""Exact rational linear algebra over ``fractions.Fraction``.

Vectors are tuples of ints or Fractions, matrices are sequences of row
vectors.  All dimensions in this package stay below ~10, so plain Gaussian
elimination is entirely adequate; there is deliberately no floating point
anywhere.

``rank``, ``independent_rows`` and ``int_inverse`` are fraction-free:
they run integer row operations on int rows (``rank`` clears the
denominators of each row first), and ``invert`` is ``int_inverse`` on
the rows cleared of denominators.  ``_eliminate`` keeps the Fraction
elimination of ``solve_in_basis``.

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
    rows among their integer multiples."""
    rows = [_integer_row(v) for v in vectors]
    return len(independent_rows(rows, len(rows[0]) if rows else None))


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
    """Inverse of a square rational matrix given as rows: with A = D^-1 A'
    for the int rows A' = D A (D the diagonal of row denominators),
    A^-1 = A'^-1 D."""
    scales = [lcm(*(Fraction(x).denominator for x in row)) for row in rows]
    d, adj = int_inverse([[int(Fraction(x) * m) for x in row]
                          for row, m in zip(rows, scales)])
    return tuple(tuple(Fraction(a * m, d) for a, m in zip(row, scales)) for row in adj)


def solve_square(rows, rhs):
    """Solve A x = rhs for square invertible A (rows of A given)."""
    inv = invert(rows)
    return mat_vec(inv, rhs)
