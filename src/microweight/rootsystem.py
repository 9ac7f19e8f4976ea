"""Root systems of types A, B, C, D, E6, E7 in exact ambient coordinates.

Each system is realized in the standard epsilon-coordinates: A_m in
dimension m+1, B_m/C_m/D_m in dimension m, E6 and E7 inside dimension 8.

Publicly, roots and weights are tuples of Fractions in ambient
coordinates.  Inputs may hold ints or Fractions; bools, floats and strings
are rejected with a ValueError instead of being coerced.  Internally the
arithmetic runs on ints: a weight x is written X / D, with X an int tuple
and D a multiple of the common denominator ``rd`` of the root coordinates,
and every root alpha is kept once as the int tuple rd * alpha (see
``IntForm``).  Every such scaling, and the rejection of inexact input, is
``linalg.clear_denominators``.  Results become Fractions only where they
are returned; conversions to and from simple-root coordinates are exact.
"""

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import gcd, lcm

from . import linalg
from .linalg import clear_denominators, dot, exact_tuple, neg, scale, vec, zero_vec

TYPE_LABELS = ("A", "B", "C", "D", "E6", "E7")

HALF = Fraction(1, 2)


class RootSystemError(ValueError):
    """Invalid type/rank combination or malformed construction input."""


class NotARootError(ValueError):
    """A vector used as a reflection axis is not a root of the system."""


class SpanError(ValueError):
    """A vector lies outside the rational span of the simple roots."""


@lru_cache(maxsize=4096)
def _fraction(n, d):
    """n / d as one Fraction object shared by every caller while the value
    stays in the cache: equal weights then hold the same objects, so tuple
    and dict comparisons of them succeed on identity."""
    return Fraction(n, d)


def as_fractions(points, d):
    """The int tuples ``points`` divided by d, as Fraction tuples."""
    return [tuple([_fraction(c, d) for c in x]) for x in points]


def _shared(r):
    """The root r with its entries taken from ``_fraction``."""
    return tuple([_fraction(c.numerator, c.denominator) for c in r])


class IntForm:
    """Integer data of one root system, built on first use.

    ``rd`` is the common denominator of the root coordinates.  ``root``
    maps each root alpha (as a tuple) to ``(R, nn)``: R = rd * alpha as a
    tuple of ints and nn = R.R.  ``simple``, ``positive`` and ``all`` hold
    the same pairs in the order of ``simple_roots``, ``positive_roots`` and
    ``roots``.  For a weight x = X / D the pairing (x, alpha-check) is
    2 * rd * (X.R) / (D * nn).

    ``cartan`` and ``fundamental`` are the public Cartan matrix and
    fundamental weights (Fractions).  ``duals`` and ``kd`` give simple-root
    coordinates: rd * Q_i / kd is the vector d_i of the span with
    (d_i, alpha_j) = [i == j], so the i-th coordinate of x = X / D is
    rd * (Q_i.X) / (kd * D), and x lies in the span exactly when
    sum_i (Q_i.X) R_i = kd * X.  All of them come from one inverse of the
    Cartan matrix.
    """

    def __init__(self, system):
        self.rd, ints = clear_denominators(system.roots)
        self.root = {r: (big, dot(big, big)) for r, big in zip(system.roots, ints)}
        self.all = tuple(self.root[r] for r in system.roots)
        self.positive = self.all[:len(system.positive_roots)]
        self.simple = tuple(self.root[a] for a in system.simple_roots)
        # (alpha_j, alpha_i-check) = 2 (R_i.R_j) / nn_i is an integer
        cartan = [[2 * dot(ri, rj) // ni for rj, _ in self.simple]
                  for ri, ni in self.simple]
        self.cartan = tuple(as_fractions(cartan, 1))
        # omega_i = sum_k inv[k][i] alpha_k = W_i / (cd * rd) with the int
        # tuples W_i = sum_k (cd * inv[k][i]) R_k
        cd, inv = clear_denominators(linalg.invert(cartan))
        n = system.ambient_dim
        weights = [tuple(sum(inv[k][i] * r[j] for k, (r, _) in enumerate(self.simple))
                         for j in range(n)) for i in range(system.rank)]
        self.fundamental = tuple(as_fractions(weights, cd * self.rd))
        # d_i = 2 omega_i / (alpha_i, alpha_i) = 2 * rd * W_i / (nn_i * cd)
        top = lcm(*(nn for _, nn in self.simple))
        self.duals = tuple(tuple(top // nn * 2 * c for c in w)
                           for w, (_, nn) in zip(weights, self.simple))
        self.kd = top * cd

    def dual(self, i):
        """The vector d_i (Fractions), 0-based."""
        return as_fractions([[self.rd * q for q in self.duals[i]]], self.kd)[0]

    def pairing(self, entry, x, d):
        """(num, den) with num / den the pairing of x / d with the coroot of
        the root of ``entry``."""
        big, nn = entry
        return 2 * self.rd * dot(x, big), d * nn

    def reflect(self, entry, x, d):
        """(Y, E) with Y / E the reflection of x / d in the root of ``entry``,
        where d is a multiple of rd; E = d when the pairing is an integer."""
        big, _ = entry
        num, den = self.pairing(entry, x, d)
        g = gcd(num, den)
        p, q = num // g, den // g  # the pairing is p / q
        s = p * (d // self.rd)
        return tuple(q * a - s * b for a, b in zip(x, big)), d * q


class RootSystem:
    """A realized root system: simple roots, all roots, pairing data.

    Immutable after construction (the integer form is built once, on first
    use); safe to share between threads.
    """

    def __init__(self, type_label, rank, ambient_dim, simple_roots, positive_roots):
        self.type_label = type_label
        self.rank = rank
        self.ambient_dim = ambient_dim
        self.simple_roots = tuple(map(_shared, simple_roots))
        self.positive_roots = tuple(sorted(map(_shared, positive_roots)))
        self.roots = self.positive_roots + tuple(_shared(neg(r)) for r in self.positive_roots)
        if len(self.simple_roots) != rank:
            raise RootSystemError("simple root count does not match rank")
        if linalg.rank(self.simple_roots) != rank:
            raise RootSystemError("simple roots are not linearly independent")

    def __repr__(self):
        return f"RootSystem({self.type_label}{self.rank})"

    def __eq__(self, other):
        return (isinstance(other, RootSystem)
                and (self.type_label, self.rank) == (other.type_label, other.rank))

    def __hash__(self):
        return hash((self.type_label, self.rank))

    def is_root(self, v):
        return tuple(v) in self.int_form.root

    def zero(self):
        return zero_vec(self.ambient_dim)

    @cached_property
    def int_form(self):
        return IntForm(self)


def int_weight(system, x):
    """(X, D) with x = X / D: D is a multiple of the system's ``rd`` and X
    a tuple of ints of the ambient dimension."""
    d, (big,) = clear_denominators([x], system.int_form.rd)
    if len(big) != system.ambient_dim:
        raise ValueError("weight dimension does not match the system")
    return big, d


def exact_weight(system, x):
    """x as a tuple of Fractions of the ambient dimension."""
    big, d = int_weight(system, x)
    return as_fractions([big], d)[0]


def int_points(system, weights):
    """(points, D) with the weights equal to points / D: one common scale
    D, a multiple of the system's ``rd``, and a list of int tuples."""
    d, points = clear_denominators(weights, system.int_form.rd)
    if any(len(x) != system.ambient_dim for x in points):
        raise ValueError("weight dimension does not match the system")
    return points, d


def _root_entry(system, alpha):
    """``(R, nn)`` of the root alpha; NotARootError for any other vector."""
    alpha = exact_tuple(alpha)
    entry = system.int_form.root.get(alpha)
    if entry is None:
        raise NotARootError(f"{alpha} is not a root of {system}")
    return entry


def _simple_a(m):
    dim = m + 1
    return [_unit_diff(i, i + 1, dim) for i in range(m)]


def _unit(i, dim):
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(dim))


def _unit_diff(i, j, dim):
    return tuple(Fraction(1) if k == i else Fraction(-1) if k == j else Fraction(0)
                 for k in range(dim))


def _roots_a(m):
    dim = m + 1
    return [_unit_diff(i, j, dim) for i in range(dim) for j in range(i + 1, dim)]


def _roots_b(m):
    pos = [_unit(i, m) for i in range(m)]
    for i, j in combinations(range(m), 2):
        pos.append(_unit_diff(i, j, m))
        pos.append(linalg.add(_unit(i, m), _unit(j, m)))
    return pos


def _roots_c(m):
    pos = [scale(2, _unit(i, m)) for i in range(m)]
    for i, j in combinations(range(m), 2):
        pos.append(_unit_diff(i, j, m))
        pos.append(linalg.add(_unit(i, m), _unit(j, m)))
    return pos


def _roots_d(m):
    pos = []
    for i, j in combinations(range(m), 2):
        pos.append(_unit_diff(i, j, m))
        pos.append(linalg.add(_unit(i, m), _unit(j, m)))
    return pos


def _e_half_family(fixed, free_count, parity):
    """Vectors 1/2*(fixed part + sum_{i<free_count} s_i e_i) with the number
    of minus signs among the free coordinates congruent to ``parity`` mod 2."""
    out = []
    for signs in product((1, -1), repeat=free_count):
        if sum(1 for s in signs if s == -1) % 2 != parity:
            continue
        v = list(fixed)
        for i, s in enumerate(signs):
            v[i] = Fraction(s, 2)
        out.append(tuple(v))
    return out


def _all_roots_e7():
    roots = []
    for i, j in combinations(range(6), 2):
        for si, sj in product((1, -1), repeat=2):
            v = [Fraction(0)] * 8
            v[i], v[j] = Fraction(si), Fraction(sj)
            roots.append(tuple(v))
    base = [Fraction(0)] * 8
    base[6], base[7] = HALF, -HALF
    half = _e_half_family(base, 6, 1)
    roots.extend(half)
    roots.extend(neg(v) for v in half)
    e78 = [Fraction(0)] * 8
    e78[6], e78[7] = Fraction(1), Fraction(-1)
    roots.append(tuple(e78))
    roots.append(neg(tuple(e78)))
    return roots


def _all_roots_e6():
    roots = []
    for i, j in combinations(range(5), 2):
        for si, sj in product((1, -1), repeat=2):
            v = [Fraction(0)] * 8
            v[i], v[j] = Fraction(si), Fraction(sj)
            roots.append(tuple(v))
    base = [Fraction(0)] * 8
    base[5], base[6], base[7] = -HALF, -HALF, HALF
    half = _e_half_family(base, 5, 0)
    roots.extend(half)
    roots.extend(neg(v) for v in half)
    return roots


def _simple_e7():
    a1 = vec([HALF, -HALF, -HALF, -HALF, -HALF, -HALF, -HALF, HALF])
    a2 = vec([1, 1, 0, 0, 0, 0, 0, 0])
    a3 = vec([-1, 1, 0, 0, 0, 0, 0, 0])
    a4 = vec([0, -1, 1, 0, 0, 0, 0, 0])
    a5 = vec([0, 0, -1, 1, 0, 0, 0, 0])
    a6 = vec([0, 0, 0, -1, 1, 0, 0, 0])
    a7 = vec([0, 0, 0, 0, -1, 1, 0, 0])
    return [a1, a2, a3, a4, a5, a6, a7]


def _simple_e6():
    return _simple_e7()[:6]


_VALID_RANKS = {
    "A": lambda m: m >= 1,
    "B": lambda m: m >= 2,
    "C": lambda m: m >= 2,
    "D": lambda m: m >= 3,
    "E6": lambda m: m == 6,
    "E7": lambda m: m == 7,
}


@lru_cache(maxsize=None)
def build_root_system(type_label, rank):
    """Construct the root system of the given type and rank.

    Raises RootSystemError when the rank is out of range for the type.
    """
    if type_label not in TYPE_LABELS:
        raise RootSystemError(f"unknown type label {type_label!r}")
    if not _VALID_RANKS[type_label](rank):
        raise RootSystemError(f"rank {rank} is out of range for type {type_label}")
    if type_label == "A":
        return RootSystem("A", rank, rank + 1, _simple_a(rank), _roots_a(rank))
    if type_label == "B":
        simple = [_unit_diff(i, i + 1, rank) for i in range(rank - 1)]
        simple.append(_unit(rank - 1, rank))
        return RootSystem("B", rank, rank, simple, _roots_b(rank))
    if type_label == "C":
        simple = [_unit_diff(i, i + 1, rank) for i in range(rank - 1)]
        simple.append(scale(2, _unit(rank - 1, rank)))
        return RootSystem("C", rank, rank, simple, _roots_c(rank))
    if type_label == "D":
        simple = [_unit_diff(i, i + 1, rank) for i in range(rank - 1)]
        simple.append(linalg.add(_unit(rank - 2, rank), _unit(rank - 1, rank)))
        return RootSystem("D", rank, rank, simple, _roots_d(rank))
    if type_label == "E6":
        simple = _simple_e6()
        all_roots = _all_roots_e6()
    else:
        simple = _simple_e7()
        all_roots = _all_roots_e7()
    # the height functional h, (h, alpha_i) = 1 on every simple root:
    # (h, r) is the height of r, positive exactly on the positive roots
    gram = [[dot(a, b) for b in simple] for a in simple]
    t = linalg.solve_square(gram, (1,) * rank)
    h = tuple(dot(t, col) for col in zip(*simple))
    positive = [r for r in all_roots if dot(h, r) > 0]
    if 2 * len(positive) != len(all_roots):
        raise RootSystemError("positivity split failed")  # construction bug guard
    return RootSystem(type_label, rank, 8, simple, positive)


def pairing(system, x, alpha):
    """Exact value of (x, alpha-check) = 2(x, alpha)/(alpha, alpha)."""
    entry = _root_entry(system, alpha)
    return Fraction(*system.int_form.pairing(entry, *int_weight(system, x)))


def reflect(system, alpha, x):
    """Reflection of x in the hyperplane orthogonal to the root alpha."""
    entry = _root_entry(system, alpha)
    y, d = system.int_form.reflect(entry, *int_weight(system, x))
    return as_fractions([y], d)[0]


def to_simple_root_coords(system, x):
    """Coordinates of x with respect to the simple roots; exact.

    Raises SpanError when x is outside the span (possible whenever the
    ambient dimension exceeds the rank).
    """
    form = system.int_form
    big, d = int_weight(system, x)
    coeffs = [dot(q, big) for q in form.duals]
    back = [sum(c * r[j] for c, (r, _) in zip(coeffs, form.simple))
            for j in range(system.ambient_dim)]
    if back != [form.kd * c for c in big]:
        raise SpanError(f"{x} is not in the span of the simple roots of {system}")
    return as_fractions([[form.rd * c for c in coeffs]], form.kd * d)[0]


def from_simple_root_coords(system, coeffs):
    d, (coeffs,) = clear_denominators([coeffs])
    if len(coeffs) != system.rank:
        raise ValueError("coefficient vector length does not match the rank")
    form = system.int_form
    x = [sum(c * r[j] for c, (r, _) in zip(coeffs, form.simple))
         for j in range(system.ambient_dim)]
    return as_fractions([x], d * form.rd)[0]


def reflection_matrix_table(system):
    """Table of images of simple roots under simple reflections.

    Entry (i, j) (0-based) is the reflection of the j-th simple root in
    the i-th simple root.
    """
    n = system.rank
    return tuple(
        tuple(reflect(system, system.simple_roots[i], system.simple_roots[j])
              for j in range(n))
        for i in range(n)
    )


def cartan_matrix(system):
    """Entries (i, j) = (alpha_j, alpha_i-check)."""
    return system.int_form.cartan
