"""Root systems of types A, B, C, D, E6, E7 in exact ambient coordinates.

Each system is realized in the standard epsilon-coordinates: A_m in
dimension m+1, B_m/C_m/D_m in dimension m, E6 and E7 inside dimension 8.
Only the simple roots are written down; every other root is generated
from them by the simple reflections (``IntForm``), by the same breadth-first
``closure`` that enumerates the Weyl orbits of ``weylorbit``.

Publicly, roots and weights are tuples of Fractions in ambient
coordinates.  Inputs may hold ints or Fractions; bools, floats and strings
are rejected with a ValueError instead of being coerced.  Internally the
arithmetic runs on ints: a weight x is written X / D, with X an int tuple
and D a multiple of the common denominator ``rd`` of the root coordinates,
and every root alpha is kept once as the int tuple rd * alpha (see
``IntForm``).  Every such scaling, and the rejection of inexact input, is
``linalg.clear_denominators``.  Results become Fractions only where they
are returned; conversions to and from simple-root coordinates are exact.
``IntForm.lattice_pairings`` is the one weight-lattice test.
"""

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul

from . import linalg
from .linalg import clear_denominators, dot, exact_tuple, neg, zero_vec

TYPE_LABELS = ("A", "B", "C", "D", "E6", "E7")


class RootSystemError(ValueError):
    """Invalid type/rank combination or malformed construction input."""


class NotARootError(ValueError):
    """A vector used as a reflection axis is not a root of the system."""


class SpanError(ValueError):
    """A vector lies outside the rational span of the simple roots."""


class OrbitTooLargeError(RuntimeError):
    """A closure exceeded its element cap."""


def closure(seeds, step, n, cap=None):
    """``{x: word}`` for every x reached from ``seeds`` by ``step(x, i)``,
    i in range(n), in breadth-first order: each seed has the word (), and
    the word (i1, ..., ik) means x = step(...step(seed, i1)..., ik).
    OrbitTooLargeError once more than ``cap`` elements are reached."""
    words = dict.fromkeys(seeds, ())
    queue = list(words)
    for x in queue:  # the queue grows while it is read
        word = words[x]
        for i in range(n):
            y = step(x, i)
            if y not in words:
                words[y] = word + (i,)
                queue.append(y)
                if cap is not None and len(words) > cap:
                    raise OrbitTooLargeError(f"orbit exceeds {cap} elements")
    return words


@lru_cache(maxsize=4096)
def _fraction(n, d):
    """n / d as one Fraction object shared by every caller while the value
    stays in the cache: equal weights then hold the same objects, so tuple
    and dict comparisons of them succeed on identity."""
    return Fraction(n, d)


def as_fractions(points, d):
    """The int tuples ``points`` divided by d, as Fraction tuples."""
    return [tuple([_fraction(c, d) for c in x]) for x in points]


class IntForm:
    """Integer data of one root system, built from its simple roots, given
    as the int rows ``simple`` over their common denominator ``rd``: that
    is the common denominator of the simple-root coordinates, and
    with it of every root, since each root is an integer combination of
    the simple roots.  The roots are generated, not listed: every root is
    Weyl-conjugate to a simple root, so closing the simple roots under the
    simple reflections yields them all.  The ``closure`` runs on int tuples
    of simple-root coordinates, where the reflection in alpha_i is
    s_i(c) = c - (sum_j C_ij c_j) e_i with C the Cartan matrix; the
    positive roots are the elements with every coordinate >= 0.

    ``roots`` and ``positive_roots`` are Fraction tuples, the positive
    roots sorted and then their negatives.  ``root`` maps each root alpha
    to ``(R, nn)``: R = rd * alpha as a tuple of ints and nn = R.R.
    ``simple``, ``positive`` and ``all`` hold the same pairs in the order
    of the simple roots, ``positive_roots`` and ``roots``.  For a weight
    x = X / D the pairing (x, alpha-check) is 2 * rd * (X.R) / (D * nn):
    ``pairing`` gives it as a fraction, ``lattice_pairings`` as ints.

    ``cartan`` and ``fundamental`` are the public Cartan matrix and
    fundamental weights (Fractions).  ``duals`` and ``kd`` give simple-root
    coordinates: rd * Q_i / kd is the vector d_i of the span with
    (d_i, alpha_j) = [i == j], so the i-th coordinate of x = X / D is
    rd * (Q_i.X) / (kd * D), and x lies in the span exactly when
    sum_i (Q_i.X) R_i = kd * X.  All of them come from one int inverse of
    the Cartan matrix (``linalg.int_inverse``).  Reflections are
    ``rootsystem.reflect``; the form holds data and the pairings only.
    """

    def __init__(self, rd, simple):
        self.rd = rd
        self.simple = tuple((r, dot(r, r)) for r in simple)
        # (alpha_j, alpha_i-check) = 2 (R_i.R_j) / nn_i, a nonpositive
        # integer off the diagonal when the simple roots form a base
        cartan = [[divmod(2 * dot(ri, rj), ni) for rj, _ in self.simple]
                  for ri, ni in self.simple]
        if any(rem or (q > 0 and i != j) for i, row in enumerate(cartan)
               for j, (q, rem) in enumerate(row)):
            raise RootSystemError("the simple roots are not a base of a "
                                  "crystallographic root system")
        cartan = [[q for q, _ in row] for row in cartan]
        self.cartan = tuple(as_fractions(cartan, 1))
        n = len(simple)
        coords = closure([tuple(int(i == j) for j in range(n)) for i in range(n)],
                         lambda c, i: c[:i] + (c[i] - dot(cartan[i], c),) + c[i + 1:], n)
        positive = sorted(tuple(dot(c, col) for col in zip(*simple))
                          for c in coords if min(c) >= 0)
        ints = positive + [neg(r) for r in positive]
        self.roots = tuple(as_fractions(ints, rd))
        self.positive_roots = self.roots[:len(positive)]
        self.all = tuple((r, dot(r, r)) for r in ints)
        self.positive = self.all[:len(positive)]
        self.root = dict(zip(self.roots, self.all))
        # omega_i = sum_k C^-1[k][i] alpha_k = W_i / (cd * rd) with W_i =
        # sum_k adj[k][i] R_k / g, adj = det * C^-1, g = gcd(det, adj), cd = det / g
        det, adj = linalg.int_inverse(cartan)
        g = gcd(det, *sum(adj, ()))
        cd = det // g
        weights = [tuple(sum(adj[k][i] * r[j] for k, r in enumerate(simple)) // g
                         for j in range(len(simple[0]))) for i in range(n)]
        self.fundamental = tuple(as_fractions(weights, cd * rd))
        # d_i = 2 omega_i / (alpha_i, alpha_i) = 2 * rd * W_i / (nn_i * cd)
        top = lcm(*(nn for _, nn in self.simple))
        self.duals = tuple(tuple(top // nn * 2 * c for c in w)
                           for w, (_, nn) in zip(weights, self.simple))
        self.kd = top * cd

    def pairing(self, entry, x, d):
        """(num, den) with num / den the pairing of x / d with the coroot of
        the root of ``entry``."""
        big, nn = entry
        return 2 * self.rd * dot(x, big), d * nn

    def lattice_pairings(self, x, d, entries):
        """The pairings of x / d with the coroots of the roots of
        ``entries``, in order, as ints.  ValueError at the first that is not
        an integer: x / d is then not in the weight lattice."""
        rd2 = 2 * self.rd
        for big, nn in entries:
            num, den = rd2 * sum(map(mul, x, big)), d * nn
            if num % den:
                raise ValueError(f"{as_fractions([x], d)[0]} is not in the weight lattice")
            yield num // den


class RootSystem:
    """A realized root system, given by its simple roots.

    The roots and the pairing data are generated from the simple roots
    when first used (``IntForm``); the system is immutable after
    construction and safe to share between threads.
    """

    def __init__(self, type_label, simple_roots):
        self.type_label = type_label
        d, simple = self._int_simple = clear_denominators(simple_roots)
        self.simple_roots = tuple(as_fractions(simple, d))
        self.rank = len(simple)
        self.ambient_dim = len(simple[0])
        if len(linalg.independent_rows(simple)) != self.rank:
            raise RootSystemError("simple roots are not linearly independent")

    def __repr__(self):
        if self.type_label.startswith("E"):
            return f"RootSystem({self.type_label})"
        return f"RootSystem({self.type_label}{self.rank})"

    def __eq__(self, other):
        return (isinstance(other, RootSystem)
                and (self.type_label, self.simple_roots)
                == (other.type_label, other.simple_roots))

    def __hash__(self):
        return hash((self.type_label, self.simple_roots))

    @property
    def roots(self):
        return self.int_form.roots

    @property
    def positive_roots(self):
        return self.int_form.positive_roots

    def zero(self):
        return zero_vec(self.ambient_dim)

    @cached_property
    def int_form(self):
        return IntForm(*self._int_simple)


def int_weight(system, x):
    """(X, D) with x = X / D: D is a multiple of the system's ``rd`` and X
    a tuple of ints of the ambient dimension."""
    d, (big,) = clear_denominators([x], system.int_form.rd)
    if len(big) != system.ambient_dim:
        raise ValueError("weight dimension does not match the system")
    return big, d


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


# Bourbaki numbering; E6 is the first six simple roots of E7
_E_SIMPLE = (
    tuple(Fraction(c, 2) for c in (1, -1, -1, -1, -1, -1, -1, 1)),
    (1, 1, 0, 0, 0, 0, 0, 0),
    (-1, 1, 0, 0, 0, 0, 0, 0),
    (0, -1, 1, 0, 0, 0, 0, 0),
    (0, 0, -1, 1, 0, 0, 0, 0),
    (0, 0, 0, -1, 1, 0, 0, 0),
    (0, 0, 0, 0, -1, 1, 0, 0),
)

_VALID_RANKS = {
    "A": lambda m: m >= 1,
    "B": lambda m: m >= 2,
    "C": lambda m: m >= 2,
    "D": lambda m: m >= 3,
    "E6": lambda m: m == 6,
    "E7": lambda m: m == 7,
}


def _simple_roots(type_label, m):
    """The simple roots e_i - e_{i+1}, then e_m for B, 2 e_m for C and
    e_{m-1} + e_m for D; A_m lives in dimension m + 1."""
    if type_label in ("E6", "E7"):
        return _E_SIMPLE[:m]
    dim = m + 1 if type_label == "A" else m
    unit = [tuple(int(k == i) for k in range(dim)) for i in range(dim)]
    simple = [linalg.sub(unit[i], unit[i + 1]) for i in range(dim - 1)]
    if type_label == "B":
        simple.append(unit[m - 1])
    elif type_label == "C":
        simple.append(linalg.add(unit[m - 1], unit[m - 1]))
    elif type_label == "D":
        simple.append(linalg.add(unit[m - 2], unit[m - 1]))
    return simple


@lru_cache(maxsize=None, typed=True)
def build_root_system(type_label, rank):
    """Construct the root system of the given type and rank.

    Raises RootSystemError when the rank is not an int in the range of the
    type; the cache is typed, so 2.0 never finds the system cached for 2.
    """
    if type_label not in TYPE_LABELS:
        raise RootSystemError(f"unknown type label {type_label!r}")
    if type(rank) is not int or not _VALID_RANKS[type_label](rank):
        raise RootSystemError(f"rank {rank!r} is out of range for type {type_label}")
    return RootSystem(type_label, _simple_roots(type_label, rank))


def pairing(system, x, alpha):
    """Exact value of (x, alpha-check) = 2(x, alpha)/(alpha, alpha)."""
    entry = _root_entry(system, alpha)
    return Fraction(*system.int_form.pairing(entry, *int_weight(system, x)))


def reflect(system, alpha, x):
    """Reflection of x in the hyperplane orthogonal to the root alpha."""
    form = system.int_form
    entry = _root_entry(system, alpha)
    x, d = int_weight(system, x)
    num, den = form.pairing(entry, x, d)
    g = gcd(num, den)
    p, q = num // g, den // g  # the pairing is p / q
    # x - (p / q) alpha = (q X - p (D / rd) R) / (D q) for x = X / D
    s = p * (d // form.rd)
    return as_fractions([[q * a - s * b for a, b in zip(x, entry[0])]], d * q)[0]


def to_simple_root_coords(system, x):
    """Coordinates of x with respect to the simple roots; exact.

    Raises SpanError when x is outside the span (possible whenever the
    ambient dimension exceeds the rank).
    """
    form = system.int_form
    big, d = int_weight(system, x)
    coeffs = [dot(q, big) for q in form.duals]
    back = [dot(coeffs, col) for col in zip(*(r for r, _ in form.simple))]
    if back != [form.kd * c for c in big]:
        raise SpanError(f"{x} is not in the span of the simple roots of {system}")
    return as_fractions([[form.rd * c for c in coeffs]], form.kd * d)[0]


def from_simple_root_coords(system, coeffs):
    d, (coeffs,) = clear_denominators([coeffs])
    if len(coeffs) != system.rank:
        raise ValueError("coefficient vector length does not match the rank")
    form = system.int_form
    x = [dot(coeffs, col) for col in zip(*(r for r, _ in form.simple))]
    return as_fractions([x], d * form.rd)[0]


def reflection_matrix_table(system):
    """Table of images of simple roots under simple reflections.

    Entry (i, j) (0-based) is the reflection of the j-th simple root in
    the i-th simple root.
    """
    simple = system.simple_roots
    return tuple(tuple(reflect(system, a, b) for b in simple) for a in simple)


def cartan_matrix(system):
    """Entries (i, j) = (alpha_j, alpha_i-check)."""
    return system.int_form.cartan
