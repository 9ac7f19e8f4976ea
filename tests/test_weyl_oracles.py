"""The integer Weyl kernels of rootsystem, weylorbit and minuscule against
plain Fraction oracles written here, sharing no code with the library.

Only the root lists (``simple_roots``, ``roots``, ``positive_roots``) are
taken from the library; their counts are checked against sympy in
``test_sympy_oracle.py`` and the positive ones against the old definition
in ``test_rootsystem.py``.  Every type up to rank 6 is covered.  Weights are
random integer combinations of fundamental weights plus a random rational
vector orthogonal to all roots (non-traceless type A weights, E6 weights
off the span), so denominators 2, 3 and larger occur; non-lattice weights
are random rational vectors.
"""

from collections import Counter
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microweight import (
    NotARootError,
    SpanError,
    apply_chain,
    build_root_system,
    cartan_matrix,
    from_simple_root_coords,
    is_minuscule,
    orbit,
    orbit_words,
    saturation_progressions,
    separation_partition,
    to_simple_root_coords,
)
from microweight.weylorbit import OrbitTooLargeError, fundamental_weights

SYSTEMS = ([("A", m) for m in range(1, 7)] + [("B", m) for m in range(2, 7)]
           + [("C", m) for m in range(2, 7)] + [("D", m) for m in range(3, 7)]
           + [("E6", 6)])
CAP = 300

systems = st.sampled_from(SYSTEMS).map(lambda s: build_root_system(*s))
small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


# ---------------------------------------------------------------------------
# the oracle: Fraction arithmetic straight from the definitions


def dot(u, v):
    return sum((Fraction(a) * b for a, b in zip(u, v, strict=True)), Fraction(0))


def pair(x, alpha):
    return 2 * dot(x, alpha) / dot(alpha, alpha)


def reflect(alpha, x):
    p = pair(x, alpha)
    return tuple(Fraction(a) - p * b for a, b in zip(x, alpha))


def combine(coeffs, vectors, dim):
    return tuple(sum((c * v[j] for c, v in zip(coeffs, vectors)), Fraction(0))
                 for j in range(dim))


def solve(columns, target):
    """The coefficients c with sum_k c_k columns[k] = target, or None."""
    k = len(columns)
    rows = [[Fraction(col[i]) for col in columns] + [Fraction(target[i])]
            for i in range(len(target))]
    pivots = []
    for c in range(k):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    if any(row[k] != 0 for row in rows[len(pivots):]):
        return None
    coeffs = [Fraction(0)] * k
    for r, c in enumerate(pivots):
        coeffs[c] = rows[r][k]
    return tuple(coeffs)


def oracle_cartan(system):
    return tuple(tuple(pair(aj, ai) for aj in system.simple_roots)
                 for ai in system.simple_roots)


@cache
def oracle_fundamental(system):
    """omega_i = sum_k c_k alpha_k with (omega_i, alpha_j-check) = [i == j]."""
    cartan = oracle_cartan(system)
    n = system.rank
    out = []
    for i in range(n):
        # the columns of the system C c = e_i are the columns of C
        coeffs = solve([[cartan[r][k] for r in range(n)] for k in range(n)],
                       [int(r == i) for r in range(n)])
        out.append(combine(coeffs, system.simple_roots, system.ambient_dim))
    return tuple(out)


@cache
def orthogonal_basis(system):
    """A basis of the vectors orthogonal to every simple root."""
    n = system.ambient_dim
    gram = [[dot(a, b) for b in system.simple_roots] for a in system.simple_roots]
    out = []
    for j in range(n):
        e = [int(i == j) for i in range(n)]
        # e minus its projection onto the span of the simple roots
        t = solve([list(col) for col in zip(*gram)], [dot(e, a) for a in system.simple_roots])
        v = tuple(Fraction(x) - y for x, y in
                  zip(e, combine(t, system.simple_roots, n)))
        if any(v) and solve(out, v) is None:
            out.append(v)
    return tuple(out)


def oracle_in_lattice(system, w):
    return all(pair(w, a).denominator == 1 for a in system.roots)


def oracle_words(system, w, cap):
    w = tuple(map(Fraction, w))
    if not oracle_in_lattice(system, w):
        return ValueError
    words = {w: ()}
    frontier = [w]
    while frontier:
        nxt = []
        for x in frontier:
            for i, alpha in enumerate(system.simple_roots):
                y = reflect(alpha, x)
                if y not in words:
                    words[y] = words[x] + (i,)
                    nxt.append(y)
                    if len(words) > cap:
                        return OrbitTooLargeError
        frontier = nxt
    return words


def oracle_is_minuscule(system, w):
    if all(c == 0 for c in w):
        return ValueError
    for alpha in system.positive_roots:
        p = pair(w, alpha)
        if p.denominator != 1:
            return ValueError
        if abs(p) > 1:
            return False
    return True


def oracle_saturation(system, members):
    members = set(map(tuple, members))
    out = []
    for lam in sorted(members):
        for alpha in system.roots:
            p = pair(lam, alpha)
            if p == 0:
                continue
            if p.denominator != 1:
                return ValueError
            m = int(p)
            sign = 1 if m > 0 else -1
            ok = all(tuple(Fraction(x) - sign * k * a for x, a in zip(lam, alpha)) in members
                     for k in range(1, abs(m) + 1))
            out.append((lam, alpha, abs(m), ok))
    return out


def outcome(fn, *args):
    """The result, or the class of the exception raised."""
    try:
        return fn(*args)
    except (ValueError, OrbitTooLargeError) as exc:
        return OrbitTooLargeError if isinstance(exc, OrbitTooLargeError) else ValueError


# ---------------------------------------------------------------------------
# strategies


@st.composite
def lattice_weights(draw, system, max_terms=2):
    """A sum of at most ``max_terms`` multiples of fundamental weights plus a
    random rational vector orthogonal to every root."""
    fw = oracle_fundamental(system)
    w = (Fraction(0),) * system.ambient_dim
    for _ in range(draw(st.integers(0, max_terms))):
        i = draw(st.integers(0, system.rank - 1))
        c = draw(st.integers(-2, 2))
        w = tuple(a + c * b for a, b in zip(w, fw[i]))
    for v in orthogonal_basis(system):
        t = draw(small_rationals)
        w = tuple(a + t * b for a, b in zip(w, v))
    return w


@st.composite
def weights(draw, system):
    if draw(st.integers(0, 3)) == 0:
        return tuple(draw(st.lists(small_rationals, min_size=system.ambient_dim,
                                   max_size=system.ambient_dim)))
    return draw(lattice_weights(system))


@st.composite
def system_and_weight(draw):
    system = draw(systems)
    return system, draw(weights(system))


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=150, deadline=None)
@given(system_and_weight())
def test_orbit_words_match_the_oracle_in_bfs_order(case):
    system, w = case
    expected = oracle_words(system, w, CAP)
    got = outcome(orbit_words, system, w, CAP)
    if isinstance(expected, dict):
        assert list(got.items()) == list(expected.items())
        assert all(type(c) is Fraction for x in got for c in x)
        assert orbit(system, w, CAP).support == tuple(sorted(expected))
    else:
        assert got is expected


@settings(max_examples=150, deadline=None)
@given(system_and_weight())
def test_is_minuscule_matches_the_oracle(case):
    system, w = case
    assert outcome(is_minuscule, system, w) == oracle_is_minuscule(system, w)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_saturation_progressions_match_the_oracle(data):
    system = data.draw(systems)
    w = data.draw(lattice_weights(system, max_terms=1))
    members = oracle_words(system, w, 80)
    if not isinstance(members, dict):
        members = {w: ()}
    members = list(members)
    # drop some members so that progressions go missing, add an outsider
    keep = data.draw(st.lists(st.booleans(), min_size=len(members),
                              max_size=len(members)))
    members = [m for m, k in zip(members, keep) if k] or members[:1]
    members.append(data.draw(weights(system)))
    expected = oracle_saturation(system, members)
    got = outcome(saturation_progressions, members, system)
    if expected is ValueError:
        assert got is ValueError
    else:
        assert [(p.start, p.root, p.length, p.present) for p in got] == expected


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_apply_chain_matches_the_oracle(data):
    system, start = data.draw(system_and_weight())
    chain = data.draw(st.lists(st.sampled_from(system.roots), max_size=6))
    expected = [tuple(map(Fraction, start))]
    for alpha in chain:
        expected.append(reflect(alpha, expected[-1]))
    assert apply_chain(system, chain, start) == expected
    bogus = tuple(2 * c + 1 for c in system.simple_roots[0])
    with pytest.raises(NotARootError):
        apply_chain(system, chain + [bogus], start)


@pytest.mark.parametrize("type_label, rank", SYSTEMS)
def test_roots_are_the_orbits_of_the_simple_roots(type_label, rank):
    # the closure of the unit vectors in IntForm against the orbit closure
    system = build_root_system(type_label, rank)
    orbits = set().union(*(orbit(system, alpha) for alpha in system.simple_roots))
    assert set(system.roots) == orbits


@pytest.mark.parametrize("type_label, rank", SYSTEMS)
def test_cartan_matrix_and_fundamental_weights_match_the_oracle(type_label, rank):
    system = build_root_system(type_label, rank)
    assert cartan_matrix(system) == oracle_cartan(system)
    assert fundamental_weights(system) == oracle_fundamental(system)
    assert all(type(c) is Fraction for row in cartan_matrix(system) for c in row)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_simple_root_coordinates_match_the_oracle(data):
    system = data.draw(systems)
    coeffs = data.draw(st.lists(small_rationals, min_size=system.rank,
                                max_size=system.rank))
    x = combine(coeffs, system.simple_roots, system.ambient_dim)
    assert from_simple_root_coords(system, coeffs) == x
    assert to_simple_root_coords(system, x) == tuple(coeffs)
    off = orthogonal_basis(system)
    if off:
        t = data.draw(small_rationals.filter(bool))
        y = tuple(a + t * b for a, b in zip(x, off[0]))
        assert solve(system.simple_roots, y) is None
        with pytest.raises(SpanError):
            to_simple_root_coords(system, y)


@pytest.mark.parametrize("bad", [True, 1.0, "1", 0.5])
def test_weyl_entry_points_reject_non_exact_coordinates(bad):
    system = build_root_system("A", 2)
    w = (bad, 0, Fraction(-1))
    for call in (lambda: orbit_words(system, w), lambda: orbit(system, w),
                 lambda: apply_chain(system, [], w), lambda: is_minuscule(system, w),
                 lambda: from_simple_root_coords(system, (bad, 0)),
                 lambda: apply_chain(system, [(bad, -1, 0)], (1, 0, -1))):
        with pytest.raises(ValueError, match="is not an int or a Fraction"):
            call()


def test_e7_partition_is_the_last_coordinate_transported_along_each_word():
    """The functional of the 1/27/27/1 partition at omega_7 is the last
    simple-root coordinate, (d, .) with (d, alpha_j) = [j == 7].  Carried
    along the reflection word of an orbit element w it is (w, .), and its
    doubled level counts on the orbit are ``separation_partition(w)``."""
    system = build_root_system("E7", 7)
    simple = system.simple_roots
    gram = [[dot(a, b) for b in simple] for a in simple]
    d = combine(solve(gram, [int(j == 6) for j in range(7)]), simple, 8)
    top = oracle_fundamental(system)[6]
    orbit56 = oracle_words(system, top, 56)
    words = orbit_words(system, top)
    assert len(words) == 56 and set(words) == set(orbit56)
    for w, word in words.items():
        dw = d
        for i in word:
            dw = reflect(simple[i], dw)
        assert dw == w
        levels = Counter(2 * dot(dw, x) for x in orbit56)
        assert sorted(levels.values()) == [1, 1, 27, 27]
        assert separation_partition(w) == dict(levels)
