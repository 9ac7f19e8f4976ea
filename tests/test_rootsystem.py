import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from conftest import brute_force_weyl_group
from microweight import (
    NotARootError,
    RootSystem,
    RootSystemError,
    SpanError,
    build_root_system,
    cartan_matrix,
    from_simple_root_coords,
    pairing,
    reflect,
    reflection_matrix_table,
    to_simple_root_coords,
)
from microweight import linalg
from microweight.linalg import dot, vec
from microweight.weylorbit import fundamental_weight, fundamental_weights

HALF = Fraction(1, 2)

ALL_SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("E6", 6), ("E7", 7)]


def test_root_counts():
    assert len(build_root_system("A", 3).roots) == 12
    assert len(build_root_system("B", 3).roots) == 18
    assert len(build_root_system("C", 3).roots) == 18
    assert len(build_root_system("D", 4).roots) == 24
    assert len(build_root_system("E6", 6).roots) == 72
    assert len(build_root_system("E7", 7).roots) == 126


def _e8_roots():
    """The 240 roots of E8: +-e_i +- e_j, and the vectors with every entry
    +-1/2 and an even number of minus signs."""
    roots = set()
    for (i, j), (si, sj) in product(combinations(range(8), 2), product((1, -1), repeat=2)):
        roots.add(tuple(si if k == i else sj if k == j else 0 for k in range(8)))
    for signs in product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.add(tuple(s * HALF for s in signs))
    return roots


def test_e6_and_e7_are_e8_roots_orthogonal_to_fixed_vectors():
    e8 = _e8_roots()
    assert len(e8) == 240
    e7 = {r for r in e8 if dot(r, (0, 0, 0, 0, 0, 0, 1, 1)) == 0}
    e6 = {r for r in e7 if dot(r, (0, 0, 0, 0, 0, 1, -1, 0)) == 0}
    for system, expected in ((build_root_system("E7", 7), e7),
                             (build_root_system("E6", 6), e6)):
        assert len(system.roots) == len(expected)
        assert set(system.roots) == expected


def test_closure_builds_types_without_a_label():
    # G2 and F4 from their simple roots alone: 12 and 48 roots
    g2 = RootSystem("G2", [(1, -1, 0), (-2, 1, 1)])
    f4 = RootSystem("F4", [(0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1),
                           (HALF, -HALF, -HALF, -HALF)])
    assert (len(g2.roots), len(f4.roots)) == (12, 48)
    assert len(set(f4.roots)) == 48 and len(f4.positive_roots) == 24


def test_simple_roots_must_be_an_independent_base():
    for dependent in ([(1, 0), (2, 0)], [(Fraction(1, 2), Fraction(1, 2)), (1, 1)]):
        with pytest.raises(RootSystemError, match="independent"):
            RootSystem("X", dependent)
    # an acute pair, then a non-integral Cartan entry
    for simple in ([(1, 0), (1, 1)], [(1, 0), (-1, 2)]):
        with pytest.raises(RootSystemError, match="base"):
            RootSystem("X", simple).roots


def test_repr_names_e_types_once():
    assert [repr(build_root_system(*s)) for s in (("E7", 7), ("E6", 6), ("B", 3))] == \
        ["RootSystem(E7)", "RootSystem(E6)", "RootSystem(B3)"]


def test_invalid_ranks_rejected():
    for label, rank in [("A", 0), ("B", 1), ("C", 1), ("D", 2),
                        ("E6", 7), ("E7", 6), ("F4", 4)]:
        with pytest.raises(RootSystemError):
            build_root_system(label, rank)


def test_e7_half_roots_have_odd_minus_count():
    system = build_root_system("E7", 7)
    halves = [r for r in system.roots if r[0].denominator == 2]
    assert len(halves) == 64
    for r in halves:
        assert (r[6], r[7]) in ((HALF, -HALF), (-HALF, HALF))
        # both sign families have an odd number of -1/2 entries up front
        minus = sum(1 for c in r[:6] if c == -HALF)
        assert minus % 2 == 1


def test_pairing_and_reflect_reject_non_roots():
    system = build_root_system("A", 2)
    bogus = vec([1, 1, 1])
    with pytest.raises(NotARootError):
        pairing(system, system.simple_roots[0], bogus)
    with pytest.raises(NotARootError):
        reflect(system, bogus, system.simple_roots[0])


def test_reflect_permutes_roots():
    for label, rank in ALL_SYSTEMS:
        system = build_root_system(label, rank)
        for alpha in system.simple_roots:
            for beta in system.roots:
                assert reflect(system, alpha, beta) in system.roots


def test_reflect_is_an_involution_on_random_weights():
    rnd = random.Random(7)
    for label, rank in ALL_SYSTEMS:
        system = build_root_system(label, rank)
        fw = fundamental_weights(system)
        for _ in range(50):
            coeffs = [rnd.randint(-4, 4) for _ in fw]
            x = system.zero()
            for c, w in zip(coeffs, fw):
                x = tuple(a + c * b for a, b in zip(x, w))
            for alpha in system.simple_roots:
                assert reflect(system, alpha, reflect(system, alpha, x)) == x


def test_coordinate_roundtrip_and_span_error():
    system = build_root_system("E7", 7)
    for r in system.positive_roots:
        assert from_simple_root_coords(system, to_simple_root_coords(system, r)) == r
    # the all-ones vector is not in the 7-dimensional span inside dim 8
    with pytest.raises(SpanError):
        to_simple_root_coords(system, vec([1] * 8))


def test_cartan_matrices():
    a2 = cartan_matrix(build_root_system("A", 2))
    assert a2 == ((2, -1), (-1, 2))
    b2 = cartan_matrix(build_root_system("B", 2))
    assert b2 == ((2, -1), (-2, 2))
    c2 = cartan_matrix(build_root_system("C", 2))
    assert c2 == ((2, -2), (-1, 2))
    e7 = cartan_matrix(build_root_system("E7", 7))
    for i in range(7):
        assert e7[i][i] == 2
    # node 2 attaches to node 4 in the standard exceptional numbering
    assert e7[1][3] == e7[3][1] == -1
    assert e7[0][1] == 0 and e7[0][2] == -1


def test_pairing_integrality_on_fundamental_weights():
    for label, rank in ALL_SYSTEMS:
        system = build_root_system(label, rank)
        fw = fundamental_weights(system)
        for i, w in enumerate(fw):
            for j, alpha in enumerate(system.simple_roots):
                assert pairing(system, w, alpha) == (1 if i == j else 0)
            for alpha in system.roots:
                assert pairing(system, w, alpha).denominator == 1


def test_reflection_matrix_table_shape():
    system = build_root_system("A", 2)
    table = reflection_matrix_table(system)
    assert len(table) == 2 and len(table[0]) == 2
    # s_1(alpha_1) = -alpha_1, s_1(alpha_2) = alpha_1 + alpha_2
    a1, a2 = system.simple_roots
    assert table[0][0] == tuple(-c for c in a1)
    assert table[0][1] == tuple(x + y for x, y in zip(a1, a2))


@pytest.mark.parametrize("label,rank,order", [("A", 2, 6), ("B", 3, 48), ("C", 2, 8),
                                              ("D", 3, 24)],
                         ids=["A-2", "B-3", "C-2", "D-3"])
def test_weyl_group_orders_against_brute_force(label, rank, order):
    # the closed forms (m+1)!, 2^m m! and 2^(m-1) m! against the group the
    # simple reflections generate
    system = build_root_system(label, rank)
    assert len(brute_force_weyl_group(system)) == order


def test_system_identity_and_cache():
    assert build_root_system("B", 3) is build_root_system("B", 3)
    assert build_root_system("B", 3) == build_root_system("B", 3)
    assert build_root_system("B", 3) != build_root_system("C", 3)


@pytest.mark.parametrize("warm", [False, True], ids=["cold-cache", "warm-cache"])
def test_a_rank_or_index_that_is_not_an_int_is_rejected(warm):
    # the cache is typed: 2.0 and True never find the system cached for 2 or 1
    build_root_system.cache_clear()
    if warm:
        build_root_system("A", 1)
        build_root_system("A", 2)
    for rank in (2.0, True, Fraction(2)):
        with pytest.raises(RootSystemError, match="out of range"):
            build_root_system("A", rank)
    a2 = build_root_system("A", 2)
    for index in (1.0, True):
        with pytest.raises(IndexError, match="out of range"):
            fundamental_weight(a2, index)


def test_equality_compares_the_simple_roots():
    a = RootSystem("X", [(1, -1, 0), (0, 1, -1)])
    b = RootSystem("X", [(1, 0), (0, 1)])
    assert (len(a.roots), len(b.roots)) == (6, 4)
    assert a != b
    for label, rank in ALL_SYSTEMS:
        s = build_root_system(label, rank)
        rebuilt = RootSystem(s.type_label, s.simple_roots)
        assert rebuilt == s and hash(rebuilt) == hash(s)


@pytest.mark.parametrize("label,rank", ALL_SYSTEMS + [("A", 7), ("B", 6), ("D", 7)])
def test_positive_roots_are_the_nonnegative_combinations(label, rank):
    """The positive roots are the roots whose simple-root coefficients,
    solved for independently of the closure that generates them, are all
    >= 0."""

    def is_nonnegative_combo(simple, v):
        coeffs = linalg.solve_in_basis(simple, v)
        return coeffs is not None and all(c >= 0 for c in coeffs)

    system = build_root_system(label, rank)
    expected = tuple(sorted(r for r in system.roots
                            if is_nonnegative_combo(system.simple_roots, r)))
    assert system.positive_roots == expected
