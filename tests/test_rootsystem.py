import random
from fractions import Fraction

import pytest

from conftest import brute_force_weyl_group
from microweight import (
    NotARootError,
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
from microweight.linalg import vec
from microweight.weylorbit import fundamental_weights

HALF = Fraction(1, 2)

ALL_SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("E6", 6), ("E7", 7)]


def test_root_counts():
    assert len(build_root_system("A", 3).roots) == 12
    assert len(build_root_system("B", 3).roots) == 18
    assert len(build_root_system("C", 3).roots) == 18
    assert len(build_root_system("D", 4).roots) == 24
    assert len(build_root_system("E6", 6).roots) == 72
    assert len(build_root_system("E7", 7).roots) == 126


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
                assert system.is_root(reflect(system, alpha, beta))


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


@pytest.mark.parametrize("label,rank", ALL_SYSTEMS + [("A", 7), ("B", 6), ("D", 7)])
def test_positive_roots_are_the_nonnegative_combinations(label, rank):
    """The height-functional split agrees with the definition it replaced:
    a root is positive when its simple-root coefficients are all >= 0."""

    def is_nonnegative_combo(simple, v):
        coeffs = linalg.solve_in_basis(simple, v)
        return coeffs is not None and all(c >= 0 for c in coeffs)

    system = build_root_system(label, rank)
    expected = tuple(sorted(r for r in system.roots
                            if is_nonnegative_combo(system.simple_roots, r)))
    assert system.positive_roots == expected
