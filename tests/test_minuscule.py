from fractions import Fraction
from itertools import combinations, product

import pytest

from microweight import (
    build_root_system,
    cube_normal_form,
    is_minuscule,
    minuscule_catalog,
    orbit,
    pairing,
    saturation_progressions,
)
from microweight.affgeom import midpoint_triples
from microweight.linalg import vec
from microweight.rootsystem import RootSystemError
from microweight.weylorbit import WeightSet, fundamental_weight

HALF = Fraction(1, 2)


def test_is_minuscule_basic_cases():
    e7 = build_root_system("E7", 7)
    assert is_minuscule(e7, fundamental_weight(e7, 7))
    a4 = build_root_system("A", 4)
    for i in range(1, 5):
        assert is_minuscule(a4, fundamental_weight(a4, i))
    c3 = build_root_system("C", 3)
    w3 = fundamental_weight(c3, 3)
    assert not is_minuscule(c3, w3)
    # brute-force confirmation: some positive root pairs to magnitude >= 2
    assert any(abs(pairing(c3, w3, alpha)) >= 2 for alpha in c3.positive_roots)


def test_is_minuscule_rejects_zero_and_non_lattice():
    a2 = build_root_system("A", 2)
    with pytest.raises(ValueError):
        is_minuscule(a2, a2.zero())
    with pytest.raises(ValueError):
        is_minuscule(a2, vec([Fraction(1, 3), 0, 0]))


def test_catalog_contents():
    b4 = minuscule_catalog("B", 4)
    assert [(e.weight_index, e.dimension) for e in b4] == [(4, 16)]
    d4 = minuscule_catalog("D", 4)
    assert [(e.weight_index, e.dimension) for e in d4] == [(1, 8), (3, 8), (4, 8)]
    a3 = minuscule_catalog("A", 3)
    assert [(e.weight_index, e.dimension) for e in a3] == [(1, 4), (2, 6), (3, 4)]
    assert [e.self_dual_form for e in a3] == ["neither", "orthogonal", "neither"]
    e6 = minuscule_catalog("E6", 6)
    assert [(e.weight_index, e.dimension, e.self_dual_form) for e in e6] == [
        (1, 27, "neither"), (6, 27, "neither")]
    e7 = minuscule_catalog("E7", 7)
    assert [(e.weight_index, e.dimension, e.self_dual_form) for e in e7] == [
        (7, 56, "symplectic")]


def test_catalog_d3_flag():
    # D_3 aliases A_3 and stays out of the catalog
    with pytest.raises(RootSystemError, match="alias of A_3"):
        minuscule_catalog("D", 3)


def test_self_dual_forms_spin_pattern():
    assert minuscule_catalog("B", 3)[0].self_dual_form == "orthogonal"
    assert minuscule_catalog("B", 4)[0].self_dual_form == "orthogonal"
    assert minuscule_catalog("B", 5)[0].self_dual_form == "symplectic"
    assert minuscule_catalog("C", 5)[0].self_dual_form == "symplectic"
    d5 = minuscule_catalog("D", 5)
    assert [e.self_dual_form for e in d5] == ["orthogonal", "neither", "neither"]
    d6 = minuscule_catalog("D", 6)
    assert [e.self_dual_form for e in d6] == ["orthogonal", "symplectic", "symplectic"]
    d8 = minuscule_catalog("D", 8)
    assert [e.self_dual_form for e in d8] == ["orthogonal", "orthogonal", "orthogonal"]


def test_catalog_exhaustive_against_is_minuscule():
    """Every catalog entry passes the pairing test and every omitted
    fundamental weight fails it, for all ranks up to 7."""
    cases = ([("A", m) for m in range(1, 8)] + [("B", m) for m in range(2, 8)]
             + [("C", m) for m in range(2, 8)] + [("D", m) for m in range(4, 8)]
             + [("E6", 6), ("E7", 7)])
    for label, rank in cases:
        system = build_root_system(label, rank)
        listed = {e.weight_index for e in minuscule_catalog(label, rank)}
        for i in range(1, rank + 1):
            assert is_minuscule(system, fundamental_weight(system, i)) == (i in listed)


def test_weight_system_closed_forms():
    b2 = build_root_system("B", 2)
    ws = orbit(b2, fundamental_weight(b2, 2))
    assert set(ws.support) == {(s1 * HALF, s2 * HALF)
                               for s1, s2 in product((1, -1), repeat=2)}
    c3 = build_root_system("C", 3)
    ws = orbit(c3, fundamental_weight(c3, 1))
    units = {vec([1, 0, 0]), vec([0, 1, 0]), vec([0, 0, 1])}
    assert set(ws.support) == units | {tuple(-c for c in u) for u in units}
    d4 = build_root_system("D", 4)
    ws = orbit(d4, fundamental_weight(d4, 4))
    expected = {tuple(s * HALF for s in signs)
                for signs in product((1, -1), repeat=4)
                if sum(1 for s in signs if s == -1) % 2 == 0}
    assert set(ws.support) == expected


def test_weight_system_sizes_match_catalog_dimensions():
    for label, rank in [("A", 5), ("B", 5), ("C", 5), ("D", 5), ("E6", 6), ("E7", 7)]:
        system = build_root_system(label, rank)
        for e in minuscule_catalog(label, rank):
            ws = orbit(system, fundamental_weight(system, e.weight_index))
            assert len(ws) == e.dimension


def test_weight_system_rejects_non_minuscule():
    # the orbit of a non-minuscule weight is not its whole weight system:
    # it misses the weights that saturation requires
    c3 = build_root_system("C", 3)
    w3 = fundamental_weight(c3, 3)
    assert not is_minuscule(c3, w3)
    out = saturation_progressions(orbit(c3, w3), c3)
    assert not all(p.present for p in out)


def test_cube_normal_forms():
    b3 = cube_normal_form("B", 3, 3)
    assert len(b3) == 8 and set(b3.points) == set(product((1, -1), repeat=3))
    a3 = cube_normal_form("A", 3, 2)
    assert len(a3) == 6
    assert all(sum(p) in (1, -1) for p in a3.points)
    c2 = cube_normal_form("C", 2, 1)
    assert set(c2.points) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    d4_spin = cube_normal_form("D", 4, 4)
    assert len(d4_spin) == 8
    assert all(sum(1 for x in p if x == -1) % 2 == 0 for p in d4_spin.points)
    d4_vec = cube_normal_form("D", 4, 1)
    assert len(d4_vec) == 8


def test_cube_normal_form_rejections():
    with pytest.raises(RootSystemError):
        cube_normal_form("A", 4, 2)  # even rank: no self-dual middle weight
    with pytest.raises(RootSystemError):
        cube_normal_form("B", 3, 1)
    with pytest.raises(RootSystemError):
        cube_normal_form("E7", 7, 7)


def test_saturation_progressions():
    a1 = build_root_system("A", 1)
    ws = WeightSet(a1, [a1.zero()])
    assert saturation_progressions(ws, a1) == []

    alpha = a1.simple_roots[0]
    adjoint = [alpha, a1.zero(), tuple(-c for c in alpha)]
    out = saturation_progressions(adjoint, a1)
    twos = [p for p in out if p.length == 2]
    assert twos and all(p.present for p in twos)
    assert any(p.start == alpha and p.root == alpha for p in twos)

    e7 = build_root_system("E7", 7)
    ws = orbit(e7, fundamental_weight(e7, 7))
    out = saturation_progressions(ws, e7)
    assert all(p.length <= 1 for p in out)
    assert all(p.present for p in out)


def test_collinear_triple():
    def first_triple(points):
        return next(midpoint_triples(points), None)

    a1 = build_root_system("A", 1)
    alpha = a1.simple_roots[0]
    neg_alpha = tuple(-c for c in alpha)
    triple = first_triple([alpha, a1.zero(), neg_alpha])
    assert triple == (neg_alpha, a1.zero(), alpha)

    b3 = build_root_system("B", 3)
    assert first_triple(orbit(b3, fundamental_weight(b3, 3))) is None

    e7 = build_root_system("E7", 7)
    ws = orbit(e7, fundamental_weight(e7, 7))
    # oracle-backed: the 56-point system has no collinear triple at all
    assert first_triple(ws) is None
    # independent confirmation by exhaustive scan over all C(56,3) triples
    pts = ws.support
    found = False
    for a, b, c in combinations(pts, 3):
        for mid, d1, d2 in ((a, b, c), (b, a, c), (c, a, b)):
            if tuple(2 * x for x in mid) == tuple(x + y for x, y in zip(d1, d2)):
                found = True
    assert not found
