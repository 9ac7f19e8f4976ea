from fractions import Fraction

import pytest

from conftest import brute_force_weyl_group
from microweight import (
    WeightSet,
    apply_chain,
    build_root_system,
    from_simple_root_coords,
    is_minuscule,
    orbit,
    orbit_words,
    saturation_progressions,
    to_simple_root_coords,
)
from microweight.linalg import dot, mat_vec, vec
from microweight.weylorbit import (
    OrbitTooLargeError,
    fundamental_weight,
    fundamental_weights,
)

HALF = Fraction(1, 2)


def srt(system, x):
    return tuple(to_simple_root_coords(system, x))


def test_orbit_of_zero_is_singleton():
    system = build_root_system("B", 2)
    orb = orbit(system, system.zero())
    assert len(orb) == 1 and system.zero() in orb


def test_orbit_a2_matches_brute_force():
    system = build_root_system("A", 2)
    w1 = fundamental_weight(system, 1)
    orb = orbit(system, w1)
    assert len(orb) == 3
    brute = {mat_vec(g, w1) for g in brute_force_weyl_group(system)}
    assert set(orb.support) == brute


def test_e7_orbit_size_and_symmetry():
    system = build_root_system("E7", 7)
    orb = orbit(system, fundamental_weight(system, 7))
    assert len(orb) == 56
    support = set(orb.support)
    assert {tuple(-c for c in x) for x in support} == support
    norms = {dot(x, x) for x in support}
    assert len(norms) == 1
    assert 2903040 % len(orb) == 0  # |W(E7)| = 2^10 3^4 5 7


def test_orbit_closure_under_simple_reflections():
    from microweight.rootsystem import reflect

    for label, rank, idx in [("B", 3, 3), ("D", 4, 4), ("A", 4, 2)]:
        system = build_root_system(label, rank)
        orb = orbit(system, fundamental_weight(system, idx))
        for x in orb.support:
            for alpha in system.simple_roots:
                assert reflect(system, alpha, x) in orb


def test_orbit_cap():
    system = build_root_system("B", 4)
    with pytest.raises(OrbitTooLargeError):
        orbit(system, fundamental_weight(system, 4), cap=5)


def test_orbit_words_reach_their_elements():
    from microweight.rootsystem import reflect

    system = build_root_system("D", 4)
    w = fundamental_weight(system, 3)
    words = orbit_words(system, w)
    assert len(words) == 8
    for element, word in words.items():
        x = w
        for i in word:
            x = reflect(system, system.simple_roots[i], x)
        assert x == element


def test_fundamental_weight_coordinates():
    e7 = build_root_system("E7", 7)
    assert fundamental_weight(e7, 7) == vec([0, 0, 0, 0, 0, 1, -HALF, HALF])
    c3 = build_root_system("C", 3)
    assert fundamental_weight(c3, 1) == vec([1, 0, 0])
    b3 = build_root_system("B", 3)
    assert fundamental_weight(b3, 3) == vec([HALF, HALF, HALF])
    with pytest.raises(IndexError):
        fundamental_weight(e7, 8)
    with pytest.raises(IndexError):
        fundamental_weight(e7, 0)


def test_two_omega7_simple_root_coordinates():
    system = build_root_system("E7", 7)
    two_w7 = tuple(2 * c for c in fundamental_weight(system, 7))
    assert srt(system, two_w7) == (2, 3, 4, 6, 5, 4, 3)


def test_chain_from_top_weight():
    system = build_root_system("E7", 7)
    two_w7 = tuple(2 * c for c in fundamental_weight(system, 7))
    cross = from_simple_root_coords(system, [0, 1, 1, 2, 1, 1, 1])
    steps = [cross, system.simple_roots[0]]
    trail = apply_chain(system, steps, two_w7)
    assert len(trail) == 3
    assert srt(system, trail[0]) == (2, 3, 4, 6, 5, 4, 3)
    assert srt(system, trail[1]) == (2, 1, 2, 2, 3, 2, 1)
    assert srt(system, trail[2]) == (0, 1, 2, 2, 3, 2, 1)


def test_final_chain_flips_last_coordinate():
    system = build_root_system("E7", 7)
    start = from_simple_root_coords(system, [0, 1, 0, 0, 1, 0, 1])
    trail = apply_chain(system, [system.simple_roots[6]], start)
    assert srt(system, trail[-1]) == (0, 1, 0, 0, 1, 0, -1)


def test_empty_chain_and_non_root_step():
    from microweight.rootsystem import NotARootError

    system = build_root_system("A", 2)
    start = fundamental_weight(system, 1)
    assert apply_chain(system, [], start) == [start]
    with pytest.raises(NotARootError):
        apply_chain(system, [vec([5, 0, 0])], start)


def test_weight_set_semantics():
    system = build_root_system("A", 1)
    x, y = (Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(1))
    a = WeightSet(system, [x] * 2)
    b = WeightSet(system, [x])
    assert a == b and len(a) == 1 and list(a) == [x]
    c = WeightSet(system, [x, y, x])
    assert a != c and len(c) == 2 and list(c) == [y, x]
    assert y in c and [1, -1] in c and (0, 0) not in c
    with pytest.raises(ValueError):
        WeightSet(system, [(1, 2, 3)])


def test_orbit_rejects_non_lattice_weights():
    system = build_root_system("A", 2)
    with pytest.raises(ValueError):
        orbit(system, vec([Fraction(1, 3), 0, 0]))


def test_one_weight_lattice_check_behind_orbits_minuscule_and_saturation():
    system = build_root_system("A", 2)
    w = vec([Fraction(1, 3), 0, 0])
    messages = set()
    for call in (lambda: orbit_words(system, w), lambda: is_minuscule(system, w),
                 lambda: saturation_progressions([w], system)):
        with pytest.raises(ValueError) as exc:
            call()
        messages.add(str(exc.value))
    assert messages == {f"{w} is not in the weight lattice"}


def test_fundamental_weights_tuple():
    system = build_root_system("C", 2)
    fw = fundamental_weights(system)
    assert fw == (fundamental_weight(system, 1), fundamental_weight(system, 2))
