"""The packed-int pair kernel against tuple brute force written here.

``linalg.pack_points`` reads each int point as one int; the pair sums,
midpoint triples and fiber differences of the eigenvalue-lattice model
run on those ints.  Every result here is compared with plain tuple
arithmetic over all pairs; the midpoint triples are compared in
``test_lattice_oracles``.  Coordinates include negatives and values above
2**64; sets include a single all-zero point and zero-dimensional factors.
"""

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_unimodular
from microweight import omega56
from microweight.frobmodel import (StructureError, _pair_sum_counts, build_delta,
                                   e7_fiber_projection_check, invariant_level_sets,
                                   recover_lambda_sq, sum_set)
from microweight.linalg import pack_points

BIG = 2 ** 64
coords = st.integers(-3, 3) | st.integers(BIG, 4 * BIG) | st.integers(-4 * BIG, -BIG)


def int_sets(min_dim=0, max_dim=4, max_points=6):
    """Nonempty sets of distinct int points of one dimension."""
    return st.integers(min_dim, max_dim).flatmap(
        lambda dim: st.lists(st.tuples(*[coords] * dim), min_size=1,
                             max_size=max_points, unique=True))


def add(*points):
    return tuple(map(sum, zip(*points)))


def brute_pair_sums(points):
    return Counter(add(p, q) for p in points for q in points)


@settings(max_examples=300)
@given(int_sets(), st.data())
def test_pack_round_trip_order_and_linearity(pts, data):
    keys, unpack = pack_points(pts)
    assert [unpack(k) for k in keys] == pts
    assert len(set(keys)) == len(pts)
    assert sorted(pts) == [pts[i] for i in sorted(range(len(pts)), key=keys.__getitem__)]
    # a signed sum of at most two points (repeats allowed) has
    # coordinates within twice the largest: its key is the same signed
    # sum of the keys
    terms = data.draw(st.lists(st.tuples(st.sampled_from([-1, 1]),
                                         st.integers(0, len(pts) - 1)),
                               min_size=1, max_size=2))
    combo = add(*(tuple(sign * x for x in pts[i]) for sign, i in terms))
    assert unpack(sum(sign * keys[i] for sign, i in terms)) == combo


@pytest.mark.parametrize("pts", [[(0, 0, 0)], [()]])
def test_pack_a_single_zero_point(pts):
    keys, unpack = pack_points(pts)
    assert keys == [0]
    assert unpack(0) == pts[0]
    assert unpack(2 * keys[0] - keys[0]) == pts[0]


@settings(max_examples=100)
@given(int_sets(max_points=5))
def test_pack_keeps_order_of_sums_and_differences(pts):
    """Sums and differences of two points, not only the points, are
    one-to-one and keep their order."""
    keys, unpack = pack_points(pts)
    combos = {}
    for a, ka in zip(pts, keys):
        for b, kb in zip(pts, keys):
            combos[ka + kb] = tuple(x + y for x, y in zip(a, b))
            combos[ka - kb] = tuple(x - y for x, y in zip(a, b))
    assert len(set(combos.values())) == len(combos)
    assert [combos[k] for k in sorted(combos)] == sorted(combos.values())
    assert all(unpack(k) == p for k, p in combos.items())


def deltas():
    return st.tuples(int_sets(max_points=5), int_sets(max_points=5)).map(
        lambda fs: build_delta(*fs))


@settings(max_examples=150)
@given(deltas())
@example(build_delta([()], [()]))
@example(build_delta([(0, 0)], [()]))
def test_pair_sum_counts_match_brute_force(delta):
    counts, unpack = _pair_sum_counts(delta)
    expected = brute_pair_sums(delta.elements)
    assert {unpack(k): c for k, c in counts.items()} == expected
    assert sum_set(delta) == set(expected)
    levels = {}
    for eta, c in expected.items():
        levels.setdefault(c, set()).add(eta)
    assert invariant_level_sets(delta) == levels
    full = [eta for eta, c in expected.items() if c == len(delta)]
    if len(full) == 1:
        assert recover_lambda_sq(delta) == full[0]
    else:
        with pytest.raises(StructureError):
            recover_lambda_sq(delta)


@pytest.mark.parametrize("seed, factor2", enumerate([
    [(1, 1), (-1, -1)], [(0,)], [()], [(BIG, -BIG), (0, 5)]]))
def test_fiber_differences_match_brute_force(seed, factor2):
    """Fibers of an integral affine image of the 56 points, translated
    past 2**64 on some axes, times a second factor."""
    rnd = random.Random(seed)
    matrix = random_unimodular(rnd, 7)
    shift = [rnd.choice([0, BIG, -3 * BIG]) for _ in range(7)]
    factor1 = [tuple(int(sum(a * x for a, x in zip(row, p))) + s
                     for row, s in zip(matrix, shift)) for p in sorted(omega56())]
    delta = build_delta(factor1, factor2)
    found = e7_fiber_projection_check(delta)
    assert [b2 for b2, _, _ in found] == sorted(factor2)
    tail = (0,) * delta.structure.d2
    expected = {(0,) + tuple(x - y for x, y in zip(a, b)) + tail
                for a in factor1 for b in factor1}
    assert len(expected) == 939
    for _, _, diffs in found:
        assert diffs == expected
