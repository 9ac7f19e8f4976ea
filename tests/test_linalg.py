from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microweight import linalg

rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


@given(st.lists(rationals, min_size=1, max_size=6))
def test_vec_and_neg_roundtrip(entries):
    v = linalg.vec(entries)
    assert linalg.neg(linalg.neg(v)) == v
    assert linalg.add(v, linalg.neg(v)) == linalg.zero_vec(len(v))


@given(st.lists(rationals, min_size=2, max_size=5), rationals)
def test_scale_distributes_over_dot(entries, c):
    v = linalg.vec(entries)
    w = linalg.vec(reversed(entries))
    assert linalg.dot(linalg.scale(c, v), w) == c * linalg.dot(v, w)


def test_rank_of_dependent_rows():
    rows = [(1, 2, 3), (2, 4, 6), (0, 1, 1)]
    assert linalg.rank([linalg.vec(r) for r in rows]) == 2
    assert linalg.rank([]) == 0
    assert linalg.rank([linalg.zero_vec(3)]) == 0


def test_solve_in_basis_inside_and_outside_span():
    basis = [linalg.vec([1, 0, 1]), linalg.vec([0, 1, 1])]
    target = linalg.vec([2, 3, 5])
    assert linalg.solve_in_basis(basis, target) == (Fraction(2), Fraction(3))
    assert linalg.solve_in_basis(basis, linalg.vec([0, 0, 1])) is None


def test_invert_and_solve_square():
    rows = [linalg.vec([2, 1]), linalg.vec([1, 1])]
    inv = linalg.invert(rows)
    assert inv == ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(2)))
    rhs = linalg.vec([3, 2])
    x = linalg.solve_square(rows, rhs)
    assert linalg.mat_vec(rows, x) == rhs


def test_invert_rejects_singular():
    rows = [linalg.vec([1, 2]), linalg.vec([2, 4])]
    with pytest.raises(ValueError):
        linalg.invert(rows)


@settings(max_examples=30)
@given(st.integers(2, 4), st.data())
def test_invert_is_an_inverse(n, data):
    rows = [linalg.vec([data.draw(rationals) for _ in range(n)])
            for _ in range(n)]
    if linalg.rank(rows) < n:
        return
    inv = linalg.invert(rows)
    prod = [linalg.mat_vec(inv, col) for col in zip(*rows)]
    for i in range(n):
        for j in range(n):
            assert prod[j][i] == (1 if i == j else 0)


@pytest.mark.parametrize("op, expected", [(linalg.add, (4, 6)), (linalg.sub, (-2, -2)),
                                          (linalg.dot, 11)])
def test_add_sub_reject_different_lengths(op, expected):
    assert op((1, 2), (3, 4)) == expected
    with pytest.raises(ValueError, match="lengths differ"):
        op((1, 2), (1, 2, 3))
    with pytest.raises(ValueError, match="lengths differ"):
        op((1, 2, 3), (1,))


int_rows = st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n))


def fraction_echelon(rows):
    """(rank, determinant of the leading square block) by Fraction
    elimination written here."""
    work, r, det = [linalg.vec(x) for x in rows], 0, Fraction(1)
    for c in range(len(work[0]) if work else 0):
        p = next((i for i in range(r, len(work)) if work[i][c]), None)
        if p is None:
            det = Fraction(0)
            continue
        if p != r:
            work[r], work[p], det = work[p], work[r], -det
        det *= work[r][c]
        for i in range(r + 1, len(work)):
            f = work[i][c] / work[r][c]
            work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r, det


@settings(max_examples=60)
@given(int_rows)
def test_int_inverse_is_det_times_the_fraction_inverse(rows):
    rank, det = fraction_echelon(rows)
    if rank < len(rows):
        with pytest.raises(ValueError, match="singular"):
            linalg.int_inverse(rows)
        return
    d, adj = linalg.int_inverse(rows)
    assert d == abs(det) > 0
    assert adj == tuple(tuple(d * x for x in row) for row in linalg.invert(rows))


@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), max_size=8),
       st.integers(1, 4))
def test_independent_rows_are_the_greedy_basis(rows, k):
    def rank(m):
        return fraction_echelon(m)[0]

    chosen = linalg.independent_rows(rows, k)
    assert len(chosen) == min(k, rank(rows))
    # each row up to the last chosen one is chosen exactly when it raises the rank
    for i in range(chosen[-1] + 1 if chosen else len(rows)):
        assert (i in chosen) == (rank(rows[:i + 1]) > rank(rows[:i]))


small_rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 6))
exact_entries = st.one_of(st.integers(-50, 50), small_rationals)


@given(st.integers(0, 4).flatmap(lambda n: st.lists(
    st.lists(exact_entries, min_size=n, max_size=n), max_size=5)), st.integers(1, 5))
def test_clear_denominators_scales_to_the_least_common_denominator(rows, den):
    d, ints = linalg.clear_denominators(rows, den)
    assert all(type(x) is int for row in ints for x in row)
    assert [[Fraction(x, d) for x in row] for row in ints] == rows
    # the least multiple of den that makes every entry an integer
    least = next(m for m in count(den, den)
                 if all((x * m).denominator == 1 for row in rows for x in row))
    assert d == least


@pytest.mark.parametrize("entry", [True, 0.5, 1.0, "1"])
def test_clear_denominators_rejects_inexact_entries(entry):
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        linalg.clear_denominators([(1, Fraction(1, 2)), (0, entry)])


@pytest.mark.parametrize("entry", [True, 0.5, 1e-20, "1"])
def test_vec_rejects_inexact_entries(entry):
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        linalg.vec([Fraction(1, 2), entry])
    assert linalg.vec([Fraction(1, 2), 3]) == (Fraction(1, 2), Fraction(3))


def test_solve_in_basis_rejects_a_dependent_basis_and_unequal_lengths():
    basis = [(1, 0, 1), (Fraction(1, 2), 0, Fraction(1, 2))]
    with pytest.raises(ValueError, match="dependent"):
        linalg.solve_in_basis(basis, (1, 0, 1))
    with pytest.raises(ValueError, match="lengths differ"):
        linalg.solve_in_basis([(1, 0)], (1, 0, 0))
    assert linalg.solve_in_basis([], (0, 0)) == ()
    assert linalg.solve_in_basis([], (0, 1)) is None


def _float_cases():
    from microweight import AffineMap, build_root_system, separation_partition
    from microweight.weylorbit import fundamental_weight

    w7 = fundamental_weight(build_root_system("E7", 7), 7)
    identity = AffineMap(((1, 0), (0, 1)), (0, 0))
    return {
        "rank": lambda: linalg.rank([(1, 0.5)]),
        "invert": lambda: linalg.invert([(2.0, 1), (1, 1)]),
        "solve_in_basis": lambda: linalg.solve_in_basis([(1, 0)], (0.5, 0)),
        "separation_partition": lambda: separation_partition(tuple(map(float, w7))),
        "AffineMap.apply": lambda: identity.apply((0.5, 1)),
    }


@pytest.mark.parametrize("name", ["rank", "invert", "solve_in_basis",
                                  "separation_partition", "AffineMap.apply"])
def test_a_float_is_rejected(name):
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        _float_cases()[name]()
