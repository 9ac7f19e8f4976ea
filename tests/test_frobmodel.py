import tracemalloc
from fractions import Fraction

import pytest

from microweight import (
    BlockStructure,
    StructureError,
    b_set,
    build_delta,
    e7_fiber_projection_check,
    fiber_constancy_check,
    inverse_closed,
    invariant_level_sets,
    line_set,
    omega56,
    recover_lambda_sq,
    t_eta_count,
    weil_involution,
)
from microweight.frobmodel import sum_set
from microweight.minuscule import cube_normal_form
from microweight.suites import frobmodel_suite, load_oracle_counts

PM1 = ((1,), (-1,))
SQUARE = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def test_block_structure_slicing():
    s = BlockStructure(2, 3)
    assert s.total_dim == 6
    p = (1, 10, 20, 30, 40, 50)
    assert s.block1(p) == (10, 20)
    assert s.block2(p) == (30, 40, 50)


def test_build_delta_product():
    delta = build_delta(PM1, PM1)
    assert len(delta) == 4
    assert all(p[0] == 1 for p in delta.support())
    assert delta.structure == BlockStructure(1, 1)

    big = build_delta(sorted(omega56()), SQUARE)
    assert len(big) == 224
    assert big.structure == BlockStructure(7, 2)

    with pytest.raises(StructureError):
        build_delta([], PM1)
    with pytest.raises(StructureError):
        build_delta([(1,), (1, 2)], PM1)


@pytest.mark.parametrize("entry", [1.5, 2.0, True, False, Fraction(1, 2), "3", None])
def test_build_delta_rejects_non_integer_entries(entry):
    with pytest.raises(ValueError, match="not an integer"):
        build_delta([(entry,), (-1,)], PM1)
    with pytest.raises(ValueError, match="not an integer"):
        build_delta(PM1, [(1, entry), (-1, -1)])
    # a point handed to t_eta_count or weil_involution is checked the same way
    delta = build_delta(PM1, PM1)
    for call in (t_eta_count, weil_involution):
        with pytest.raises(ValueError, match="not an integer"):
            call(delta, (entry, 0, 0))
        with pytest.raises(ValueError, match="not an integer"):
            call(delta, (1, 1, entry))


def test_build_delta_accepts_integral_fractions():
    delta = build_delta([(Fraction(4, 2),), (Fraction(-2),)], PM1)
    assert delta.factor1 == {(2,), (-2,)}
    assert all(type(x) is int for p in delta.support() for x in p)


def test_degenerate_second_factor():
    form = cube_normal_form("B", 3, 3)
    delta = build_delta(form.points, [(0,)])
    assert len(delta) == 8
    assert {delta.structure.block1(p) for p in delta.support()} == set(form.points)


def test_inverse_closed():
    assert inverse_closed([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert inverse_closed(omega56())
    assert not inverse_closed([(1,)])
    assert inverse_closed([])


def test_t_eta_count():
    delta = build_delta(PM1, PM1)
    assert t_eta_count(delta, (2, 0, 0)) == 4
    assert t_eta_count(delta, (100, 0, 0)) == 0
    assert t_eta_count(delta, (2, 2, 0)) == 2
    with pytest.raises(StructureError):
        t_eta_count(delta, (2, 0))

    three = build_delta([(0,), (1,), (3,)], [(0,)])
    # 1+3 = 0+4 has the single representation pair {(1),(3)}
    assert t_eta_count(three, (2, 4, 0)) == 2
    assert t_eta_count(three, (2, 0, 0)) == 1


def test_recover_lambda_sq():
    delta = build_delta(PM1, SQUARE)
    assert recover_lambda_sq(delta) == (2, 0, 0, 0)

    single = build_delta([(5,)], [(7, -2)])
    assert recover_lambda_sq(single) == (2, 10, 14, -4)

    # {0, 1, 3} has no center of symmetry, so no sum reaches full count
    bad = build_delta([(0,), (1,), (3,)], PM1)
    with pytest.raises(StructureError):
        recover_lambda_sq(bad)

    # {1, 2} is not negation-closed but is symmetric about 3/2, so the
    # full-count sum exists; it just is not twice the scalar unit
    shifted = build_delta([(1,), (2,)], PM1)
    assert recover_lambda_sq(shifted) == (2, 3, 0)


def test_invariant_level_sets_square():
    delta = build_delta(PM1, PM1)
    levels = invariant_level_sets(delta)
    assert {c: len(s) for c, s in levels.items()} == {4: 1, 2: 4, 1: 4}
    assert levels[4] == {(2, 0, 0)}
    total = sum(len(s) for s in levels.values())
    assert total == len(sum_set(delta))

    single = build_delta([(3,)], [(0,)])
    assert invariant_level_sets(single) == {1: {(2, 6, 0)}}


def test_e7_square_level_sets_match_the_frozen_profile():
    """The 224-point product, the largest any suite builds, against the
    profile brute-forced by tools/oracle_counts.py."""
    levels = invariant_level_sets(build_delta(sorted(omega56()), SQUARE))
    profile = {str(c): len(s) for c, s in levels.items()}
    assert profile == load_oracle_counts()["omega56_x_square_level_sets"]


def test_weil_involution():
    delta = build_delta(PM1, SQUARE)
    lam2 = recover_lambda_sq(delta)
    for x in delta.support():
        rho = weil_involution(delta, x)
        assert weil_involution(delta, rho) == x
        assert tuple(a + b for a, b in zip(x, rho)) == lam2
        assert rho in delta
    assert weil_involution(delta, (1, 0, 0, 0)) == (1, 0, 0, 0)
    with pytest.raises(StructureError):
        weil_involution(delta, (1, 0))


def test_weil_involution_stays_in_large_delta():
    delta = build_delta(sorted(omega56()), SQUARE)
    for x in delta.support():
        assert weil_involution(delta, x) in delta


def test_line_and_b_sets():
    delta = build_delta([(0,), (1,), (2,)], [(0,)])
    lines = list(line_set(delta))
    assert set(lines) == {((1, 0, 0), (1, 1, 0), (1, 2, 0)),
                          ((1, 2, 0), (1, 1, 0), (1, 0, 0))}
    assert b_set(delta) == {(0, 1, 0), (0, -1, 0)}

    free = build_delta(SQUARE, [(0,)])
    assert list(line_set(free)) == []
    assert b_set(free) == set()


def test_line_set_check_counts_without_storing_the_triples():
    # 256 points in one progression have 32,512 ordered line triples; the
    # check counts them as they are generated, well under 1 MB at its peak
    tracemalloc.start()
    try:
        report = frobmodel_suite(build_delta([(i,) for i in range(256)], [(0,)]),
                                 "line-set")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (check,) = report.checks
    assert check.witness == 32512 and report.passed
    assert peak < 1_000_000


def test_b_set_lands_in_first_factor_block():
    delta = build_delta([(-1,), (0,), (1,)], cube_normal_form("B", 2, 2).points)
    b = b_set(delta)
    assert b and inverse_closed(b)
    assert b != {(0, 0, 0, 0)}
    for d in b:
        assert d[0] == 0 and d[2:] == (0, 0)


def test_fiber_constancy():
    delta = build_delta([(0,), (1,), (2,), (5,)], cube_normal_form("B", 3, 3).points)
    assert fiber_constancy_check(delta) == ()

    adjoint = build_delta([(-1,), (0,), (1,)], PM1)
    assert fiber_constancy_check(adjoint) == ()
    assert len(list(line_set(adjoint))) == 4  # one unordered triple per fiber

    with pytest.raises(StructureError):
        fiber_constancy_check(build_delta(PM1, [(0,), (1,), (2,)]))


def test_e7_fiber_projection():
    delta = build_delta(sorted(omega56()), PM1)
    found = e7_fiber_projection_check(delta)
    assert len(found) == 2
    for b2, mapping, diffs in found:
        assert mapping is not None
        assert (0,) * delta.structure.total_dim in diffs
        assert inverse_closed(diffs)
        assert len(diffs) == 939
        for d in diffs:
            assert d[0] == 0 and delta.structure.block2(d) == (0,)


def test_e7_fiber_projection_requires_a_match():
    delta = build_delta(SQUARE, PM1)
    with pytest.raises(StructureError):
        e7_fiber_projection_check(delta)
