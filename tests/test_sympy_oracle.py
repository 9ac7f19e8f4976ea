"""Cartan matrices and roots against sympy's independent Lie algebra
tables, and ``solve_in_basis`` against sympy's linear solver.

sympy writes the Cartan matrix with rows and columns swapped relative to
``cartan_matrix``: its (i, j) entry is our (j, i) entry.  sympy's type C
starts at rank 3, so C2 is not covered, and its A1 Cartan matrix fails to
build, so A1 is checked by its roots only.  sympy's E6 and E7 root lists
hold only 50 and 74 distinct vectors, so for those types the root count
is compared, not the root set.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from microweight import build_root_system, cartan_matrix
from microweight.linalg import solve_in_basis

pytest.importorskip("sympy")
from sympy import Matrix, linsolve, symbols  # noqa: E402
from sympy.liealgebras.cartan_matrix import CartanMatrix  # noqa: E402
from sympy.liealgebras.root_system import RootSystem  # noqa: E402

SYSTEMS = ([("A", m) for m in range(1, 8)] + [("B", m) for m in range(2, 8)]
           + [("C", m) for m in range(3, 8)] + [("D", m) for m in range(4, 8)]
           + [("E6", 6), ("E7", 7)])


def _label(type_label, rank):
    return type_label if type_label.startswith("E") else f"{type_label}{rank}"


CARTAN_SYSTEMS = [s for s in SYSTEMS if s != ("A", 1)]


@pytest.mark.parametrize("type_label, rank", CARTAN_SYSTEMS,
                         ids=[_label(*s) for s in CARTAN_SYSTEMS])
def test_cartan_matrix_is_sympy_transpose(type_label, rank):
    ours = cartan_matrix(build_root_system(type_label, rank))
    theirs = CartanMatrix(_label(type_label, rank))
    assert theirs.shape == (rank, rank)
    assert [[theirs[j, i] for j in range(rank)] for i in range(rank)] == \
        [list(row) for row in ours]


@pytest.mark.parametrize("type_label, rank", SYSTEMS, ids=[_label(*s) for s in SYSTEMS])
def test_root_count_matches_sympy(type_label, rank):
    theirs = RootSystem(_label(type_label, rank)).all_roots().values()
    ours = build_root_system(type_label, rank).roots
    assert len(ours) == len(theirs)
    if not type_label.startswith("E"):
        # sympy uses the same epsilon coordinates for A-D
        assert set(ours) == {tuple(Fraction(str(c)) for c in v) for v in theirs}


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


def _sympy_solution(basis, target):
    """The coefficients from sympy's linsolve, or None without a solution."""
    xs = symbols(f"x0:{len(basis)}")
    system = Matrix([list(b) for b in basis]).T
    solutions = linsolve((system, Matrix(list(target))), *xs)
    if not solutions:
        return None
    (solution,) = solutions
    return tuple(Fraction(int(c.p), int(c.q)) for c in solution)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=n),
    st.lists(rationals, min_size=n, max_size=n),
    st.lists(rationals, min_size=n, max_size=n), st.booleans())))
def test_solve_in_basis_matches_sympy(case):
    basis, coeffs, free, inside = case
    basis = [tuple(b) for b in basis]
    assume(Matrix([list(b) for b in basis]).rank() == len(basis))
    coeffs = coeffs[:len(basis)]
    # a combination of the basis, or a vector that may lie outside the span
    target = (tuple(sum(c * b[i] for c, b in zip(coeffs, basis))
                    for i in range(len(free))) if inside else tuple(free))
    got = solve_in_basis(basis, target)
    assert got == _sympy_solution(basis, target)
    if inside:
        assert got == tuple(coeffs)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=n - 1),
    st.lists(rationals, min_size=n - 1, max_size=n - 1),
    st.lists(rationals, min_size=n, max_size=n))))
def test_solve_in_basis_rejects_dependent_bases(case):
    basis, coeffs, target = case
    basis = [tuple(b) for b in basis]
    extra = tuple(sum(c * b[i] for c, b in zip(coeffs, basis))
                  for i in range(len(target)))
    with pytest.raises(ValueError, match="dependent"):
        solve_in_basis(basis + [extra], tuple(target))
