"""Cartan matrices and root counts against sympy's independent Lie
algebra tables.

sympy writes the Cartan matrix with rows and columns swapped relative to
``cartan_matrix``: its (i, j) entry is our (j, i) entry.  sympy's type C
starts at rank 3, so C2 is not covered, and its A1 Cartan matrix fails to
build, so A1 is checked by its root count only.
"""

import pytest

from microweight import build_root_system, cartan_matrix

pytest.importorskip("sympy")
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
    theirs = RootSystem(_label(type_label, rank)).all_roots()
    assert len(build_root_system(type_label, rank).roots) == len(theirs)
