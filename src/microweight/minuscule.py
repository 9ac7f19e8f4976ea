"""Minuscule weights: the pairing test, the catalog, cube normal forms
and saturation progressions.

A nonzero lattice weight is minuscule when every root pairing lies in
{-1, 0, 1}; its weight system is then a single Weyl orbit.  For the
classical types the weight system also has a closed "cube" normal form
over independent generators, which is what the collinearity arguments
run on.
"""

from dataclasses import dataclass
from itertools import product
from math import comb

from .rootsystem import RootSystemError, build_root_system, int_points, int_weight


@dataclass(frozen=True)
class MinusculeEntry:
    type_label: str
    rank: int
    weight_index: int
    dimension: int
    self_dual_form: str  # "symplectic" | "orthogonal" | "neither"


def is_minuscule(system, w):
    """True iff every root pairing of the nonzero lattice weight w is in
    {-1, 0, 1}.

    The positive roots are scanned in order: the first pairing that is not
    an integer raises ValueError, the first one of absolute value above 1
    returns False.
    """
    form = system.int_form
    x, d = int_weight(system, w)
    if not any(x):
        raise ValueError("the zero weight is not a candidate minuscule weight")
    for p in form.lattice_pairings(x, d, form.positive):
        if abs(p) > 1:
            return False
    return True


def _a_self_dual_form(m, r):
    if 2 * r != m + 1:
        return "neither"
    return "symplectic" if r % 2 == 1 else "orthogonal"


def _b_spin_form(m):
    return "orthogonal" if m % 4 in (0, 3) else "symplectic"


def _d_spin_form(m):
    if m % 2 == 1:
        return "neither"
    return "orthogonal" if m % 4 == 0 else "symplectic"


def minuscule_catalog(type_label, rank):
    """The catalog of minuscule fundamental weights for one type and rank.

    D_3 is rejected: it aliases A_3 and is excluded from the public list.
    """
    build_root_system(type_label, rank)  # validates the type/rank range
    if type_label == "A":
        return [MinusculeEntry("A", rank, i, comb(rank + 1, i),
                               _a_self_dual_form(rank, i))
                for i in range(1, rank + 1)]
    if type_label == "B":
        return [MinusculeEntry("B", rank, rank, 2 ** rank, _b_spin_form(rank))]
    if type_label == "C":
        return [MinusculeEntry("C", rank, 1, 2 * rank, "symplectic")]
    if type_label == "D":
        if rank == 3:
            raise RootSystemError("D_3 is excluded from the catalog (alias of A_3)")
        spin = _d_spin_form(rank)
        return [
            MinusculeEntry("D", rank, 1, 2 * rank, "orthogonal"),
            MinusculeEntry("D", rank, rank - 1, 2 ** (rank - 1), spin),
            MinusculeEntry("D", rank, rank, 2 ** (rank - 1), spin),
        ]
    if type_label == "E6":
        return [MinusculeEntry("E6", 6, 1, 27, "neither"),
                MinusculeEntry("E6", 6, 6, 27, "neither")]
    return [MinusculeEntry("E7", 7, 7, 56, "symplectic")]


@dataclass(frozen=True)
class CubeForm:
    """A minuscule weight system in exponent normal form: integer sign
    points over independent generators (the standard basis of Z^m)."""
    type_label: str
    rank: int
    weight_index: int
    points: tuple  # sorted integer tuples
    constraint: str

    def __len__(self):
        return len(self.points)


def _std_basis(m):
    return tuple(tuple(1 if j == i else 0 for j in range(m)) for i in range(m))


def cube_normal_form(type_label, rank, weight_index):
    """Closed normal form of a classical minuscule weight system.

    Full or parity-restricted sign vectors for the spin-type entries, the
    points {+-g_j} for the C/D vector entries, and the sign vectors with
    coordinate sum in {-1, +1} for the self-dual middle weight of type A
    (which requires odd rank).
    """
    m = rank
    gens = _std_basis(m)
    if type_label == "B" and weight_index == m and m >= 2:
        pts = sorted(product((1, -1), repeat=m))
        return CubeForm("B", m, m, tuple(pts), "all sign vectors")
    if type_label == "D" and m >= 3:
        if weight_index == 1:
            pts = sorted([g for g in gens] + [tuple(-x for x in g) for g in gens])
            return CubeForm("D", m, 1, tuple(pts), "plus-minus generators")
        if weight_index in (m - 1, m):
            par = 1 if weight_index == m - 1 else 0
            pts = sorted(p for p in product((1, -1), repeat=m)
                         if sum(1 for x in p if x == -1) % 2 == par)
            label = f"sign vectors with minus-count = {par} mod 2"
            return CubeForm("D", m, weight_index, tuple(pts), label)
    if type_label == "C" and weight_index == 1 and m >= 2:
        pts = sorted([g for g in gens] + [tuple(-x for x in g) for g in gens])
        return CubeForm("C", m, 1, tuple(pts), "plus-minus generators")
    if type_label == "A":
        if 2 * weight_index != m + 1:
            raise RootSystemError(
                "type A has a cube normal form only for the self-dual middle "
                "weight (index (m+1)/2, m odd)")
        pts = sorted(p for p in product((1, -1), repeat=m) if sum(p) in (1, -1))
        return CubeForm("A", m, weight_index, tuple(pts),
                        "sign vectors with coordinate sum in {-1, +1}")
    raise RootSystemError(
        f"({type_label}, rank {rank}, weight {weight_index}) has no cube normal form")


@dataclass(frozen=True)
class Progression:
    start: tuple
    root: tuple
    length: int
    present: bool


def saturation_progressions(omega, system):
    """Saturation progressions required of a weight collection.

    For every weight and every root with nonzero integer pairing m, the
    collection must contain the arithmetic progression of length |m|
    stepping away from the weight.  Returns one record per required
    progression with a presence flag.
    """
    members = sorted(set(map(tuple, omega)))
    form = system.int_form
    # the weights and the roots at one scale d
    points, d = int_points(system, [*members, *system.roots])
    points, steps = points[:len(members)], points[len(members):]
    present = set(points)
    roots = list(zip(system.roots, steps))
    out = []
    for lam, x in zip(members, points):
        for (alpha, step), m in zip(roots, form.lattice_pairings(x, d, form.all)):
            if not m:
                continue
            sign = 1 if m > 0 else -1
            ok = all(tuple(a - sign * k * b for a, b in zip(x, step)) in present
                     for k in range(1, abs(m) + 1))
            out.append(Progression(lam, alpha, abs(m), ok))
    return out
