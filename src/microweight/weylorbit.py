"""Weyl group orbits of weights and explicit reflection chains.

Orbits are enumerated by breadth-first closure under the simple
reflections with exact deduplication on coordinate tuples, so the
result is deterministic and bit-exact across runs.
"""

from collections import Counter
from fractions import Fraction

from . import linalg, rootsystem
from .rootsystem import NotARootError, reflect

ORBIT_CAP = 10 ** 6


class OrbitTooLargeError(RuntimeError):
    """Orbit enumeration exceeded the configured element cap."""


class WeightSet:
    """Finite multiset of weights of one root system.

    Elements are stored in lexicographic order of their exact
    coordinates, so two WeightSets compare bit-exactly.
    """

    def __init__(self, system, elements):
        self.system = system
        if isinstance(elements, Counter):
            counts = Counter({tuple(k): v for k, v in elements.items()})
        else:
            counts = Counter(tuple(e) for e in elements)
        for v, mult in counts.items():
            if len(v) != system.ambient_dim:
                raise ValueError("weight dimension does not match the system")
            if mult <= 0:
                raise ValueError("multiplicities must be positive")
        self.multiplicity = counts
        self.support = tuple(sorted(counts))

    def __len__(self):
        return sum(self.multiplicity.values())

    def __iter__(self):
        for v in self.support:
            for _ in range(self.multiplicity[v]):
                yield v

    def __contains__(self, v):
        return tuple(v) in self.multiplicity

    def __eq__(self, other):
        return (isinstance(other, WeightSet)
                and self.system == other.system
                and self.multiplicity == other.multiplicity)

    def __repr__(self):
        return f"WeightSet({self.system!r}, {len(self)} elements)"


def _check_in_weight_lattice(system, w):
    for alpha in system.roots:
        if rootsystem.pairing(system, w, alpha).denominator != 1:
            raise ValueError(f"{w} is not in the weight lattice of {system}")


def orbit(system, w, cap=ORBIT_CAP):
    """The full Weyl orbit of w as a WeightSet with multiplicity 1 each."""
    return WeightSet(system, orbit_words(system, w, cap))


def orbit_words(system, w, cap=ORBIT_CAP):
    """BFS orbit together with a word of simple-reflection indices per element.

    The word (i1, ..., ik) means the element equals
    S_{alpha_{ik}}(... S_{alpha_{i1}}(w) ...), indices 0-based.
    """
    w = tuple(Fraction(c) for c in w)
    _check_in_weight_lattice(system, w)
    words = {w: ()}
    frontier = [w]
    while frontier:
        nxt = []
        for x in frontier:
            for i, alpha in enumerate(system.simple_roots):
                y = reflect(system, alpha, x)
                if y not in words:
                    words[y] = words[x] + (i,)
                    nxt.append(y)
                    if len(words) > cap:
                        raise OrbitTooLargeError(f"orbit exceeds {cap} elements")
        frontier = nxt
    return words


def apply_chain(system, chain, start):
    """Apply a chain of root reflections, returning every intermediate weight.

    The result has length len(chain) + 1 and begins with ``start``.
    """
    out = [tuple(Fraction(c) for c in start)]
    for alpha in chain:
        if not system.is_root(tuple(alpha)):
            raise NotARootError(f"chain step {alpha} is not a root of {system}")
        out.append(reflect(system, alpha, out[-1]))
    return out


def fundamental_weight(system, i):
    """The i-th fundamental weight (1-based), dual to the simple coroots.

    Realized inside the span of the simple roots, so for type A this is
    the traceless Bourbaki representative.
    """
    if not 1 <= i <= system.rank:
        raise IndexError(f"fundamental weight index {i} out of range for {system}")
    cartan = rootsystem.cartan_matrix(system)
    rhs = tuple(Fraction(1) if k == i - 1 else Fraction(0) for k in range(system.rank))
    coeffs = linalg.solve_square(cartan, rhs)
    return rootsystem.from_simple_root_coords(system, coeffs)


def fundamental_weights(system):
    return tuple(fundamental_weight(system, i) for i in range(1, system.rank + 1))
