"""Weyl group orbits of weights and explicit reflection chains.

Orbits are enumerated by breadth-first closure under the simple
reflections with exact deduplication on coordinate tuples, so the
result is deterministic and bit-exact across runs.

Weights go in and come out as tuples of Fractions (ints are accepted on
input; bools, floats and strings are rejected).  Each step is one call of
``rootsystem.reflect``, which runs on ints with the data of the system's
integer form (``rootsystem.IntForm``) and returns Fractions again.
"""

from .linalg import exact_tuple
from .rootsystem import NotARootError, as_fractions, exact_weight, int_weight, reflect

ORBIT_CAP = 10 ** 6


class OrbitTooLargeError(RuntimeError):
    """Orbit enumeration exceeded the configured element cap."""


class WeightSet:
    """Finite set of weights of one root system.

    ``support`` holds the weights in lexicographic order of their exact
    coordinates, so two WeightSets compare bit-exactly.
    """

    def __init__(self, system, elements):
        self.system = system
        members = frozenset(tuple(e) for e in elements)
        if any(len(v) != system.ambient_dim for v in members):
            raise ValueError("weight dimension does not match the system")
        self._members = members
        self.support = tuple(sorted(members))

    def __len__(self):
        return len(self.support)

    def __iter__(self):
        return iter(self.support)

    def __contains__(self, v):
        return tuple(v) in self._members

    def __eq__(self, other):
        return (isinstance(other, WeightSet)
                and self.system == other.system
                and self.support == other.support)

    def __repr__(self):
        return f"WeightSet({self.system!r}, {len(self)} elements)"


def orbit(system, w, cap=ORBIT_CAP):
    """The full Weyl orbit of w as a WeightSet."""
    return WeightSet(system, orbit_words(system, w, cap))


def orbit_words(system, w, cap=ORBIT_CAP):
    """BFS orbit together with a word of simple-reflection indices per element.

    The word (i1, ..., ik) means the element equals
    S_{alpha_{ik}}(... S_{alpha_{i1}}(w) ...), indices 0-based.  The dict
    is in BFS order.
    """
    form = system.int_form
    x, d = int_weight(system, w)
    w = as_fractions([x], d)[0]
    # every coroot is an integer combination of the simple coroots
    for entry in form.simple:
        num, den = form.pairing(entry, x, d)
        if num % den:
            raise ValueError(f"{w} is not in the weight lattice of {system}")
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
    out = [exact_weight(system, start)]
    for alpha in chain:
        if not system.is_root(exact_tuple(alpha)):
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
    return system.int_form.fundamental[i - 1]


def fundamental_weights(system):
    return tuple(fundamental_weight(system, i) for i in range(1, system.rank + 1))
