"""Weyl group orbits of weights and explicit reflection chains.

Orbits are enumerated by ``rootsystem.closure``, the breadth-first closure
under the simple reflections that also generates the roots, with exact
deduplication on coordinate tuples, so the result is deterministic and
bit-exact across runs.

Weights go in and come out as tuples of Fractions (ints are accepted on
input; bools, floats and strings are rejected).  A weight crosses to ints
once, for its lattice check (``IntForm.lattice_pairings``); each closure
step is then one ``rootsystem.reflect`` call on Fractions.
"""

# OrbitTooLargeError is re-exported here: orbit enumeration raises it
from .rootsystem import OrbitTooLargeError, as_fractions, closure, int_weight, reflect

ORBIT_CAP = 10 ** 6


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
    # ValueError off the weight lattice; the simple coroots suffice, since
    # every coroot is an integer combination of them
    list(form.lattice_pairings(x, d, form.simple))
    simple = system.simple_roots
    return closure(as_fractions([x], d), lambda y, i: reflect(system, simple[i], y),
                   system.rank, cap)


def apply_chain(system, chain, start):
    """Apply a chain of root reflections, returning every intermediate weight.

    The result has length len(chain) + 1 and begins with ``start``.
    """
    big, d = int_weight(system, start)
    out = as_fractions([big], d)
    for alpha in chain:
        out.append(reflect(system, alpha, out[-1]))
    return out


def fundamental_weight(system, i):
    """The i-th fundamental weight (1-based), dual to the simple coroots.

    Realized inside the span of the simple roots, so for type A this is
    the traceless Bourbaki representative.
    """
    if type(i) is not int or not 1 <= i <= system.rank:
        raise IndexError(f"fundamental weight index {i!r} out of range for {system}")
    return system.int_form.fundamental[i - 1]


def fundamental_weights(system):
    return tuple(fundamental_weight(system, i) for i in range(1, system.rank + 1))
