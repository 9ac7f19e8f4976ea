"""Seeded request lists for the four workloads, built without the library.

Everything here is plain Python over ``int`` and ``Fraction``: the point
sets, the maps applied to them and the expected outcome of every request
are derived from closed formulas and brute force, never from
``microweight``.  The same seed always yields the same requests.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

WORKLOADS = ("lemma-scan", "detect-e7", "eigen-lattice", "weyl-orbits")

ACCEPT = "accept"
REJECT = "reject"

# how a checked result is classified
OK = "ok"
FAILED = "failed"          # wrong verdict, unexpected exception or inconclusive
INCORRECT = "incorrect"    # right verdict with a wrong witness, map, size or report

LEMMA_MAX_RANK = 7       # cube forms scanned by collinearity_suite at --max-rank 7
LEMMA_AFFINE_MAX = 64    # forms up to this size also get a rational affine image
ORBIT_MAX_RANK = 7       # minuscule orbits from seeded conjugates up to this rank
CATALOG_MAX_RANK = 10    # catalog_suite for every type and rank up to this one


class Request:
    """One library call with the outcome the benchmark expects.

    ``kind`` selects the call, ``args`` are plain data, ``expect`` is
    ACCEPT or REJECT and ``oracle`` carries what the check compares against.
    ``known_defect`` marks requests whose correct outcome the program is
    known not to produce yet; they are counted as failed, not as incorrect.
    """

    __slots__ = ("kind", "args", "expect", "oracle", "known_defect")

    def __init__(self, kind, args, expect, oracle=None, known_defect=False):
        self.kind = kind
        self.args = args
        self.expect = expect
        self.oracle = oracle
        self.known_defect = known_defect

    def __repr__(self):
        return (f"Request({self.kind!r}, {self.args!r}, {self.expect!r}, "
                f"{self.oracle!r}, {self.known_defect!r})")


def requests_for(workload, seed):
    return REQUEST_LISTS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# integer and rational maps


MAX_ENTRY = 4   # bounds map entries so that no seed draws much costlier arithmetic


def unimodular(rnd, n):
    """Random integer n x n matrix of determinant +-1 (elementary row ops)
    with entries of absolute value at most MAX_ENTRY."""
    if n == 1:
        return [[rnd.choice((1, -1))]]
    while True:
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(2 * n):
            kind = rnd.randrange(3)
            i, j = rnd.sample(range(n), 2)
            if kind == 0:
                k = rnd.choice((-2, -1, 1, 2))
                rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
            elif kind == 1:
                rows[i], rows[j] = rows[j], rows[i]
            else:
                rows[i] = [-a for a in rows[i]]
        if max(abs(a) for row in rows for a in row) <= MAX_ENTRY:
            return rows


def rational_affine(rnd, n):
    """Injective rational affine map: unimodular core, nonzero rational row
    scalings and a rational translation."""
    core = unimodular(rnd, n)
    rows = []
    for row in core:
        s = Fraction(rnd.choice((-3, -2, -1, 1, 2, 3)), rnd.randint(1, 4))
        rows.append([s * a for a in row])
    shift = [Fraction(rnd.randint(-9, 9), rnd.randint(1, 5)) for _ in range(n)]
    return rows, shift


def apply_map(rows, shift, p):
    return tuple(sum(a * x for a, x in zip(row, p)) + t for row, t in zip(rows, shift))


def unimodular_image(rnd, pts):
    n = len(pts[0])
    rows = unimodular(rnd, n)
    shift = [rnd.randint(-3, 3) for _ in range(n)]
    return tuple(apply_map(rows, shift, p) for p in pts)


def affine_image(rnd, pts):
    rows, shift = rational_affine(rnd, len(pts[0]))
    return tuple(apply_map(rows, shift, p) for p in pts)


# ---------------------------------------------------------------------------
# independent geometry: rank, collinearity, differences


def rank(vectors):
    rows = [[Fraction(x) for x in v] for v in vectors]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def affine_rank(pts):
    base = pts[0]
    return rank([[a - b for a, b in zip(p, base)] for p in pts[1:]])


def collinear(a, b, c):
    """Rank-1 test on the two difference vectors (all 2x2 minors vanish)."""
    u = [x - y for x, y in zip(b, a)]
    v = [x - y for x, y in zip(c, a)]
    return all(u[i] * v[j] == u[j] * v[i] for i, j in combinations(range(len(u)), 2))


def brute_collinear_count(pts):
    return sum(1 for a, b, c in combinations(pts, 3) if collinear(a, b, c))


def distinct_differences(pts):
    return len({tuple(x - y for x, y in zip(a, b)) for a in pts for b in pts if a != b})


def antipodal(pts):
    n = len(pts)
    twice_center = [Fraction(2 * sum(p[i] for p in pts), n) for i in range(len(pts[0]))]
    s = set(pts)
    return all(tuple(c - x for c, x in zip(twice_center, p)) in s for p in pts)


def neg(p):
    return tuple(-x for x in p)


# ---------------------------------------------------------------------------
# cube normal forms (the point sets collinearity_suite scans)


def sign_vectors(m):
    return sorted(product((1, -1), repeat=m))


VECTOR_RANK = 10   # collinearity_suite scans the C/D vector forms this far at any rank


def cube_forms(max_rank):
    """(label, points) for every form collinearity_suite scans at max_rank."""
    forms = []
    for m in range(2, max_rank + 1):
        forms.append((f"B{m}-w{m}", sign_vectors(m)))
    for m in range(4, max_rank + 1):
        for w, par in ((m, 0), (m - 1, 1)):
            pts = [p for p in sign_vectors(m) if p.count(-1) % 2 == par]
            forms.append((f"D{m}-w{w}", pts))
    for m in range(3, max_rank + 1, 2):
        forms.append((f"A{m}-w{(m + 1) // 2}",
                      [p for p in sign_vectors(m) if sum(p) in (1, -1)]))
    top = max(VECTOR_RANK, max_rank)
    for m in range(2, top + 1):
        forms.append((f"C{m}-w1", pm_generators(m)))
    for m in range(4, top + 1):
        forms.append((f"D{m}-w1", pm_generators(m)))
    return forms


def pm_generators(m):
    gens = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    return sorted(gens + [neg(g) for g in gens])


def on_sphere(pts):
    """Equal squared norms: a line meets a sphere at most twice, so no
    three of the points are collinear."""
    return len({sum(x * x for x in p) for p in pts}) == 1


def lemma_scan(rnd):
    reqs = []
    for label, pts in cube_forms(LEMMA_MAX_RANK):
        pts = tuple(pts)
        if not on_sphere(pts):
            raise RuntimeError(f"{label} is not on a sphere")
        reqs.append(Request("lemma", pts, ACCEPT, label))
        reqs.append(Request("lemma", unimodular_image(rnd, pts), ACCEPT, label))
        if len(pts) <= LEMMA_AFFINE_MAX:
            reqs.append(Request("lemma", affine_image(rnd, pts), ACCEPT, label))
        if negation_closed(pts):
            # the barycenter (the origin) is the midpoint of every antipodal pair
            with_center = pts + ((0,) * len(pts[0]),)
            reqs.append(Request("lemma", unimodular_image(rnd, with_center), REJECT,
                                label + "+center"))
            if len(pts) <= LEMMA_AFFINE_MAX:
                reqs.append(Request("lemma", affine_image(rnd, with_center), REJECT,
                                    label + "+center"))
    rnd.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# the 56-point E7 weight system, from the Dynkin diagram alone

# Bourbaki numbering: chain 1-3-4-5-6-7 with node 2 attached to node 4
E7_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4))


def cartan_e7():
    a = [[2 if i == j else 0 for j in range(7)] for i in range(7)]
    for i, j in E7_EDGES:
        a[i - 1][j - 1] = a[j - 1][i - 1] = -1
    return a


def omega56_points():
    """Doubled weights of the 56-dimensional E7 module in simple-root
    coordinates, by closing the doubled top weight under the simple
    reflections s_i(x) = x - <x, alpha_i> alpha_i (simply laced)."""
    a = cartan_e7()
    top = (2, 3, 4, 6, 5, 4, 3)
    seen = {top}
    frontier = [top]
    while frontier:
        nxt = []
        for x in frontier:
            for i in range(7):
                pairing = sum(x[j] * a[j][i] for j in range(7))
                if pairing:
                    y = tuple(c - pairing if k == i else c for k, c in enumerate(x))
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen))


def certify_not_omega56(pts, omega_differences):
    """An affine invariant that differs from the 56-point system's, or None.
    The system has no collinear triple: its points have one Weyl-invariant
    norm, and a line meets a level set of a definite form at most twice."""
    n = distinct_differences(pts)
    if n != omega_differences:
        return f"distinct-differences={n}"
    n = brute_collinear_count(pts)
    if n:
        return f"collinear-triples={n}"
    return None


DETECT_NEGATIVES = {"off-lattice": 3, "antipodal-random": 7, "pair-replaced": 7}


def detect_e7(rnd):
    omega = omega56_points()
    omega_differences = distinct_differences(omega)
    reqs = [Request("detect", unimodular_image(rnd, omega), ACCEPT, "unimodular"),
            Request("detect", affine_image(rnd, omega), ACCEPT, "rational")]
    for extra in (1, 2):
        padded = tuple(p + (0,) * extra for p in omega)
        reqs.append(Request("detect", unimodular_image(rnd, padded), ACCEPT,
                            f"embedded-dim{7 + extra}"))
    for _ in range(DETECT_NEGATIVES["off-lattice"]):
        k, j = rnd.randrange(56), rnd.randrange(7)
        pts = list(omega)
        pts[k] = tuple(x + Fraction(1, 2) if i == j else x for i, x in enumerate(pts[k]))
        pts = unimodular_image(rnd, pts)
        if antipodal(pts):
            raise RuntimeError("an off-lattice point left the set antipodal")
        reqs.append(Request("detect", pts, REJECT, "off-lattice: not antipodal"))
    made = 0
    while made < DETECT_NEGATIVES["antipodal-random"]:
        half = set()
        while len(half) < 28:
            p = tuple(rnd.randint(-2, 2) for _ in range(7))
            if any(p) and p not in half and neg(p) not in half:
                half.add(p)
        pts = tuple(sorted(half | {neg(p) for p in half}))
        if affine_rank(pts) != 7:
            continue
        cert = certify_not_omega56(pts, omega_differences)
        if cert is not None:
            reqs.append(Request("detect", pts, REJECT, "antipodal-random: " + cert))
            made += 1
    members = set(omega)
    made = 0
    while made < DETECT_NEGATIVES["pair-replaced"]:
        p = omega[rnd.randrange(56)]
        q = tuple(x + rnd.choice((-2, 0, 2)) for x in p)
        if q in members or not any(q):
            continue
        pts = [x for x in omega if x != p and x != neg(p)] + [q, neg(q)]
        cert = certify_not_omega56(pts, omega_differences)
        if cert is not None:
            reqs.append(Request("detect", unimodular_image(rnd, pts), REJECT,
                                "pair-replaced: " + cert))
            made += 1
    rnd.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# eigenvalue-lattice products

PROGRESSION_FAMILY = (
    ("adjoint-line", ((-1,), (0,), (1,))),
    ("long-line", ((0,), (1,), (2,), (3,))),
    ("offset-line", ((2,), (5,), (8,))),
    ("plane-line", ((0, 0), (1, 0), (2, 0), (0, 1))),
    ("plane-diag", ((0, 0), (1, 1), (2, 2), (1, 0))),
    ("two-lines", ((0, 0), (1, 0), (2, 0), (0, 2), (0, 1))),
    ("symmetric", ((-2, 0), (-1, 0), (0, 0), (1, 0), (2, 0))),
)

CUBE_FAMILY = (
    ("square", tuple(sign_vectors(2))),
    ("cube3", tuple(sign_vectors(3))),
    ("cross2", tuple(pm_generators(2))),
    ("halfcube4", tuple(p for p in sign_vectors(4) if p.count(-1) % 2 == 0)),
)

EIGEN_OPS = ("lambda-sq", "level-sets", "line-set", "b-set")


def linear_image(rnd, pts):
    rows = unimodular(rnd, len(pts[0]))
    return tuple(apply_map(rows, [0] * len(rows), p) for p in pts)


def negation_closed(pts):
    return set(map(neg, pts)) == set(pts)


def eigen_oracle(f1, f2, op):
    """(expected outcome, expected report witness) computed by brute force
    over ordered pairs of the product set."""
    pts = [(1,) + a + b for a in f1 for b in f2]
    if op == "lambda-sq":
        if negation_closed(f1) and negation_closed(f2):
            return ACCEPT, [2] + [0] * (len(pts[0]) - 1)
        return REJECT, None
    if op == "level-sets":
        sums = {}
        for p in pts:
            for q in pts:
                s = tuple(x + y for x, y in zip(p, q))
                sums[s] = sums.get(s, 0) + 1
        profile = {}
        for count in sums.values():
            profile[str(count)] = profile.get(str(count), 0) + 1
        return ACCEPT, profile
    members = set(pts)
    halves = set()
    lines = 0
    for p in pts:
        for q in pts:
            if p != q and all((x + y) % 2 == 0 for x, y in zip(p, q)):
                if tuple((x + y) // 2 for x, y in zip(p, q)) in members:
                    lines += 1
                    halves.add(tuple((x - y) // 2 for x, y in zip(p, q)))
    if op == "line-set":
        return ACCEPT, lines
    return ACCEPT, sorted(list(h) for h in halves)


def eigen_json(f1, f2):
    return {"structure": {"d1": len(f1[0]), "d2": len(f2[0])},
            "delta1": [list(p) for p in f1], "delta2": [list(p) for p in f2]}


def eigen_lattice(rnd):
    reqs = []
    pairs = []
    for _, base1 in PROGRESSION_FAMILY + CUBE_FAMILY:
        for _, base2 in CUBE_FAMILY:
            f1, f2 = linear_image(rnd, base1), linear_image(rnd, base2)
            pairs.append((f1, f2))
            for op in EIGEN_OPS:
                expect, witness = eigen_oracle(f1, f2, op)
                reqs.append(Request("eigen", (eigen_json(f1, f2), op), expect, witness))
    # Ten corruptions of the same four 12-point products every seed.  With
    # them, the 12-point rejects fill the lower half of the reject class and
    # its median falls mid-way into the 16-point products, not at the edge
    # between two sizes, where it would jump from seed to seed.
    malformed = [pairs[4 * i1 + i2] for i1 in (0, 2) for i2 in (0, 2)]
    for f1, f2 in malformed + malformed + malformed[:2]:
        obj = eigen_json(f1, f2)
        block = obj[rnd.choice(("delta1", "delta2"))]
        point = block[rnd.randrange(len(block))]
        k = rnd.randrange(len(point))
        # a float or a boolean entry: the correct outcome is a ValueError
        point[k] = True if rnd.random() < 0.5 else point[k] + 0.5
        reqs.append(Request("eigen", (obj, "lambda-sq"), REJECT, "ValueError",
                            known_defect=True))
    reqs.append(Request("suite", "fiber-constancy", ACCEPT))
    reqs.append(Request("suite", "e7-projection", ACCEPT))
    rnd.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# Weyl orbits and minuscule weights of the classical and exceptional types

HALF = Fraction(1, 2)

# simple roots of E7 in R^8 (Bourbaki's E8 realization, first seven nodes)
E7_SIMPLE = (
    (HALF, -HALF, -HALF, -HALF, -HALF, -HALF, -HALF, HALF),
    (1, 1, 0, 0, 0, 0, 0, 0),
    (-1, 1, 0, 0, 0, 0, 0, 0),
    (0, -1, 1, 0, 0, 0, 0, 0),
    (0, 0, -1, 1, 0, 0, 0, 0),
    (0, 0, 0, -1, 1, 0, 0, 0),
    (0, 0, 0, 0, -1, 1, 0, 0),
)

# minuscule fundamental weights of E6/E7 in simple-root coordinates (Bourbaki)
E_MINUSCULE = {
    ("E6", 1): (Fraction(4, 3), 1, Fraction(5, 3), 2, Fraction(4, 3), Fraction(2, 3)),
    ("E6", 6): (Fraction(2, 3), 1, Fraction(4, 3), 2, Fraction(5, 3), Fraction(4, 3)),
    ("E7", 7): (1, Fraction(3, 2), 2, 3, Fraction(5, 2), 2, Fraction(3, 2)),
}


def classical_types(max_rank):
    out = [("A", m) for m in range(1, max_rank + 1)]
    out += [("B", m) for m in range(2, max_rank + 1)]
    out += [("C", m) for m in range(2, max_rank + 1)]
    out += [("D", m) for m in range(4, max_rank + 1)]
    return out


def all_types(max_rank):
    return classical_types(max_rank) + [("E6", 6), ("E7", 7)]


def minuscule_dims(t, m):
    """Minuscule fundamental weight index -> dimension of its module."""
    if t == "A":
        return {i: comb(m + 1, i) for i in range(1, m + 1)}
    if t == "B":
        return {m: 2 ** m}
    if t == "C":
        return {1: 2 * m}
    if t == "D":
        return {1: 2 * m, m - 1: 2 ** (m - 1), m: 2 ** (m - 1)}
    return {1: 27, 6: 27} if t == "E6" else {7: 56}


def simple_roots(t, m):
    if t in ("E6", "E7"):
        return E7_SIMPLE[:m]
    dim = m + 1 if t == "A" else m
    unit = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    roots = [tuple(a - b for a, b in zip(unit[i], unit[i + 1])) for i in range(m - 1)]
    if t == "A":
        roots.append(tuple(a - b for a, b in zip(unit[m - 1], unit[m])))
    elif t == "B":
        roots.append(unit[m - 1])
    elif t == "C":
        roots.append(tuple(2 * x for x in unit[m - 1]))
    else:
        roots.append(tuple(a + b for a, b in zip(unit[m - 2], unit[m - 1])))
    return tuple(roots)


def fundamental_weight(t, m, i):
    """Ambient coordinates; type A uses the traceless representative."""
    if t in ("E6", "E7"):
        coeffs = E_MINUSCULE[(t, i)]
        return tuple(sum((Fraction(c) * a[k] for c, a in zip(coeffs, E7_SIMPLE[:m])),
                         Fraction(0)) for k in range(8))
    if t == "A":
        return tuple(Fraction(int(k < i)) - Fraction(i, m + 1) for k in range(m + 1))
    if t in ("B", "D") and i == m:
        return (HALF,) * m
    if t == "D" and i == m - 1:
        return (HALF,) * (m - 1) + (-HALF,)
    return tuple(Fraction(int(k < i)) for k in range(m))


def reflect(alpha, x):
    c = Fraction(2 * sum(a * b for a, b in zip(x, alpha)), sum(a * a for a in alpha))
    return tuple(b - c * a for a, b in zip(alpha, x))


def weyl_conjugate(rnd, t, m, w):
    """A seeded element of the Weyl orbit of w."""
    if t in ("E6", "E7"):
        for _ in range(30):
            w = reflect(E7_SIMPLE[rnd.randrange(m)], w)
        return w
    perm = list(range(len(w)))
    rnd.shuffle(perm)
    w = [w[k] for k in perm]
    if t != "A":
        flips = [rnd.random() < 0.5 for _ in w]
        if t == "D" and sum(flips) % 2:
            flips[0] = not flips[0]
        w = [-x if f else x for x, f in zip(w, flips)]
    return tuple(w)


def combination(t, m, coeffs):
    """sum_i coeffs[i] * omega_(i+1) in ambient coordinates."""
    total = None
    for i, c in enumerate(coeffs, start=1):
        if c:
            w = tuple(c * x for x in fundamental_weight(t, m, i))
            total = w if total is None else tuple(a + b for a, b in zip(total, w))
    return total


def index_range(t, m):
    return sorted(minuscule_dims(t, m)) if t in ("E6", "E7") else range(1, m + 1)


SATURATION_CASES = ((3, 2), (4, 2), (5, 2), (5, 3), (6, 3))
CHAIN_CASES = (("A", 6), ("B", 5), ("C", 5), ("D", 6))
WORDS_CASES = (("A", 5, 3), ("B", 4, 4), ("C", 4, 1), ("D", 5, 5))


def classical_roots(t, m):
    dim = m + 1 if t == "A" else m
    unit = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    out = []
    for i, j in combinations(range(dim), 2):
        out.append(tuple(a - b for a, b in zip(unit[i], unit[j])))
        if t != "A":
            out.append(tuple(a + b for a, b in zip(unit[i], unit[j])))
    if t == "B":
        out += unit
    if t == "C":
        out += [tuple(2 * x for x in u) for u in unit]
    return out + [neg(r) for r in out]


def a_orbit(m, i):
    w = fundamental_weight("A", m, i)
    return sorted(set(permutations(w)))


def weyl_orbits(rnd):
    reqs = []
    for t, m in all_types(ORBIT_MAX_RANK):
        for i, dim in sorted(minuscule_dims(t, m).items()):
            w = weyl_conjugate(rnd, t, m, fundamental_weight(t, m, i))
            reqs.append(Request("orbit", (t, m, w), ACCEPT, dim))
    for t, m in all_types(CATALOG_MAX_RANK):
        reqs.append(Request("catalog", (t, m), ACCEPT, minuscule_dims(t, m)))
        minuscule = sorted(minuscule_dims(t, m))
        coeffs = [0] * m
        coeffs[rnd.choice(minuscule) - 1] = 1
        reqs.append(Request("minuscule", (t, m, combination(t, m, coeffs)), ACCEPT))
        # A sum of two fundamental weights pairs to >= 2 with the highest
        # coroot.  The same three sums every seed: how early is_minuscule
        # exits depends on the indices, and seeded indices moved the reject
        # median by up to 2x between seeds.
        lo, hi = index_range(t, m)[0], index_range(t, m)[-1]
        for i, j in ((lo, lo), (lo, hi), (hi, hi)):
            coeffs = [0] * m
            coeffs[i - 1] += 1
            coeffs[j - 1] += 1
            reqs.append(Request("minuscule", (t, m, combination(t, m, coeffs)), REJECT))
    for m, i in SATURATION_CASES:
        pts = a_orbit(m, i)
        rnd.shuffle(pts)
        # every root with nonzero pairing swaps a coordinate of one value
        # with one of the other value, and the swapped weight is in the orbit
        reqs.append(Request("saturation", ("A", m, tuple(pts)), ACCEPT,
                            len(pts) * 2 * i * (m + 1 - i)))
    for t, m in CHAIN_CASES:
        roots = classical_roots(t, m)
        start = weyl_conjugate(rnd, t, m, fundamental_weight(t, m, rnd.randint(1, m)))
        chain = tuple(rnd.choice(roots) for _ in range(rnd.randint(10, 20)))
        expected = [start]
        for alpha in chain:
            expected.append(reflect(alpha, expected[-1]))
        reqs.append(Request("chain", (t, m, chain, start), ACCEPT, expected))
    for t, m, i in WORDS_CASES:
        w = weyl_conjugate(rnd, t, m, fundamental_weight(t, m, i))
        reqs.append(Request("words", (t, m, w), ACCEPT, minuscule_dims(t, m)[i]))
    reqs.append(Request("suite", "verify-e7", ACCEPT))
    rnd.shuffle(reqs)
    return reqs


REQUEST_LISTS = {
    "lemma-scan": lemma_scan,
    "detect-e7": detect_e7,
    "eigen-lattice": eigen_lattice,
    "weyl-orbits": weyl_orbits,
}


def warmup_requests():
    """The smallest request of each kind, the same for every workload and
    seed; running them fills the library's caches before timing."""
    omega = omega56_points()
    off = (tuple(x + HALF if i == 0 else x for i, x in enumerate(omega[0])),) + omega[1:]
    line, square = PROGRESSION_FAMILY[0][1], CUBE_FAMILY[0][1]
    w, alpha = fundamental_weight("A", 2, 1), (1, -1, 0)
    reqs = [Request("lemma", square, ACCEPT),
            Request("detect", off, REJECT),
            Request("suite", "fiber-constancy", ACCEPT),
            Request("orbit", ("A", 2, w), ACCEPT, 3),
            Request("minuscule", ("A", 2, w), ACCEPT),
            Request("catalog", ("A", 1), ACCEPT, minuscule_dims("A", 1)),
            Request("saturation", ("A", 2, tuple(a_orbit(2, 1))), ACCEPT, 3 * 2 * 2),
            Request("chain", ("A", 2, (alpha,), w), ACCEPT, [w, reflect(alpha, w)]),
            Request("words", ("A", 2, w), ACCEPT, 3)]
    for op in EIGEN_OPS:
        expect, witness = eigen_oracle(line, square, op)
        reqs.append(Request("eigen", (eigen_json(line, square), op), expect, witness))
    return reqs
