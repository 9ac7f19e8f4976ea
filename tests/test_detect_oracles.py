"""Oracles for E7 detection that share no code with its hat-matrix stages.

The hat matrix P = X (X^T X)^-1 X^T of the centred points is computed here
with its own Fraction elimination.  On the 56-point system its P = 1/24
pairs form the Gosset graph, which is distance-regular with intersection
array {27, 10, 1; 1, 10, 27} (Brouwer, Cohen and Neumaier,
*Distance-Regular Graphs*, 1989).

The detection negatives reach past the antipodality check: they are
antipodal, 56-point and of affine dimension 7, in the style of the
benchmark's pair-replaced and antipodal-random inputs.
"""

import random
from collections import Counter, deque
from fractions import Fraction

import pytest

from conftest import apply_affine, random_affine_map, random_unimodular
from microweight import Configuration, affgeom, detect_e7_config, omega56
from microweight.linalg import mat_vec, neg, vec

ROW_PROFILE = Counter({Fraction(1, 8): 1, Fraction(-1, 8): 1,
                       Fraction(1, 24): 27, Fraction(-1, 24): 27})


def fraction_inverse(m):
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def hat_matrix(points):
    """P of the centred points, which must span their ambient space."""
    n = len(points)
    bary = [sum(col, Fraction(0)) / n for col in zip(*points)]
    x = [[Fraction(a) - b for a, b in zip(p, bary)] for p in points]
    cols = list(zip(*x))
    gram = [[sum(a * b for a, b in zip(u, v)) for v in cols] for u in cols]
    inv = fraction_inverse(gram)
    w = [[sum(a * b for a, b in zip(row, col)) for col in zip(*inv)] for row in x]
    return [[sum(a * b for a, b in zip(wi, xj)) for xj in x] for wi in w]


@pytest.fixture(scope="module")
def omega_points():
    return sorted(vec(p) for p in omega56())


@pytest.fixture(scope="module")
def omega_hat(omega_points):
    return hat_matrix(omega_points)


def test_hat_rows_have_the_1_27_27_1_profile(omega_hat):
    assert all(Counter(row) == ROW_PROFILE for row in omega_hat)


def test_one_24th_pairs_form_the_gosset_graph(omega_hat):
    n = len(omega_hat)
    adj = [[j for j in range(n) if j != i and omega_hat[i][j] == Fraction(1, 24)]
           for i in range(n)]
    dist = []
    for source in range(n):
        d = [None] * n
        d[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if d[v] is None:
                    d[v] = d[u] + 1
                    queue.append(v)
        dist.append(d)
    # b_i and c_i of every pair (u, v) at distance i
    b, c = {}, {}
    for u in range(n):
        for v in range(n):
            i = dist[u][v]
            b.setdefault(i, set()).add(sum(dist[u][w] == i + 1 for w in adj[v]))
            c.setdefault(i, set()).add(sum(dist[u][w] == i - 1 for w in adj[v]))
    assert b == {0: {27}, 1: {10}, 2: {1}, 3: {0}}
    assert c == {0: {0}, 1: {1}, 2: {10}, 3: {27}}
    # the distance-3 pairs are the antipodes, where P = -1/8
    assert all((dist[u][v] == 3) == (omega_hat[u][v] == Fraction(-1, 8))
               for u in range(n) for v in range(n))


def test_hat_matrix_is_carried_by_the_detected_map(omega_points, omega_hat):
    rnd = random.Random(6007)
    rows, shift = random_affine_map(rnd, 7)
    moved = [apply_affine(rows, shift, p) for p in omega_points]
    rnd.shuffle(moved)
    found = detect_e7_config(Configuration(moved))
    index = {p: i for i, p in enumerate(omega_points)}
    perm = [index[found.apply(p)] for p in moved]
    moved_hat = hat_matrix(moved)
    assert all(moved_hat[i][j] == omega_hat[perm[i]][perm[j]]
               for i in range(56) for j in range(56))


def unimodular_image(rnd, points):
    core = random_unimodular(rnd, len(points[0]))
    shift = vec(rnd.randint(-9, 9) for _ in range(len(points[0])))
    return [tuple(a + b for a, b in zip(mat_vec(core, vec(p)), shift)) for p in points]


def positives():
    rnd = random.Random(7001)
    omega = sorted(omega56())
    yield "omega", omega
    for k in range(3):
        yield f"unimodular-{k}", unimodular_image(rnd, omega)
        rows, shift = random_affine_map(rnd, 7)
        yield f"rational-{k}", [apply_affine(rows, shift, p) for p in omega]
    for extra in (1, 2):
        yield f"embedded-dim{7 + extra}", unimodular_image(
            rnd, [p + (0,) * extra for p in omega])


def negatives():
    """Antipodal 56-point sets of affine dimension 7 that are not affine
    images of the system, and one of dimension 8."""
    rnd = random.Random(7013)
    omega = sorted(omega56())
    members = set(omega)
    made = 0
    while made < 6:
        p = rnd.choice(omega)
        q = tuple(x + rnd.choice((-2, 0, 2)) for x in p)
        if q in members or neg(q) in members or not any(q):
            continue
        pts = [x for x in omega if x not in (p, neg(p))] + [q, neg(q)]
        yield f"pair-replaced-{made}", unimodular_image(rnd, pts)
        made += 1
    made = 0
    while made < 6:
        half = set()
        while len(half) < 28:
            p = tuple(rnd.randint(-2, 2) for _ in range(7))
            if any(p) and neg(p) not in half:
                half.add(p)
        pts = sorted(half | {neg(p) for p in half})
        if Configuration(pts).affine_dimension == 7:
            yield f"antipodal-random-{made}", pts
            made += 1
    p = omega[0]
    lifted = [x + (0,) for x in omega if x not in (p, neg(p))]
    yield "dimension-8", lifted + [p + (1,), neg(p) + (-1,)]


CASES = [(label, pts, True) for label, pts in positives()] + \
        [(label, pts, False) for label, pts in negatives()]


def distinct_differences(points):
    """An affine invariant: injective affine maps keep distinct differences
    distinct."""
    return len({tuple(a - b for a, b in zip(p, q)) for p in points for q in points})


def test_negatives_reach_past_antipodality():
    omega_differences = distinct_differences(omega56())
    for label, pts, positive in CASES:
        if not positive:
            config = Configuration(pts)
            assert len(config) == 56 and config.antipodal, label
            dimension = 8 if label == "dimension-8" else 7
            assert config.affine_dimension == dimension, label
            assert distinct_differences(pts) != omega_differences, label


def expected_verdicts():
    target = {vec(p) for p in omega56()}
    for label, pts, positive in CASES:
        config = Configuration(pts)
        found = detect_e7_config(config)
        if positive:
            assert found is not None, label
            assert {found.apply(p) for p in config.points} == target, label
        else:
            assert found is None, label


def test_detection_verdicts():
    expected_verdicts()


def test_matching_stays_within_two_nodes_per_pair(monkeypatch):
    # a matching with no failed branch expands 28 nodes, one per pair
    monkeypatch.setattr(affgeom, "NODE_CAP", 2 * 28)
    rnd = random.Random(7039)
    omega = sorted(omega56())
    images = []
    for _ in range(20):
        rows, shift = random_affine_map(rnd, 7)
        images.append([apply_affine(rows, shift, p) for p in omega])
    for extra in (1, 2):
        rows, shift = random_affine_map(rnd, 7 + extra)
        images.append([apply_affine(rows, shift, p + (0,) * extra) for p in omega])
    target = {vec(p) for p in omega}
    for pts in images:
        rnd.shuffle(pts)
        config = Configuration(pts)
        found = detect_e7_config(config)
        assert found is not None
        assert {found.apply(p) for p in config.points} == target


def test_same_verdicts_without_the_profile_stage(monkeypatch):
    monkeypatch.setattr(affgeom, "_profile_matches", lambda *args: True)
    expected_verdicts()
