import re
from fractions import Fraction
from itertools import product

import pytest

from conftest import apply_affine, random_affine_map
from microweight import (
    Configuration,
    DetectionInconclusive,
    build_root_system,
    collinear_triple_count,
    detect_e7_config,
    no_three_collinear,
    omega56,
    orbit,
    separation_partition,
)
from microweight import affgeom, weylorbit
from microweight.frobmodel import StructureError, build_delta, fiber_constancy_check
from microweight.linalg import invert, solve_in_basis, vec
from microweight.minuscule import cube_normal_form
from microweight.suites import collinearity_suite, verify_e7_suite
from microweight.weylorbit import fundamental_weight, orbit_words


def cfg(points):
    return Configuration([vec(p) for p in points])


def test_configuration_invariants():
    square = cfg([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert square.dim == 2
    assert square.affine_dimension == 2
    assert square.barycenter == (Fraction(1, 2), Fraction(1, 2))
    assert square.antipodal
    assert cfg([(3, 4)]).affine_dimension == 0
    point = Configuration([()])
    assert len(point) == 1 and point.dim == point.affine_dimension == 0
    assert point.antipodal
    assert not cfg([(0, 0), (1, 0), (0, 1)]).antipodal
    with pytest.raises(ValueError):
        Configuration([])
    with pytest.raises(ValueError):
        Configuration([vec([0, 0]), vec([0, 0])])
    with pytest.raises(ValueError):
        Configuration([vec([0, 0]), vec([0, 0, 1])])


def is_fraction_point(p):
    return type(p) is tuple and all(type(x) is Fraction for x in p)


def test_points_are_fraction_tuples_built_when_read():
    config = Configuration([(2, 0), (0, 0), (1, 0), (0, Fraction(1, 2))])
    assert len(config) == 4
    assert repr(config) == "Configuration(4 points, dim 2)"
    ok, witness = no_three_collinear(config)
    assert "points" not in vars(config)
    assert not ok and witness == ((0, 0), (1, 0), (2, 0))
    assert all(map(is_fraction_point, witness))
    assert config.points == ((0, 0), (0, Fraction(1, 2)), (1, 0), (2, 0))
    assert all(map(is_fraction_point, config.points))


def test_hull_data_is_computed_when_read():
    hull = {"affine_dimension", "antipodal", "barycenter"}
    # 32 points in dimension 5 pass the ellipsoid certificate; the 4 points
    # of dimension 2 are scanned and hold a collinear triple
    accepting = Configuration(list(product((1, -1), repeat=5)))
    rejecting = Configuration([(2, 0), (0, 0), (1, 0), (0, Fraction(1, 2))])
    for config, verdict in ((accepting, True), (rejecting, False)):
        assert len(config) and repr(config)
        assert no_three_collinear(config)[0] is verdict
        assert not hull & vars(config).keys()
    assert accepting.affine_dimension == 5 and accepting.antipodal is True
    assert accepting.barycenter == (0,) * 5
    assert rejecting.affine_dimension == 2 and rejecting.antipodal is False
    assert rejecting.barycenter == (Fraction(3, 4), Fraction(1, 8))
    for config in (accepting, rejecting):
        assert hull <= vars(config).keys()
        assert all(type(x) is Fraction for x in config.barycenter)


def test_collinear_factor_error_names_fraction_witness():
    delta = build_delta([(0,)], [(2,), (0,), (1,)])
    with pytest.raises(StructureError, match=re.escape(
            "collinear triple: ((Fraction(0, 1),), (Fraction(1, 1),), (Fraction(2, 1),))")):
        fiber_constancy_check(delta)


@pytest.mark.parametrize("point", [(0.5, 1), (True, 0), ("1", 0)])
def test_configuration_rejects_inexact_coordinates(point):
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        Configuration([point])


def test_collinear_triple_count_small_cases():
    assert collinear_triple_count(cfg([(5, 5)])) == 0
    assert collinear_triple_count(Configuration([()])) == 0
    assert collinear_triple_count(cfg([(0, 0), (1, 0), (2, 0), (0, 1)])) == 1
    assert collinear_triple_count(cfg([(0, 0), (1, 0), (2, 0), (3, 0)])) == 4
    assert collinear_triple_count(cfg(product((1, -1), repeat=3))) == 0


def test_no_three_collinear_witness():
    ok, witness = no_three_collinear(cfg([(0, 0), (1, 0), (2, 0)]))
    assert not ok
    assert witness == (vec([0, 0]), vec([1, 0]), vec([2, 0]))
    ok, witness = no_three_collinear(cfg(product((1, -1), repeat=3)))
    assert ok and witness is None
    assert no_three_collinear(Configuration([()])) == (True, None)


def test_no_three_collinear_on_a5_middle_form():
    form = cube_normal_form("A", 5, 3)
    assert len(form.points) == 20
    ok, witness = no_three_collinear(cfg(form.points))
    assert ok and witness is None
    # independent brute force over all C(20,3) triples
    from itertools import combinations
    pts = [vec(p) for p in form.points]
    for a, b, c in combinations(pts, 3):
        u = tuple(x - y for x, y in zip(b, a))
        v = tuple(x - y for x, y in zip(c, a))
        assert any(u[i] * v[j] != u[j] * v[i]
                   for i in range(5) for j in range(5))


@pytest.fixture(scope="module")
def rank_10_scan():
    return collinearity_suite(10)


def test_collinearity_suite_to_rank_10_passes(rank_10_scan):
    report = rank_10_scan
    assert len(report.checks) == 43
    assert all(c.status == "pass" for c in report.checks)
    assert "cube-B10-w10" in {c.id for c in report.checks}


def test_rank_10_scan_forms_lie_on_spheres(rank_10_scan):
    # a line meets a sphere in at most two points, so equal squared norms
    # back every pass of the scan without the collinearity code
    for check in rank_10_scan.checks:
        match = re.fullmatch(r"cube-([A-Z])(\d+)-w(\d+)", check.id)
        type_label, rank, index = match.groups()
        points = cube_normal_form(type_label, int(rank), int(index)).points
        assert len({sum(x * x for x in p) for p in points}) == 1, check.id


def test_cross_polytope_cube_witness_all_ranks():
    """Rows of the inverse of the triangular +-1 matrix exhibit every
    cross-polytope as a cube-vertex subset."""
    for m in range(2, 7):
        pts = []
        for i in range(m):
            e = [0] * m
            e[i] = 1
            pts.append(tuple(e))
            pts.append(tuple(-x for x in e))
        sign_matrix = [vec([1 if j >= i else -1 for j in range(m)])
                       for i in range(m)]
        basis = invert(sign_matrix)
        for p in pts:
            assert set(solve_in_basis(basis, p)) <= {1, -1}


def test_omega56_shape():
    pts = omega56()
    assert len(pts) == 56
    assert all(len(p) == 7 for p in pts)
    assert all(isinstance(x, int) for p in pts for x in p)
    assert {tuple(-x for x in p) for p in pts} == set(pts)
    config = Configuration(omega56())
    assert config.affine_dimension == 7
    assert config.antipodal
    assert collinear_triple_count(config) == 0


def test_separation_partition_profile():
    system = build_root_system("E7", 7)
    w7 = fundamental_weight(system, 7)
    orb = orbit(system, w7)
    profile = {Fraction(3): 1, Fraction(1): 27, Fraction(-1): 27, Fraction(-3): 1}

    assert separation_partition(w7) == profile
    assert sum(separation_partition(w7).values()) == 56

    neg_w7 = tuple(-c for c in w7)
    assert separation_partition(neg_w7) == profile

    some_other = next(x for x in orb.support if x not in (w7, neg_w7))
    assert separation_partition(some_other) == profile


def test_separation_partition_rejections():
    # w must be a weight of the 56-point system: not zero, not a root, not
    # a weight of another system
    system = build_root_system("E7", 7)
    with pytest.raises(ValueError):
        separation_partition(system.zero())
    with pytest.raises(ValueError):
        separation_partition(system.simple_roots[0])
    b2 = build_root_system("B", 2)
    with pytest.raises(ValueError):
        separation_partition(fundamental_weight(b2, 2))


def test_verify_e7_enumerates_the_orbit_once(monkeypatch):
    affgeom.top_orbit.cache_clear()
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return orbit_words(*args, **kwargs)

    monkeypatch.setattr(weylorbit, "orbit_words", spy)
    assert verify_e7_suite().passed
    assert len(calls) == 1


def test_detect_on_omega_itself():
    config = Configuration(omega56())
    found = detect_e7_config(config)
    assert found is not None
    image = {found.apply(p) for p in config.points}
    assert image == {vec(p) for p in omega56()}


def test_detect_rejects_wrong_inputs():
    assert detect_e7_config(cfg([(0, 0), (1, 0)])) is None
    cube = cfg(product((1, -1), repeat=3))
    assert detect_e7_config(cube) is None
    # one displaced point breaks the antipodal prefilter
    pts = sorted(omega56())
    moved = [vec(p) for p in pts[1:]]
    moved.append(tuple(c + Fraction(1, 3) if i == 0 else Fraction(c)
                       for i, c in enumerate(pts[0])))
    assert detect_e7_config(Configuration(moved)) is None


def test_detect_on_affine_image(rng):
    config = Configuration(omega56())
    rows, shift = random_affine_map(rng, 7)
    moved = Configuration([apply_affine(rows, shift, p) for p in config.points])
    found = detect_e7_config(moved)
    assert found is not None
    target = {vec(p) for p in omega56()}
    assert {found.apply(p) for p in moved.points} == target


def test_detect_node_cap_raises(monkeypatch):
    monkeypatch.setattr(affgeom, "NODE_CAP", 0)
    with pytest.raises(DetectionInconclusive):
        detect_e7_config(Configuration(omega56()))


def test_affine_invariance_of_collinearity(rng):
    base_sets = [
        [(0, 0), (1, 0), (2, 0), (0, 1)],
        list(product((1, -1), repeat=3)),
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (0, 1, 1)],
    ]
    for pts in base_sets:
        config = cfg(pts)
        n = config.dim
        for _ in range(10):
            rows, shift = random_affine_map(rng, n)
            moved = Configuration([apply_affine(rows, shift, p)
                                   for p in config.points])
            assert collinear_triple_count(moved) == collinear_triple_count(config)
            assert moved.affine_dimension == config.affine_dimension
