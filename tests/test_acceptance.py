"""Acceptance gate: twelve end-to-end checks, one printed pass/fail line each.

Every comparison is exact; the stated runtime budgets are asserted with
wall-clock measurements.  Each check is defined once, in
``microweight.suites``, and the criteria that restate a CLI suite read its
report instead of re-running its loops: criteria 2-4 read one
``verify_e7_suite()`` run, 5 the ``catalog_suite`` reports, 6
``collinearity_suite(7)`` and 7 ``fiber_constancy_suite()``.  A criterion
asserts more than its suite where the suite checks less: 5 also compares
the catalog with closed forms and each orbit size with its dimension.
"""

import functools
import random
import re
import time
from fractions import Fraction
from itertools import product
from math import comb

from conftest import apply_affine, random_affine_map, random_unimodular
from microweight import (
    Configuration,
    build_delta,
    build_root_system,
    collinear_triple_count,
    detect_e7_config,
    e7_fiber_projection_check,
    invariant_level_sets,
    inverse_closed,
    omega56,
    orbit,
    pairing,
    recover_lambda_sq,
    reflect,
    weil_involution,
)
from microweight.linalg import mat_vec, sub, vec
from microweight.minuscule import cube_normal_form
from microweight.report import PASS
from microweight.suites import (
    catalog_suite,
    collinearity_suite,
    default_fixture_path,
    fiber_constancy_suite,
    load_oracle_counts,
    verify_e7_suite,
)
from microweight.serialize import weight_rows_from_text
from microweight.weylorbit import fundamental_weight, fundamental_weights


def report(num, description, ok):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num:2d}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def e7():
    return build_root_system("E7", 7)


def e7_orbit():
    system = e7()
    return orbit(system, fundamental_weight(system, 7))


def test_criterion_01_orbit_size():
    t0 = time.monotonic()
    size = len(e7_orbit())
    elapsed = time.monotonic() - t0
    report(1, "top E7 orbit has exactly 56 elements within 5 s",
           size == 56 and elapsed < 5)


def clean(check):
    """A check that passed with no witness; INCONCLUSIVE does not count,
    unlike in ``SuiteReport.passed``."""
    return check.status == PASS and check.witness is None


@functools.cache
def verify_e7_run():
    """One timed ``verify_e7_suite()`` run, read by criteria 2-4: its
    checks by id and its wall time in seconds."""
    t0 = time.monotonic()
    suite = verify_e7_suite()
    return {c.id: c for c in suite.checks}, time.monotonic() - t0


def test_criterion_02_fixture_equivalence():
    rows = weight_rows_from_text(
        default_fixture_path().read_text(encoding="utf-8"), 7)
    checks, elapsed = verify_e7_run()
    ok = len(rows) == 28 and clean(checks["02-halforbit-fixture"]) and elapsed < 5
    report(2, "28-row fixture, halved and mirrored, equals the orbit", ok)


def test_criterion_03_reflection_spot_checks():
    checks, _ = verify_e7_run()
    ok = clean(checks["03-cross-reflection"]) and clean(checks["04-reflection-table"])
    report(3, "cross reflection images and all 49 table entries match", ok)


def test_criterion_04_partition():
    checks, elapsed = verify_e7_run()
    report(4, "1/27/27/1 partition for all 56 transported functionals "
              "within 30 s", clean(checks["05-hyperplane-partition"]) and elapsed < 30)


def test_criterion_05_catalog():
    t0 = time.monotonic()
    cases = ([("A", m) for m in range(1, 8)] + [("B", m) for m in range(2, 8)]
             + [("C", m) for m in range(2, 8)] + [("D", m) for m in range(4, 8)]
             + [("E6", 6), ("E7", 7)])
    expected = {
        "A": lambda m: {(i, comb(m + 1, i)) for i in range(1, m + 1)},
        "B": lambda m: {(m, 2 ** m)},
        "C": lambda m: {(1, 2 * m)},
        "D": lambda m: {(1, 2 * m), (m - 1, 2 ** (m - 1)), (m, 2 ** (m - 1))},
        "E6": lambda m: {(1, 27), (6, 27)},
        "E7": lambda m: {(7, 56)},
    }
    ok = True
    for label, rank in cases:
        system = build_root_system(label, rank)
        suite, entries = catalog_suite(label, rank)
        ok &= {(e.weight_index, e.dimension) for e in entries} == expected[label](rank)
        ok &= len(suite.checks) == len(entries) and all(map(clean, suite.checks))
        for e in entries:
            w = fundamental_weight(system, e.weight_index)
            ok &= len(orbit(system, w)) == e.dimension
    elapsed = time.monotonic() - t0
    report(5, "catalog entries, minuscule checks and orbit sizes up to "
              "rank 7 within 60 s", ok and elapsed < 60)


def test_criterion_06_cube_collinearity():
    t0 = time.monotonic()
    checks = collinearity_suite(7).checks
    elapsed = time.monotonic() - t0
    # each description starts with the size of its form: "<n>-point ..."
    prefixes = [re.match(r"(\d+)-point ", c.description) for c in checks]
    ok = (len(checks) == 33 and all(map(clean, checks))
          and all(m and int(m[1]) <= 128 for m in prefixes))
    report(6, f"no three collinear on all {len(checks)} cube normal forms "
              "within 60 s", ok and elapsed < 60)


def test_criterion_07_fiber_constancy():
    checks = fiber_constancy_suite().checks
    ok = len(checks) == 28 and all(map(clean, checks))
    report(7, f"fiber constancy on {len(checks)} generated product instances", ok)


def test_criterion_08_model_identities():
    ok = True
    small_forms = [cube_normal_form("B", 2, 2).points,
                   cube_normal_form("B", 3, 3).points,
                   cube_normal_form("C", 2, 1).points,
                   cube_normal_form("C", 3, 1).points,
                   cube_normal_form("A", 3, 2).points]
    for f1, f2 in product(small_forms, repeat=2):
        delta = build_delta(f1, f2)
        lam2 = (2,) + (0,) * (delta.structure.total_dim - 1)
        ok &= recover_lambda_sq(delta) == lam2
        levels = invariant_level_sets(delta)
        ok &= levels[len(delta)] == {lam2}
        for x in delta.support():
            rho = weil_involution(delta, x)
            ok &= weil_involution(delta, rho) == x
            ok &= tuple(a + b for a, b in zip(x, rho)) == lam2
            ok &= rho in delta
    report(8, "scalar-square recovery, top level set and involution "
              "identities across the generated family", ok)


def test_criterion_09_detection():
    t0 = time.monotonic()
    rnd = random.Random(4471)
    target = {vec(p) for p in omega56()}
    base = Configuration(target)

    found = detect_e7_config(base)
    ok = found is not None and {found.apply(p) for p in base.points} == target

    for _ in range(20):
        core = random_unimodular(rnd, 7)
        shift = vec(rnd.randint(-9, 9) for _ in range(7))
        moved = Configuration([tuple(a + b for a, b in
                                     zip(mat_vec(core, vec(p)), shift))
                               for p in base.points])
        mapping = detect_e7_config(moved)
        ok &= mapping is not None
        ok &= {mapping.apply(p) for p in moved.points} == target

    for _ in range(20):
        pts = sorted(target)
        i = rnd.randrange(56)
        bump = [Fraction(0)] * 7
        bump[rnd.randrange(7)] = Fraction(rnd.choice([1, -1]), rnd.randint(2, 7))
        moved_pt = tuple(a + b for a, b in zip(pts[i], bump))
        perturbed = pts[:i] + pts[i + 1:] + [moved_pt]
        ok &= detect_e7_config(Configuration(perturbed)) is None

    elapsed = time.monotonic() - t0
    report(9, "detection succeeds on 20 unimodular images and rejects "
              "20 perturbations within 120 s", ok and elapsed < 120)


def test_criterion_10_fiber_projection():
    square = cube_normal_form("B", 2, 2).points
    delta = build_delta(sorted(omega56()), square)
    found = e7_fiber_projection_check(delta)
    ok = len(found) == 4
    zero = (0,) * delta.structure.total_dim
    for b2, mapping, diffs in found:
        ok &= mapping is not None
        ok &= zero in diffs and inverse_closed(diffs)
        for d in diffs:
            ok &= d[0] == 0 and delta.structure.block2(d) == (0, 0)
    report(10, "every detected fiber configuration projects to one point "
               "with a negation-closed first-block difference set", ok)


def test_criterion_11_frozen_oracle_values():
    oracle = load_oracle_counts()
    config = Configuration(omega56())
    count = collinear_triple_count(config)
    diffs = {sub(a, b) for a in config.points for b in config.points if a != b}
    ok = (count == oracle["omega56_collinear_triples"]
          and len(diffs) == oracle["omega56_distinct_differences"])
    report(11, "library reproduces the frozen brute-force oracle counts "
               f"({count} triples, {len(diffs)} differences)", ok)


def test_criterion_12_property_suites():
    t0 = time.monotonic()
    rnd = random.Random(90021)
    ok = True

    systems = [build_root_system(label, rank)
               for label, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4),
                                   ("E6", 6), ("E7", 7)]]
    for system in systems:
        fw = fundamental_weights(system)
        for _ in range(1000):
            x = system.zero()
            for w in fw:
                c = rnd.randint(-5, 5)
                if c:
                    x = tuple(a + c * b for a, b in zip(x, w))
            for alpha in system.simple_roots:
                ok &= reflect(system, alpha, reflect(system, alpha, x)) == x

        for i, w in enumerate(fw):
            for j, alpha in enumerate(system.simple_roots):
                ok &= pairing(system, w, alpha) == (1 if i == j else 0)
            for alpha in system.roots:
                ok &= pairing(system, w, alpha).denominator == 1

    for system, idx in [(systems[1], 3), (systems[3], 4)]:
        orb = orbit(system, fundamental_weight(system, idx))
        for x in orb.support:
            for alpha in system.simple_roots:
                ok &= reflect(system, alpha, x) in orb

    shapes = [
        [(0, 0), (1, 0), (2, 0), (0, 1)],
        list(product((1, -1), repeat=3)),
        [(0, 0, 0), (1, 2, 3), (2, 4, 6), (5, 0, 1), (1, 1, 1)],
        [(0,), (1,), (3,), (7,)],
    ]
    runs = 0
    while runs < 100:
        base = Configuration([vec(p) for p in rnd.choice(shapes)])
        rows, shift = random_affine_map(rnd, base.dim)
        moved = Configuration([apply_affine(rows, shift, p)
                               for p in base.points])
        ok &= collinear_triple_count(moved) == collinear_triple_count(base)
        ok &= moved.affine_dimension == base.affine_dimension
        runs += 1

    elapsed = time.monotonic() - t0
    report(12, "reflection involution, orbit closure, pairing integrality "
               "and affine invariance property suites within 120 s",
           ok and elapsed < 120)
