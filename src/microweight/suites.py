"""Named verification suites behind the CLI.

Each suite returns a SuiteReport; the expected values hardcoded here are
transcriptions (reflection table rows, reflection images, partition
profile) or frozen brute-force oracle outputs (see tools/oracle_counts.py).
"""

import functools
import json
import time
from fractions import Fraction
from importlib import resources
from itertools import product

from . import affgeom, frobmodel, minuscule, rootsystem, serialize, weylorbit
from .report import FAIL, INCONCLUSIVE, PASS, Check, SuiteReport


def fixtures_dir():
    return resources.files("microweight") / "fixtures"


def load_oracle_counts():
    path = fixtures_dir() / "oracle_counts.json"
    return json.loads(path.read_text(encoding="utf-8"))


def default_fixture_path():
    return fixtures_dir() / "omega_e7.txt"


def _timed(report, check_id, description, fn):
    """Run one check; fn returns (ok, witness).  A ValueError raised by the
    check is a FAIL with the message as its witness."""
    t0 = time.perf_counter()
    try:
        ok, witness = fn()
        status = PASS if ok else FAIL
    except ValueError as exc:
        status, witness = FAIL, str(exc)
    except affgeom.DetectionInconclusive as exc:
        status, witness = INCONCLUSIVE, str(exc)
    elapsed = (time.perf_counter() - t0) * 1000
    report.add(Check(check_id, description, status, witness, elapsed))


# transcription of the 7x7 simple-reflection table: entry (i, j) as
# simple-root coefficient rows, 1-based indices i, j
_REFLECTION_TABLE = """
-1000000  0100000  1010000  0001000  0000100  0000010  0000001
 1000000 -0100000  0010000  0101000  0000100  0000010  0000001
 1010000  0100000 -0010000  0011000  0000100  0000010  0000001
 1000000  0101000  0011000 -0001000  0001100  0000010  0000001
 1000000  0100000  0010000  0001100 -0000100  0000110  0000001
 1000000  0100000  0010000  0001000  0000110 -0000010  0000011
 1000000  0100000  0010000  0001000  0000100  0000011 -0000001
"""

# images of the seven simple roots under the reflection in the positive
# root with coefficients (0,1,1,2,1,1,1)
_CROSS_REFLECTION_IMAGES = [
    (1, 1, 1, 2, 1, 1, 1),
    (0, 1, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 0),
    (0, -1, -1, -1, -1, -1, -1),
    (0, 1, 1, 2, 2, 1, 1),
    (0, 0, 0, 0, 0, 1, 0),
    (0, -1, -1, -2, -1, -1, 0),
]

_PARTITION_PROFILE = {Fraction(3): 1, Fraction(1): 27, Fraction(-1): 27, Fraction(-3): 1}


def _parse_reflection_table():
    rows = []
    for line in _REFLECTION_TABLE.strip().splitlines():
        row = []
        for tok in line.split():
            sign = -1 if tok.startswith("-") else 1
            digits = tok.lstrip("-")
            row.append(tuple(sign * int(ch) for ch in digits))
        rows.append(tuple(row))
    return tuple(rows)


def catalog_suite(type_label, rank):
    report = SuiteReport(f"catalog {type_label}{rank}")
    entries = minuscule.minuscule_catalog(type_label, rank)
    system = rootsystem.build_root_system(type_label, rank)
    for e in entries:
        w = weylorbit.fundamental_weight(system, e.weight_index)

        def check(entry=e, weight=w):
            ok = minuscule.is_minuscule(system, weight)
            return ok, None if ok else f"w{entry.weight_index} fails the pairing test"

        _timed(report, f"catalog-w{e.weight_index}",
               f"w{e.weight_index} dim {e.dimension} ({e.self_dual_form})", check)
    return report, entries


def verify_e7_suite(fixture_path=None):
    report = SuiteReport("verify-e7")
    system = rootsystem.build_root_system("E7", 7)
    orb, _ = affgeom.top_orbit()

    _timed(report, "01-orbit-size", "orbit of the top fundamental weight has 56 elements",
           lambda: (len(orb) == 56, len(orb)))

    if fixture_path is None:
        text = default_fixture_path().read_text(encoding="utf-8")
    else:
        text = serialize.read_text(fixture_path)
    rows = serialize.weight_rows_from_text(text, 7)

    def fixture_check():
        from .linalg import neg
        halves = {tuple(c / 2 for c in r) for r in rows}
        pts = halves | {neg(h) for h in halves}
        weights = {rootsystem.from_simple_root_coords(system, p) for p in pts}
        expected = set(orb)
        if weights == expected:
            return True, None
        bad = sorted(weights.symmetric_difference(expected))[0]
        return False, [serialize.rat_to_str(c) for c in
                       rootsystem.to_simple_root_coords(system, bad)]

    _timed(report, "02-halforbit-fixture",
           "half-list fixture with its negation equals the orbit", fixture_check)

    def cross_reflection_check():
        cross = rootsystem.from_simple_root_coords(system, [0, 1, 1, 2, 1, 1, 1])
        for j, expected in enumerate(_CROSS_REFLECTION_IMAGES):
            img = rootsystem.reflect(system, cross, system.simple_roots[j])
            got = rootsystem.to_simple_root_coords(system, img)
            if tuple(got) != tuple(map(Fraction, expected)):
                return False, {"simple_root": j + 1,
                               "got": [serialize.rat_to_str(c) for c in got]}
        return True, None

    _timed(report, "03-cross-reflection",
           "images of all simple roots under the (0,1,1,2,1,1,1) reflection",
           cross_reflection_check)

    def table_check():
        expected = _parse_reflection_table()
        table = rootsystem.reflection_matrix_table(system)
        for i in range(7):
            for j in range(7):
                got = rootsystem.to_simple_root_coords(system, table[i][j])
                if tuple(got) != tuple(map(Fraction, expected[i][j])):
                    return False, {"entry": [i + 1, j + 1],
                                   "got": [serialize.rat_to_str(c) for c in got]}
        return True, None

    _timed(report, "04-reflection-table",
           "simple-reflection table matches on all 49 entries", table_check)

    def partition_check():
        for w in orb:
            counts = affgeom.separation_partition(w)
            if counts != _PARTITION_PROFILE:
                return False, {"weight": [serialize.rat_to_str(c) for c in
                                          rootsystem.to_simple_root_coords(system, w)],
                               "counts": {serialize.rat_to_str(k): v
                                          for k, v in counts.items()}}
        return True, None

    _timed(report, "05-hyperplane-partition",
           "1/27/27/1 separating partition for all 56 transported functionals",
           partition_check)
    return report


def _cube_forms_for_scan(max_rank):
    """The cube normal forms to max_rank, built one at a time; the vector
    representations (C_m and D_m at w1) always go up to rank 10 at least."""
    top = max(10, max_rank)
    for m in range(2, max_rank + 1):
        yield minuscule.cube_normal_form("B", m, m)
    for m in range(4, max_rank + 1):
        yield minuscule.cube_normal_form("D", m, m)
        yield minuscule.cube_normal_form("D", m, m - 1)
    for m in range(3, max_rank + 1, 2):
        yield minuscule.cube_normal_form("A", m, (m + 1) // 2)
    for m in range(2, top + 1):
        yield minuscule.cube_normal_form("C", m, 1)
    for m in range(4, top + 1):
        yield minuscule.cube_normal_form("D", m, 1)


def collinearity_suite(max_rank=7):
    report = SuiteReport("no-three-collinear")
    for form in _cube_forms_for_scan(max_rank):
        def check(f=form):
            ok, witness = affgeom.no_three_collinear(affgeom.Configuration(f.points))
            return ok, witness if witness is None else [list(p) for p in witness]

        _timed(report, f"cube-{form.type_label}{form.rank}-w{form.weight_index}",
               f"{len(form.points)}-point {form.constraint}", check)
    return report


def _progression_factor_family():
    """First-factor sets that contain arithmetic progressions."""
    return [
        ("adjoint-line", [(-1,), (0,), (1,)]),
        ("long-line", [(0,), (1,), (2,), (3,)]),
        ("offset-line", [(2,), (5,), (8,)]),
        ("plane-line", [(0, 0), (1, 0), (2, 0), (0, 1)]),
        ("plane-diag", [(0, 0), (1, 1), (2, 2), (1, 0)]),
        ("two-lines", [(0, 0), (1, 0), (2, 0), (0, 2), (0, 1)]),
        ("symmetric", [(-2, 0), (-1, 0), (0, 0), (1, 0), (2, 0)]),
    ]


def _cube_factor_family():
    return [
        ("square", minuscule.cube_normal_form("B", 2, 2).points),
        ("cube3", minuscule.cube_normal_form("B", 3, 3).points),
        ("cross2", minuscule.cube_normal_form("C", 2, 1).points),
        ("halfcube4", minuscule.cube_normal_form("D", 4, 4).points),
    ]


def fiber_constancy_suite():
    report = SuiteReport("fiber-constancy")
    for (n1, f1), (n2, f2) in product(_progression_factor_family(),
                                      _cube_factor_family()):
        def check(a=f1, b=f2):
            delta = frobmodel.build_delta(a, b)
            violations = frobmodel.fiber_constancy_check(delta)
            return not violations, [list(map(list, v)) for v in violations] or None

        _timed(report, f"fiber-{n1}-x-{n2}",
               f"line triples of {n1} x {n2} project to single second-block points",
               check)
    return report


def e7_projection_suite():
    report = SuiteReport("e7-projection")
    omega = sorted(affgeom.omega56())
    square = minuscule.cube_normal_form("B", 2, 2).points
    delta = frobmodel.build_delta(omega, square)
    oracle = load_oracle_counts()
    # both checks read one detection run; an exception is not cached
    projection = functools.cache(lambda: frobmodel.e7_fiber_projection_check(delta))

    def check_fibers():
        found = projection()
        if len(found) != len(square):
            return False, f"expected {len(square)} fiber configurations, got {len(found)}"
        return True, None

    _timed(report, "01-fiber-configs",
           "every second-block fiber carries a detected weight-system configuration",
           check_fibers)

    def check_bset():
        expected = oracle["omega56_distinct_differences"] + 1
        for b2, _mapping, diffs in projection():
            if len(diffs) != expected:
                return False, {"fiber": list(b2), "size": len(diffs),
                               "expected": expected}
        return True, None

    _timed(report, "02-difference-sets",
           "fiber difference sets are negation-closed with the frozen oracle size",
           check_bset)
    return report


def _midpoint_pairs(points):
    """Ordered (a, m) in the set with 2m - a in the set, a = m included:
    one per midpoint triple (a, m, 2m - a), repeated points allowed."""
    pts = set(points)
    return ((a, m) for a in pts for m in pts
            if tuple(2 * y - x for x, y in zip(a, m)) in pts)


def frobmodel_suite(delta, op):
    report = SuiteReport(f"frobmodel {op}")
    if op == "lambda-sq":
        def check():
            eta = frobmodel.recover_lambda_sq(delta)
            expected = (2,) + (0,) * (delta.structure.total_dim - 1)
            return eta == expected, list(eta)

        _timed(report, "lambda-sq",
               "full-count sum is twice the scalar unit", check)
    elif op == "level-sets":
        def check():
            levels = frobmodel.invariant_level_sets(delta)
            witness = {str(c): len(s) for c, s in sorted(levels.items())}
            # an independent probe of the one-pass counts: the least sum
            # of each level, recounted directly
            ok = all(frobmodel.t_eta_count(delta, min(s)) == c for c, s in levels.items())
            return ok, witness

        _timed(report, "level-sets",
               "level sets partition the pairwise-sum set", check)
    elif op == "line-set":
        def check():
            count = sum(1 for _ in frobmodel.line_set(delta))
            # an independent count: a triple of the product is a midpoint
            # triple in each factor, repeated points allowed, and only the
            # |delta| triples a = m = c are not distinct
            expected = (sum(1 for _ in _midpoint_pairs(delta.factor1))
                        * sum(1 for _ in _midpoint_pairs(delta.factor2)) - len(delta))
            return count == expected, count

        _timed(report, "line-set", "ordered midpoint triples enumerated", check)
    elif op == "b-set":
        def check():
            b = frobmodel.b_set(delta)
            # recomputed from the factors (Lemma 2.8): a line triple of the
            # product is a midpoint triple in each factor, so its offset
            # endpoint - midpoint is (0, x, y) with x an offset a - m of
            # factor 1, y one of factor 2 (0 from a = m), not both 0
            offsets1, offsets2 = (
                {tuple(x - y for x, y in zip(a, m)) for a, m in _midpoint_pairs(f)}
                for f in (delta.factor1, delta.factor2))
            expected = {(0,) + x + y for x in offsets1 for y in offsets2}
            expected.discard((0,) * delta.structure.total_dim)
            return b == expected, sorted(list(map(list, b)))

        _timed(report, "b-set",
               "difference set equals the one recomputed from the factors (Lemma 2.8)",
               check)
    else:
        raise ValueError(f"unknown operation {op!r}")
    return report
