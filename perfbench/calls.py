"""Send one request to the library and judge what came back.

``call`` is the only code inside the timed region.  It reaches every
library function through its module attribute at call time, so functions
the tracer wraps are seen.  ``check`` compares the result with the
expectation built by ``inputs`` and classifies it as OK, FAILED (the
wrong verdict, an unexpected exception or an inconclusive result) or
INCORRECT (the right verdict with a wrong witness, map, size or report).
"""

import json
from pathlib import Path

from microweight import affgeom, minuscule, rootsystem, serialize, suites, weylorbit

import inputs
from inputs import FAILED, INCORRECT, OK

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

SUITES = {
    "verify-e7": "verify_e7_suite",
    "fiber-constancy": "fiber_constancy_suite",
    "e7-projection": "e7_projection_suite",
}

OMEGA56 = frozenset(inputs.omega56_points())


def call(req):
    kind, args = req.kind, req.args
    if kind == "lemma":
        return affgeom.no_three_collinear(affgeom.Configuration(args))
    if kind == "detect":
        return affgeom.detect_e7_config(affgeom.Configuration(args))
    if kind == "eigen":
        obj, op = args
        return suites.frobmodel_suite(serialize.eigenset_from_json(obj), op).to_json()
    if kind == "suite":
        return getattr(suites, SUITES[args])().to_json()
    if kind == "catalog":
        report, entries = suites.catalog_suite(*args)
        return report.to_json(), entries
    system = rootsystem.build_root_system(args[0], args[1])
    if kind == "orbit":
        return weylorbit.orbit(system, args[2])
    if kind == "minuscule":
        return minuscule.is_minuscule(system, args[2])
    if kind == "saturation":
        return minuscule.saturation_progressions(args[2], system)
    if kind == "chain":
        return weylorbit.apply_chain(system, args[2], args[3])
    if kind == "words":
        return weylorbit.orbit_words(system, args[2])
    raise ValueError(f"unknown request kind {kind!r}")


def warm_up():
    """Build every root system the workloads use and run the smallest
    request of each kind: the set-up a fresh process pays before its first
    timed request."""
    for t, m in inputs.all_types(inputs.CATALOG_MAX_RANK):
        rootsystem.build_root_system(t, m)
    for req in inputs.warmup_requests():
        call(req)


def verdict(flag, req):
    return OK if (req.expect == inputs.ACCEPT) == flag else FAILED


def expected_suite_bytes(name):
    return (EXPECTED_DIR / f"{name}.json").read_text(encoding="utf-8")


def check(req, result):
    if isinstance(result, Exception):
        if req.oracle == "ValueError" and isinstance(result, ValueError):
            return OK
        return FAILED
    if req.oracle == "ValueError":
        return FAILED  # malformed input was accepted
    checker = CHECKERS[req.kind]
    return checker(req, result)


def check_lemma(req, result):
    ok, witness = result
    if req.expect == inputs.ACCEPT:
        return OK if ok is True and witness is None else FAILED
    if ok is not False:
        return FAILED
    members = set(req.args)
    valid = (len(set(witness)) == 3 and all(p in members for p in witness)
             and inputs.collinear(*witness))
    return OK if valid else INCORRECT


def check_detect(req, result):
    if result is None or req.expect == inputs.REJECT:
        return verdict(result is not None, req)
    image = {inputs.apply_map(result.matrix, result.translation, p) for p in req.args}
    return OK if image == OMEGA56 else INCORRECT


def check_eigen(req, result):
    (entry,) = json.loads(result)["checks"]
    if entry["status"] == "inconclusive":
        return FAILED
    if verdict(entry["status"] == "pass", req) == FAILED:
        return FAILED
    if req.expect == inputs.REJECT:
        return OK
    return OK if entry["witness"] == req.oracle else INCORRECT


def check_report(summary):
    return summary["fail"] == 0 and summary["inconclusive"] == 0


def check_suite(req, result):
    if not check_report(json.loads(result)["summary"]):
        return FAILED
    return OK if result == expected_suite_bytes(req.args) else INCORRECT


def check_catalog(req, result):
    text, entries = result
    if not check_report(json.loads(text)["summary"]):
        return FAILED
    dims = {e.weight_index: e.dimension for e in entries}
    return OK if dims == req.oracle else INCORRECT


def check_orbit(req, result):
    ok = len(result) == req.oracle and req.args[2] in result
    return OK if ok else INCORRECT


def check_minuscule(req, result):
    return verdict(result is True, req)


def check_saturation(req, result):
    ok = len(result) == req.oracle and all(p.present for p in result)
    return OK if ok else INCORRECT


def check_chain(req, result):
    return OK if [tuple(x) for x in result] == req.oracle else INCORRECT


def check_words(req, result):
    t, m, w = req.args
    simple = inputs.simple_roots(t, m)
    for x, word in result.items():
        y = w
        for i in word:
            y = inputs.reflect(simple[i], y)
        if y != x:
            return INCORRECT
    return OK if len(result) == req.oracle else INCORRECT


CHECKERS = {
    "lemma": check_lemma,
    "detect": check_detect,
    "eigen": check_eigen,
    "suite": check_suite,
    "catalog": check_catalog,
    "orbit": check_orbit,
    "minuscule": check_minuscule,
    "saturation": check_saturation,
    "chain": check_chain,
    "words": check_words,
}
