"""Self-tests of the benchmark: seeded inputs, outcome checks and tracer.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import calls  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = repr(inputs.requests_for(workload, 7)).encode()
    assert first == repr(inputs.requests_for(workload, 7)).encode()


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_other_seed_gives_other_inputs(workload):
    assert repr(inputs.requests_for(workload, 7)) != repr(inputs.requests_for(workload, 8))


def test_omega56_agrees_with_the_transcribed_fixture():
    text = (ROOT / "src" / "microweight" / "fixtures" / "omega_e7.txt").read_text()
    rows = {tuple(int(t) for t in ln.split()) for ln in text.splitlines()
            if ln.strip() and not ln.startswith("#")}
    assert rows | {inputs.neg(r) for r in rows} == set(inputs.omega56_points())


def small(requests, limit=16):
    return [r for r in requests if r.kind == "lemma" and len(r.args) <= limit]


def replay(requests):
    tally = run.Tally()
    run.run_passes(requests, 0, tally)
    return tally


def test_checks_pass_on_the_library():
    tally = replay(small(inputs.requests_for("lemma-scan", 3)))
    assert tally.correct and tally.failed == 0
    assert tally.attempted > 0


def test_flipped_verdict_raises_failed_count():
    requests = small(inputs.requests_for("lemma-scan", 3))
    flipped = copy.copy(requests[0])
    flipped.expect = inputs.REJECT if flipped.expect == inputs.ACCEPT else inputs.ACCEPT
    tally = replay([flipped] + requests[1:])
    assert tally.failed == run.MIN_PASSES
    assert not tally.correct


def test_flipped_witness_is_incorrect():
    req = next(r for r in inputs.requests_for("eigen-lattice", 3)
               if r.kind == "eigen" and r.args[1] == "line-set")
    assert calls.check(req, calls.call(req)) == inputs.OK
    wrong = copy.copy(req)
    wrong.oracle = req.oracle + 1
    tally = replay([wrong])
    assert tally.failed == 0 and tally.incorrect == run.MIN_PASSES
    assert not tally.correct


def test_only_known_defects_fail_on_eigen_inputs():
    requests = [r for r in inputs.requests_for("eigen-lattice", 3)
                if r.kind == "eigen" and (r.known_defect or len(r.args[0]["delta1"]) <= 3)]
    tally = replay(requests)
    assert tally.correct
    assert tally.failed <= run.MIN_PASSES * sum(r.known_defect for r in requests)


def test_tracer_sees_rebound_names_and_restores_them():
    from microweight import affgeom, rootsystem, weylorbit
    original = weylorbit.reflect
    tracer = Tracer()
    for _ in range(2):
        tracer.install()
        try:
            system = rootsystem.build_root_system("A", 2)
            weylorbit.orbit(system, inputs.fundamental_weight("A", 2, 1))
            affgeom.no_three_collinear(affgeom.Configuration(inputs.sign_vectors(2)))
        finally:
            tracer.uninstall()
        assert weylorbit.reflect is original
        weylorbit.orbit(system, inputs.fundamental_weight("A", 2, 1))  # not traced
    m = tracer.metrics(passes=2)
    assert m["weylorbit.orbit.calls"][0] == 1
    assert m["rootsystem.reflect.calls"][0] == 6   # 3 weights x 2 simple roots
    assert m["affgeom.Configuration.calls"][0] == 1
    assert m["affgeom.collinear_triple_count.calls"][0] == 1
    assert m["affgeom.no_three_collinear.witness_ratio"][0] == 0.0
    assert m["weylorbit.orbit.self_s"][0] > 0


def test_traced_run_reports_per_pass_figures():
    requests = small(inputs.requests_for("lemma-scan", 3), limit=8)
    metrics, tally = run.traced_run(requests, 0)
    assert tally.correct
    assert metrics["affgeom.no_three_collinear.calls"][0] == len(requests)
    assert metrics["trace.overhead_ratio"][0] > 0


def test_benchmark_json_lists_every_metric_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    per_layer = list(Tracer().metrics()) + ["cli.calls", "cli.self_s", "cli.raised",
                                            "trace.overhead_ratio"]
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    tally = run.Tally()
    for expect in (inputs.ACCEPT, inputs.REJECT):
        tally.latencies[expect].append(0.001)
    e2e = run.end_to_end(tally, [1.0], [1.0])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit, _) in e2e.items()}
