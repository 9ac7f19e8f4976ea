import importlib
import json
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter
from itertools import islice
from typing import NamedTuple

import pytest

import microweight
from microweight import suites
from microweight.cli import CATALOG_MAX_RANK, HARD_MAX_RANK_LIMIT, main
from microweight.linalg import neg
from microweight.suites import default_fixture_path


class Result(NamedTuple):
    exit_code: int
    output: str  # stdout, then stderr


@pytest.fixture
def runner(capsys):
    return capsys


def invoke(runner, *args, env=None):
    """Run ``main`` on ``args`` with ``env`` added to the environment;
    ``runner`` is the ``capsys`` fixture."""
    with pytest.MonkeyPatch.context() as mp:
        for key, value in (env or {}).items():
            mp.setenv(key, value)
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
    out, err = runner.readouterr()
    return Result(code, out + err)


def test_catalog_text(runner):
    result = invoke(runner, "catalog", "--type", "E7", "--rank", "7")
    assert result.exit_code == 0
    assert "E7  w7  dim 56  symplectic" in result.output

    result = invoke(runner, "catalog", "--type", "A", "--rank", "1")
    assert result.exit_code == 0
    assert "A1  w1  dim 2" in result.output

    result = invoke(runner, "catalog", "--type", "D", "--rank", "4")
    assert result.exit_code == 0
    for token in ("w1  dim 8", "w3  dim 8", "w4  dim 8"):
        assert token in result.output


def test_catalog_json(runner):
    result = invoke(runner, "--json", "catalog", "--type", "D", "--rank", "5")
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj[0]["weights"] == ["w1", "w4", "w5"]
    assert obj[0]["dims"] == [10, 16, 16]


def test_catalog_usage_errors(runner):
    result = invoke(runner, "catalog", "--type", "E7", "--rank", "6")
    assert result.exit_code == 2
    result = invoke(runner, "catalog", "--type", "D", "--rank", "3")
    assert result.exit_code == 2
    result = invoke(runner, "catalog", "--type", "Z", "--rank", "3")
    assert result.exit_code == 2


def test_catalog_rank_is_bounded(runner, monkeypatch):
    def no_catalog(type_label, rank):
        raise AssertionError(f"catalog built for {type_label}{rank}")

    monkeypatch.setattr(suites, "catalog_suite", no_catalog)
    for type_label in ("A", "B", "C", "D"):
        result = invoke(runner, "--json", "catalog", "--type", type_label,
                        "--rank", str(CATALOG_MAX_RANK + 1))
        assert result.exit_code == 2
        assert (f"--rank {CATALOG_MAX_RANK + 1} exceeds the maximum {CATALOG_MAX_RANK}"
                in result.output)
    monkeypatch.undo()
    result = invoke(runner, "--json", "catalog", "--type", "C", "--rank",
                    str(CATALOG_MAX_RANK))
    assert result.exit_code == 0
    assert json.loads(result.output)[0]["dims"] == [2 * CATALOG_MAX_RANK]


def test_verify_e7_default_fixture(runner):
    result = invoke(runner, "verify-e7")
    assert result.exit_code == 0
    assert "5 passed, 0 failed" in result.output


def altered_fixture(tmp_path):
    """The packaged E7 fixture with its first weight replaced."""
    text = default_fixture_path().read_text(encoding="utf-8")
    lines = text.splitlines()
    idx = next(i for i, ln in enumerate(lines)
               if ln.strip() and not ln.startswith("#"))
    lines[idx] = "9 9 9 9 9 9 9"
    bad = tmp_path / "omega_e7.txt"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return bad


def test_verify_e7_altered_fixture(runner, tmp_path):
    bad = altered_fixture(tmp_path)
    result = invoke(runner, "verify-e7", "--fixture", str(bad))
    assert result.exit_code == 1
    assert "02-halforbit-fixture" in result.output
    assert "witness" in result.output


# one fault per verify-e7 check: (check id, module, function, the fault
# made from the original function)
VERIFY_E7_FAULTS = [
    ("01-orbit-size", "affgeom", "top_orbit",
     lambda f: lambda: (dict(islice(f()[0].items(), 1, None)), f()[1])),
    ("02-halforbit-fixture", "serialize", "weight_rows_from_text",
     lambda f: lambda text, rank: f(text, rank)[1:]),
    ("03-cross-reflection", "rootsystem", "reflect",
     lambda f: lambda system, alpha, x: neg(f(system, alpha, x))),
    ("04-reflection-table", "rootsystem", "reflection_matrix_table",
     lambda f: lambda system: tuple(zip(*f(system)))),
    ("05-hyperplane-partition", "affgeom", "separation_partition",
     lambda f: lambda w: {}),
]


@pytest.mark.parametrize("check_id, module, name, fault", VERIFY_E7_FAULTS,
                         ids=[case[0] for case in VERIFY_E7_FAULTS])
def test_verify_e7_check_fails_on_an_injected_fault(runner, monkeypatch, check_id,
                                                    module, name, fault):
    mod = importlib.import_module(f"microweight.{module}")
    monkeypatch.setattr(mod, name, fault(getattr(mod, name)))
    result = invoke(runner, "--json", "verify-e7")
    assert result.exit_code == 1
    checks = {c["id"]: c for c in json.loads(result.output)["checks"]}
    assert checks[check_id]["status"] == "fail"


def test_verify_e7_check_that_raises_reads_fail(runner, monkeypatch):
    # a doubled root is no root: check 03 raises NotARootError, which is a
    # failed check, not a fixture error
    from microweight import rootsystem

    coords = rootsystem.from_simple_root_coords
    monkeypatch.setattr(rootsystem, "from_simple_root_coords",
                        lambda system, c: tuple(2 * x for x in coords(system, c)))
    result = invoke(runner, "--json", "verify-e7")
    assert result.exit_code == 1
    checks = {c["id"]: c for c in json.loads(result.output)["checks"]}
    assert checks["02-halforbit-fixture"]["status"] == "fail"
    assert checks["03-cross-reflection"]["status"] == "fail"
    assert "is not a root of RootSystem(E7)" in checks["03-cross-reflection"]["witness"]


# one fault per remaining check family: (check id prefix, CLI arguments,
# module, function, the fault made from the original function)
FAMILY_FAULTS = [
    ("catalog-w", ("catalog", "--type", "E7", "--rank", "7"), "minuscule", "is_minuscule",
     lambda f: lambda system, w: not f(system, w)),
    ("cube-", ("--json", "verify-lemmas", "--suite", "2.7"), "affgeom", "no_three_collinear",
     lambda f: lambda cfg: (False, cfg.int_points[:3])),
    ("fiber-", ("--json", "verify-lemmas", "--suite", "2.8"), "frobmodel",
     "fiber_constancy_check",
     lambda f: lambda delta: f(delta) + (next(microweight.line_set(delta)),)),
]


@pytest.mark.parametrize("prefix, args, module, name, fault", FAMILY_FAULTS,
                         ids=[case[0].rstrip("-") for case in FAMILY_FAULTS])
def test_check_family_fails_on_an_injected_fault(runner, monkeypatch, prefix, args,
                                                 module, name, fault):
    mod = importlib.import_module(f"microweight.{module}")
    monkeypatch.setattr(mod, name, fault(getattr(mod, name)))
    result = invoke(runner, *args)
    assert result.exit_code == 1
    if args[0] == "--json":
        statuses = {c["id"]: c["status"] for c in json.loads(result.output)["checks"]}
    else:  # the catalog's --json prints the catalog, so read the text report
        lines = re.findall(r"^\[(\w+) *\] ([^:]+):", result.output, re.M)
        statuses = {check_id: status.lower() for status, check_id in lines}
    family = [i for i in statuses if i.startswith(prefix)]
    assert family and all(statuses[i] == "fail" for i in family)


def test_verify_e7_malformed_fixture(runner, tmp_path):
    bad = tmp_path / "omega_e7.txt"
    bad.write_text("1 2 3\n", encoding="utf-8")
    result = invoke(runner, "verify-e7", "--fixture", str(bad))
    assert result.exit_code == 2
    assert "line 1" in result.output
    # a zero denominator is an input error, not a ZeroDivisionError
    bad.write_text("# E7\n1/0 0 0 0 0 0 0\n", encoding="utf-8")
    result = invoke(runner, "verify-e7", "--fixture", str(bad))
    assert result.exit_code == 2
    assert "fixture error: line 2: zero denominator in '1/0 0 0 0 0 0 0'" in result.output
    bad.write_bytes(b"\xff0 0 0 0 0 0 0\n")
    result = invoke(runner, "verify-e7", "--fixture", str(bad))
    assert result.exit_code == 2
    assert f"fixture error: {bad} is not UTF-8" in result.output


def test_fixture_dir_env_override(runner, tmp_path):
    (tmp_path / "omega_e7.txt").write_text(
        default_fixture_path().read_text(encoding="utf-8"), encoding="utf-8")
    result = invoke(runner, "verify-e7",
                    env={"MICROWEIGHT_FIXTURE_DIR": str(tmp_path)})
    assert result.exit_code == 0


def test_fixture_dir_without_fixture_is_an_error(runner, tmp_path):
    missing = tmp_path / "omega_e7.txt"
    cfg = tmp_path / "cfg"
    cfg.write_text(f"fixture_dir = {tmp_path}\n", encoding="utf-8")
    result = invoke(runner, "--config", str(cfg), "--quiet", "verify-e7")
    assert result.exit_code == 2
    assert str(missing) in result.output
    result = invoke(runner, "verify-e7", env={"MICROWEIGHT_FIXTURE_DIR": str(tmp_path)})
    assert result.exit_code == 2
    assert str(missing) in result.output


def test_empty_fixture_dir_env_is_an_error(runner):
    # never a fall back to the packaged fixture, as for an empty config value
    result = invoke(runner, "--quiet", "verify-e7", env={"MICROWEIGHT_FIXTURE_DIR": ""})
    assert result.exit_code == 2
    assert "MICROWEIGHT_FIXTURE_DIR is set but empty" in result.output


def test_verify_lemmas_27(runner):
    result = invoke(runner, "--quiet", "verify-lemmas", "--suite", "2.7",
                    "--max-rank", "5")
    assert result.exit_code == 0
    assert "0 failed" in result.output


def test_verify_lemmas_28(runner):
    result = invoke(runner, "verify-lemmas", "--suite", "2.8")
    assert result.exit_code == 0
    assert "28 passed, 0 failed" in result.output


def test_verify_lemmas_rank_limits(runner, tmp_path):
    result = invoke(runner, "verify-lemmas", "--suite", "2.7", "--max-rank", "1")
    assert result.exit_code == 2
    result = invoke(runner, "verify-lemmas", "--suite", "2.7", "--max-rank", "11")
    assert result.exit_code == 2
    cfg = tmp_path / "cfg"
    cfg.write_text("hard_max_rank = 11\n", encoding="utf-8")
    # raising the ceiling makes the same rank acceptable (use a small run)
    result = invoke(runner, "--config", str(cfg), "verify-lemmas",
                    "--suite", "2.7", "--max-rank", "2")
    assert result.exit_code == 0


def test_config_rank_ceiling_is_bounded(runner, tmp_path, monkeypatch):
    def no_forms(max_rank):
        raise AssertionError(f"cube forms built to rank {max_rank}")

    monkeypatch.setattr(suites, "_cube_forms_for_scan", no_forms)
    cfg = tmp_path / "cfg"
    too_high = HARD_MAX_RANK_LIMIT + 1
    cfg.write_text(f"hard_max_rank = {too_high}\n", encoding="utf-8")
    result = invoke(runner, "--config", str(cfg), "verify-lemmas",
                    "--suite", "2.7", "--max-rank", str(too_high))
    assert result.exit_code == 2
    assert (f"hard_max_rank {too_high} exceeds the maximum {HARD_MAX_RANK_LIMIT}"
            in result.output)
    monkeypatch.undo()
    cfg.write_text(f"hard_max_rank = {HARD_MAX_RANK_LIMIT}\n", encoding="utf-8")
    result = invoke(runner, "--config", str(cfg), "verify-lemmas",
                    "--suite", "2.7", "--max-rank", "2")
    assert result.exit_code == 0


def test_rank_ceiling_binds_only_the_27_scan(runner, tmp_path):
    # 2.8 and 4.6 never read --max-rank, so a low ceiling leaves them alone
    cfg = tmp_path / "cfg"
    cfg.write_text("hard_max_rank = 5\n", encoding="utf-8")
    for suite_id in ("2.8", "4.6"):
        result = invoke(runner, "--config", str(cfg), "--quiet", "verify-lemmas",
                        "--suite", suite_id)
        assert result.exit_code == 0, result.output
        result = invoke(runner, "--config", str(cfg), "verify-lemmas",
                        "--suite", suite_id, "--max-rank", "1")
        assert result.exit_code == 2
    result = invoke(runner, "--config", str(cfg), "verify-lemmas", "--suite", "2.7")
    assert result.exit_code == 2
    assert "--max-rank 7 exceeds the configured ceiling 5" in result.output


def test_config_file_errors(runner, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("no equals sign\n", encoding="utf-8")
    result = invoke(runner, "--config", str(cfg), "verify-e7")
    assert result.exit_code == 2
    result = invoke(runner, "--config", str(tmp_path / "missing"), "verify-e7")
    assert result.exit_code == 2
    # an empty value is an error, never a fall back to the packaged fixture
    for text, lineno, key in (("# fixtures\nfixture_dir =\n", 2, "fixture_dir"),
                              ("hard_max_rank =   \n", 1, "hard_max_rank")):
        cfg.write_text(text, encoding="utf-8")
        result = invoke(runner, "--config", str(cfg), "--quiet", "verify-e7")
        assert result.exit_code == 2
        assert f"{cfg}:{lineno}: config key {key!r} has an empty value" in result.output
    cfg.write_bytes(b"\xff\xfe\x00bad\n")
    result = invoke(runner, "--config", str(cfg), "verify-e7")
    assert result.exit_code == 2
    assert f"cannot read config file: {cfg} is not UTF-8" in result.output


def test_config_rejects_unknown_keys(runner, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("# ceiling\nfixture_dir = .\nhard_max_rnk=3\n", encoding="utf-8")
    result = invoke(runner, "--config", str(cfg), "verify-lemmas",
                    "--suite", "2.7", "--max-rank", "2")
    assert result.exit_code == 2
    assert f"{cfg}:3: unknown config key 'hard_max_rnk'" in result.output


def test_config_keys_take_effect(runner, tmp_path):
    (tmp_path / "omega_e7.txt").write_text("1 2 3\n", encoding="utf-8")
    cfg = tmp_path / "cfg"
    cfg.write_text(f"hard_max_rank = 3\nfixture_dir = {tmp_path}\n", encoding="utf-8")
    result = invoke(runner, "--config", str(cfg), "verify-lemmas",
                    "--suite", "2.7", "--max-rank", "4")
    assert result.exit_code == 2
    assert "ceiling 3" in result.output
    # the malformed fixture in fixture_dir is the one verify-e7 reads
    result = invoke(runner, "--config", str(cfg), "verify-e7")
    assert result.exit_code == 2
    assert "line 1" in result.output


def write_delta(tmp_path, d1, d2, name="delta.json"):
    obj = {"structure": {"d1": len(d1[0]), "d2": len(d2[0])},
           "delta1": [list(p) for p in d1], "delta2": [list(p) for p in d2]}
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_frobmodel_lambda_sq(runner, tmp_path):
    path = write_delta(tmp_path, [(1,), (-1,)], [(1, 1), (-1, -1)])
    result = invoke(runner, "frobmodel", "--input", path, "--op", "lambda-sq")
    assert result.exit_code == 0
    assert "[2, 0, 0, 0]" in result.output


def test_frobmodel_lambda_sq_failure(runner, tmp_path):
    path = write_delta(tmp_path, [(0,), (1,), (3,)], [(0,)])
    result = invoke(runner, "frobmodel", "--input", path, "--op", "lambda-sq")
    assert result.exit_code == 1


def test_frobmodel_level_sets(runner, tmp_path):
    path = write_delta(tmp_path, [(1,), (-1,)], [(1,), (-1,)])
    result = invoke(runner, "--json", "frobmodel", "--input", path,
                    "--op", "level-sets")
    assert result.exit_code == 0
    obj = json.loads(result.output)
    witness = obj["checks"][0]["witness"]
    assert witness == {"1": 4, "2": 4, "4": 1}


def test_frobmodel_level_sets_fails_on_wrong_counts(runner, tmp_path, monkeypatch):
    from microweight import frobmodel

    counts = frobmodel._pair_sum_counts

    def off_by_one(delta):
        packed, unpack = counts(delta)
        return Counter({key: n + 1 for key, n in packed.items()}), unpack

    monkeypatch.setattr(frobmodel, "_pair_sum_counts", off_by_one)
    path = write_delta(tmp_path, [(1,), (-1,)], [(1,), (-1,)])
    result = invoke(runner, "--json", "frobmodel", "--input", path,
                    "--op", "level-sets")
    assert result.exit_code == 1
    (check,) = json.loads(result.output)["checks"]
    assert check["status"] == "fail"
    assert check["witness"] == {"2": 4, "3": 4, "5": 1}


def test_frobmodel_line_and_b_set(runner, tmp_path):
    path = write_delta(tmp_path, [(0,), (1,), (2,)], [(0,)])
    result = invoke(runner, "frobmodel", "--input", path, "--op", "line-set")
    assert result.exit_code == 0
    result = invoke(runner, "frobmodel", "--input", path, "--op", "b-set")
    assert result.exit_code == 0

    empty = write_delta(tmp_path, [(1, 1), (1, -1), (-1, 1), (-1, -1)], [(0,)],
                        name="free.json")
    result = invoke(runner, "--json", "frobmodel", "--input", empty,
                    "--op", "b-set")
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["checks"][0]["witness"] == []


def test_frobmodel_b_set_fails_on_a_lost_difference(runner, tmp_path, monkeypatch):
    from microweight import frobmodel

    b_set = frobmodel.b_set

    def lost_difference(delta):
        b = b_set(delta)
        return b - {max(b)}

    monkeypatch.setattr(frobmodel, "b_set", lost_difference)
    path = write_delta(tmp_path, [(0,), (1,), (2,)], [(1, 1), (-1, -1)])
    result = invoke(runner, "--json", "frobmodel", "--input", path, "--op", "b-set")
    assert result.exit_code == 1
    (check,) = json.loads(result.output)["checks"]
    assert check["status"] == "fail"
    assert check["witness"] == [[0, -1, 0, 0]]


def test_frobmodel_rejects_a_product_over_the_size_limit(runner, tmp_path):
    from microweight.frobmodel import MAX_PRODUCT_SIZE

    assert MAX_PRODUCT_SIZE + 1 == 25 * 41 and MAX_PRODUCT_SIZE == 32 * 32
    line = [(i,) for i in range(41)]
    path = write_delta(tmp_path, line[:25], line)
    result = invoke(runner, "--json", "frobmodel", "--input", path, "--op", "level-sets")
    assert result.exit_code == 2
    assert "product of 25 x 41 = 1025 points exceeds the limit of 1024" in result.output
    # a product at the limit runs: the check fails (the lines are not
    # negation-closed), which is exit 1, not an input error
    path = write_delta(tmp_path, line[:32], line[:32], name="at-limit.json")
    result = invoke(runner, "--json", "frobmodel", "--input", path, "--op", "lambda-sq")
    assert result.exit_code == 1


def test_frobmodel_input_errors(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    result = invoke(runner, "frobmodel", "--input", str(bad), "--op", "b-set")
    assert result.exit_code == 2
    result = invoke(runner, "frobmodel", "--input", str(tmp_path / "nope.json"),
                    "--op", "b-set")
    assert result.exit_code == 2
    bad.write_bytes(b"\xff{}")
    result = invoke(runner, "frobmodel", "--input", str(bad), "--op", "b-set")
    assert result.exit_code == 2
    assert f"input error: {bad} is not UTF-8" in result.output


def test_frobmodel_rejects_deeply_nested_json(runner, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text('{"delta1": ' + "[" * 100_000, encoding="utf-8")
    result = invoke(runner, "frobmodel", "--input", str(deep), "--op", "b-set")
    assert result.exit_code == 2
    assert f"input error: {deep}: JSON nested too deeply" in result.output


@pytest.mark.parametrize("entry", [1.5, True])
def test_frobmodel_rejects_non_integer_entries(runner, tmp_path, entry):
    path = tmp_path / "coerced.json"
    path.write_text(json.dumps({"delta1": [[entry], [-1]],
                                "delta2": [[1, 1], [-1, -1]]}), encoding="utf-8")
    result = invoke(runner, "--json", "frobmodel", "--input", str(path),
                    "--op", "lambda-sq")
    assert result.exit_code == 2
    assert f"lattice coordinate {entry!r} is not an integer" in result.output


@pytest.mark.parametrize("obj, message", [
    ({"delta1": [1, 2], "delta2": [[1]]}, "lattice point 1 is not a list"),
    ({"delta1": [[1]], "delta2": [[1]], "structure": ["d1"]}, "structure must be"),
    ({"delta1": [[1]], "delta2": [[1]], "structure": 5}, "structure must be"),
    ({"delta1": [[1]], "delta2": [[1]], "structure": {"d1": 1.0}},
     "declared d1=1.0 is not an integer"),
    ({"delta1": [[1]], "delta2": [[1]], "structure": {"d2": True}},
     "declared d2=True is not an integer"),
    ({"delta1": "11", "delta2": [[1]]}, "delta1 must be a list"),
    ([[1], [1]], "malformed eigenset JSON"),
    ({"delta1": [[1], [-1]], "delta2": [[1]], "structur": {"d1": 5}},
     "unknown eigenset key 'structur'"),
    ({"delta1": [[1]], "delta2": [[1]], "structure": {"d1": 1, "d3": 1}},
     "unknown structure key 'd3'"),
], ids=["point-not-a-list", "structure-list", "structure-int", "d1-float",
        "d2-bool", "factor-string", "top-level-list", "unknown-key",
        "unknown-structure-key"])
def test_frobmodel_rejects_malformed_eigensets(runner, tmp_path, obj, message):
    path = tmp_path / "e.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    result = invoke(runner, "--json", "frobmodel", "--input", str(path),
                    "--op", "line-set")
    assert result.exit_code == 2
    assert message in result.output


def test_json_output_is_deterministic(runner):
    first = invoke(runner, "--json", "verify-lemmas", "--suite", "2.7",
                   "--max-rank", "3")
    second = invoke(runner, "--json", "verify-lemmas", "--suite", "2.7",
                    "--max-rank", "3")
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output
    json.loads(first.output)


def test_frobmodel_line_set_fails_on_a_lost_triple(runner, tmp_path, monkeypatch):
    from microweight import frobmodel

    lines = frobmodel.line_set
    monkeypatch.setattr(frobmodel, "line_set",
                        lambda delta: islice(lines(delta), 1, None))
    path = write_delta(tmp_path, [(0,), (1,), (2,)], [(0,)])
    result = invoke(runner, "--json", "frobmodel", "--input", path, "--op", "line-set")
    assert result.exit_code == 1
    (check,) = json.loads(result.output)["checks"]
    assert check["status"] == "fail"
    assert check["witness"] == 1


def run_e7_projection(runner):
    result = invoke(runner, "--json", "verify-lemmas", "--suite", "4.6")
    return result.exit_code, {c["id"]: c for c in json.loads(result.output)["checks"]}


def test_e7_projection_fails_on_a_lost_fiber(runner, monkeypatch):
    from microweight import frobmodel

    check = frobmodel.e7_fiber_projection_check
    monkeypatch.setattr(frobmodel, "e7_fiber_projection_check",
                        lambda delta: check(delta)[1:])
    exit_code, checks = run_e7_projection(runner)
    assert exit_code == 1
    assert checks["01-fiber-configs"]["status"] == "fail"
    assert checks["01-fiber-configs"]["witness"] == "expected 4 fiber configurations, got 3"
    assert checks["02-difference-sets"]["status"] == "pass"


def test_e7_projection_fails_on_a_lost_difference(runner, monkeypatch):
    from microweight import frobmodel

    check = frobmodel.e7_fiber_projection_check

    def lost_difference(delta):
        (b2, mapping, diffs), *rest = check(delta)
        return [(b2, mapping, diffs - {max(diffs)}), *rest]

    monkeypatch.setattr(frobmodel, "e7_fiber_projection_check", lost_difference)
    exit_code, checks = run_e7_projection(runner)
    assert exit_code == 1
    assert checks["01-fiber-configs"]["status"] == "pass"
    assert checks["02-difference-sets"]["status"] == "fail"
    assert checks["02-difference-sets"]["witness"] == {
        "fiber": [-1, -1], "size": 938, "expected": 939}


@pytest.mark.parametrize("args", [
    (),
    ("--json",),
    ("catalogue", "--type", "A", "--rank", "2"),
    ("catalog", "--type", "A", "--rank", "2", "--json"),
    ("catalog", "--type", "A", "--rank", "2.0"),
    ("--js", "catalog", "--type", "A", "--rank", "2"),
    ("catalog", "--type", "A", "--ra", "2"),
], ids=["no-subcommand", "global-flag-alone", "unknown-subcommand",
        "global-flag-after-subcommand", "float-rank", "global-flag-prefix",
        "option-prefix"])
def test_top_level_usage_errors(runner, args):
    assert invoke(runner, *args).exit_code == 2


def test_help_exits_0(runner):
    result = invoke(runner, "--help")
    assert result.exit_code == 0
    assert "verify-lemmas" in result.output


def python(*args):
    """Run a fresh interpreter that imports this checkout's package."""
    src = pathlib.Path(microweight.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_module_entry_point_exit_statuses(tmp_path):
    run = python("-m", "microweight.cli", "--json", "catalog", "--type", "E7",
                 "--rank", "7")
    assert run.returncode == 0
    assert json.loads(run.stdout)[0]["dims"] == [56]
    run = python("-m", "microweight.cli", "verify-e7", "--fixture",
                 str(altered_fixture(tmp_path)))
    assert run.returncode == 1
    assert "02-halforbit-fixture" in run.stdout
    run = python("-m", "microweight.cli", "catalog", "--type", "A", "--rank", "33")
    assert run.returncode == 2
    assert run.stdout == ""
    assert "microweight: error: --rank 33 exceeds the maximum 32" in run.stderr


def test_cli_imports_only_the_standard_library():
    run = python("-c", "import sys; before = set(sys.modules); import microweight.cli; "
                       "print(' '.join(sorted(set(sys.modules) - before)))")
    assert run.returncode == 0, run.stderr
    imported = {name.partition(".")[0] for name in run.stdout.split()}
    assert imported - set(sys.stdlib_module_names) == {"microweight"}
