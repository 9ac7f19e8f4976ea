"""Golden ``--json`` reports: every case replays one CLI invocation and
must reproduce the recorded exit code and stdout byte for byte.

Each golden file ``tests/golden/<name>.json`` holds the argument list,
the exit code and the exact stdout.  Eigenset inputs live in
``tests/golden/inputs``; an argument ``{inputs}/x.json`` names one of them.
The files pin the reports of a known-good commit.  Re-record them only for
a deliberate change of a report, never to make a refactor pass:

    PYTHONPATH=src python3 tests/test_golden.py --record

``tools/replay_goldens.py`` replays the same records outside the test
process, through any command line: an installed ``microweight`` script
or ``python -m microweight.cli`` under any interpreter.
"""

import contextlib
import io
import json
import pathlib
import runpy
import shutil
import sys

import pytest

import microweight
from microweight.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
REPLAY = GOLDEN.parents[1] / "tools" / "replay_goldens.py"
EIGENSETS = ("pm1-square", "line013-square", "twolines-cube3")
OPS = ("lambda-sq", "level-sets", "line-set", "b-set")


def _cases():
    out = {}
    for t, m in (("A", 5), ("B", 4), ("C", 6), ("D", 7), ("E6", 6), ("E7", 7)):
        label = t if t.startswith("E") else f"{t}{m}"
        out[f"catalog-{label}"] = ["catalog", "--type", t, "--rank", str(m)]
    out["verify-e7"] = ["verify-e7"]
    for r in (7, 10):
        out[f"lemmas-2.7-rank{r}"] = ["verify-lemmas", "--suite", "2.7",
                                      "--max-rank", str(r)]
    out["lemmas-2.8"] = ["verify-lemmas", "--suite", "2.8"]
    out["lemmas-4.6"] = ["verify-lemmas", "--suite", "4.6"]
    for name in EIGENSETS:
        for op in OPS:
            out[f"frobmodel-{name}-{op}"] = ["frobmodel", "--input",
                                             f"{{inputs}}/{name}.json", "--op", op]
    return {name: ["--json"] + args for name, args in out.items()}


CASES = _cases()


def _run(args):
    """Exit code and stdout of one CLI invocation."""
    resolved = [a.replace("{inputs}", str(INPUTS)) for a in args]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(resolved)
    return code, stdout.getvalue()


def test_every_golden_file_is_a_case():
    assert {p.stem for p in GOLDEN.glob("*.json")} == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    record = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert record["args"] == CASES[name]
    code, stdout = _run(record["args"])
    assert code == record["exit_code"]
    assert stdout == record["stdout"]


def test_replay_tool_names_only_the_record_that_differs(tmp_path, monkeypatch, capsys):
    replay = runpy.run_path(str(REPLAY))["replay"]
    src = pathlib.Path(microweight.__file__).resolve().parents[1]
    monkeypatch.setenv("PYTHONPATH", str(src))
    command = [sys.executable, "-m", "microweight.cli"]
    # a directory without records is a failure, never a vacuous pass
    assert replay(command, tmp_path) == 1
    assert capsys.readouterr().out == f"no golden records in {tmp_path}\n"
    shutil.copytree(INPUTS, tmp_path / "inputs")
    for name in ("catalog-B4", "frobmodel-pm1-square-b-set"):
        shutil.copy(GOLDEN / f"{name}.json", tmp_path)
    assert replay(command, tmp_path) == 0
    assert capsys.readouterr().out == ""
    record = json.loads((GOLDEN / "catalog-C6.json").read_text(encoding="utf-8"))
    record["stdout"] = record["stdout"].replace("w1", "w2")
    (tmp_path / "catalog-C6.json").write_text(json.dumps(record), encoding="utf-8")
    assert replay(command, tmp_path) == 1
    assert capsys.readouterr().out == "catalog-C6: exit 0 (recorded 0), stdout differs\n"


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    for name, args in CASES.items():
        code, stdout = _run(args)
        record = {"args": args, "exit_code": code, "stdout": stdout}
        (GOLDEN / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n",
                                             encoding="utf-8")
        print(f"{name}: exit {code}, {len(stdout)} chars")
