#!/usr/bin/env python3
"""Replay every golden ``--json`` report through a command line.

Each ``tests/golden/<name>.json`` holds the arguments of one CLI call,
its exit code and its exact stdout; ``{inputs}`` in an argument stands
for ``tests/golden/inputs``.  This script runs the given command with the
arguments of every record and prints one line for each record whose exit
code or stdout differs.  It exits 1 if any record differs, else 0.

Standard library only, so it runs under any interpreter, against an
installed console script or a source tree:

    python3 tools/replay_goldens.py microweight
    PYTHONPATH=src python3 tools/replay_goldens.py python3 -m microweight.cli

``tests/test_golden.py`` checks the same records in process.
"""

import json
import pathlib
import subprocess
import sys

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"


def replay(command, golden=GOLDEN):
    """Run ``command`` on every record in the directory ``golden``; print
    one line for each record it does not reproduce, and return the exit
    status: 1 if any record differs, else 0."""
    golden = pathlib.Path(golden)
    inputs = str(golden / "inputs")
    records = sorted(golden.glob("*.json"))
    if not records:
        print(f"no golden records in {golden}")
        return 1
    status = 0
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        args = [a.replace("{inputs}", inputs) for a in record["args"]]
        run = subprocess.run(list(command) + args, capture_output=True)
        stdout = run.stdout.decode("utf-8", errors="replace")
        if (run.returncode, stdout) != (record["exit_code"], record["stdout"]):
            status = 1
            what = "stdout differs" if stdout != record["stdout"] else "stdout matches"
            print(f"{path.stem}: exit {run.returncode} (recorded "
                  f"{record['exit_code']}), {what}")
    return status


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: {sys.argv[0]} COMMAND [ARG ...]")
    sys.exit(replay(sys.argv[1:]))
