"""Every public function is reached by something that backs a claim: a CLI
suite, the CLI itself, the acceptance gate or the benchmark's traced
names.  A function that none of them names is unreached API."""

import inspect
import re
from pathlib import Path

import pytest

import microweight
from microweight import serialize

ROOT = Path(__file__).resolve().parents[1]


def _reaching_text():
    texts = [(ROOT / path).read_text(encoding="utf-8")
             for path in ("src/microweight/suites.py", "src/microweight/cli.py",
                          "tests/test_acceptance.py")]
    tracer = (ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8")
    table = re.search(r"^FUNCTIONS = \{.*?^\}", tracer, re.M | re.S)
    return "\n".join(texts + [table.group(0)])


REACHING_TEXT = _reaching_text()


def _public_functions():
    exported = [name for name, obj in vars(microweight).items()
                if not name.startswith("_") and inspect.isfunction(obj)]
    own = [name for name, obj in vars(serialize).items()
           if not name.startswith("_") and inspect.isfunction(obj)
           and obj.__module__ == serialize.__name__]
    return sorted(set(exported) | set(own))


@pytest.mark.parametrize("name", _public_functions())
def test_public_function_is_reached(name):
    assert re.search(rf"\b{name}\b", REACHING_TEXT), (
        f"{name} is named by no suite, CLI command, acceptance criterion "
        "or traced benchmark function")
