"""Every public function is reached by something that backs a claim: a CLI
suite, the CLI itself, the acceptance gate or the benchmark's traced
names.  A function that none of them names is unreached API.  A public
method or property of an exported class is reached when that text names
it or when library code outside its own class uses it."""

import inspect
import re
from functools import cached_property
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


def _library_text_outside(cls):
    """The library's source with the body of ``cls`` left out."""
    own = inspect.getsource(cls)
    return "\n".join(path.read_text(encoding="utf-8").replace(own, "")
                     for path in sorted((ROOT / "src" / "microweight").glob("*.py")))


def _public_methods():
    found = [(cls, name) for cls in vars(microweight).values()
             if inspect.isclass(cls) and cls.__module__.startswith("microweight.")
             for name, obj in vars(cls).items()
             if not name.startswith("_")
             and (inspect.isfunction(obj) or isinstance(obj, (property, cached_property)))]
    return sorted(found, key=lambda pair: (pair[0].__name__, pair[1]))


PUBLIC_METHODS = _public_methods()


@pytest.mark.parametrize("cls, name", PUBLIC_METHODS,
                         ids=[f"{c.__name__}.{n}" for c, n in PUBLIC_METHODS])
def test_public_method_is_reached(cls, name):
    if inspect.isfunction(vars(cls)[name]):
        # an attribute of the same name on another object is no call
        text, outside = rf"\.{name}\(", rf"\.{name}\("
    else:
        text, outside = rf"\b{name}\b", rf"\.{name}\b"
    assert (re.search(text, REACHING_TEXT)
            or re.search(outside, _library_text_outside(cls))), (
        f"{cls.__name__}.{name} is named by no suite, CLI command, acceptance "
        "criterion or traced benchmark function, and no library code outside "
        f"{cls.__name__} uses it")
