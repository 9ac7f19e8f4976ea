import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from microweight import build_delta, serialize
from microweight.linalg import vec


@given(st.fractions())
def test_rational_string_roundtrip(x):
    assert Fraction(serialize.rat_to_str(x)) == x


def test_rational_string_format():
    assert serialize.rat_to_str(Fraction(3)) == "3"
    assert serialize.rat_to_str(Fraction(-6, 4)) == "-3/2"
    assert serialize.rat_to_str(Fraction(7, 2)) == "7/2"


def test_weight_rows_from_text():
    rows = serialize.weight_rows_from_text("# c\n1 2 3\n-1 0 1/2\n", 3)
    assert rows == [vec([1, 2, 3]), vec([-1, 0, Fraction(1, 2)])]
    with pytest.raises(ValueError, match="line 2"):
        serialize.weight_rows_from_text("1 2 3\n1 2\n", 3)
    with pytest.raises(ValueError, match="line 1"):
        serialize.weight_rows_from_text("1 x 3\n", 3)


def test_eigenset_json_roundtrip(tmp_path):
    delta = build_delta([(1, 0), (-1, 0)], [(2,), (-2,)])
    obj = {"structure": {"d1": 2, "d2": 1},
           "delta1": [[1, 0], [-1, 0]], "delta2": [[2], [-2]]}
    back = serialize.eigenset_from_json(obj)
    assert back.elements == delta.elements
    assert back.structure == delta.structure

    path = tmp_path / "delta.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert serialize.eigenset_from_path(path).elements == delta.elements


def test_eigenset_json_errors(tmp_path):
    with pytest.raises(ValueError):
        serialize.eigenset_from_json({"delta1": [[1]]})
    with pytest.raises(ValueError, match="d1"):
        serialize.eigenset_from_json(
            {"structure": {"d1": 3}, "delta1": [[1]], "delta2": [[0]]})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        serialize.eigenset_from_path(bad)


def test_catalog_to_json():
    from microweight import minuscule_catalog

    entries = minuscule_catalog("D", 5)
    out = serialize.catalog_to_json(entries)
    assert out == [{
        "type": "D",
        "rank": 5,
        "weights": ["w1", "w4", "w5"],
        "dims": [10, 16, 16],
        "self_dual_forms": ["orthogonal", "neither", "neither"],
    }]

