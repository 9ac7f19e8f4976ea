"""Wire and file formats: rational strings, weight-list fixtures,
eigenset JSON and the catalog JSON."""

import json
import re
from fractions import Fraction

from .frobmodel import build_delta
from .linalg import vec


def rat_to_str(x):
    """Lowest-terms rational string; integers are written bare."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# the entry forms of the packaged fixture and of rat_to_str: an integer or
# p/q, optionally signed.  Fraction alone also reads decimals and
# exponents, and expanding the 10-byte entry 1e99999999 did not finish in
# 20 s.
FIXTURE_ENTRY = r"[+-]?[0-9]+(?:/[0-9]+)?"


def weight_rows_from_text(text, rank):
    """Parse a weight-list fixture: one weight per line in simple-root
    coordinates, each entry an integer or p/q, '#' comments allowed."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        toks = ln.split()
        if len(toks) != rank:
            raise ValueError(f"line {lineno}: expected {rank} entries, got {len(toks)}")
        bad = next((t for t in toks if not re.fullmatch(FIXTURE_ENTRY, t)), None)
        if bad is not None:
            raise ValueError(f"line {lineno}: entry {bad!r} is not an integer or p/q")
        try:
            rows.append(vec(Fraction(t) for t in toks))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        except ZeroDivisionError as exc:
            raise ValueError(f"line {lineno}: zero denominator in {ln!r}") from exc
    return rows


def read_text(path):
    """The text of a UTF-8 file; bytes that do not decode raise a
    ValueError that names the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 ({exc})") from exc


EIGENSET_KEYS = ("delta1", "delta2", "structure")
STRUCTURE_KEYS = ("d1", "d2")


def _reject_unknown_keys(obj, known, what):
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} key {unknown[0]!r} "
                         f"(known keys: {', '.join(known)})")


def eigenset_from_json(obj):
    """The eigenset of a decoded JSON object; anything but lists of points
    and integer block dimensions under the known keys is rejected with a
    ValueError."""
    if isinstance(obj, dict):
        _reject_unknown_keys(obj, EIGENSET_KEYS, "eigenset")
    try:
        d1_points = obj["delta1"]
        d2_points = obj["delta2"]
        structure = obj.get("structure", {})
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed eigenset JSON: {exc}") from exc
    for key, points in (("delta1", d1_points), ("delta2", d2_points)):
        if not isinstance(points, list):
            raise ValueError(f"{key} must be a list of points")
    if not isinstance(structure, dict):
        raise ValueError("structure must be an object with keys d1, d2")
    _reject_unknown_keys(structure, STRUCTURE_KEYS, "structure")
    delta = build_delta(d1_points, d2_points)
    for key in ("d1", "d2"):
        declared = structure.get(key, getattr(delta.structure, key))
        if isinstance(declared, bool) or not isinstance(declared, int):
            raise ValueError(f"declared {key}={declared!r} is not an integer")
        if declared != getattr(delta.structure, key):
            raise ValueError(f"declared {key}={declared} does not match points")
    return delta


def eigenset_from_path(path):
    text = read_text(path)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply") from exc
    return eigenset_from_json(obj)


def catalog_to_json(entries):
    """The JSON form of the catalog entries of one type and rank."""
    first = entries[0]
    return [{
        "type": first.type_label,
        "rank": first.rank,
        "weights": [f"w{e.weight_index}" for e in entries],
        "dims": [e.dimension for e in entries],
        "self_dual_forms": [e.self_dual_form for e in entries],
    }]
