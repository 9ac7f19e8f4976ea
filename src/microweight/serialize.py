"""Wire and file formats: rational strings, root-system JSON, the
configuration text format, weight-list fixtures and eigenset JSON."""

import json
from fractions import Fraction

from .frobmodel import build_delta
from .linalg import vec


def rat_to_str(x):
    """Lowest-terms rational string; integers are written bare."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rat_from_str(s):
    return Fraction(s)


def system_to_json(system):
    return {
        "type": system.type_label,
        "rank": system.rank,
        "simple_roots": [[rat_to_str(c) for c in r] for r in system.simple_roots],
    }


def configuration_to_text(config):
    lines = [f"dim {config.dim}"]
    for p in config.points:
        lines.append(" ".join(rat_to_str(c) for c in p))
    return "\n".join(lines) + "\n"


def configuration_from_text(text):
    from .affgeom import Configuration

    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("dim "):
        raise ValueError("configuration text must start with a 'dim d' header")
    dim = int(lines[0].split()[1])
    points = []
    for ln in lines[1:]:
        p = vec(Fraction(tok) for tok in ln.split())
        if len(p) != dim:
            raise ValueError(f"point {ln!r} does not have dimension {dim}")
        points.append(p)
    return Configuration(points)


def weight_rows_from_text(text, rank):
    """Parse a weight-list fixture: one weight per line in simple-root
    coordinates, '#' comments allowed."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        toks = ln.split()
        if len(toks) != rank:
            raise ValueError(f"line {lineno}: expected {rank} entries, got {len(toks)}")
        try:
            rows.append(vec(Fraction(t) for t in toks))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return rows


def eigenset_to_json(delta):
    return {
        "structure": {"d1": delta.structure.d1, "d2": delta.structure.d2},
        "delta1": sorted([list(p) for p in delta.factor1]),
        "delta2": sorted([list(p) for p in delta.factor2]),
    }


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
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, "
                             f"column {exc.colno}") from exc
    return eigenset_from_json(obj)


def catalog_to_json(entries):
    grouped = {}
    for e in entries:
        key = (e.type_label, e.rank)
        grouped.setdefault(key, []).append(e)
    out = []
    for (type_label, rank), group in sorted(grouped.items()):
        group = sorted(group, key=lambda e: e.weight_index)
        out.append({
            "type": type_label,
            "rank": rank,
            "weights": [f"w{e.weight_index}" for e in group],
            "dims": [e.dimension for e in group],
            "self_dual_forms": [e.self_dual_form for e in group],
        })
    return out


def separation_report_to_json(report):
    return {
        "functional": [rat_to_str(c) for c in report.functional],
        "constant": rat_to_str(report.constant),
        "level_counts": {rat_to_str(v): n
                         for v, n in sorted(report.level_counts.items())},
    }
