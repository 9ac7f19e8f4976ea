#!/usr/bin/env python3
"""Standalone brute-force oracle for the frozen fixture counts.

Deliberately independent of the library: it reads the transcribed
half-list fixture, forms the 56-point set as rows plus negated rows, and
brute-forces three quantities over integer tuples:

  * the number of unordered collinear triples (all C(56,3) = 27720
    triples, cross-product rank test);
  * the number of distinct nonzero pairwise differences;
  * the level-set profile of the 224-point product of the 56 points with
    the square {-1, 1}^2, scalar exponent 1 in front: for each count c,
    how many pairwise sums eta have exactly c ordered pairs summing to
    eta (all 224^2 ordered pairs).

Run from the repository root; rewrites src/microweight/fixtures/oracle_counts.json.
"""

import json
import pathlib
from itertools import combinations

HERE = pathlib.Path(__file__).resolve().parent.parent
FIXTURE = HERE / "src" / "microweight" / "fixtures" / "omega_e7.txt"
OUT = HERE / "src" / "microweight" / "fixtures" / "oracle_counts.json"


def load_points():
    rows = []
    for ln in FIXTURE.read_text().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        rows.append(tuple(int(t) for t in ln.split()))
    assert len(rows) == 28, len(rows)
    pts = set(rows) | {tuple(-x for x in r) for r in rows}
    assert len(pts) == 56, len(pts)
    return sorted(pts)


def collinear(a, b, c):
    u = [x - y for x, y in zip(b, a)]
    v = [x - y for x, y in zip(c, a)]
    for i, j in combinations(range(len(u)), 2):
        if u[i] * v[j] != u[j] * v[i]:
            return False
    return True


def level_set_profile(factor1, factor2):
    pts = [(1,) + a + b for a in factor1 for b in factor2]
    counts = {}
    for p in pts:
        for q in pts:
            s = tuple(x + y for x, y in zip(p, q))
            counts[s] = counts.get(s, 0) + 1
    profile = {}
    for c in counts.values():
        profile[str(c)] = profile.get(str(c), 0) + 1
    return profile


def main():
    pts = load_points()
    triples = sum(1 for a, b, c in combinations(pts, 3) if collinear(a, b, c))
    diffs = {tuple(x - y for x, y in zip(a, b))
             for a in pts for b in pts if a != b}
    square = [(x, y) for x in (-1, 1) for y in (-1, 1)]
    result = {
        "omega56_collinear_triples": triples,
        "omega56_distinct_differences": len(diffs),
        "omega56_x_square_level_sets": level_set_profile(pts, square),
    }
    OUT.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
