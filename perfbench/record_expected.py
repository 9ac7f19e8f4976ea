"""Record the JSON reports of the unseeded suites the benchmark replays.

The benchmark compares each replayed suite's ``to_json()`` output with the
bytes recorded here.  Run from the repository root, on a commit whose
reports are known good:

    python3 perfbench/record_expected.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from microweight import suites  # noqa: E402

from calls import EXPECTED_DIR, SUITES  # noqa: E402


def main():
    for name, fn in SUITES.items():
        text = getattr(suites, fn)().to_json()
        (EXPECTED_DIR / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"{name}: {len(text)} bytes")


if __name__ == "__main__":
    main()
