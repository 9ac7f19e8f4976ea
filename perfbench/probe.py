"""Measure one fresh interpreter's set-up and print it in seconds.

Set-up is what every CLI invocation pays before its first result:
importing ``microweight.cli`` and running the warm-up requests, which
fill the library's caches.  ``run.py`` starts this several times per run
and reports the median.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402,F401  (the benchmark's own code stays out of the timing)


def main():
    t0 = time.perf_counter()
    import microweight.cli  # noqa: F401
    import calls
    calls.warm_up()
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
