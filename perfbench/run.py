"""microweight benchmark: seeded verification workloads, closed loop, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lemma-scan --seed 1 --seconds 25 --trace 0

Each workload is a fixed list of requests generated from ``--seed`` before
anything is timed (see ``inputs.py``).  One request runs at a time.  The
list is replayed as whole passes until ``--seconds`` is used up, and every
result is checked against the expectation the benchmark derived itself.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
library's public functions (``tracer.py``) and prints the per-layer
metrics: each request of a pass runs once traced and once untraced, the
per-layer figures are per pass of the traced side, and
``trace.overhead_ratio`` is the traced time over the untraced time.  The
warm-up runs untraced, and ``cli.*`` is the one import of
``microweight.cli``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``failed`` counts requests that gave the wrong verdict, raised
unexpectedly or came back inconclusive.  ``correct`` is false when any
verdict came with a wrong witness, map, size or report, or when a request
failed that is not marked as a known defect in ``inputs.py``.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import inputs  # noqa: E402

SETUP_SAMPLES = 5
MIN_PASSES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Tally:
    """Outcome counts and latency samples over the timed requests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0   # failures not marked as a known defect
        self.incorrect = 0
        self.latencies = {inputs.ACCEPT: [], inputs.REJECT: []}

    def add(self, req, seconds, status):
        self.attempted += 1
        self.latencies[req.expect].append(seconds)
        if status == inputs.FAILED:
            self.failed += 1
            self.unexpected += not req.known_defect
        elif status == inputs.INCORRECT:
            self.incorrect += 1

    @property
    def correct(self):
        return self.unexpected == 0 and self.incorrect == 0


def timed_call(req):
    """(seconds, result or raised exception) of one request."""
    import calls
    t0 = time.perf_counter()
    try:
        out = calls.call(req)
    except Exception as exc:  # the check decides whether it was expected
        out = exc
    return time.perf_counter() - t0, out


def run_passes(requests, budget, tally):
    """Replay whole passes until the next one would overrun ``budget``
    seconds (at least MIN_PASSES); returns the pass wall times."""
    import calls
    walls = []
    clock = time.perf_counter
    start = clock()
    while True:
        gc.collect()
        t_pass = clock()
        results = [timed_call(req) for req in requests]
        walls.append(clock() - t_pass)
        for req, (seconds, out) in zip(requests, results):
            tally.add(req, seconds, calls.check(req, out))
        del results
        elapsed = clock() - start
        if len(walls) >= MIN_PASSES and elapsed + walls[-1] > budget:
            return walls


def paired_passes(requests, budget, tally, tracer):
    """Replay whole passes (at least one) within ``budget`` seconds, running
    each request once untraced and once traced, in alternating order, so
    that both sides see the same host speed.  Returns the number of passes
    and the traced time over the untraced time."""
    import calls
    spent = {False: 0.0, True: 0.0}
    clock = time.perf_counter
    start = clock()
    passes = 0
    while True:
        gc.collect()
        t_pass = clock()
        for i, req in enumerate(requests):
            first = (i + passes) % 2 == 1
            for traced in (first, not first):
                if traced:
                    tracer.install()
                seconds, out = timed_call(req)
                if traced:
                    tracer.uninstall()
                spent[traced] += seconds
                tally.add(req, seconds, calls.check(req, out))
        passes += 1
        elapsed = clock() - start
        if elapsed + (clock() - t_pass) > budget:
            return passes, spent[True] / spent[False]


def setup_sample():
    out = subprocess.run([sys.executable, str(HERE / "probe.py")], capture_output=True,
                         text=True, timeout=170, check=True)
    return float(out.stdout.split()[-1])


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(tally, walls, setup):
    ms = [1000 * s for v in tally.latencies.values() for s in v]
    acc = [1000 * s for s in tally.latencies[inputs.ACCEPT]]
    rej = [1000 * s for s in tally.latencies[inputs.REJECT]]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "latency_ms.p50": (statistics.median(ms), "ms", len(ms)),
        "latency_ms.p90": (percentile(ms, 90), "ms", len(ms)),
        "accept_ms.p50": (statistics.median(acc), "ms", len(acc)),
        "reject_ms.p50": (statistics.median(rej), "ms", len(rej)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def plain_run(requests, seconds):
    setup = [setup_sample() for _ in range(SETUP_SAMPLES)]
    import microweight.cli  # noqa: F401
    import calls
    calls.warm_up()
    tally = Tally()
    walls = run_passes(requests, seconds, tally)
    return end_to_end(tally, walls, setup), tally


def traced_run(requests, seconds):
    t0 = time.perf_counter()
    import microweight.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    import calls
    from tracer import Tracer
    calls.warm_up()
    tracer = Tracer()
    tally = Tally()
    passes, overhead = paired_passes(requests, seconds, tally, tracer)
    metrics = {k: (v, unit, None) for k, (v, unit) in tracer.metrics(passes).items()}
    metrics["cli.calls"] = (1, "count", None)
    metrics["cli.self_s"] = (import_s, "s", None)
    metrics["cli.raised"] = (0, "count", None)
    metrics["trace.overhead_ratio"] = (overhead, "ratio", None)
    return metrics, tally


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "microweight" / "__init__.py").is_file():
        print(f"perfbench: no microweight package under {SRC}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    requests = inputs.requests_for(args.workload, args.seed)
    run = traced_run if args.trace else plain_run
    metrics, tally = run(requests, args.seconds)
    for name, (value, unit, n) in metrics.items():
        count = "" if n is None else f"  n={n}"
        print(f"{args.workload:14s} {name:48s} {value:14.6g} {unit}{count}")
    print(f"{args.workload:14s} {'failed_ratio':48s} "
          f"{tally.failed / tally.attempted:14.6g} ratio  "
          f"n={tally.attempted}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
