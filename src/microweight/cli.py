"""Exact verification suites for minuscule weight systems and
eigenvalue-lattice models.

Exit status: 0 when every check passes, 1 when any check fails, 2 on
usage or input errors.
"""

import argparse
import json
import os
import sys

from . import serialize, suites
from .rootsystem import TYPE_LABELS, RootSystemError

HARD_MAX_RANK_DEFAULT = 10
# the highest ceiling a config file may set: at rank m the 2.7 scan builds 2^m
# sign vectors per form; `--json verify-lemmas --suite 2.7` took 7.5-10.6 s at
# rank 16 and 19 s at rank 17 on a shared 2-core x86-64 host (Python 3.11)
HARD_MAX_RANK_LIMIT = 16
# the highest `catalog --rank`; tests, goldens and the benchmark stop at 10.
# `--json catalog`, one fresh process per run on the same host: 0.21-0.31 s
# at rank 32 for each of A, B, C and D; 1.7 s at A64; 22 s at A128 (peak RSS
# 73 MB); 44-46 s at B128 and D128 (peak RSS 124-125 MB)
CATALOG_MAX_RANK = 32
CONFIG_KEYS = ("hard_max_rank", "fixture_dir")


class UsageError(Exception):
    """A usage or input error; `main` reports it through the parser, exit 2."""


def _load_config(path):
    try:
        text = serialize.read_text(path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config file: {exc}")
    cfg = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {ln!r}")
        key, _, value = map(str.strip, ln.partition("="))
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r} "
                             f"(known keys: {', '.join(CONFIG_KEYS)})")
        if not value:
            raise UsageError(f"{path}:{lineno}: config key {key!r} has an empty value")
        cfg[key] = value
    return cfg


def _configure(args):
    """Put the settings of the config file and the environment on ``args``."""
    cfg = {} if args.config is None else _load_config(args.config)
    args.fixture_dir = os.environ.get("MICROWEIGHT_FIXTURE_DIR", cfg.get("fixture_dir"))
    if args.fixture_dir == "":
        raise UsageError("MICROWEIGHT_FIXTURE_DIR is set but empty")
    try:
        args.hard_max_rank = int(cfg.get("hard_max_rank", HARD_MAX_RANK_DEFAULT))
    except ValueError:
        raise UsageError("hard_max_rank must be an integer")
    if args.hard_max_rank > HARD_MAX_RANK_LIMIT:
        raise UsageError(f"hard_max_rank {args.hard_max_rank} exceeds the "
                         f"maximum {HARD_MAX_RANK_LIMIT}")


def _emit(args, report):
    print(report.to_json() if args.json else report.to_text(quiet=args.quiet), end="")
    return report


def catalog(args):
    """List the minuscule fundamental weights for one type and rank."""
    if args.rank > CATALOG_MAX_RANK:
        raise UsageError(f"--rank {args.rank} exceeds the maximum {CATALOG_MAX_RANK}")
    try:
        report, entries = suites.catalog_suite(args.type, args.rank)
    except RootSystemError as exc:
        raise UsageError(str(exc))
    if args.json:
        print(json.dumps(serialize.catalog_to_json(entries), indent=2, sort_keys=True))
        return report
    for e in entries:
        label = e.type_label if e.type_label.startswith("E") else f"{e.type_label}{e.rank}"
        print(f"{label}  w{e.weight_index}  dim {e.dimension}  {e.self_dual_form}")
    if not args.quiet:
        print(report.to_text(quiet=True), end="")
    return report


def verify_e7(args):
    """Run the 56-point weight-system suite: orbit size, fixture match,
    reflection table, separating partition."""
    if args.fixture is None and args.fixture_dir:
        args.fixture = os.path.join(args.fixture_dir, "omega_e7.txt")
        if not os.path.exists(args.fixture):
            raise UsageError(f"fixture error: {args.fixture} does not exist")
    try:
        report = suites.verify_e7_suite(args.fixture)
    except (OSError, ValueError) as exc:
        raise UsageError(f"fixture error: {exc}")
    return _emit(args, report)


def verify_lemmas(args):
    """Run one of the geometry suites: 2.7 = cube-vertex collinearity,
    2.8 = line-triple fiber constancy, 4.6 = fiber projection of detected
    weight-system configurations."""
    if args.max_rank < 2:
        raise UsageError("--max-rank must be at least 2")
    if args.suite == "2.7":
        if args.max_rank > args.hard_max_rank:
            raise UsageError(f"--max-rank {args.max_rank} exceeds the configured "
                             f"ceiling {args.hard_max_rank}")
        return _emit(args, suites.collinearity_suite(args.max_rank))
    if args.suite == "2.8":
        return _emit(args, suites.fiber_constancy_suite())
    return _emit(args, suites.e7_projection_suite())


def frobmodel(args):
    """Run one eigenvalue-lattice operation on an eigenset JSON file."""
    try:
        delta = serialize.eigenset_from_path(args.input)
    except (OSError, ValueError) as exc:
        raise UsageError(f"input error: {exc}")
    return _emit(args, suites.frobmodel_suite(delta, args.op))


def _parser():
    parser = argparse.ArgumentParser(prog="microweight", description=__doc__,
                                     allow_abbrev=False)
    parser.add_argument("--json", action="store_true", help="Emit the stable JSON report.")
    parser.add_argument("--quiet", action="store_true",
                        help="Suppress per-check timing and headers.")
    parser.add_argument("--config",
                        help="Optional key=value config file (rank ceilings, fixture dir).")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name, run):
        sub = commands.add_parser(name, allow_abbrev=False, help=run.__doc__,
                                  description=run.__doc__)
        sub.set_defaults(run=run)
        return sub

    sub = command("catalog", catalog)
    sub.add_argument("--type", required=True, choices=TYPE_LABELS)
    sub.add_argument("--rank", required=True, type=int)
    command("verify-e7", verify_e7).add_argument("--fixture")
    sub = command("verify-lemmas", verify_lemmas)
    sub.add_argument("--suite", required=True, choices=["2.7", "2.8", "4.6"])
    sub.add_argument("--max-rank", type=int, default=7, help="(default: %(default)s)")
    sub = command("frobmodel", frobmodel)
    sub.add_argument("--input", required=True)
    sub.add_argument("--op", required=True,
                     choices=["lambda-sq", "level-sets", "line-set", "b-set"])
    return parser


def main(argv=None):
    """Run one command line; return 0 if every check passes, else 1."""
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        _configure(args)
        report = args.run(args)
    except UsageError as exc:
        parser.error(str(exc))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
