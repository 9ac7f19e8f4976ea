"""Command-line entry point for the verification suites.

Exit status: 0 when every check passes, 1 when any check fails, 2 on
usage or input errors.
"""

import os
import sys

import click

from . import serialize, suites
from .rootsystem import TYPE_LABELS, RootSystemError

HARD_MAX_RANK_DEFAULT = 10
# the highest ceiling a config file may set: at rank m the 2.7 scan builds
# 2^m sign vectors per form; `--json verify-lemmas --suite 2.7` took
# 7.5-10.6 s at rank 16 and 19 s at rank 17 on a shared 2-core x86-64 host
# (Python 3.11)
HARD_MAX_RANK_LIMIT = 16
# the highest `catalog --rank`; tests, goldens and the benchmark stop at 10.
# `--json catalog`, one fresh process per run on the same host: 0.21-0.31 s
# at rank 32 for each of A, B, C and D; 1.7 s at A64; 22 s at A128 (peak RSS
# 73 MB); 44-46 s at B128 and D128 (peak RSS 124-125 MB)
CATALOG_MAX_RANK = 32
CONFIG_KEYS = ("hard_max_rank", "fixture_dir")


def _load_config(path):
    cfg = {}
    if path is None:
        return cfg
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                ln = raw.strip()
                if not ln or ln.startswith("#"):
                    continue
                if "=" not in ln:
                    raise click.UsageError(
                        f"{path}:{lineno}: expected key=value, got {ln!r}")
                key, _, value = map(str.strip, ln.partition("="))
                if key not in CONFIG_KEYS:
                    raise click.UsageError(
                        f"{path}:{lineno}: unknown config key {key!r} "
                        f"(known keys: {', '.join(CONFIG_KEYS)})")
                if not value:
                    raise click.UsageError(
                        f"{path}:{lineno}: config key {key!r} has an empty value")
                cfg[key] = value
    except OSError as exc:
        raise click.UsageError(f"cannot read config file: {exc}")
    return cfg


def _emit(ctx, report):
    as_json = ctx.obj["json"]
    quiet = ctx.obj["quiet"]
    if as_json:
        click.echo(report.to_json(), nl=False)
    else:
        click.echo(report.to_text(quiet=quiet), nl=False)
    if not report.passed:
        sys.exit(1)


@click.group()
@click.option("--json", "as_json", is_flag=True, help="Emit the stable JSON report.")
@click.option("--quiet", is_flag=True, help="Suppress per-check timing and headers.")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Optional key=value config file (rank ceilings, fixture dir).")
@click.pass_context
def main(ctx, as_json, quiet, config_path):
    """Exact verification suites for minuscule weight systems and
    eigenvalue-lattice models."""
    ctx.ensure_object(dict)
    cfg = _load_config(config_path)
    ctx.obj["json"] = as_json
    ctx.obj["quiet"] = quiet
    fixture_dir = os.environ.get("MICROWEIGHT_FIXTURE_DIR", cfg.get("fixture_dir"))
    if fixture_dir == "":
        raise click.UsageError("MICROWEIGHT_FIXTURE_DIR is set but empty")
    ctx.obj["fixture_dir"] = fixture_dir
    try:
        hard_max_rank = int(cfg.get("hard_max_rank", HARD_MAX_RANK_DEFAULT))
    except ValueError:
        raise click.UsageError("hard_max_rank must be an integer")
    if hard_max_rank > HARD_MAX_RANK_LIMIT:
        raise click.UsageError(f"hard_max_rank {hard_max_rank} exceeds the "
                               f"maximum {HARD_MAX_RANK_LIMIT}")
    ctx.obj["hard_max_rank"] = hard_max_rank


@main.command()
@click.option("--type", "type_label", required=True,
              type=click.Choice(TYPE_LABELS))
@click.option("--rank", required=True, type=int)
@click.pass_context
def catalog(ctx, type_label, rank):
    """List the minuscule fundamental weights for one type and rank."""
    if rank > CATALOG_MAX_RANK:
        raise click.UsageError(f"--rank {rank} exceeds the maximum {CATALOG_MAX_RANK}")
    try:
        report, entries = suites.catalog_suite(type_label, rank)
    except RootSystemError as exc:
        raise click.UsageError(str(exc))
    if ctx.obj["json"]:
        import json as _json
        click.echo(_json.dumps(serialize.catalog_to_json(entries),
                               indent=2, sort_keys=True))
        if not report.passed:
            sys.exit(1)
        return
    for e in entries:
        label = e.type_label if e.type_label.startswith("E") else f"{e.type_label}{e.rank}"
        click.echo(f"{label}  w{e.weight_index}  dim {e.dimension}  {e.self_dual_form}")
    if not ctx.obj["quiet"]:
        click.echo(report.to_text(quiet=True), nl=False)
    if not report.passed:
        sys.exit(1)


@main.command("verify-e7")
@click.option("--fixture", "fixture_path", type=click.Path(), default=None)
@click.pass_context
def verify_e7(ctx, fixture_path):
    """Run the 56-point weight-system suite: orbit size, fixture match,
    reflection table, separating partition."""
    if fixture_path is None and ctx.obj["fixture_dir"]:
        fixture_path = os.path.join(ctx.obj["fixture_dir"], "omega_e7.txt")
        if not os.path.exists(fixture_path):
            raise click.UsageError(f"fixture error: {fixture_path} does not exist")
    try:
        report = suites.verify_e7_suite(fixture_path)
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"fixture error: {exc}")
    _emit(ctx, report)


@main.command("verify-lemmas")
@click.option("--suite", "suite_id", required=True,
              type=click.Choice(["2.7", "2.8", "4.6"]))
@click.option("--max-rank", type=int, default=7, show_default=True)
@click.pass_context
def verify_lemmas(ctx, suite_id, max_rank):
    """Run one of the geometry suites: 2.7 = cube-vertex collinearity,
    2.8 = line-triple fiber constancy, 4.6 = fiber projection of detected
    weight-system configurations."""
    if max_rank < 2:
        raise click.UsageError("--max-rank must be at least 2")
    if suite_id == "2.7" and max_rank > ctx.obj["hard_max_rank"]:
        raise click.UsageError(
            f"--max-rank {max_rank} exceeds the configured ceiling "
            f"{ctx.obj['hard_max_rank']}")
    if suite_id == "2.7":
        report = suites.collinearity_suite(max_rank)
    elif suite_id == "2.8":
        report = suites.fiber_constancy_suite()
    else:
        report = suites.e7_projection_suite()
    _emit(ctx, report)


@main.command("frobmodel")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--op", required=True,
              type=click.Choice(["lambda-sq", "level-sets", "line-set", "b-set"]))
@click.pass_context
def frobmodel_cmd(ctx, input_path, op):
    """Run one eigenvalue-lattice operation on an eigenset JSON file."""
    try:
        delta = serialize.eigenset_from_path(input_path)
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"input error: {exc}")
    _emit(ctx, suites.frobmodel_suite(delta, op))


if __name__ == "__main__":
    main()
