"""Command-line surface for simulation, kernel evaluation, conditional
queries, identification, and the verification battery.

Exit codes: 0 success, 1 file I/O failure, 2 usage or validation error,
3 unclassifiable input data, 4 verification battery failure.  All output
is deterministic for fixed flags, including the seed, so repeated runs
produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import sys

import click

from .analysis import BatterySizes, IdentificationError, identify, run_battery
from .conditional import ConditionalQuery, conditional_cdf, conditional_cdf_mc
from .continuous import ShapeFunction, simulate_moving_max, \
    simulate_moving_max_reversed
from .distributions import RngState
from .maxar import Direction, MaxARParams, kernel_cdf, simulate_forward, \
    simulate_reversed
from .serialize import continuous_csv_text, continuous_json_text, \
    discrete_csv_text, discrete_json_text, parse_discrete_csv

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_UNCLASSIFIABLE = 3
EXIT_VERIFICATION = 4


class UnclassifiableExit(click.ClickException):
    """Input data matched no member of the process family."""

    exit_code = EXIT_UNCLASSIFIABLE


def _guard(fn, *args, **kwargs):
    """Map library validation errors onto usage errors (exit 2)."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _write_text(out_path: str, text: str) -> None:
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise click.ClickException(f"cannot write {out_path}: {exc}")


def _read_text(in_path: str) -> str:
    try:
        with open(in_path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise click.ClickException(f"cannot read {in_path}: {exc}")


def _resolve_format(out_path: str, fmt: str) -> str:
    if fmt != "auto":
        return fmt
    if out_path.endswith(".csv"):
        return "csv"
    if out_path.endswith(".json"):
        return "json"
    raise click.UsageError(
        "cannot infer the format from the output extension; pass --format")


_seed_option = click.option(
    "--seed", type=int, default=0, show_default=True, envvar="MAXSTAB_SEED",
    help="64-bit seed; falls back to the MAXSTAB_SEED environment variable.")
_direction_option = click.option(
    "--direction", type=click.Choice(["forward", "reversed"]),
    default="forward", show_default=True, help="Time direction.")
_format_option = click.option(
    "--format", "fmt", type=click.Choice(["auto", "csv", "json"]),
    default="auto", show_default=True,
    help="Output format; auto infers from the file extension.")


@click.group()
def main():
    """Exact samplers and checks for stationary max-stable Markov
    processes."""


@main.command("simulate-discrete")
@click.option("--a", "a", type=float, required=True,
              help="Dependence parameter in [0, 1].")
@_direction_option
@click.option("--n", type=int, required=True, help="Number of values.")
@_seed_option
@click.option("--out", "out_path", required=True, help="Output file.")
@_format_option
def cmd_simulate_discrete(a, direction, n, seed, out_path, fmt):
    """Draw a stationary window of the discrete chain and write it out."""
    params = _guard(MaxARParams, a, Direction(direction))
    rng = _guard(RngState, seed)
    simulate = simulate_forward if params.direction is Direction.FORWARD \
        else simulate_reversed
    path = _guard(simulate, params, n, rng)
    fmt = _resolve_format(out_path, fmt)
    text = discrete_csv_text(path) if fmt == "csv" else discrete_json_text(path)
    _write_text(out_path, text)
    click.echo(f"simulate-discrete n={n} a={params.a:g} "
               f"direction={params.direction.value} seed={seed} -> {out_path}")


@main.command("simulate-continuous")
@click.option("--a", "a", type=float, required=True,
              help="Decay rate in (0, 1].")
@_direction_option
@click.option("--window", type=float, required=True,
              help="Window length (the path covers [0, window]).")
@_seed_option
@click.option("--out", "out_path", required=True, help="Output file.")
@_format_option
def cmd_simulate_continuous(a, direction, window, seed, out_path, fmt):
    """Draw the continuous moving-maximum process and write it out."""
    rng = _guard(RngState, seed)
    simulate = simulate_moving_max if direction == "forward" \
        else simulate_moving_max_reversed
    path = _guard(simulate, a, window, rng)
    fmt = _resolve_format(out_path, fmt)
    text = continuous_csv_text(path) if fmt == "csv" \
        else continuous_json_text(path)
    _write_text(out_path, text)
    click.echo(f"simulate-continuous events={len(path.events)} a={path.a:g} "
               f"direction={path.direction.value} window={window:g} "
               f"seed={seed} -> {out_path}")


@main.command("kernel-cdf")
@click.option("--a", "a", type=float, required=True,
              help="Dependence parameter in [0, 1].")
@_direction_option
@click.option("--x", type=float, required=True, help="Current value.")
@click.option("--y", type=float, required=True, help="Next value bound.")
def cmd_kernel_cdf(a, direction, x, y):
    """Print the one-step transition CDF to 15 significant digits."""
    params = _guard(MaxARParams, a, Direction(direction))
    value = _guard(kernel_cdf, params, x, y)
    click.echo(f"{value:.15g}")


def _parse_query(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"query is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise click.UsageError("query must be a JSON object")
    for key in ("conditioning", "targets", "a"):
        if key not in doc:
            raise click.UsageError(f"query field '{key}': missing")
    cond = doc["conditioning"]
    if not (isinstance(cond, list) and len(cond) == 2):
        raise click.UsageError(
            "query field 'conditioning': expected [index, level]")
    targets = doc["targets"]
    if not (isinstance(targets, list) and targets):
        raise click.UsageError(
            "query field 'targets': expected a nonempty list of "
            "[index, level] pairs")
    for k, item in enumerate(targets):
        if not (isinstance(item, list) and len(item) == 2):
            raise click.UsageError(
                f"query field 'targets[{k}]': expected [index, level]")
    try:
        query = ConditionalQuery(
            (int(cond[0]), float(cond[1])),
            tuple((int(t), float(z)) for t, z in targets))
    except (TypeError, ValueError) as exc:
        raise click.UsageError(
            f"query fields 'conditioning'/'targets': {exc}") from exc
    try:
        a = float(doc["a"])
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"query field 'a': {exc}") from exc
    if not 0.0 <= a <= 1.0:
        raise click.UsageError("query field 'a': must lie in [0, 1]")
    try:
        tol = float(doc.get("tol", 1e-10))
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"query field 'tol': {exc}") from exc
    if not 0.0 < tol <= 1e-4:
        raise click.UsageError("query field 'tol': must lie in (0, 1e-4]")
    return query, a, tol


@main.command("conditional")
@click.option("--query", "query_path", required=True,
              help="JSON query file: {\"conditioning\": [t, z], "
                   "\"targets\": [[t1, z1], ...], \"a\": a, \"tol\": tol}; "
                   "tol is optional, checked and has no effect.")
@click.option("--mc", type=int, default=None,
              help="Also print a Monte Carlo estimate from this many draws.")
@_seed_option
def cmd_conditional(query_path, mc, seed):
    """Evaluate a conditional exceedance-free probability given one
    observed value."""
    query, a, tol = _parse_query(_read_text(query_path))
    value = _guard(conditional_cdf, query, a, tol)
    click.echo(f"{value:.15g}")
    if mc is not None:
        rng = _guard(RngState, seed)
        est = _guard(conditional_cdf_mc, query, a, mc, rng)
        click.echo(f"mc {est.value:.15g} stderr {est.stderr:.15g}")


@main.command("identify")
@click.option("--in", "in_path", required=True,
              help="Input CSV in the discrete path format.")
def cmd_identify(in_path):
    """Recover the dependence parameter and time direction from a path."""
    try:
        _, values = parse_discrete_csv(_read_text(in_path))
    except ValueError as exc:
        raise click.UsageError(f"{in_path}: {exc}") from exc
    try:
        result = identify(values)
    except IdentificationError as exc:
        detail = "; ".join(str(arg) for arg in exc.args)
        raise UnclassifiableExit(detail) from exc
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    doc = {
        "a": result.params.a,
        "direction": result.params.direction.value,
        "atom_location": result.atom_location,
        "atom_mass": result.atom_mass,
        "n_used": result.n_used,
        "notes": result.notes,
    }
    click.echo(json.dumps(doc, indent=2, sort_keys=True))


@main.command("verify")
@click.option("--a", "a", type=float, required=True,
              help="Dependence parameter.")
@_direction_option
@click.option("--continuous", is_flag=True,
              help="Verify the continuous-time process instead of the "
                   "discrete chain.")
@click.option("--epsilon", type=float, default=0.1, show_default=True,
              help="Skeleton grid step for the continuous battery.")
@click.option("--n", type=int, default=None,
              help="Base sample count for the battery sizes.")
@_seed_option
@click.option("--out", "out_path", default=None,
              help="Where to write the JSON report.")
def cmd_verify(a, direction, continuous, epsilon, n, seed, out_path):
    """Run the verification battery; exit 0 only if every check passes."""
    rng = _guard(RngState, seed)
    sizes = BatterySizes() if n is None else _guard(BatterySizes().scaled, n)
    if continuous:
        spec = _guard(ShapeFunction, a, Direction(direction))
    else:
        spec = _guard(MaxARParams, a, Direction(direction))
    report = _guard(run_battery, spec, rng, sizes, epsilon=epsilon)
    for c in report.checks:
        status = "SKIP" if c.passed is None else \
            ("PASS" if c.passed else "FAIL")
        click.echo(f"{status} {c.name} value={c.value:.6g} "
                   f"threshold={c.threshold:.6g}")
    if out_path is not None:
        _write_text(out_path, report.to_json() + "\n")
    if report.all_passed:
        click.echo(f"ok {len(report.checks)} checks")
    else:
        click.echo(f"failed {len(report.failures)} of "
                   f"{len(report.checks)} checks")
        sys.exit(EXIT_VERIFICATION)


if __name__ == "__main__":
    main()
