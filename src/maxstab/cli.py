"""Command-line surface for simulation, kernel evaluation, conditional
queries, identification, and the verification battery.

Exit codes: 0 success, 1 file I/O failure, 2 usage or validation error,
3 unclassifiable input data, 4 verification battery failure.  All output
is deterministic for fixed flags, including the seed, so repeated runs
produce byte-identical artifacts.
"""

from __future__ import annotations

import sys

import click

import maxstab

# Commands call the package's names through this module, as ``_cli.<name>``.
# A name resolves on first use, through the ``__getattr__`` below and then
# the package's, so a process imports only the modules its subcommand
# runs; and a name patched onto this module is the one called.  Under
# ``python -m`` this module is ``__main__``.
_cli = sys.modules[__name__]


def __getattr__(name):
    if name not in maxstab.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(maxstab, name)


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
    params = _guard(_cli.MaxARParams, a, direction)
    rng = _guard(_cli.RngState, seed)
    simulate = _cli.simulate_forward \
        if params.direction is _cli.Direction.FORWARD \
        else _cli.simulate_reversed
    path = _guard(simulate, params, n, rng)
    fmt = _resolve_format(out_path, fmt)
    text = _cli.discrete_csv_text(path) if fmt == "csv" \
        else _cli.discrete_json_text(path)
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
    rng = _guard(_cli.RngState, seed)
    simulate = _cli.simulate_moving_max if direction == "forward" \
        else _cli.simulate_moving_max_reversed
    path = _guard(simulate, a, window, rng)
    fmt = _resolve_format(out_path, fmt)
    text = _cli.continuous_csv_text(path) if fmt == "csv" \
        else _cli.continuous_json_text(path)
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
    params = _guard(_cli.MaxARParams, a, direction)
    value = _guard(_cli.kernel_cdf, params, x, y)
    click.echo(f"{value:.15g}")


def _parse_query(text: str):
    import json
    from maxstab.law import _check_unit

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"query is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise click.UsageError("query must be a JSON object")
    for key in ("conditioning", "targets", "a"):
        if key not in doc:
            raise click.UsageError(f"query field '{key}': missing")
    if "tol" in doc:
        raise click.UsageError(
            "query field 'tol': no longer accepted; remove it (it had no "
            "effect)")
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
        query = _cli.ConditionalQuery(tuple(cond),
                                      tuple(map(tuple, targets)))
    except ValueError as exc:
        raise click.UsageError(
            f"query fields 'conditioning'/'targets': {exc}") from exc
    try:
        a = _check_unit("a", doc["a"])
    except ValueError as exc:
        raise click.UsageError(f"query field 'a': {exc}") from exc
    return query, a


@main.command("conditional")
@click.option("--query", "query_path", required=True,
              help="JSON query file: {\"conditioning\": [t, z], "
                   "\"targets\": [[t1, z1], ...], \"a\": a}.")
@click.option("--mc", type=int, default=None,
              help="Also print a Monte Carlo estimate from this many draws.")
@_seed_option
def cmd_conditional(query_path, mc, seed):
    """Evaluate a conditional exceedance-free probability given one
    observed value."""
    query, a = _parse_query(_read_text(query_path))
    lines = [f"{_guard(_cli.conditional_cdf, query, a):.15g}"]
    if mc is not None:  # a refused --mc prints nothing
        rng = _guard(_cli.RngState, seed)
        est = _guard(_cli.conditional_cdf_mc, query, a, mc, rng)
        lines.append(f"mc {est.value:.15g} stderr {est.stderr:.15g}")
    click.echo("\n".join(lines))


@main.command("identify")
@click.option("--in", "in_path", required=True,
              help="Discrete path file: JSON if named *.json, else CSV.")
def cmd_identify(in_path):
    """Recover the dependence parameter and time direction from a path."""
    import json
    text = _read_text(in_path)
    try:
        values = _cli.parse_discrete_json(text).values \
            if in_path.endswith(".json") else _cli.parse_discrete_csv(text)[1]
    except ValueError as exc:
        raise click.UsageError(f"{in_path}: {exc}") from exc
    try:
        result = _cli.identify(values)
    except _cli.IdentificationError as exc:
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
    rng = _guard(_cli.RngState, seed)
    sizes = _cli.BatterySizes() if n is None \
        else _guard(_cli.BatterySizes().scaled, n)
    if continuous:
        spec = _guard(_cli.ShapeFunction, a, direction)
    else:
        spec = _guard(_cli.MaxARParams, a, direction)
    report = _guard(_cli.run_battery, spec, rng, sizes, epsilon=epsilon)
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
