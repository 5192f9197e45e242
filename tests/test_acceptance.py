"""Acceptance gate: every distributional identity the library promises,
checked at its stated tolerance, with one printed pass or fail line per
criterion.

Samples that feed a Kolmogorov-Smirnov statistic are i.i.d. by
construction: independent stationary starts advanced through the
one-step sampler, or independent replicate windows reduced to a scalar
summary (a fixed position, or the minimum of a consecutive pair, which
pins the joint law on the diagonal).  Values inside a single dependent
path never enter a KS test directly.
"""

import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import integrate

from maxstab import (
    ConditionalQuery,
    Direction,
    ExponentFunctional,
    FiniteMixing,
    IdentificationError,
    MaxARParams,
    RngState,
    SpectralSampler,
    conditional_cdf,
    conditional_cdf_mc,
    dehaan_max_stable,
    equilibrium_check,
    exponent_rectangle,
    frechet_cdf,
    frechet_quantile,
    frechet_sample,
    identify,
    kernel_cdf,
    kernel_sample_many,
    ks_one_sample,
    ks_two_sample,
    path_value,
    sample_grid,
    simulate_forward,
    simulate_moving_max,
    simulate_reversed,
    spectral_bound,
)
from maxstab.cli import main


def report_line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name}{suffix}"


def stationary_step(a, direction, n, seed):
    """n independent stationary values pushed through one transition of
    the requested direction."""
    rng = RngState(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        params = MaxARParams(a, direction)
    starts = frechet_sample(rng, size=n)
    return kernel_sample_many(params, starts, rng)


def frechet_pi_average(inner):
    """Quadrature of inner(x) against the standard stationary density."""
    value, _ = integrate.quad(
        lambda x: inner(x) * x**-2 * math.exp(-1.0 / x),
        0.0, np.inf, limit=200)
    return value


def test_criterion_01_stationary_marginal():
    n = 10_000
    worst = 0.0
    ok = True
    seed = 101
    for a in (0.0, 0.2, 0.5, 0.8, 1.0):
        for direction in (Direction.FORWARD, Direction.REVERSED):
            values = stationary_step(a, direction, n, seed)
            seed += 1
            res = ks_one_sample(values, frechet_cdf, level=0.01)
            worst = max(worst, res.statistic)
            ok = ok and res.passed
    report_line(1, "stationary marginal law", ok,
                f"max KS {worst:.4f} vs {1.6276 / math.sqrt(n):.4f}")


def test_criterion_02_kernel_closed_form():
    n = 100_000
    a = 0.5
    rng = RngState(202)
    params = MaxARParams(a)
    starts = frechet_sample(rng, size=n)
    nexts = kernel_sample_many(params, starts, rng)
    resampled = kernel_sample_many(params, starts, rng)
    edges = frechet_quantile(np.array([0.2, 0.4, 0.6, 0.8]))
    bins = np.searchsorted(edges, starts)
    ok = True
    worst_mix = 0.0
    worst_two = 0.0
    for b in range(5):
        mask = bins == b
        n_bin = int(mask.sum())
        limit = 3.0 / math.sqrt(n_bin)
        floors = np.sort(a * starts[mask])
        y = np.sort(nexts[mask])
        # the empirical CDF of the recursion output against the average
        # of the closed-form kernel over the same conditioning values
        mixture = np.exp(-(1.0 - a) / y) \
            * np.searchsorted(floors, y, side="right") / n_bin
        steps = np.arange(1, n_bin + 1) / n_bin
        gap = float(np.max(np.maximum(steps - mixture,
                                      mixture - (steps - 1.0 / n_bin))))
        worst_mix = max(worst_mix, gap)
        ok = ok and gap < limit
        two = ks_two_sample(nexts[mask], resampled[mask], level=0.01)
        worst_two = max(worst_two, two.statistic)
        ok = ok and two.statistic < limit
    report_line(2, "kernel closed form", ok,
                f"binned sup {worst_mix:.4f}, two-sample {worst_two:.4f}")


def test_criterion_03_transition_atom_mass():
    n = 100_000
    ok = True
    details = []
    for i, a in enumerate((0.2, 0.5, 0.8)):
        rng = RngState(303 + i)
        starts = frechet_sample(rng, size=n)
        nexts = kernel_sample_many(MaxARParams(a), starts, rng)
        freq = float(np.mean(np.abs(nexts - a * starts) <= 1e-12 * nexts))
        margin = 3.0 * math.sqrt(a * (1.0 - a) / n)
        ok = ok and abs(freq - a) <= margin
        oracle = frechet_pi_average(
            lambda x, a=a: math.exp(-(1.0 - a) / (a * x)))
        ok = ok and abs(oracle - a) <= 1e-8
        details.append(f"a={a}: {freq:.4f}")
    report_line(3, "transition atom mass", ok, ", ".join(details))


def test_criterion_04_equilibrium_relation():
    report = equilibrium_check(0.5, 100_000, RngState(404))
    worst = max(c.value for c in report.checks)
    report_line(4, "equilibrium relation", report.all_passed and worst < 0.01,
                f"max grid gap {worst:.5f}")


def test_criterion_05_conditional_formula():
    a = 0.4
    x = 1.3
    grid = np.linspace(0.2, 3.0, 20)
    worst = 0.0
    for level in grid:
        level = float(level)
        ahead = conditional_cdf(
            ConditionalQuery((0, x), ((1, level),)), a)
        worst = max(worst, abs(ahead - kernel_cdf(MaxARParams(a), x, level)))
        behind = conditional_cdf(
            ConditionalQuery((0, x), ((-1, level),)), a)
        dual = kernel_cdf(MaxARParams(a, Direction.REVERSED), level, x)
        worst = max(worst, abs(behind - dual))
    ok = worst <= 1e-8
    query = ConditionalQuery((0, 1.3), ((1, 0.9), (2, 1.4)))
    exact = conditional_cdf(query, a)
    est = conditional_cdf_mc(query, a, 100_000, RngState(505))
    mc_gap = abs(est.value - exact)
    ok = ok and mc_gap <= 4.0 * est.stderr
    report_line(5, "conditional formula", ok,
                f"kernel gap {worst:.2e}, mc {mc_gap / est.stderr:.2f} se")


def test_criterion_06_max_stability():
    replicates = 10_000
    ok = True
    details = []
    for i, a in enumerate((0.3, 0.7)):
        rng = RngState(606 + i)
        params = MaxARParams(a)
        starts = frechet_sample(rng, size=replicates * 50)
        nexts = kernel_sample_many(params, starts, rng)
        agg0 = starts.reshape(replicates, 50).max(axis=1) / 50.0
        agg1 = nexts.reshape(replicates, 50).max(axis=1) / 50.0
        single0 = frechet_sample(rng, size=replicates)
        single1 = kernel_sample_many(params, single0, rng)
        marginal = ks_two_sample(agg0, single0, level=0.01)
        pair = ks_two_sample(np.minimum(agg0, agg1),
                             np.minimum(single0, single1), level=0.01)
        ok = ok and marginal.passed and pair.passed
        details.append(f"a={a}: {marginal.statistic:.4f}/"
                       f"{pair.statistic:.4f}")
    report_line(6, "max-stability under aggregation", ok, ", ".join(details))


def test_criterion_07_continuous_skeleton():
    target = 0.5 ** 0.1
    long_path = simulate_moving_max(0.5, 600.0, RngState(707))
    skeleton = sample_grid(long_path, 0.1)
    ratios = skeleton.values[1:] / skeleton.values[:-1]
    floor_gap = abs(float(ratios.min()) - target)
    ok = floor_gap <= 1e-9
    n = 10_000
    cont = np.empty((n, 2))
    for r in range(n):
        piece = sample_grid(simulate_moving_max(0.5, 0.1, RngState(708, r)),
                            0.1)
        cont[r] = piece.values
    disc = np.empty((n, 2))
    params = MaxARParams(target)
    for r in range(n):
        disc[r] = simulate_forward(params, 2, RngState(709, r)).values
    marginal = ks_two_sample(cont[:, 0], disc[:, 0], level=0.01)
    pair = ks_two_sample(cont.min(axis=1), disc.min(axis=1), level=0.01)
    ok = ok and marginal.passed and pair.passed
    report_line(7, "continuous skeleton", ok,
                f"floor gap {floor_gap:.2e}, KS {marginal.statistic:.4f}/"
                f"{pair.statistic:.4f}")


def test_criterion_08_continuous_holding():
    a = 0.5
    n = 10_000
    holds = 0
    for r in range(n):
        piece = simulate_moving_max(a, 1.0, RngState(808, r))
        finish = path_value(piece, 1.0)
        if abs(finish - a * piece.anchor_value) <= 1e-12 * finish:
            holds += 1
    freq = holds / n
    margin = 3.0 * math.sqrt(a * (1.0 - a) / n)
    oracle = frechet_pi_average(lambda z: math.exp(-(1.0 - a) / (a * z)))
    ok = abs(freq - a) <= margin and abs(oracle - a) <= 1e-8
    report_line(8, "continuous holding identity", ok,
                f"freq {freq:.4f} vs {a} +- {margin:.4f}")


def test_criterion_09_identification_round_trip():
    ratios = [round(0.1 * k, 1) for k in range(1, 10)]
    successes = 0
    total = 0
    for direction in (Direction.FORWARD, Direction.REVERSED):
        simulate = simulate_forward if direction is Direction.FORWARD \
            else simulate_reversed
        for a in ratios:
            params = MaxARParams(a, direction)
            for s in range(50):
                path = simulate(params, 10_000, RngState(909, total))
                total += 1
                try:
                    found = identify(path.values)
                except IdentificationError:
                    continue
                if found.params.direction is direction \
                        and abs(found.params.a - a) <= 1e-3:
                    successes += 1
    rate = successes / total
    report_line(9, "identification round trip", rate >= 0.98,
                f"{successes}/{total} recovered")


@pytest.mark.slow
def test_criterion_10_dehaan_stopping_rule():
    mixing = FiniteMixing({k: 1.0 for k in range(-2, 3)})
    sampler = SpectralSampler.decay(0.5, (0, 3), mixing=mixing)
    bound = spectral_bound(sampler)
    n = 100_000
    draws = np.empty((n, 4))
    for r in range(n):
        draws[r] = dehaan_max_stable(sampler, bound, RngState(1010, r)).values
    functional = ExponentFunctional(0.5, shifts=mixing.support)
    rectangles = [
        [(0, 0.8)],
        [(1, 1.2)],
        [(3, 1.0)],
        [(0, 1.0), (1, 1.0)],
        [(0, 1.5), (2, 0.7)],
        [(1, 0.9), (3, 1.3)],
        [(0, 1.1), (1, 0.8), (2, 1.4)],
        [(0, 0.7), (2, 1.0), (3, 1.6)],
        [(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
        [(0, 2.0), (1, 0.6), (2, 1.2), (3, 0.9)],
    ]
    worst = 0.0
    for points in rectangles:
        target = math.exp(-exponent_rectangle(functional, points))
        inside = np.ones(n, dtype=bool)
        for t, z in points:
            inside &= draws[:, t] <= z
        worst = max(worst, abs(float(inside.mean()) - target))
    report_line(10, "de Haan stopping rule", worst <= 0.01,
                f"max rectangle gap {worst:.5f}")


def test_criterion_11_cli_determinism(tmp_path):
    runner = CliRunner()
    jobs = [
        (["simulate-discrete", "--a", "0.5", "--n", "400", "--seed", "21",
          "--out", str(tmp_path / "d.csv")], tmp_path / "d.csv"),
        (["simulate-continuous", "--a", "0.5", "--window", "3",
          "--seed", "22", "--out", str(tmp_path / "c.json")],
         tmp_path / "c.json"),
        (["verify", "--a", "0.4", "--n", "1000", "--seed", "23",
          "--out", str(tmp_path / "r.json")], tmp_path / "r.json"),
    ]
    ok = True
    for args, artifact in jobs:
        first = runner.invoke(main, args)
        blob = artifact.read_bytes()
        second = runner.invoke(main, args)
        ok = ok and first.exit_code == 0 and second.exit_code == 0
        ok = ok and artifact.read_bytes() == blob
        ok = ok and first.output == second.output
    probe = ["kernel-cdf", "--a", "0.31", "--x", "1.7", "--y", "0.9"]
    ok = ok and runner.invoke(main, probe).output \
        == runner.invoke(main, probe).output
    report_line(11, "CLI determinism", ok,
                "byte-identical repeats; single platform, see project notes")
