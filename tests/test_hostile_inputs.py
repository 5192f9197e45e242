"""One table over every public callable and constructor that takes a
number, an integer, a pair or an array: each such argument is given each
hostile value in turn, the other arguments kept valid.

A call may return, raise ValueError or TypeError whose message names the
argument (in the singular or the plural), or raise one of the package's
own errors (IdentificationError, SpectralBoundError).  The de Haan
sampler's RuntimeError, a stopping rule that did not trigger within
max_points, is its answer to a valid but loose bound, and counts as a
refusal when it names the argument.  Any other exception, a message that
names no argument, or a numpy warning (the suite turns those into errors)
fails.

Object-typed arguments (params, rng, sampler, path, spec, mixing, the
query of the conditional laws and the battery's sizes) are out of scope,
and so are the texts the parsers read.  The result records (KsResult,
CheckResult, IdentificationResult, ConditionalFactors,
McConditionalEstimate) store their numbers as given and have a row to
show that they return.
"""

import math
import re

import numpy as np
import pytest

from maxstab import (
    BatterySizes, CadlagPath, CheckResult, ConditionalFactors,
    ConditionalQuery, Direction, DiscretePath, ExponentFunctional,
    FiniteMixing, GeometricMixing, IdentificationError, IdentificationResult,
    IndexedPath, KsResult, MaxARParams, McConditionalEstimate, RngState,
    ShapeFunction, SpectralBoundError, SpectralSampler, bivariate_cdf,
    conditional_cdf, conditional_cdf_mc, conditional_factors,
    dehaan_max_stable, equilibrium_check, exponent_rectangle, format_float,
    frechet_cdf, frechet_quantile, frechet_sample, identify, independence_test,
    kernel_cdf, kernel_sample_many, ks_critical_value, ks_one_sample,
    ks_two_sample, path_value, run_battery, sample_grid, simulate_forward,
    simulate_moving_max, simulate_moving_max_reversed, simulate_reversed,
    spectral_mean)

HOSTILE = (math.nan, math.inf, -math.inf, 0, -1, 1e-320, 2**70, 10**400,
           1.5, None, "x", (1.0,), (1.0, 2.0, 3.0), np.empty(0),
           np.ones((2, 2)))

P = MaxARParams(0.5)
PATH = CadlagPath(0.5, "forward", (0.0, 2.0), 1.0, [(1.0, 3.0)])
SAMPLE = np.linspace(1.0, 2.0, 40)
PAIRS = np.linspace(1.0, 2.0, 2000).reshape(1000, 2)
QUERY = ConditionalQuery((0, 1.0), ((1, 2.0),))
SMALL = BatterySizes(marginal=30, transitions=150, aggregation=30, copies=1,
                     path_length=2, continuous_replicates=30,
                     skeleton_points=2)
SAMPLER = SpectralSampler.decay(0.5, (0, 2), FiniteMixing({0: 1.0}))


def _sizes(field):
    return lambda v: BatterySizes(**{field: v})


# argument: (the call with the hostile value in that argument, the word
# by which a refusal names it)
ARGUMENTS = {
    # law
    "MaxARParams.a": (lambda v: MaxARParams(v), "a"),
    "kernel_cdf.x": (lambda v: kernel_cdf(P, v, 1.0), "x"),
    "kernel_cdf.y": (lambda v: kernel_cdf(P, 1.0, v), "y"),
    "bivariate_cdf.x": (lambda v: bivariate_cdf(P, v, 1.0), "x"),
    "bivariate_cdf.y": (lambda v: bivariate_cdf(P, 1.0, v), "y"),
    # distributions
    "RngState.seed": (lambda v: RngState(v), "seed"),
    "RngState.stream": (lambda v: RngState(0, v), "stream"),
    "RngState.substream": (lambda v: RngState(0).substream(v), "stream"),
    "RngState.uniform": (lambda v: RngState(0).uniform(v), "size"),
    "RngState.exponential": (lambda v: RngState(0).exponential(v), "size"),
    "frechet_cdf.y": (lambda v: frechet_cdf(v), "y"),
    "frechet_cdf.scale": (lambda v: frechet_cdf(1.0, v), "scale"),
    "frechet_quantile.p": (lambda v: frechet_quantile(v), "p"),
    "frechet_quantile.scale": (lambda v: frechet_quantile(0.5, v), "scale"),
    "frechet_sample.scale": (lambda v: frechet_sample(RngState(0), v),
                             "scale"),
    "frechet_sample.size": (lambda v: frechet_sample(RngState(0), 1.0, v),
                            "size"),
    # maxar
    "DiscretePath.start_index": (lambda v: DiscretePath(v, [1.0], P),
                                 "start_index"),
    "DiscretePath.values": (lambda v: DiscretePath(0, v, P), "values"),
    "simulate_forward.n": (lambda v: simulate_forward(P, v, RngState(0)),
                           "n"),
    "simulate_forward.start_index": (
        lambda v: simulate_forward(P, 2, RngState(0), v), "start_index"),
    "simulate_reversed.n": (lambda v: simulate_reversed(P, v, RngState(0)),
                            "n"),
    "simulate_reversed.start_index": (
        lambda v: simulate_reversed(P, 2, RngState(0), v), "start_index"),
    "kernel_sample_many.current": (
        lambda v: kernel_sample_many(P, v, RngState(0)), "current"),
    # continuous
    "ShapeFunction.a": (lambda v: ShapeFunction(v), "a"),
    "ShapeFunction.t": (lambda v: ShapeFunction(0.5)(v), "t"),
    "CadlagPath.a": (lambda v: CadlagPath(v, "forward", (0.0, 2.0), 1.0, []),
                     "a"),
    "CadlagPath.window": (lambda v: CadlagPath(0.5, "forward", v, 1.0, []),
                          "window"),
    "CadlagPath.window_end": (
        lambda v: CadlagPath(0.5, "forward", (0.0, v), 1.0, []), "window"),
    "CadlagPath.anchor_value": (
        lambda v: CadlagPath(0.5, "forward", (0.0, 2.0), v, []),
        "anchor_value"),
    "CadlagPath.events": (
        lambda v: CadlagPath(0.5, "forward", (0.0, 2.0), 1.0, v), "event"),
    "CadlagPath.event_level": (
        lambda v: CadlagPath(0.5, "forward", (0.0, 2.0), 1.0, [(1.0, v)]),
        "event"),
    "simulate_moving_max.a": (
        lambda v: simulate_moving_max(v, 1.0, RngState(0)), "a"),
    "simulate_moving_max.length": (
        lambda v: simulate_moving_max(0.5, v, RngState(0)), "length"),
    "simulate_moving_max_reversed.a": (
        lambda v: simulate_moving_max_reversed(v, 1.0, RngState(0)), "a"),
    "simulate_moving_max_reversed.length": (
        lambda v: simulate_moving_max_reversed(0.5, v, RngState(0)),
        "length"),
    "path_value.t": (lambda v: path_value(PATH, v), "t"),
    "sample_grid.epsilon": (lambda v: sample_grid(PATH, v), "epsilon"),
    # spectral
    "IndexedPath.start": (lambda v: IndexedPath(v, [1.0]), "start"),
    "IndexedPath.values": (lambda v: IndexedPath(0, v), "values"),
    "IndexedPath.value_at": (lambda v: IndexedPath(0, [1.0]).value_at(v),
                             "t"),
    "GeometricMixing.ratio": (lambda v: GeometricMixing(v), "ratio"),
    "GeometricMixing.pmf": (lambda v: GeometricMixing().pmf(v), "n"),
    "GeometricMixing.sample": (
        lambda v: GeometricMixing().sample(RngState(0), v), "size"),
    "FiniteMixing.weights": (lambda v: FiniteMixing(v), "weight"),
    "FiniteMixing.weight": (lambda v: FiniteMixing({0: v}), "weights"),
    "FiniteMixing.index": (lambda v: FiniteMixing([(v, 1.0)]), "weights"),
    "FiniteMixing.pmf": (lambda v: FiniteMixing({0: 1.0}).pmf(v), "n"),
    "SpectralSampler.window": (lambda v: SpectralSampler("dirac", v),
                               "window"),
    "SpectralSampler.constant": (lambda v: SpectralSampler.constant(v),
                                 "window"),
    "SpectralSampler.dirac": (lambda v: SpectralSampler.dirac(v), "window"),
    "SpectralSampler.decay.a": (lambda v: SpectralSampler.decay(v, (0, 2)),
                                "a"),
    "SpectralSampler.decay.window": (
        lambda v: SpectralSampler.decay(0.5, v), "window"),
    "spectral_mean.t": (lambda v: spectral_mean(SAMPLER, v), "t"),
    "ExponentFunctional.a": (lambda v: ExponentFunctional(v), "a"),
    "ExponentFunctional.shifts": (lambda v: ExponentFunctional(0.5, v),
                                  "shifts"),
    "exponent_rectangle.points": (
        lambda v: exponent_rectangle(ExponentFunctional(0.5), v), "point"),
    "exponent_rectangle.level": (
        lambda v: exponent_rectangle(ExponentFunctional(0.5), [(0, v)]),
        "levels"),
    "dehaan_max_stable.bound": (
        lambda v: dehaan_max_stable(SAMPLER, v, RngState(0)), "bound"),
    "dehaan_max_stable.max_points": (
        lambda v: dehaan_max_stable(SAMPLER, 1.0, RngState(0), v),
        "max_points"),
    # conditional
    "ConditionalQuery.conditioning": (
        lambda v: ConditionalQuery(v, ((1, 2.0),)), "conditioning"),
    "ConditionalQuery.conditioning_level": (
        lambda v: ConditionalQuery((0, v), ((1, 2.0),)), "conditioning"),
    "ConditionalQuery.targets": (lambda v: ConditionalQuery((0, 1.0), v),
                                 "target"),
    "ConditionalQuery.target_level": (
        lambda v: ConditionalQuery((0, 1.0), ((1, v),)), "target"),
    "conditional_factors.a": (lambda v: conditional_factors(QUERY, v), "a"),
    "conditional_cdf.a": (lambda v: conditional_cdf(QUERY, v), "a"),
    "conditional_cdf_mc.a": (
        lambda v: conditional_cdf_mc(QUERY, v, 1000, RngState(0)), "a"),
    "conditional_cdf_mc.n": (
        lambda v: conditional_cdf_mc(QUERY, 0.5, v, RngState(0)), "n"),
    # analysis
    **{f"BatterySizes.{field}": (_sizes(field), field) for field in (
        "marginal", "transitions", "aggregation", "copies", "path_length",
        "continuous_replicates", "skeleton_points")},
    # n is the transitions size, and the other sizes are read off it
    "BatterySizes.scaled": (lambda v: BatterySizes().scaled(v),
                            "transitions"),
    "ks_critical_value.level": (lambda v: ks_critical_value(v), "level"),
    "ks_one_sample.values": (lambda v: ks_one_sample(v, frechet_cdf),
                             "values"),
    "ks_one_sample.level": (
        lambda v: ks_one_sample(SAMPLE, frechet_cdf, v), "level"),
    "ks_two_sample.x": (lambda v: ks_two_sample(v, SAMPLE), "x"),
    "ks_two_sample.y": (lambda v: ks_two_sample(SAMPLE, v), "y"),
    "ks_two_sample.level": (lambda v: ks_two_sample(SAMPLE, SAMPLE, v),
                            "level"),
    "identify.path": (lambda v: identify(v), "values"),
    "identify.rel_tol": (lambda v: identify(np.arange(1.0, 101.0), v),
                         "rel_tol"),
    "identify.level": (lambda v: identify(np.arange(1.0, 101.0), 1e-9, v),
                       "level"),
    "independence_test.pairs": (lambda v: independence_test(v), "pairs"),
    "independence_test.level": (lambda v: independence_test(PAIRS, v),
                                "level"),
    "equilibrium_check.a": (
        lambda v: equilibrium_check(v, 1000, RngState(0)), "a"),
    "equilibrium_check.n": (
        lambda v: equilibrium_check(0.5, v, RngState(0)), "n"),
    "equilibrium_check.grid": (
        lambda v: equilibrium_check(0.5, 1000, RngState(0), v), "grid"),
    "equilibrium_check.tolerance": (
        lambda v: equilibrium_check(0.5, 1000, RngState(0), (1.0,), v),
        "tolerance"),
    "run_battery.epsilon": (
        lambda v: run_battery(ShapeFunction(0.5), RngState(0), SMALL, v),
        "epsilon"),
    # serialize
    "format_float.x": (lambda v: format_float(v), "x"),
    # the result records
    "KsResult": (lambda v: KsResult(v, v, True, v), "statistic"),
    "CheckResult": (lambda v: CheckResult("c", v, v, None), "value"),
    "IdentificationResult": (
        lambda v: IdentificationResult(P, v, v, v, ""), "atom_mass"),
    "ConditionalFactors": (lambda v: ConditionalFactors(v, 0.0),
                           "indicator_moment"),
    "McConditionalEstimate": (
        lambda v: McConditionalEstimate(v, v, v, v, v, v, v), "value"),
}


@pytest.mark.parametrize("argument", list(ARGUMENTS))
def test_hostile_value_is_taken_or_refused_by_name(argument):
    call, name = ARGUMENTS[argument]
    named = re.compile(rf"\b{re.escape(name)}s?\b")
    wrong = []
    for value in HOSTILE:
        try:
            call(value)
        except (IdentificationError, SpectralBoundError):
            pass
        except (ValueError, TypeError, RuntimeError) as exc:
            if not named.search(str(exc)):
                wrong.append(f"{value!r}: {type(exc).__name__}: {exc}")
        except Exception as exc:  # noqa: BLE001 - the table's verdict
            wrong.append(f"{value!r}: {type(exc).__name__}: {exc}")
    assert not wrong, "\n".join(wrong)
