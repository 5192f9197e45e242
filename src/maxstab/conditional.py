"""Conditional distributions of the max-stable family given one observed value.

For a max-stable process with spectral process Y, the conditional
probability that eta(t_i) <= z_i for all i given eta(t) = z factorizes into
two spectral expectations:

    E[ 1{max_i Y(t_i)/z_i <= Y(t)/z} * Y(t) ]
      * exp( -E[ (max_i Y(t_i)/z_i - Y(t)/z)^+ ] )

For the decay-shape mixture with onset weights the 1/mass importance
factors cancel shift by shift, so both expectations reduce to sums over
integer onsets of deterministic shape functionals.  Both functionals are
homogeneous of degree one in the shape, and between two consecutive
distinct query times every onset gives the same row of decay values up to
one scalar factor.  So each sum is a weighted sum over one row per distinct
time: weight 1 at the first time, which stands for every earlier onset,
and 1 - a^gap at each later one.  The evaluator is exact up to float
rounding, its cost does not grow with the distance between the times, and
a = 0 and a = 1 need no branch of their own.  The Monte Carlo estimator
evaluates the same two terms on random onsets weighted by 1/mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .distributions import RngState, _check_count, _index, _integer, _pairs
from .law import _check_positive, _check_unit
from .spectral import GeometricMixing, _decay_profile, _onset_rows, _span

__all__ = list(_EXPORTS["conditional"])
_MC_BLOCK = 1 << 14  # window values per Monte Carlo block, about 128 KB

@dataclass(frozen=True)
class ConditionalQuery:
    """Conditioning pair (index, observed level) and target pairs
    (index, level); target indices must be distinct."""

    conditioning: tuple[int, float]
    targets: tuple[tuple[int, float], ...]

    def __post_init__(self):
        t0, z0 = _pairs("conditioning", [self.conditioning])[0]
        object.__setattr__(self, "conditioning", (
            _index("conditioning", t0),
            _check_positive("conditioning level", z0)))
        targets = tuple((_index("targets", t),
                         _check_positive("target levels", z))
                        for t, z in _pairs("each target", self.targets))
        if not targets:
            raise ValueError("at least one target is required")
        if len({t for t, _ in targets}) != len(targets):
            raise ValueError("target indices must be distinct")
        object.__setattr__(self, "targets", targets)


@dataclass(frozen=True)
class ConditionalFactors:
    """The two spectral expectations whose combination is the conditional
    CDF: indicator_moment * exp(-excess_moment)."""

    indicator_moment: float
    excess_moment: float

    @property
    def value(self) -> float:
        return self.indicator_moment * math.exp(-self.excess_moment)


def _query_arrays(query: ConditionalQuery) -> tuple[np.ndarray, np.ndarray]:
    """Times and levels with the conditioning pair first."""
    pairs = (query.conditioning,) + query.targets
    return (np.array([t for t, _ in pairs], dtype=np.int64),
            np.array([z for _, z in pairs], dtype=np.float64))


def _factor_terms(rows: np.ndarray, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indicator term 1{max_i Y(t_i)/z_i <= Y(t)/z} Y(t) and excess term
    (max_i Y(t_i)/z_i - Y(t)/z)^+ of each spectral row; column 0 and zs[0]
    belong to the conditioning pair."""
    ref = rows[:, 0] / zs[0]
    peak = (rows[:, 1:] / zs[1:]).max(axis=1)
    return np.where(peak <= ref, rows[:, 0], 0.0), np.maximum(peak - ref, 0.0)


def conditional_factors(query: ConditionalQuery, a: float) -> ConditionalFactors:
    """Exact evaluation of the two conditional factors for decay rate a.

    Both terms are homogeneous of degree one in the spectral row, so the
    sums over all integer onsets are the weighted sums of the terms of the
    decay rows at the distinct query times, a = 0 and a = 1 included.
    """
    a = _check_unit("a", a)
    ts, zs = _query_arrays(query)
    weights, rows = _onset_rows(a, ts)
    indicator, excess = _factor_terms(rows, zs)
    return ConditionalFactors(float(weights @ indicator), float(weights @ excess))


def conditional_cdf(query: ConditionalQuery, a: float) -> float:
    """P[eta(t_i) <= z_i for all targets | eta(t) = z] for the stationary
    process with decay rate a."""
    return conditional_factors(query, a).value


@dataclass(frozen=True)
class McConditionalEstimate:
    """Monte Carlo estimate of the conditional CDF with its delta-method
    standard error, plus the per-factor sample statistics."""

    value: float
    stderr: float
    indicator_moment: float
    excess_moment: float
    indicator_stderr: float
    excess_stderr: float
    n: int


def _spectral_matrix(a: float, times: np.ndarray, n: int, rng: RngState,
                     mixing) -> np.ndarray:
    """n spectral realizations evaluated at the given times, as an
    (n, len(times)) array, for a < 1.  Randomness is the onset index only,
    one uniform per row.  With no mixing, the uniform times len(times)
    picks a query time j by its integer part and by its fraction an onset
    within 37 / -log(ratio) + 1 < 2**59 of it; the times' offsets from time
    j are clipped to 2**63 - 1 in size, past which every decay and mass
    underflows to 0 anyway."""
    if mixing is not None:
        onsets = mixing.sample(rng, size=n)
        offsets, masses = times, mixing.pmf(onsets)
    else:
        geometric = GeometricMixing(max(0.5, a))
        u = rng.uniform(n) * times.size
        centre = u.astype(np.intp)
        onsets = geometric._quantile(u - centre)
        ahead = times[:, None] >= times
        size = np.minimum(np.where(ahead, _span(times, times[:, None]),
                                   _span(times[:, None], times)),
                          2**63 - 1).astype(np.int64)
        # offsets[i, r]: time i less the time that draw r is made about
        offsets = np.take(np.where(ahead, size, -size), centre, axis=1)
        masses = geometric._masses(
            onsets - offsets.astype(np.float64)).mean(axis=0)
    return ((1.0 - a) * _decay_profile(a, offsets, onsets)
            / masses[:, None])


def conditional_cdf_mc(query: ConditionalQuery, a: float, n: int,
                       rng: RngState, mixing=None) -> McConditionalEstimate:
    """Monte Carlo version of :func:`conditional_cdf` over spectral draws.

    Estimates both factors from the same draws and propagates their
    standard errors (including the covariance) through the product.
    Onsets are drawn from ``mixing``, by default an equal mixture of
    ``GeometricMixing(max(0.5, a))`` about each query time, so that draws
    fall near the conditioning time and near every target, however far
    apart they lie.  Under a ratio at or below a**2 the 1/mass weights
    would grow fast enough in the far past to make the variance infinite
    and the stderr meaningless.  n runs from 1000 draws up to the size cap.

    The draws are made in blocks of _MC_BLOCK // len(times) onsets, read
    in turn from the stream; no per-draw array is held, as each block's
    means and centred co-moments are merged into the running ones (Chan,
    Golub & LeVeque 1983), so memory does not grow with n.  At a = 1 every
    spectral row is ones and both terms are constants, so no onset is drawn
    and the estimate is :func:`conditional_factors`' with zero standard
    errors.
    """
    a = _check_unit("a", a)
    n = _integer(n, "n must be an integer of at least 1000", 1000)
    _check_count(n, f"n = {n:,} draws is", "use fewer draws")
    if a == 1.0:
        exact = conditional_factors(query, a)
        return McConditionalEstimate(
            value=exact.value, stderr=0.0,
            indicator_moment=exact.indicator_moment,
            excess_moment=exact.excess_moment, indicator_stderr=0.0,
            excess_stderr=0.0, n=n)
    ts, zs = _query_arrays(query)
    mean, comoment = np.zeros(2), np.zeros((2, 2))
    step = max(1, _MC_BLOCK // ts.size)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        terms = np.array(_factor_terms(
            _spectral_matrix(a, ts, hi - lo, rng, mixing), zs))
        block_mean = terms.mean(axis=1)
        centred = terms - block_mean[:, None]
        delta = block_mean - mean
        mean += delta * ((hi - lo) / hi)
        comoment += (centred @ centred.T
                     + np.outer(delta, delta) * (lo * (hi - lo) / hi))
    (ind_mean, exc_mean), ((ind_var, cov), (_, exc_var)) = \
        mean.tolist(), (comoment / (n - 1)).tolist()
    grad_sq = ind_var + ind_mean**2 * exc_var - 2.0 * ind_mean * cov
    return McConditionalEstimate(
        value=ind_mean * math.exp(-exc_mean),
        stderr=math.exp(-exc_mean) * math.sqrt(max(grad_sq, 0.0) / n),
        indicator_moment=ind_mean, excess_moment=exc_mean,
        indicator_stderr=math.sqrt(ind_var / n),
        excess_stderr=math.sqrt(exc_var / n), n=n)
