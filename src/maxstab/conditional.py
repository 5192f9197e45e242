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
from functools import lru_cache

import numpy as np

from .distributions import RngState
from .report import EmpiricalReport
from .spectral import GeometricMixing, _decay_profile, _onset_rows

__all__ = [
    "ConditionalQuery",
    "ConditionalFactors",
    "McConditionalEstimate",
    "conditional_factors",
    "conditional_cdf",
    "conditional_cdf_mc",
    "independence_test",
]

_MAX_TOL = 1e-4


@dataclass(frozen=True)
class ConditionalQuery:
    """Conditioning pair (index, observed level) and target pairs
    (index, level); target indices must be distinct."""

    conditioning: tuple[int, float]
    targets: tuple[tuple[int, float], ...]

    def __post_init__(self):
        t0, z0 = int(self.conditioning[0]), float(self.conditioning[1])
        if not (math.isfinite(z0) and z0 > 0):
            raise ValueError("conditioning level must be finite and positive")
        object.__setattr__(self, "conditioning", (t0, z0))
        targets = tuple((int(t), float(z)) for t, z in self.targets)
        if not targets:
            raise ValueError("at least one target is required")
        if len({t for t, _ in targets}) != len(targets):
            raise ValueError("target indices must be distinct")
        for _, z in targets:
            if not (math.isfinite(z) and z > 0):
                raise ValueError("target levels must be finite and positive")
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


def _check_a(a: float) -> float:
    a = float(a)
    if not (math.isfinite(a) and 0.0 <= a <= 1.0):
        raise ValueError("a must lie in [0, 1]")
    return a


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
    a = _check_a(a)
    ts, zs = _query_arrays(query)
    weights, rows = _onset_rows(a, ts)
    indicator, excess = _factor_terms(rows, zs)
    return ConditionalFactors(float(weights @ indicator), float(weights @ excess))


def conditional_cdf(query: ConditionalQuery, a: float,
                    tol: float = 1e-10) -> float:
    """P[eta(t_i) <= z_i for all targets | eta(t) = z] for the stationary
    process with decay rate a.

    ``tol`` has no effect: the distinct-time rows commit no truncation
    error, so there is no budget to spend.  It is still accepted, and
    checked to lie in (0, 1e-4], because query files carry it.
    """
    if not (0.0 < float(tol) <= _MAX_TOL):
        raise ValueError("tol must lie in (0, 1e-4]")
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
    (n, len(times)) array.  Randomness is the onset index only."""
    if a == 1.0:
        return np.ones((n, times.size))
    if mixing is None:
        # a ratio of at least a keeps every 1/mass-weighted row bounded in
        # the far past, so the terms have finite variance
        mixing = GeometricMixing(max(0.5, a))
    onsets = mixing.sample(rng, size=n)
    if isinstance(mixing, GeometricMixing):
        masses = mixing.center_mass * mixing.ratio ** np.abs(onsets)
    else:
        table = dict(mixing.weights)
        masses = np.array([table[int(m)] for m in onsets])
    return (1.0 - a) * _decay_profile(a, times, onsets) / masses[:, None]


def conditional_cdf_mc(query: ConditionalQuery, a: float, n: int,
                       rng: RngState, mixing=None) -> McConditionalEstimate:
    """Monte Carlo version of :func:`conditional_cdf` over spectral draws.

    Estimates both factors from the same draws and propagates their
    standard errors (including the covariance) through the product.
    Onsets are drawn from ``mixing``, by default ``GeometricMixing(max(0.5,
    a))``: under a ratio at or below a**2 the 1/mass weights grow fast
    enough in the far past to make the variance infinite and the stderr
    meaningless.
    """
    a = _check_a(a)
    n = int(n)
    if n < 1000:
        raise ValueError("n must be at least 1000")
    ts, zs = _query_arrays(query)
    ind_sample, exc_sample = _factor_terms(
        _spectral_matrix(a, ts, n, rng, mixing), zs)

    ind_mean = float(ind_sample.mean())
    exc_mean = float(exc_sample.mean())
    ind_var = float(ind_sample.var(ddof=1))
    exc_var = float(exc_sample.var(ddof=1))
    cov = float(np.cov(ind_sample, exc_sample, ddof=1)[0, 1])
    value = ind_mean * math.exp(-exc_mean)
    grad_sq = (ind_var + ind_mean**2 * exc_var - 2.0 * ind_mean * cov)
    stderr = math.exp(-exc_mean) * math.sqrt(max(grad_sq, 0.0) / n)
    return McConditionalEstimate(
        value=value, stderr=stderr,
        indicator_moment=ind_mean, excess_moment=exc_mean,
        indicator_stderr=math.sqrt(ind_var / n),
        excess_stderr=math.sqrt(exc_var / n), n=n)


def _grid_labels(x: np.ndarray, grid: int) -> np.ndarray:
    """Bin label of each value on the quantile grid: label <= k exactly
    when x <= q_k, ties included."""
    qs = np.arange(1, grid + 1) / (grid + 1.0)
    return np.searchsorted(np.quantile(x, qs), x, side="left")


def _joint_grid_statistic(u: np.ndarray, v: np.ndarray, grid: int) -> float:
    """Sup over a quantile grid of |joint empirical CDF - product of
    empirical marginals|.  A pure rank statistic for continuous data.

    The joint and marginal CDF counts are the cumulative sums of the
    (grid+1)^2 table of bin-label pairs."""
    size = grid + 1
    cells = _grid_labels(u, grid) * size + _grid_labels(v, grid)
    table = np.bincount(cells, minlength=size * size).reshape(size, size)
    cdf = table.cumsum(axis=0).cumsum(axis=1)
    n = u.size
    product = np.outer(cdf[:grid, grid] / n, cdf[grid, :grid] / n)
    return float(np.abs(cdf[:grid, :grid] / n - product).max())


_NULL_BLOCK = 2000


def _null_statistics(n: int, grid: int, n_null: int) -> np.ndarray:
    """n_null draws of the grid statistic for n i.i.d. independent pairs.

    The statistic is a function of the table of bin-label pairs.  Under
    independence with continuous marginals both label vectors have the
    bin counts of n distinct values, and their pairing is a uniform
    permutation, so the table is uniform among the tables with those
    margins.  A null table is drawn row by row, each row a multivariate
    hypergeometric draw from the column counts still unassigned, taken one
    cell at a time.  Only the grid x grid corner enters the statistic, so
    the last row and column are never drawn.  The draws use a fixed
    internal generator, so they depend on (n, grid, n_null) alone.
    """
    gen = np.random.Generator(np.random.Philox(key=np.uint64(0x9E3779B97F4A7C15)))
    margin = np.bincount(_grid_labels(np.arange(n, dtype=np.float64), grid),
                         minlength=grid + 1)
    marginal = margin[:grid].cumsum() / n
    product = np.outer(marginal, marginal)
    stats = np.empty(n_null)
    for first in range(0, n_null, _NULL_BLOCK):
        block = min(_NULL_BLOCK, n_null - first)
        # one column per draw: col_left[j] is column j's unassigned count
        col_left = np.repeat(margin[:, None], block, axis=1)
        col_used = np.zeros((grid, block), dtype=np.int64)
        worst = np.zeros(block)
        for r in range(grid):
            row_left = np.full(block, margin[r])
            # columns right of j are untouched while column j is drawn
            rest = col_left[::-1].cumsum(axis=0)[::-1]
            for j in range(grid):
                cell = gen.hypergeometric(col_left[j], rest[j + 1], row_left)
                col_left[j] -= cell
                col_used[j] += cell
                row_left -= cell
            col_left[grid] -= row_left
            joint = col_used.cumsum(axis=0) / n
            np.maximum(worst, np.abs(joint - product[r][:, None]).max(axis=0),
                       out=worst)
        stats[first:first + block] = worst
    return stats


@lru_cache(maxsize=32)
def _null_quantile(n: int, grid: int, n_null: int, level: float) -> float:
    """Null quantile of the grid statistic, computed once per process for
    each (n, grid, n_null, level)."""
    return float(np.quantile(_null_statistics(n, grid, n_null), 1.0 - level))


def independence_test(pairs, level: float = 0.01, grid: int = 20,
                      n_null: int = 2000) -> EmpiricalReport:
    """Test whether the two coordinates of i.i.d. pairs are independent.

    Compares the joint empirical CDF with the product of the marginal
    empirical CDFs on a quantile grid and calibrates the sup distance
    against its null law.  The statistic depends only on the table of
    bin-label pairs, and for continuous data the null law of that table is
    exact: uniform among the tables with the margins of n distinct values.
    The threshold is the (1 - level) quantile of ``n_null`` (default 2000)
    such tables.  Constant coordinates make the test inapplicable and are
    flagged rather than decided.
    """
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("pairs must be an (n, 2) array")
    if arr.shape[0] < 1000:
        raise ValueError("need at least 1000 pairs")
    if not np.all(np.isfinite(arr)):
        raise ValueError("pairs must be finite")
    if not (0.0 < level < 0.5):
        raise ValueError("level must lie in (0, 0.5)")
    u, v = arr[:, 0], arr[:, 1]
    report = EmpiricalReport(params={"n": int(arr.shape[0]), "level": level,
                                     "grid": grid, "n_null": n_null})
    if u.min() == u.max() or v.min() == v.max():
        report.add("independence_sup_distance", math.nan, math.nan, None,
                   "not applicable: a coordinate is constant")
        return report
    stat = _joint_grid_statistic(u, v, grid)
    threshold = _null_quantile(arr.shape[0], grid, n_null, level)
    report.add("independence_sup_distance", stat, threshold, stat <= threshold,
               "joint empirical CDF vs product of marginals on a rank grid")
    return report
