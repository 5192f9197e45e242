"""Stationary max-autoregressive processes of order one.

The forward process evolves by X(t+1) = max(a*X(t), (1-a)*F(t+1)) with
i.i.d. unit-Frechet innovations F and a in [0, 1].  Started from its
stationary law (unit Frechet) the path is stationary, and its time reversal
is again a Markov chain whose transition kernel is available in closed form.
Both kernels have an atom: the forward chain sits on the decayed value a*x
with probability exp(-(1-a)/(a*x)), the reversed chain jumps to y/a with
probability a.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import RngState, _as_integer, frechet_cdf, \
    frechet_quantile, frechet_sample
from .report import EmpiricalReport

__all__ = [
    "Direction",
    "MaxARParams",
    "DiscretePath",
    "StationaryLaw",
    "STATIONARY",
    "simulate_forward",
    "simulate_reversed",
    "reverse_path",
    "kernel_cdf",
    "kernel_sample",
    "kernel_sample_many",
    "bivariate_cdf",
    "equilibrium_check",
]


class Direction(str, Enum):
    FORWARD = "forward"
    REVERSED = "reversed"


@dataclass(frozen=True)
class MaxARParams:
    """Dependence parameter and time direction of a max-AR(1) chain.

    a = 0 is an i.i.d. sequence and a = 1 a constant path; both are their
    own time reversal, so a reversed direction with a in {0, 1} is
    canonicalized to forward with a warning.
    """

    a: float
    direction: Direction = Direction.FORWARD

    def __post_init__(self):
        a = float(self.a) + 0.0  # -0.0 is stored as +0.0
        if not (math.isfinite(a) and 0.0 <= a <= 1.0):
            raise ValueError("a must lie in [0, 1]")
        object.__setattr__(self, "a", a)
        direction = Direction(self.direction)
        if direction is Direction.REVERSED and a in (0.0, 1.0):
            warnings.warn(
                "reversed direction with a in {0, 1} equals the forward chain; "
                "canonicalizing to forward",
                stacklevel=2,
            )
            direction = Direction.FORWARD
        object.__setattr__(self, "direction", direction)


@dataclass(frozen=True)
class StationaryLaw:
    """Stationary marginal of every chain in the family: unit Frechet."""

    def cdf(self, x):
        return frechet_cdf(x, 1.0)

    def pdf(self, x):
        arr = np.asarray(x, dtype=np.float64)
        out = frechet_cdf(arr, 1.0) / arr**2
        return float(out) if arr.ndim == 0 else out

    def quantile(self, p):
        return frechet_quantile(p, 1.0)

    def sample(self, rng: RngState, size: int | None = None):
        return frechet_sample(rng, 1.0, size)


STATIONARY = StationaryLaw()

_RATIO_SLACK = 1e-9
# values per block of the scan's passes and of the path checks: 256 KB of
# float64, which stays in a core's cache while a pass works on it
_BLOCK_VALUES = 1 << 15


@dataclass(frozen=True)
class DiscretePath:
    """Finite window of a simulated chain: values at consecutive integers
    starting at start_index, plus the parameters and (seed, stream) that
    produced it (None for paths assembled from external data).

    The values are read-only.  The constructor copies whatever array it
    is given, so a caller's later writes never reach the path.  The
    package's own paths are not copied: a draw takes the scan's block,
    which nothing else holds, and a reversal or a grid skeleton takes a
    block that nothing can write.
    """

    start_index: int
    values: np.ndarray
    params: MaxARParams
    seed: tuple[int, int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "values",
                           np.array(self.values, dtype=np.float64))
        _check_path(self)

    def __len__(self) -> int:
        return self.values.size

    @property
    def times(self) -> np.ndarray:
        return self.start_index + np.arange(self.values.size)

    def ratios(self) -> np.ndarray:
        if self.values.size < 2:
            raise ValueError("need at least two values to form ratios")
        return self.values[1:] / self.values[:-1]


def _owned_path(start_index, values: np.ndarray, params: MaxARParams,
                seed) -> DiscretePath:
    """DiscretePath over values without the constructor's copy, checked
    the same way; only for a 1-d float64 block that nothing else can
    write."""
    path = object.__new__(DiscretePath)
    for name, value in (("start_index", start_index), ("values", values),
                        ("params", params), ("seed", seed)):
        object.__setattr__(path, name, value)
    _check_path(path)
    return path


def _check_path(path: DiscretePath) -> None:
    """Check a path's start index and values, and make the values
    read-only.

    The values must be a nonempty 1-d array of finite positive numbers
    within the one-step ratio bound of the path's direction: no forward
    ratio below a, no reversed one above 1/a.  The ratios are taken a
    block at a time through one small scratch, so a long path needs no
    temporary of its own size.  A wrong scan shows in this bound.
    """
    start = _as_integer(path.start_index)
    if start is None:
        raise ValueError("start_index must be an integer, "
                         f"got {path.start_index!r}")
    object.__setattr__(path, "start_index", start)
    values = path.values
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a nonempty 1-d array")
    # a NaN makes the min NaN, which fails the comparison
    if not (values.min() > 0 and values.max() < np.inf):
        raise ValueError("path values must be finite and positive")
    values.flags.writeable = False
    a = path.params.a
    if values.size == 1 or a == 0.0:
        return
    forward = path.params.direction is Direction.FORWARD
    pairs = values.size - 1
    scratch = np.empty(min(pairs, _BLOCK_VALUES))
    extreme = a if forward else 1.0 / a
    for lo in range(0, pairs, _BLOCK_VALUES):
        hi = min(lo + _BLOCK_VALUES, pairs)
        ratios = np.divide(values[lo + 1:hi + 1], values[lo:hi],
                           out=scratch[:hi - lo])
        extreme = min(extreme, ratios.min()) if forward \
            else max(extreme, ratios.max())
    if forward and extreme < a * (1.0 - _RATIO_SLACK):
        raise ValueError("forward path violates the one-step lower bound "
                         f"min ratio {extreme!r} < a = {a!r}")
    if not forward and extreme > (1.0 / a) * (1.0 + _RATIO_SLACK):
        raise ValueError("reversed path violates the one-step upper bound "
                         f"max ratio {extreme!r} > 1/a = {1.0 / a!r}")


def _stationary_windows(a: float, width: int, count: int,
                        rng: RngState) -> np.ndarray:
    """count independent stationary forward windows of the given width,
    as a (count, width) array; consumes exactly width * count uniforms.

    Unrolled, the recursion is X(t) = max_k a^(t-k) c_k with c_0 unit
    Frechet and c_k = (1-a) F(k), so it is evaluated as a max-times prefix
    scan: after the pass with step s every value holds the max over its
    last 2s terms, and ceil(log2 width) passes cover the window.  a ** step
    is taken directly, since repeated squaring would compound its error.
    Width-2 windows equal max(a * X(0), (1-a) F(1)) bitwise.

    The scan stops early, at the first pass with a ** step * hi < lo, where
    hi and lo are the largest and smallest c_k of the whole block.  This
    certificate is exact.  Each value only grows from pass to pass, and it
    never exceeds hi, since a rounded p * v is at most v for p <= 1.  So
    every value stays in [lo, hi].  Then every candidate p * x[t-s] of the
    pass, rounded, is at most the rounded p * hi, which is below lo and
    so below x[t], and ``np.maximum`` returns x unchanged.  Later passes
    have smaller p and change nothing either, so the result is bitwise
    the full scan's.  a = 0 runs no pass and a = 1 runs all of them.

    Each pass runs from the top row down, in blocks of rows holding about
    ``_BLOCK_VALUES`` values (one row if a row is longer), so a block is
    still in cache when its maximum is taken.  The block of rows
    [bottom, top) reads rows [bottom - step, top - step), all below top.
    No block of the same pass has written those rows yet, since only the
    rows from top up have been done, so every block reads the values of
    the previous pass, as the whole-array pass does, and the result is
    bitwise the same.  A
    draw holds the block of uniforms, turned into the path in place, and
    one scratch block of at most ``_BLOCK_VALUES`` values (256 KB), or
    one row where a row is longer.
    """
    # row t holds the uniforms of time t across the replicates
    x = rng.uniform(size=width * count).reshape(width, count)
    np.log(x, out=x)
    np.divide(-1.0, x[0], out=x[0])
    np.divide(-(1.0 - a), x[1:], out=x[1:])
    hi, lo = x.max(), x.min()
    rows = max(1, _BLOCK_VALUES // count)
    scratch = np.empty((min(rows, width - 1), count))
    step = 1
    while step < width:
        p = a ** step
        if p * hi < lo:
            break
        for top in range(width, step, -rows):
            bottom = max(step, top - rows)
            shifted = np.multiply(x[bottom - step:top - step], p,
                                  out=scratch[:top - bottom])
            np.maximum(x[bottom:top], shifted, out=x[bottom:top])
        step *= 2
    return x.T


def _check_count(n) -> int:
    """n as an int, refusing every value that is not a positive integer."""
    count = _as_integer(n)
    if count is None or count <= 0:
        raise ValueError("n must be a positive integer")
    return count


def simulate_forward(params: MaxARParams, n: int, rng: RngState,
                     start_index: int = 0) -> DiscretePath:
    """Exact stationary draw of n consecutive values of the forward chain.

    The first value is drawn from the stationary law directly (no burn-in)
    and the path consumes exactly n uniforms in total.  It is evaluated by
    the prefix scan of :func:`_stationary_windows` rather than step by
    step, so an atom equals a * X(t-1) to within a few ulp rather than as
    the literal product.  The scan stops once no later pass can change a
    value, which leaves the path bitwise that of the full scan.  n must be
    a positive integer (a Python or numpy integer, or an integral float);
    anything else, NaN and inf included, raises ValueError.
    """
    forward = MaxARParams(params.a, Direction.FORWARD)
    return _draw_path(forward, n, rng, start_index)


def _draw_path(params: MaxARParams, n, rng: RngState,
               start_index: int) -> DiscretePath:
    """One scan of n stationary forward values, read forwards or, for a
    reversed chain, backwards, and checked once against the one-step bound
    of params' direction."""
    values = _stationary_windows(params.a, _check_count(n), 1, rng)[0]
    if params.direction is Direction.REVERSED:
        values = values[::-1]
    return _owned_path(start_index, values, params, (rng.seed, rng.stream))


def reverse_path(path: DiscretePath) -> DiscretePath:
    """Same window read backwards, with the direction flag flipped."""
    if path.params.direction is Direction.FORWARD:
        flipped = MaxARParams(path.params.a, Direction.REVERSED)
    else:
        flipped = MaxARParams(path.params.a, Direction.FORWARD)
    return _owned_path(path.start_index, path.values[::-1], flipped,
                       path.seed)


def simulate_reversed(params: MaxARParams, n: int, rng: RngState,
                      start_index: int = 0) -> DiscretePath:
    """Exact stationary draw of the time-reversed chain.

    Simulated by reversing the index order of a forward draw, which is exact
    because stationarity makes the reversed window a stationary Markov path
    for the dual kernel; the values are bitwise those of
    ``reverse_path(simulate_forward(...))`` on the same stream, built as one
    path.  For a in {0, 1} the law is symmetric and the result is the
    canonical forward path.  n is checked as in :func:`simulate_forward`.
    """
    canonical = MaxARParams(params.a, params.direction)
    return _draw_path(canonical, n, rng, start_index)


def _check_positive(name: str, value: float) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive")
    return value


def kernel_cdf(params: MaxARParams, x: float, y: float) -> float:
    """One-step transition CDF in closed form.

    Forward: probability that the next value is <= y given the current value
    x; equals 0 for y < a*x and exp(-(1-a)/y) on y >= a*x (the atom at a*x
    is included at the jump).  Reversed: the roles follow the dual kernel,
    current value y and next value x, giving (1-a)*exp(a/y - 1/x) for
    x < y/a and 1 beyond the atom at y/a.
    """
    x = _check_positive("x", x)
    y = _check_positive("y", y)
    a = params.a
    if params.direction is Direction.FORWARD:
        if y < a * x:
            return 0.0
        return math.exp(-(1.0 - a) / y)
    # reversed: a in (0, 1) after canonicalization
    if x >= y / a:
        return 1.0
    return (1.0 - a) * math.exp(a / y - 1.0 / x)


def kernel_sample(params: MaxARParams, current: float, rng: RngState) -> float:
    """Draw the next value of the chain by inverting the transition CDF.

    A single uniform decides both the atom and the continuous branch, so the
    draw count is one regardless of the outcome.  The draw goes through
    :func:`kernel_sample_many`, so one-at-a-time and block draws on the same
    stream are bitwise equal.
    """
    current = _check_positive("current", current)
    return float(kernel_sample_many(params, np.array([current]), rng)[0])


def kernel_sample_many(params: MaxARParams, current: np.ndarray,
                       rng: RngState) -> np.ndarray:
    """Vectorized :func:`kernel_sample`: one uniform per entry, same
    inverse-transform map applied elementwise."""
    current = np.asarray(current, dtype=np.float64)
    if not np.all(np.isfinite(current)) or np.any(current <= 0):
        raise ValueError("current values must be finite and positive")
    a = params.a
    u = rng.uniform(size=current.size).reshape(current.shape)
    if params.direction is Direction.FORWARD:
        if a == 0.0:
            return -1.0 / np.log(u)
        with np.errstate(divide="ignore", over="ignore"):  # tiny a: no atom
            atom = np.exp(-(1.0 - a) / (a * current))
        continuous = -(1.0 - a) / np.log(u)
        return np.where(u <= atom, a * current, continuous)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        hold = current / a
        continuous = 1.0 / (a / current - np.log(u / (1.0 - a)))
    return np.where(u >= 1.0 - a, hold, continuous)


def bivariate_cdf(params: MaxARParams, x: float, y: float) -> float:
    """Joint CDF of two consecutive stationary values.

    Forward: P[X(t) <= x, X(t+1) <= y] = exp(-max(1/x, a/y) - (1-a)/y).
    Reversed: consecutive reversed values are the forward pair read
    backwards, so the same expression applies with arguments swapped.
    """
    x = _check_positive("x", x)
    y = _check_positive("y", y)
    a = params.a
    if params.direction is Direction.REVERSED:
        x, y = y, x
    return math.exp(-max(1.0 / x, a / y) - (1.0 - a) / y)


def _pair_cdf_errors(params: MaxARParams, starts: np.ndarray,
                     nexts: np.ndarray, grid) -> dict:
    """{(u, v): |empirical - closed-form joint CDF|} of the pairs
    (starts, nexts) at every point of grid x grid."""
    return {(u, v): abs(float(np.mean((starts <= u) & (nexts <= v)))
                        - bivariate_cdf(params, u, v))
            for u in grid for v in grid}


def equilibrium_check(a: float, n: int, rng: RngState,
                      grid=(0.5, 1.0, 2.0), tolerance: float = 0.01) -> EmpiricalReport:
    """Compare empirical joint CDFs of consecutive pairs, in both time
    directions, against the closed-form bivariate CDF on a grid.

    Independent stationary pairs are used for each direction so the
    empirical CDF error bound sqrt(1/4n) applies exactly.
    """
    count = _as_integer(n)
    if count is None or count < 1000:
        raise ValueError(f"n must be an integer of at least 1000, got {n!r}")
    n = count
    if not 0.0 < a < 1.0:
        raise ValueError("the two-sided comparison needs a strictly inside (0, 1)")
    params = MaxARParams(a, Direction.FORWARD)
    reversed_params = MaxARParams(a, Direction.REVERSED)
    report = EmpiricalReport(params={"a": a, "n": n, "grid": list(grid),
                                     "tolerance": tolerance})
    report.seeds.append((rng.seed, rng.stream))

    fwd_x, fwd_y = _stationary_windows(a, 2, n, rng).T
    # independent draw through the dual kernel: start from the stationary
    # law and step backwards; detailed balance says the pair must have the
    # forward joint law with the coordinates swapped
    rev_start = frechet_sample(rng, size=n)
    rev_next = kernel_sample_many(reversed_params, rev_start, rng)
    backward = _pair_cdf_errors(reversed_params, rev_start, rev_next, grid)
    for (u, v), err in _pair_cdf_errors(params, fwd_x, fwd_y, grid).items():
        report.add(f"forward_pair_cdf_{u}_{v}", err, tolerance,
                   err < tolerance,
                   "closed-form joint CDF of consecutive stationary values")
        report.add(f"reversed_pair_cdf_{u}_{v}", backward[u, v], tolerance,
                   backward[u, v] < tolerance,
                   "detailed-balance identity linking the two kernels")
    return report
