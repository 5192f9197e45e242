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

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _EXPORTS
from .distributions import _SPLIT_WORDS, RngState, _array, _both, \
    _check_positive_array, _integer
from .law import Direction, MaxARParams

__all__ = list(_EXPORTS["maxar"])


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
                           _array("values", self.values, np.array))
        _check_path(self)

    def __len__(self) -> int:
        return self.values.size

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


def _halves(size: int, work) -> tuple:
    """(work(0, size),), or from ``_SPLIT_WORDS`` values on work on the
    two halves of [0, size), run at once."""
    if size < _SPLIT_WORDS:
        return (work(0, size),)
    return _both(partial(work, 0, size // 2), partial(work, size // 2, size))


def _check_path(path: DiscretePath) -> None:
    """Check a path's start index and values, and make the values
    read-only.

    The values must be a nonempty 1-d array of finite positive numbers
    within the one-step ratio bound of the path's direction: no forward
    ratio below a, no reversed one above 1/a.  The ratios are taken a
    block at a time through one small scratch, so a long path needs no
    temporary of its own size.  A wrong scan shows in this bound.
    """
    object.__setattr__(path, "start_index", _integer(
        path.start_index, "start_index must be an integer"))
    values = path.values
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a nonempty 1-d array")
    lows, highs = zip(*_halves(values.size, lambda lo, hi: (
        values[lo:hi].min(), values[lo:hi].max())))
    # a NaN makes the min NaN, which fails the comparison
    if not (np.min(lows) > 0 and np.max(highs) < np.inf):
        raise ValueError("path values must be finite and positive")
    values.flags.writeable = False
    a = path.params.a
    if values.size == 1 or a == 0.0:
        return
    forward = path.params.direction is Direction.FORWARD

    def ratio_extreme(first: int, last: int):  # over pairs [first, last)
        scratch = np.empty(min(last - first, _BLOCK_VALUES))
        extreme = a if forward else 1.0 / a
        for lo in range(first, last, _BLOCK_VALUES):
            hi = min(lo + _BLOCK_VALUES, last)
            ratios = np.divide(values[lo + 1:hi + 1], values[lo:hi],
                               out=scratch[:hi - lo])
            extreme = min(extreme, ratios.min()) if forward \
                else max(extreme, ratios.max())
        return extreme
    extremes = _halves(values.size - 1, ratio_extreme)
    extreme = min(extremes) if forward else max(extremes)
    if forward and extreme < a * (1.0 - _RATIO_SLACK):
        raise ValueError("forward path violates the one-step lower bound "
                         f"min ratio {extreme!r} < a = {a!r}")
    if not forward and extreme > (1.0 / a) * (1.0 + _RATIO_SLACK):
        raise ValueError("reversed path violates the one-step upper bound "
                         f"max ratio {extreme!r} > 1/a = {1.0 / a!r}")


def _pass(x, p: float, bottom: int, top: int, source, shift: int, scratch):
    """Rows t of x in [bottom, top) take max(x[t], p * source[t - shift]),
    from the top row down, a block of scratch's rows at a time."""
    for hi in range(top, bottom, -len(scratch)):
        lo = max(bottom, hi - len(scratch))
        shifted = np.multiply(source[lo - shift:hi - shift], p,
                              out=scratch[:hi - lo])
        np.maximum(x[lo:hi], shifted, out=x[lo:hi])


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
    bitwise the same.

    From ``_SPLIT_WORDS`` values on, the innovations are made on two
    halves of the block at once, and so is each pass with step below
    mid = width // 2: rows [step, mid) and [mid, width).  The upper half
    reads rows [mid - step, mid), which the lower half writes, from a
    copy taken before the pass.  A draw holds the block of uniforms,
    turned into the path in place, two scratch blocks of at most
    ``_BLOCK_VALUES`` values (256 KB) or one row each, and the
    min(step, mid)-row edge copy of a split pass.
    """
    flat = rng.uniform(size=width * count)

    def innovations(first: int, last: int):
        part = flat[first:last]  # its first start values are in row 0
        start = min(max(count - first, 0), last - first)
        np.log(part, out=part)
        np.divide(-1.0, part[:start], out=part[:start])
        np.divide(-(1.0 - a), part[start:], out=part[start:])
        return part.max(), part.min()

    highs, lows = zip(*_halves(flat.size, innovations))
    hi, lo = max(highs), min(lows)
    # row t holds the values of time t across the replicates
    x = flat.reshape(width, count)
    rows = max(1, _BLOCK_VALUES // count)
    scratch = np.empty((2, min(rows, width - 1), count))
    mid = width // 2 if flat.size >= _SPLIT_WORDS else 0
    step = 1
    while step < width:
        p = a ** step
        if p * hi < lo:
            break
        if step < mid:  # the upper half reads rows the lower one writes
            edge = x[mid - step:mid].copy()
            _both(partial(_pass, x, p, step, mid, x, step, scratch[0]),
                  lambda: (_pass(x, p, mid + step, width, x, step, scratch[1]),
                           _pass(x, p, mid, mid + step, edge, mid,
                                 scratch[1])))
        else:
            _pass(x, p, step, width, x, step, scratch[0])
        step *= 2
    return x.T


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
    n = _integer(n, "n must be a positive integer below 2**63", 1, 2**63)
    values = _stationary_windows(params.a, n, 1, rng)[0]
    if params.direction is Direction.REVERSED:
        values = values[::-1]
    return _owned_path(start_index, values, params, (rng.seed, rng.stream))


def reverse_path(path: DiscretePath) -> DiscretePath:
    """Same window read backwards, with the reversed params."""
    return _owned_path(path.start_index, path.values[::-1],
                       path.params.reversed(), path.seed)


def simulate_reversed(params: MaxARParams, n: int, rng: RngState,
                      start_index: int = 0) -> DiscretePath:
    """Exact stationary draw of the time-reversed chain.

    Simulated by reversing the index order of a forward draw, which is exact
    because stationarity makes the reversed window a stationary Markov path
    for the dual kernel; the values are bitwise those of
    ``reverse_path(simulate_forward(...))`` on the same stream, built as one
    path.  Only params.a is read; a in {0, 1} is symmetric and gives the
    forward path.  n is checked as in :func:`simulate_forward`.
    """
    return _draw_path(MaxARParams(params.a).reversed(), n, rng, start_index)


def kernel_sample_many(params: MaxARParams, current: np.ndarray,
                       rng: RngState) -> np.ndarray:
    """Draw the next value of the chain from each current value by
    inverting the transition CDF.

    One uniform per entry decides both the atom and the continuous branch,
    so the draw count is one regardless of the outcome.
    """
    current = _check_positive_array("current values", current)
    a = params.a
    u = rng.uniform(size=current.size).reshape(current.shape)
    if params.direction is Direction.FORWARD:
        with np.errstate(divide="ignore", over="ignore"):  # small a: no atom
            atom = np.exp(-(1.0 - a) / (a * current))
        continuous = -(1.0 - a) / np.log(u)
        return np.where(u <= atom, a * current, continuous)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        hold = current / a
        continuous = 1.0 / (a / current - np.log(u / (1.0 - a)))
    return np.where(u >= 1.0 - a, hold, continuous)

