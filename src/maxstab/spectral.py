"""Spectral representations of the max-AR(1) family.

A max-stable process on the integers can be written as the pointwise max of
points of a Poisson process scaled by i.i.d. copies of a nonnegative
spectral process Y with unit means.  Three samplers are provided:

* ``constant``: Y is identically 1 (fully dependent process, a = 1),
* ``dirac``: Y is a single spike at a random index (independence, a = 0),
* ``decay``: Y decays geometrically from a random onset index, which is a
  spectral process of the stationary max-AR(1) chain for that decay rate.

The spike/onset index is drawn from a mixing mass function on the integers;
the 1/mass weight makes every coordinate mean exactly one when the mass
charges all of them.  The module also evaluates the exponent measure of
rectangle events in closed form and builds exact finite-window draws of the
max-stable process by a stopped decreasing-mark construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _EXPORTS
from .distributions import RngState, _array, _check_count, \
    _check_positive_array, _index, _integer, _pairs
from .law import _check_positive, _check_unit, _number

__all__ = list(_EXPORTS["spectral"])


class SpectralBoundError(RuntimeError):
    """A spectral draw exceeded the bound certified by the caller."""


@dataclass(frozen=True)
class IndexedPath:
    """Finite nonnegative function on consecutive integers."""

    start: int
    values: np.ndarray

    def __post_init__(self):
        values = _array("values", self.values, np.array)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a nonempty 1-d array")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("values must be finite and nonnegative")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "start", _index("start", self.start))

    def value_at(self, t: int) -> float:
        k = _index("t", t) - self.start
        if not 0 <= k < self.values.size:
            raise ValueError(f"t={t} outside [{self.start}, "
                             f"{self.start + self.values.size - 1}]")
        return float(self.values[k])


class _Mixing:
    """pmf and sampler of a mixing law, read off its array maps."""

    def pmf(self, n):
        """Mass at the integer n (a float) or at each integer of an array,
        both by the same array path, so they agree bit for bit.  An index
        that _index refuses, a uint64 one included, raises ValueError."""
        arr = np.asarray(n)
        if arr.dtype.kind != "i":
            for k in arr.ravel().tolist():
                _index("n", k)
        masses = self._masses(np.atleast_1d(np.asarray(arr, dtype=np.int64)))
        return float(masses[0]) if np.ndim(n) == 0 else masses

    def sample(self, rng: RngState, size: int | None = None):
        """Inverse transform using exactly one uniform per draw."""
        out = self._quantile(np.atleast_1d(rng.uniform(size)))
        return int(out[0]) if size is None else out


@dataclass(frozen=True)
class GeometricMixing(_Mixing):
    """Two-sided geometric mass on all integers, p(n) proportional to
    ratio**|n|.  Strictly positive everywhere with closed-form tails."""

    ratio: float = 0.5

    def __post_init__(self):
        if not (0.0 < _number("ratio", self.ratio) < 1.0):
            raise ValueError("ratio must lie strictly inside (0, 1)")

    @property
    def center_mass(self) -> float:
        return (1.0 - self.ratio) / (1.0 + self.ratio)

    def _masses(self, n: np.ndarray) -> np.ndarray:
        # |n| as a float, the exponent power takes, so |-2**63| is no wrap
        return self.center_mass * self.ratio ** np.abs(n, dtype=np.float64)

    def _quantile(self, u: np.ndarray) -> np.ndarray:
        """The integer each uniform in the 1-d array ``u`` maps to; the
        (zero / sign / magnitude) pieces have the lengths p(n) exactly."""
        c = self.center_mass
        out = np.zeros(u.size, dtype=np.int64)
        active = u > c
        if np.any(active):
            w = (u[active] - c) / (1.0 - c)
            sign = np.where(w < 0.5, 1, -1)
            w_mag = np.where(w < 0.5, 2.0 * w, 2.0 * w - 1.0)
            with np.errstate(divide="ignore"):
                k = np.ceil(np.log1p(-w_mag) / math.log(self.ratio))
            k = np.maximum(k, 1.0).astype(np.int64)
            out[active] = sign * k
        return out


@dataclass(frozen=True)
class FiniteMixing(_Mixing):
    """Strictly positive mass on a finite set of integers (normalized)."""

    weights: tuple[tuple[int, float], ...]

    def __post_init__(self):
        items = [(_index("weights", n), _number("weights", w))
                 for n, w in _pairs("each weight", self.weights.items()
                                    if isinstance(self.weights, dict)
                                    else self.weights)]
        if not items:
            raise ValueError("weights must be nonempty")
        items.sort()
        indices = [n for n, _ in items]
        if len(set(indices)) != len(indices):
            raise ValueError("duplicate indices in weights")
        total = sum(w for _, w in items)
        if not math.isfinite(total) or total <= 0 or any(w <= 0 for _, w in items):
            raise ValueError("weights must be positive with a positive finite sum")
        object.__setattr__(
            self, "weights", tuple((n, w / total) for n, w in items))
        # the arrays behind pmf and sampling, built once
        masses = np.array([w for _, w in self.weights])
        object.__setattr__(self, "_support", np.array(indices, dtype=np.int64))
        object.__setattr__(self, "_mass_array", masses)
        object.__setattr__(self, "_edges", np.append(np.cumsum(masses)[:-1], 1.0))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.weights)

    def _masses(self, n: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._support, n)
        return np.where(self._support.take(idx, mode="clip") == n,
                        self._mass_array.take(idx, mode="clip"), 0.0)

    def _bins(self, u: np.ndarray) -> np.ndarray:
        """Position in the support of the integer each uniform maps to."""
        return np.searchsorted(self._edges, u, side="left")

    def _quantile(self, u: np.ndarray) -> np.ndarray:
        """The integer each uniform in the 1-d array ``u`` maps to."""
        return self._support[self._bins(u)]


class SamplerKind(str, Enum):
    CONSTANT = "constant"
    DIRAC = "dirac"
    DECAY = "decay"


@dataclass(frozen=True)
class SpectralSampler:
    """Description of a spectral process on an inclusive integer window."""

    kind: SamplerKind
    window: tuple[int, int]
    a: float | None = None
    mixing: GeometricMixing | FiniteMixing | None = None

    def __post_init__(self):
        lo, hi = (_index("window", end)
                  for end in _pairs("window", [self.window])[0])
        if lo > hi:
            raise ValueError("window must be a nonempty integer interval")
        # a finite mixing's support table holds one window row per onset
        size = (hi - lo + 1) * (len(self.mixing.weights) if isinstance(
            self.mixing, FiniteMixing) else 1)
        _check_count(size, f"the sampler's table would hold {size:,} values,",
                     "use a narrower window or a smaller mixing support")
        object.__setattr__(self, "window", (lo, hi))
        kind = SamplerKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is SamplerKind.CONSTANT:
            if self.a is not None or self.mixing is not None:
                raise ValueError("constant sampler takes no parameters")
            return
        mixing = self.mixing if self.mixing is not None else GeometricMixing()
        object.__setattr__(self, "mixing", mixing)
        if kind is SamplerKind.DIRAC:
            if self.a is not None:
                raise ValueError("dirac sampler has no decay parameter")
            return
        a = _number("a", self.a) if self.a is not None else None
        if a is None or not (0.0 < a < 1.0):
            raise ValueError("decay sampler needs a strictly inside (0, 1)")
        object.__setattr__(self, "a", a)

    @classmethod
    def constant(cls, window) -> "SpectralSampler":
        return cls(SamplerKind.CONSTANT, window)

    @classmethod
    def dirac(cls, window, mixing=None) -> "SpectralSampler":
        return cls(SamplerKind.DIRAC, window, mixing=mixing)

    @classmethod
    def decay(cls, a: float, window, mixing=None) -> "SpectralSampler":
        return cls(SamplerKind.DECAY, window, a=a, mixing=mixing)

    @property
    def length(self) -> int:
        return self.window[1] - self.window[0] + 1


def _spectral_rows(sampler: SpectralSampler, onsets) -> np.ndarray:
    """Window values of the dirac or decay spectral process, 1/mass weight
    included, one row per spike or onset index n.

    A decay row starts at (1-a) a^(max(lo,n)-n) / pmf(n) and is cascaded
    by ``np.multiply.accumulate``, which multiplies in sequence, so
    Y(t+1) == a * Y(t) holds exactly.  A mass of 0 gives infinite values.
    """
    lo = sampler.window[0]
    onsets = np.asarray(onsets, dtype=np.int64)
    cols = np.arange(sampler.length)
    masses = sampler.mixing.pmf(onsets)
    with np.errstate(divide="ignore", over="ignore"):
        if sampler.kind is SamplerKind.DIRAC:
            return np.where(cols == (onsets - lo)[:, None],
                            (1.0 / masses)[:, None], 0.0)
        a = sampler.a
        levels = (1.0 - a) * a ** np.maximum(lo - onsets, 0) / masses
    first = np.maximum(onsets - lo, 0)[:, None]
    before = cols < first
    factors = np.where(cols == first, levels[:, None], a)
    factors[before] = 1.0
    rows = np.multiply.accumulate(factors, axis=1)
    rows[before] = 0.0
    return rows


@functools.lru_cache(maxsize=32)
def _support_rows(sampler: SpectralSampler) -> np.ndarray:
    """Read-only :func:`_spectral_rows` at every support point of the
    sampler's finite mixing, in support order, built once per sampler."""
    rows = _spectral_rows(sampler, sampler.mixing._support)
    rows.flags.writeable = False
    return rows


def _window_means(sampler: SpectralSampler) -> np.ndarray:
    """E[Y(t)] at each window coordinate: 1 when the mixing charges all
    integers (the shapes (1-a) a^(t-n) over onsets n <= t sum to 1)."""
    mixing = sampler.mixing
    if sampler.kind is SamplerKind.CONSTANT or isinstance(mixing, GeometricMixing):
        return np.ones(sampler.length)
    return mixing.pmf(mixing._support) @ _support_rows(sampler)


def spectral_mean(sampler: SpectralSampler, t: int) -> float:
    """E[Y(t)], summed exactly over the mixing mass.

    Equals 1 for every t when the mixing charges all integers; for finite
    mixing it is the exact partial sum, which the stopped max-stable
    construction uses as the marginal Frechet scale at t.
    """
    lo, hi = sampler.window
    t = _index("t", t)
    if not lo <= t <= hi:
        raise ValueError(f"t={t} outside the sampler window {sampler.window}")
    return float(_window_means(sampler)[t - lo])


def spectral_bound(sampler: SpectralSampler) -> float:
    """Supremum of Y over the window across all realizations: the largest
    row value at the finite mixing's support up to the window's end, or
    at the window's ends under geometric mixing, where an earlier onset's
    row is at most max(a/ratio, a*ratio) times the next one's.  Infinite
    for the decay kind under geometric mixing when a >= ratio, as far-past
    onsets then carry more decayed value than their probability weight
    withdraws, and when the mass at a window end underflows to 0.
    """
    mixing = sampler.mixing
    if sampler.kind is SamplerKind.CONSTANT:
        return 1.0
    if isinstance(mixing, FiniteMixing):
        # rows of onsets past the window's end are 0
        return float(_support_rows(sampler).max(initial=0.0))
    if sampler.kind is SamplerKind.DECAY and sampler.a >= mixing.ratio:
        return math.inf
    return float(_spectral_rows(sampler, sampler.window).max(initial=0.0))


@dataclass(frozen=True)
class ExponentFunctional:
    """Exponent measure of the process with decay rate a, evaluated on
    rectangle complements.

    ``shifts`` restricts the onset sum to a finite index set, matching a
    finite mixing mass; None means all integers, in which case the infinite
    onset sum is evaluated exactly from one weighted row per distinct
    query time (see :func:`_onset_rows`).
    """

    a: float
    shifts: tuple[int, ...] | None = None

    def __post_init__(self):
        a = _check_unit("a", self.a)
        object.__setattr__(self, "a", a)
        if self.shifts is not None:
            shifts = tuple(sorted(_index("shifts", n) for n in
                                  _number("shifts", self.shifts, tuple)))
            if not shifts:
                raise ValueError("shifts must be nonempty when given")
            if a == 1.0:
                raise ValueError("a = 1 admits no onset restriction")
            object.__setattr__(self, "shifts", shifts)


def _check_points(points) -> tuple[np.ndarray, np.ndarray]:
    pts = _pairs("each point", points)
    if not pts:
        raise ValueError("points must be nonempty")
    t = np.array([_index("points", t) for t, _ in pts], dtype=np.int64)
    z = _check_positive_array("levels", [_number("levels", z) for _, z in pts])
    return t, z


def _span(start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """end - start of int64 arrays, read in uint64 so that a span past
    int64 does not wrap: exact wherever end >= start."""
    return end.view(np.uint64) - start.view(np.uint64)


def _decay_profile(a: float, times: np.ndarray, onsets) -> np.ndarray:
    """The decay shape a^(t-n) on t >= n and 0 before, one row per onset n
    and one column per time t; times may also hold one row per time and
    one column per onset."""
    # built one row per time, so each step runs along the onsets, and read
    # back transposed
    t = times.reshape(len(times), -1)
    n = np.asarray(onsets, dtype=np.int64)[None, :]
    charged = t >= n
    # a^span past 2**63 is 1 at a = 1 and underflows to 0 below; an entry
    # before its onset takes the cheap a^0 and is then set to 0
    span = np.where(charged, _span(n, t), 0).astype(np.float64)
    return np.where(charged, a ** span, 0.0).T


def _onset_rows(a: float, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights and decay rows at the distinct times that stand for every
    integer onset.

    An onset n in (s', s] between consecutive distinct times s' < s gives
    the row at s scaled by (1-a) a^(s-n); those scales sum to 1 - a^(s-s'),
    and over all onsets n <= min(times) to 1.  Any onset sum of a
    functional that is homogeneous of degree one in the row is therefore
    the weighted sum over these rows, with a = 0 and a = 1 included.
    """
    # np.unique would import numpy.ma; sorting and masking selects the
    # same values
    ordered = np.sort(times)
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    distinct = ordered[keep]
    weights = np.ones(distinct.size)
    with np.errstate(divide="ignore"):  # a = 0: log is -inf, weight 1
        # expm1 keeps 1 - a^gap accurate to a few ulp as a nears 1
        weights[1:] = -np.expm1(_span(distinct[:-1], distinct[1:])
                                * np.log(a))
    return weights, _decay_profile(a, times, distinct)


def exponent_rectangle(functional: ExponentFunctional, points) -> float:
    """Exponent measure of {f : f(t_i) > z_i for some i}.

    The negative log of P[eta(t_i) <= z_i for all i] for the associated
    max-stable process.  Homogeneous of degree -1 in the levels.
    """
    t, z = _check_points(points)
    a = functional.a
    # a level near 0 overflows its quotients to the limit inf
    if functional.shifts is not None:
        shapes = (1.0 - a) * _decay_profile(a, t, functional.shifts)
        with np.errstate(over="ignore"):
            return float((shapes / z).max(axis=1).sum())
    weights, rows = _onset_rows(a, t)
    with np.errstate(over="ignore"):
        terms = (rows / z).max(axis=1)
    terms[weights == 0.0] = 0.0  # a = 1: weight 0 must not meet an inf
    return float(weights @ terms)


# Points per block of the de Haan sampler: the first holds max(_FIRST_BLOCK,
# 2 * bound), about what a draw takes, and each later one twice the last, up
# to a cap of _BLOCK_ELEMENTS window values; the Monte Carlo has its own.
_FIRST_BLOCK = 8
_BLOCK_ELEMENTS = 1 << 16


@functools.lru_cache(maxsize=128)
def _check_charged(sampler: SpectralSampler) -> None:
    """Raise if the sampler never charges some window coordinate."""
    uncharged = np.flatnonzero(_window_means(sampler) <= 0.0)
    if uncharged.size:
        raise ValueError(
            f"window coordinate {sampler.window[0] + int(uncharged[0])} is "
            "never charged by the sampler; the stopped construction would "
            "not terminate")


def dehaan_max_stable(sampler: SpectralSampler, bound: float,
                      rng: RngState, max_points: int = 100000) -> IndexedPath:
    """Exact finite-window draw of the max-stable process built from the
    sampler, via decreasing Poisson marks and a certified stopping rule.

    ``bound`` must dominate every realization of the spectral process on
    the window; once the next mark times bound falls below the running
    pointwise minimum, no later point can alter the maximum, so the
    returned window is an exact draw.  Joint CDFs satisfy
    P[eta(t_i) <= z_i for all i] = exp(-exponent_rectangle(...)) with the
    matching onset restriction.

    Points are drawn in blocks of growing size, each handled by one set of
    array operations.  A block reads its uniforms ahead and consumes only
    those that one point at a time would have read: each point takes its
    mark's uniform and then, unless the sampler is constant, its onset's,
    and the mark that stops the draw is read too.  The window and the
    stream position afterwards are bitwise those of the point-by-point
    construction, whatever the block sizes.
    """
    _check_positive("bound", bound)
    max_points = _integer(max_points,
                          "max_points must be a nonnegative integer", 0)
    _check_charged(sampler)
    lo = sampler.window[0]
    constant = sampler.kind is SamplerKind.CONSTANT
    per_point = 1 if constant else 2
    running = np.zeros(sampler.length)
    floor = 0.0
    gamma = 0.0  # running sum of the unit exponentials behind the marks
    drawn = 0
    block = max(_FIRST_BLOCK, int(2 * bound))
    cap = max(1, _BLOCK_ELEMENTS // sampler.length)
    while drawn < max_points:
        size = min(block, cap, max_points - drawn)
        # row 0: the marks' uniforms; row 1: the onsets'
        u = rng._peek(per_point * size).reshape(size, per_point).T.copy()
        # cumsum adds in sequence, so each arrival is the loop's running sum
        gammas = np.cumsum(np.concatenate(([gamma], -np.log(u[0]))))[1:]
        marks = 1.0 / gammas
        if constant:
            table, index = np.ones((1, sampler.length)), np.zeros(size, int)
        elif isinstance(sampler.mixing, FiniteMixing):
            table, index = _support_rows(sampler), sampler.mixing._bins(u[1])
        else:
            onsets, index = np.unique(sampler.mixing._quantile(u[1]),
                                      return_inverse=True)
            table = _spectral_rows(sampler, onsets)
        values = marks[:, None] * table[index]
        np.maximum.accumulate(values, axis=0, out=values)
        np.maximum(values, running, out=values)
        floors = values.min(axis=1)
        # the floor each point's mark is tested against
        before = np.concatenate(([floor], floors[:-1]))
        stops = np.flatnonzero((before > 0.0) & (marks * bound < before))
        stop = int(stops[0]) if stops.size else size
        tops = table.max(axis=1)[index[:stop]]
        over = np.flatnonzero(tops > bound * (1.0 + 1e-12))
        if over.size:
            rng.uniform(per_point * (int(over[0]) + 1))
            raise SpectralBoundError(
                f"spectral draw reached {float(tops[over[0]])!r}, above the "
                f"certified bound {bound!r}")
        if stop < size:
            rng.uniform(per_point * stop + 1)
            return IndexedPath(lo, values[stop - 1] if stop else running)
        rng.uniform(per_point * size)
        running, floor, gamma = values[-1], float(floors[-1]), gammas[-1]
        drawn += size
        block *= 2
    raise RuntimeError(
        f"stopping rule did not trigger within max_points={max_points}: "
        f"{drawn} points drawn, last floor {floor!r}, bound {bound!r}")
