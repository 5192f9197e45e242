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

from .distributions import RngState

__all__ = [
    "IndexedPath",
    "GeometricMixing",
    "FiniteMixing",
    "SamplerKind",
    "SpectralSampler",
    "ConeKind",
    "ConeSpec",
    "SpectralBoundError",
    "sample_spectral",
    "spectral_mean",
    "spectral_bound",
    "cone_member",
    "ExponentFunctional",
    "exponent_rectangle",
    "dehaan_max_stable",
    "shift",
]


class SpectralBoundError(RuntimeError):
    """A spectral draw exceeded the bound certified by the caller."""


@dataclass(frozen=True)
class IndexedPath:
    """Finite nonnegative function on consecutive integers."""

    start: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a nonempty 1-d array")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("values must be finite and nonnegative")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "start", int(self.start))

    @property
    def times(self) -> np.ndarray:
        return self.start + np.arange(self.values.size)

    def value_at(self, t: int) -> float:
        k = int(t) - self.start
        if not 0 <= k < self.values.size:
            raise ValueError(f"index {t} outside [{self.start}, "
                             f"{self.start + self.values.size - 1}]")
        return float(self.values[k])


def shift(path: IndexedPath, s: int) -> IndexedPath:
    """Time shift: the result g satisfies g(t) = path(t + s)."""
    return IndexedPath(path.start - int(s), path.values)


@dataclass(frozen=True)
class GeometricMixing:
    """Two-sided geometric mass on all integers, p(n) proportional to
    ratio**|n|.  Strictly positive everywhere with closed-form tails."""

    ratio: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.ratio < 1.0):
            raise ValueError("ratio must lie strictly inside (0, 1)")

    @property
    def center_mass(self) -> float:
        return (1.0 - self.ratio) / (1.0 + self.ratio)

    def pmf(self, n: int) -> float:
        return self.center_mass * self.ratio ** abs(int(n))

    def sample(self, rng: RngState, size: int | None = None):
        """Inverse transform using exactly one uniform per draw.

        The uniform is split into (zero / sign / magnitude) pieces whose
        lengths reproduce p(n) exactly.
        """
        out = self._quantile(np.atleast_1d(rng.uniform(size)))
        return int(out[0]) if size is None else out

    def _quantile(self, u: np.ndarray) -> np.ndarray:
        """The integer each uniform in the 1-d array ``u`` maps to."""
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
class FiniteMixing:
    """Strictly positive mass on a finite set of integers (normalized)."""

    weights: tuple[tuple[int, float], ...]

    def __post_init__(self):
        items = [(int(n), float(w)) for n, w in
                 (self.weights.items() if isinstance(self.weights, dict)
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

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.weights)

    def pmf(self, n: int) -> float:
        n = int(n)
        for m, w in self.weights:
            if m == n:
                return w
        return 0.0

    def sample(self, rng: RngState, size: int | None = None):
        """Walk the cumulative masses in index order; one uniform per draw."""
        out = self._quantile(np.atleast_1d(rng.uniform(size)))
        return int(out[0]) if size is None else out

    def _quantile(self, u: np.ndarray) -> np.ndarray:
        """The integer each uniform in the 1-d array ``u`` maps to."""
        edges = np.cumsum([w for _, w in self.weights])
        edges[-1] = 1.0
        idx = np.searchsorted(edges, u, side="left")
        support = np.array([n for n, _ in self.weights], dtype=np.int64)
        return support[idx]


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
        lo, hi = (int(self.window[0]), int(self.window[1]))
        if lo > hi:
            raise ValueError("window must be a nonempty integer interval")
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
        a = float(self.a) if self.a is not None else None
        if a is None or not (0.0 < a < 1.0):
            raise ValueError("decay sampler needs a strictly inside (0, 1)")
        object.__setattr__(self, "a", a)

    @classmethod
    def constant(cls, window) -> "SpectralSampler":
        return cls(SamplerKind.CONSTANT, tuple(window))

    @classmethod
    def dirac(cls, window, mixing=None) -> "SpectralSampler":
        return cls(SamplerKind.DIRAC, tuple(window), mixing=mixing)

    @classmethod
    def decay(cls, a: float, window, mixing=None) -> "SpectralSampler":
        return cls(SamplerKind.DECAY, tuple(window), a=a, mixing=mixing)

    @property
    def length(self) -> int:
        return self.window[1] - self.window[0] + 1


def sample_spectral(sampler: SpectralSampler, rng: RngState) -> IndexedPath:
    """One realization of the spectral process on the sampler's window.

    For the decay kind values are built by cascaded multiplication from the
    onset, so the one-step relation Y(t+1) = a * Y(t) holds as an exact
    floating-point identity wherever Y(t) > 0.
    """
    lo = sampler.window[0]
    if sampler.kind is SamplerKind.CONSTANT:
        return IndexedPath(lo, np.ones(sampler.length))
    return IndexedPath(lo, _spectral_row(sampler, sampler.mixing.sample(rng)))


def _spectral_row(sampler: SpectralSampler, onset: int) -> np.ndarray:
    """Window values of the dirac or decay spectral process drawn at the
    given spike or onset index, 1/mass weight included."""
    lo, hi = sampler.window
    values = np.zeros(sampler.length)
    if sampler.kind is SamplerKind.DIRAC:
        if lo <= onset <= hi:
            values[onset - lo] = 1.0 / sampler.mixing.pmf(onset)
        return values
    a = sampler.a
    first = max(lo, onset)
    if first <= hi:
        level = (1.0 - a) * a ** (first - onset) / sampler.mixing.pmf(onset)
        for k in range(first - lo, sampler.length):
            values[k] = level
            level = a * level
    return values


def spectral_mean(sampler: SpectralSampler, t: int) -> float:
    """E[Y(t)], summed exactly over the mixing mass.

    Equals 1 for every t when the mixing charges all integers; for finite
    mixing it is the exact partial sum, which the stopped max-stable
    construction uses as the marginal Frechet scale at t.
    """
    t = int(t)
    lo, hi = sampler.window
    if not lo <= t <= hi:
        raise ValueError(f"t={t} outside the sampler window {sampler.window}")
    if sampler.kind is SamplerKind.CONSTANT:
        return 1.0
    mixing = sampler.mixing
    if sampler.kind is SamplerKind.DIRAC:
        if isinstance(mixing, GeometricMixing):
            return 1.0
        return 1.0 if mixing.pmf(t) > 0 else 0.0
    a = sampler.a
    if isinstance(mixing, GeometricMixing):
        return 1.0  # sum over all onsets n <= t of (1-a) a^(t-n) telescopes to 1
    total = 0.0
    for n in mixing.support:
        if n <= t:
            total += (1.0 - a) * a ** (t - n)
    return total


def spectral_bound(sampler: SpectralSampler) -> float:
    """Supremum of Y over the window across all realizations.

    Infinite for the decay kind under geometric mixing when the decay rate
    is at least the mixing ratio: far-past onsets then carry more decayed
    value than their probability weight withdraws.
    """
    lo, hi = sampler.window
    if sampler.kind is SamplerKind.CONSTANT:
        return 1.0
    mixing = sampler.mixing
    if sampler.kind is SamplerKind.DIRAC:
        if isinstance(mixing, GeometricMixing):
            worst = max(abs(lo), abs(hi))
            return 1.0 / (mixing.center_mass * mixing.ratio ** worst)
        peaks = [1.0 / w for n, w in mixing.weights if lo <= n <= hi]
        return max(peaks, default=0.0)
    a = sampler.a
    if isinstance(mixing, FiniteMixing):
        best = 0.0
        for n, w in mixing.weights:
            if n <= hi:
                best = max(best, (1.0 - a) * a ** (max(lo, n) - n) / w)
        return best
    if a >= mixing.ratio:
        return math.inf
    best = 0.0
    n = hi
    floor = min(lo, 0)
    while True:
        term = (1.0 - a) * a ** (max(lo, n) - n) / mixing.pmf(n)
        best = max(best, term)
        # below the window and past zero the terms shrink geometrically
        if n < floor and term < best:
            return best
        n -= 1


class ConeKind(str, Enum):
    DIRAC = "dirac"
    CONSTANT = "constant"
    DECAY = "decay"


@dataclass(frozen=True)
class ConeSpec:
    """Membership test specification for the three shape cones.

    dirac: at most one active coordinate.  constant: all coordinates equal.
    decay: zero before some onset, then exact geometric decay at rate a.
    All comparisons are relative to the path maximum, so membership is
    invariant under positive scaling.
    """

    kind: ConeKind
    a: float | None = None
    tolerance: float = 1e-9

    def __post_init__(self):
        kind = ConeKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if not (0.0 < self.tolerance < 1.0):
            raise ValueError("tolerance must lie in (0, 1)")
        if kind is ConeKind.DECAY:
            if self.a is None or not (0.0 < float(self.a) < 1.0):
                raise ValueError("decay cone needs a strictly inside (0, 1)")
            object.__setattr__(self, "a", float(self.a))
        elif self.a is not None:
            raise ValueError(f"{kind.value} cone takes no decay parameter")


def cone_member(path, spec: ConeSpec) -> bool:
    """Whether a finite path belongs to the given shape cone.

    The zero path is a member of every cone (it is the apex of each).
    """
    values = path.values if isinstance(path, IndexedPath) else \
        np.asarray(path, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("path must be a nonempty 1-d array")
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise ValueError("path values must be finite and nonnegative")
    peak = float(values.max())
    if peak == 0.0:
        return True
    tol = spec.tolerance
    active = values > tol * peak
    if spec.kind is ConeKind.DIRAC:
        return int(active.sum()) <= 1
    if spec.kind is ConeKind.CONSTANT:
        return float(values.min()) >= (1.0 - tol) * peak
    onset = int(np.argmax(active))
    if active[:onset].any():
        return False
    expected = values[onset] * spec.a ** np.arange(values.size - onset)
    rest = values[onset:]
    return bool(np.all(np.abs(rest - expected) <= tol * expected))


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
        a = float(self.a)
        if not (math.isfinite(a) and 0.0 <= a <= 1.0):
            raise ValueError("a must lie in [0, 1]")
        object.__setattr__(self, "a", a)
        if self.shifts is not None:
            shifts = tuple(sorted(int(n) for n in self.shifts))
            if not shifts:
                raise ValueError("shifts must be nonempty when given")
            if a == 1.0:
                raise ValueError("a = 1 admits no onset restriction")
            object.__setattr__(self, "shifts", shifts)


def _check_points(points) -> tuple[np.ndarray, np.ndarray]:
    pts = list(points)
    if not pts:
        raise ValueError("points must be nonempty")
    t = np.array([int(p[0]) for p in pts], dtype=np.int64)
    z = np.array([float(p[1]) for p in pts], dtype=np.float64)
    if not np.all(np.isfinite(z)) or np.any(z <= 0):
        raise ValueError("levels must be finite and positive")
    return t, z


def _decay_profile(a: float, times: np.ndarray, onsets) -> np.ndarray:
    """The decay shape a^(t-n) on t >= n and 0 before, one row per onset n
    and one column per time t."""
    k = times[None, :] - np.asarray(onsets, dtype=np.int64)[:, None]
    return np.where(k >= 0, a ** np.maximum(k, 0).astype(np.float64), 0.0)


def _onset_rows(a: float, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights and decay rows at the distinct times that stand for every
    integer onset.

    An onset n in (s', s] between consecutive distinct times s' < s gives
    the row at s scaled by (1-a) a^(s-n); those scales sum to 1 - a^(s-s'),
    and over all onsets n <= min(times) to 1.  Any onset sum of a
    functional that is homogeneous of degree one in the row is therefore
    the weighted sum over these rows, with a = 0 and a = 1 included.
    """
    distinct = np.unique(times)
    weights = np.ones(distinct.size)
    with np.errstate(divide="ignore"):  # a = 0: log is -inf, weight 1
        # expm1 keeps 1 - a^gap accurate to a few ulp as a nears 1
        weights[1:] = -np.expm1(np.diff(distinct) * np.log(a))
    return weights, _decay_profile(a, times, distinct)


def exponent_rectangle(functional: ExponentFunctional, points) -> float:
    """Exponent measure of {f : f(t_i) > z_i for some i}.

    The negative log of P[eta(t_i) <= z_i for all i] for the associated
    max-stable process.  Homogeneous of degree -1 in the levels.
    """
    t, z = _check_points(points)
    a = functional.a
    if functional.shifts is not None:
        shapes = (1.0 - a) * _decay_profile(a, t, functional.shifts)
        return float((shapes / z).max(axis=1).sum())
    weights, rows = _onset_rows(a, t)
    return float(weights @ (rows / z).max(axis=1))


# Points per block of the de Haan sampler: the first block is small, since
# narrow windows stop after a handful of points, and each later block is
# twice the last, up to a cap of _BLOCK_ELEMENTS window values.
_FIRST_BLOCK = 8
_BLOCK_ELEMENTS = 1 << 16


@functools.lru_cache(maxsize=128)
def _check_charged(sampler: SpectralSampler) -> None:
    """Raise if the sampler never charges some window coordinate."""
    lo, hi = sampler.window
    for t in range(lo, hi + 1):
        if spectral_mean(sampler, t) <= 0.0:
            raise ValueError(
                f"window coordinate {t} is never charged by the sampler; "
                "the stopped construction would not terminate")


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
    if not (math.isfinite(bound) and bound > 0):
        raise ValueError("bound must be finite and positive")
    _check_charged(sampler)
    lo = sampler.window[0]
    constant = sampler.kind is SamplerKind.CONSTANT
    per_point = 1 if constant else 2
    running = np.zeros(sampler.length)
    floor = 0.0
    gamma = 0.0  # running sum of the unit exponentials behind the marks
    drawn = 0
    block = _FIRST_BLOCK
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
        else:
            onsets, index = np.unique(sampler.mixing._quantile(u[1]),
                                      return_inverse=True)
            table = np.array([_spectral_row(sampler, int(n)) for n in onsets])
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
