"""Continuous-time moving-maximum process with exponentially decaying shape.

The process is the pointwise maximum of Poisson points (intensity
u^-2 du dt) lifted by the shape (-log a) * a^t on t >= 0, normalized to
unit integral so every marginal is unit Frechet.  Between events the path
decays deterministically at rate a per unit time; an event is an upward
jump.  Rescaled as a^-t Z(t) = M(a^-t), the path is the standard Frechet
extremal process M, with M(1) = Z(0).  Sampling a finite window is
therefore an exact Markov jump chain with no stopping rule: the anchor is
unit Frechet, and the events form a Poisson process of rate -log a.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .distributions import RngState, frechet_sample
from .maxar import Direction, DiscretePath, MaxARParams, _owned_path

__all__ = [
    "ShapeFunction",
    "CadlagPath",
    "simulate_moving_max",
    "simulate_moving_max_reversed",
    "path_value",
    "sample_grid",
]


@dataclass(frozen=True)
class ShapeFunction:
    """Normalized decay shape: forward t -> (-log a) a^t on t >= 0, or its
    time mirror (-log a) a^-t on t < 0; integrates to one either way."""

    a: float
    direction: Direction = Direction.FORWARD

    def __post_init__(self):
        a = float(self.a)
        if not (0.0 < a < 1.0):
            raise ValueError("shape decay rate must lie strictly inside (0, 1)")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "direction", Direction(self.direction))

    def __call__(self, t):
        arr = np.asarray(t, dtype=np.float64)
        rate = -math.log(self.a)
        if self.direction is Direction.FORWARD:
            out = np.where(arr >= 0, rate * self.a ** arr, 0.0)
        else:
            out = np.where(arr < 0, rate * self.a ** (-arr), 0.0)
        return float(out) if arr.ndim == 0 else out


_JUMP_SLACK = 1e-9


@dataclass(frozen=True)
class CadlagPath:
    """Piecewise-exponential cadlag path on a real window.

    The value at the window start is anchor_value; between events the path
    moves deterministically (decay a^dt forward, growth a^-dt reversed) and
    each event (time, new_value) resets the level, jumping up in the
    forward direction and down in the reversed one.  Only max-achieving
    events are stored, so consecutive levels always genuinely jump.
    """

    a: float
    direction: Direction
    window: tuple[float, float]
    anchor_value: float
    events: tuple[tuple[float, float], ...]
    seed: tuple[int, int] | None = None

    def __post_init__(self):
        a = float(self.a)
        if not (0.0 < a <= 1.0):
            raise ValueError("a must lie in (0, 1]")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "direction", Direction(self.direction))
        t0, t1 = (float(self.window[0]), float(self.window[1]))
        if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
            raise ValueError("window must be a nondegenerate finite interval")
        object.__setattr__(self, "window", (t0, t1))
        if not (math.isfinite(self.anchor_value) and self.anchor_value > 0):
            raise ValueError("anchor_value must be finite and positive")
        events = tuple((float(tt), float(vv)) for tt, vv in self.events)
        object.__setattr__(self, "events", events)
        # the knots, the window start with the anchor and then each event,
        # as contiguous read-only rows: every path value is read off these
        rows = np.fromiter(chain((t0, self.anchor_value), *events),
                           np.float64).reshape(-1, 2).T.copy()
        rows.flags.writeable = False
        times, levels = rows
        # NaN fails every comparison and is refused with the rest
        if not (np.all(times[1:] > times[:-1]) and times[-1] < t1):
            raise ValueError("event times must increase strictly inside "
                             "the window")
        if not np.all(np.isfinite(levels) & (levels > 0)):
            raise ValueError("event values must be finite and positive")
        knots = (np.array([0, times.size]), times, levels)
        # the left limits at each event and at the window end: reversed
        # growth is largest there, and may overflow
        with np.errstate(over="ignore"):
            reached = _levels(a, self.direction, knots,
                              np.append(times[1:], t1), left=True)
        if not np.all(np.isfinite(reached)):
            raise ValueError("path values must stay finite between events "
                             "and up to the window end")
        reached = reached[:-1]
        if self.direction is Direction.FORWARD:
            if not np.all(levels[1:] > reached * (1.0 - _JUMP_SLACK)):
                raise ValueError("forward events must jump upward")
        elif not np.all(levels[1:] < reached * (1.0 + _JUMP_SLACK)):
            raise ValueError("reversed events must jump downward")
        object.__setattr__(self, "_knots", knots)

    @property
    def event_times(self) -> np.ndarray:
        return self._knots[1][1:]

    def value(self, t: float) -> float:
        return path_value(self, t)


def path_value(path: CadlagPath, t: float) -> float:
    """Value at time t in the window; right-continuous at events, with the
    window end evaluated as a left limit (no event ever sits there)."""
    t = float(t)
    t0, t1 = path.window
    if not (t0 <= t <= t1):
        raise ValueError(f"t={t} outside window [{t0}, {t1}]")
    return float(_levels(path.a, path.direction, path._knots, t))


def _levels(a: float, direction: Direction, knots, query, left: bool = False,
            owner=None):
    """Path values at query times, read off flat knot arrays (offsets,
    times, levels), window i's knots at [offsets[i], offsets[i + 1]) with
    its anchor first: each query moves the level of the last knot at or
    before it (strictly before it with left=True: a left limit) by a^+-dt.
    One path takes a float or an array; in a batch, owner gives each
    query's window, and times are searched by the exact key (window, rank
    among all times), never by a float shift that could merge two times.
    The ufunc np.power keeps a float and an array bitwise equal, which
    Python's ** and numpy scalar ** (both libm) do not.
    """
    offsets, times, levels = knots
    keys, at = times, query
    if owner is not None:
        grid, rank = np.unique(np.concatenate([times, query]),
                               return_inverse=True)
        window = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
        keys = np.concatenate([window, owner]) * grid.size + rank
        keys, at = keys[:times.size], keys[times.size:]
    k = keys.searchsorted(at, "left" if left else "right") - 1
    dt = query - times[k]
    if direction is Direction.REVERSED:
        dt = -dt
    return levels[k] * np.power(a, dt)


def _jump_chain(a: float, length: float, count: int, rng: RngState):
    """Knot arrays (offsets, times, levels) of count forward windows on
    [0, length], drawn one after another; each anchor is unit Frechet.

    On the clock s = a^-t the extremal process M(s) = a^-t Z(t) sits at
    z s, waits an exponential time of that mean for its next jump and then
    rises by the factor 1/U; mapped back to t, that is the event time and
    level below, so every step is an exact transition.  a = 1 never jumps.
    """
    rate = -math.log(a)
    exponential, uniform, log1p = rng.exponential, rng.uniform, math.log1p
    offsets, times, levels = [0], [], []
    for _ in range(count):
        t, z = 0.0, frechet_sample(rng)
        times.append(t)
        levels.append(z)
        while rate:
            step = z * exponential()
            t += log1p(step) / rate
            if t >= length:
                break
            z = z / ((1.0 + step) * uniform())
            times.append(t)
            levels.append(z)
        offsets.append(len(times))
    return np.array(offsets), np.array(times), np.array(levels)


def _reversed_knots(a: float, length: float, knots):
    """Knots of each window's time reversal t -> length - t: the anchor is
    the forward value at length, and the events are the forward ones in
    reverse order at the forward left limits, so the reversal stays
    cadlag, grows at rate a^-1 and jumps down."""
    offsets, times, _ = knots
    starts = offsets[:-1]
    window = np.repeat(np.arange(starts.size), np.diff(offsets))
    # each slot reads its mirrored forward knot, an anchor slot the window
    # end, where the left limit is the value
    source = (starts + offsets[1:])[window] - np.arange(times.size)
    source[starts] = starts
    query = times[source]
    query[starts] = length
    return offsets, length - query, _levels(a, Direction.FORWARD, knots,
                                            query, left=True, owner=window)


def _window_path(a: float, direction: Direction, length: float,
                 rng: RngState) -> CadlagPath:
    a = float(a)
    length = float(length)
    if not (math.isfinite(length) and length > 0):
        raise ValueError("length must be finite and positive")
    if a == 0.0:
        raise ValueError(
            "a = 0 has no continuous-time member: the limit would need "
            "independent values at every real time; use the discrete chain")
    if not 0.0 < a <= 1.0:
        raise ValueError("a must lie in (0, 1]")
    seed = (rng.seed, rng.stream)
    knots = _jump_chain(a, length, 1, rng)
    if direction is Direction.REVERSED:
        knots = _reversed_knots(a, length, knots)
    _, times, levels = knots
    return CadlagPath(a, direction, (0.0, length), float(levels[0]),
                      tuple(zip(times[1:].tolist(), levels[1:].tolist())),
                      seed)


def simulate_moving_max(a: float, length: float, rng: RngState) -> CadlagPath:
    """Exact draw of the moving-maximum process on the window [0, length].

    The value at 0 is unit Frechet and is drawn directly; the path then
    runs as a Markov jump chain, with no stopping rule, whose events form a
    Poisson process of rate -log a.  a = 1 is the constant member of the
    family; a = 0 has no continuous-time counterpart (independent values at
    every real time admit no measurable cadlag version) and is rejected.
    """
    return _window_path(a, Direction.FORWARD, length, rng)


def simulate_moving_max_reversed(a: float, length: float,
                                 rng: RngState) -> CadlagPath:
    """Exact draw of the time reversal on [0, length].

    Simulates the forward window and maps t to length - t taking left
    limits, which keeps the result cadlag: segments grow at rate a^-1 and
    events jump down to the forward pre-jump level.
    """
    if float(a) == 1.0:
        warnings.warn("reversing the constant member returns the forward "
                      "path", stacklevel=2)
        return simulate_moving_max(a, length, rng)
    return _window_path(a, Direction.REVERSED, length, rng)


def sample_grid(path: CadlagPath, epsilon: float) -> DiscretePath:
    """Skeleton of the path on the grid {k * epsilon}, as a discrete chain.

    The skeleton of the moving-maximum process is exactly the stationary
    max-AR(1) chain with parameter a**epsilon, in the matching direction;
    the returned path carries those parameters.  A grid point landing on
    the window end uses the left-limit value there.
    """
    epsilon = float(epsilon)
    t0, t1 = path.window
    if not (0.0 < epsilon <= t1 - t0):
        raise ValueError("epsilon must lie in (0, window length]")
    count = int(math.floor((t1 - t0) / epsilon + 1e-9)) + 1
    grid = t0 + epsilon * np.arange(count)
    grid[-1] = min(grid[-1], t1)
    params = MaxARParams(path.a ** epsilon, path.direction)
    return _owned_path(0, _levels(path.a, path.direction, path._knots, grid),
                       params, path.seed)
