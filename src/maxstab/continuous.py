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

import numpy as np

from .distributions import RngState, frechet_sample
from .maxar import Direction, DiscretePath, MaxARParams

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
        prev_t, prev_v = t0, self.anchor_value
        for tt, vv in events:
            if not (prev_t < tt < t1):
                raise ValueError("event times must increase strictly inside "
                                 "the window")
            if not (math.isfinite(vv) and vv > 0):
                raise ValueError("event values must be finite and positive")
            if self.direction is Direction.FORWARD:
                reached = prev_v * a ** (tt - prev_t)
                if vv <= reached * (1.0 - _JUMP_SLACK):
                    raise ValueError("forward events must jump upward")
            else:
                reached = prev_v * a ** (-(tt - prev_t))
                if vv >= reached * (1.0 + _JUMP_SLACK):
                    raise ValueError("reversed events must jump downward")
            prev_t, prev_v = tt, vv
        # knot times over knot levels: the window start with the anchor,
        # then each event; every path value is read off these.  Built in
        # Fortran order, so each row is contiguous for searchsorted.
        knots = np.array(((t0, self.anchor_value), *events), order="F").T
        knots.flags.writeable = False
        object.__setattr__(self, "_knots", knots)

    @property
    def event_times(self) -> np.ndarray:
        return self._knots[0, 1:]

    def value(self, t: float) -> float:
        return path_value(self, t)


def path_value(path: CadlagPath, t: float) -> float:
    """Value at time t in the window; right-continuous at events, with the
    window end evaluated as a left limit (no event ever sits there)."""
    t = float(t)
    t0, t1 = path.window
    if not (t0 <= t <= t1):
        raise ValueError(f"t={t} outside window [{t0}, {t1}]")
    return float(_levels(path, t))


def _levels(path: CadlagPath, times, left: bool = False):
    """Path values at times in the window, a float or an array: each time
    reads the last knot at or before it (strictly before it with left=True,
    which gives left limits) and moves its level by a^+-dt.  The ufunc
    np.power keeps a float and an array bitwise equal, which Python's **
    and numpy scalar ** (both libm) do not."""
    knots = path._knots
    # the count of events at (or strictly before) each time is its knot
    k = knots[0, 1:].searchsorted(times, "left" if left else "right")
    dt = times - knots[0][k]
    if path.direction is Direction.REVERSED:
        dt = -dt
    return knots[1][k] * np.power(path.a, dt)


def _simulate_envelope(a: float, length: float, rng: RngState):
    """Anchor value and jump events of the forward process on [0, length].

    On the clock s = a^-t the extremal process M(s) = a^-t Z(t) sits at
    z s, waits an exponential time of that mean for its next jump and then
    rises by the factor 1/U; mapped back to t, that is the event time and
    level below, so every step is an exact transition.
    """
    rate = -math.log(a)
    anchor = z = frechet_sample(rng)
    t, events = 0.0, []
    while True:
        step = z * rng.exponential()
        t += math.log1p(step) / rate
        if t >= length:
            return anchor, events
        z = z / ((1.0 + step) * rng.uniform())
        events.append((t, z))


def simulate_moving_max(a: float, length: float, rng: RngState) -> CadlagPath:
    """Exact draw of the moving-maximum process on the window [0, length].

    The value at 0 is unit Frechet and is drawn directly; the path then
    runs as a Markov jump chain, with no stopping rule, whose events form a
    Poisson process of rate -log a.  a = 1 is the constant member of the
    family; a = 0 has no continuous-time counterpart (independent values at
    every real time admit no measurable cadlag version) and is rejected.
    """
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
    if a == 1.0:
        return CadlagPath(a, Direction.FORWARD, (0.0, length),
                          frechet_sample(rng), (), seed)
    anchor, events = _simulate_envelope(a, length, rng)
    return CadlagPath(a, Direction.FORWARD, (0.0, length), anchor,
                      tuple(events), seed)


def simulate_moving_max_reversed(a: float, length: float,
                                 rng: RngState) -> CadlagPath:
    """Exact draw of the time reversal on [0, length].

    Simulates the forward window and maps t to length - t taking left
    limits, which keeps the result cadlag: segments grow at rate a^-1 and
    events jump down to the forward pre-jump level.
    """
    a = float(a)
    if a == 1.0:
        warnings.warn("reversing the constant member returns the forward "
                      "path", stacklevel=2)
        return simulate_moving_max(a, length, rng)
    forward = simulate_moving_max(a, length, rng)
    t0, t1 = forward.window
    times = forward.event_times[::-1]
    lows = _levels(forward, times, left=True)
    return CadlagPath(a, Direction.REVERSED, (0.0, t1 - t0),
                      path_value(forward, t1),
                      tuple(zip((t1 - times).tolist(), lows.tolist())),
                      forward.seed)


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
    return DiscretePath(0, _levels(path, grid), params, path.seed)
