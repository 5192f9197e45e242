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
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .distributions import RngState, _check_count, _pairs, frechet_sample
from .law import Direction, MaxARParams, _check_positive
from .maxar import DiscretePath, _owned_path

__all__ = list(_EXPORTS["continuous"])


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
_BLOCK_PAIRS = 1 << 16  # the most (U, E) pairs the chain reads ahead at once


@dataclass(frozen=True)
class CadlagPath:
    """Piecewise-exponential cadlag path on a real window.

    The value at the window start is anchor_value; between events the path
    moves deterministically (decay a^dt forward, growth a^-dt reversed) and
    each event (time, new_value) resets the level, jumping up in the
    forward direction and down in the reversed one.  Only max-achieving
    events are stored, so consecutive levels always genuinely jump.  a = 1
    is the constant path: it has no events and always reads forward.
    events is a read-only (k, 2) view of the path's one knot table, into
    which the constructor copies any k x 2 array-like.
    """

    a: float
    direction: Direction
    window: tuple[float, float]
    anchor_value: float
    events: np.ndarray
    seed: tuple[int, int] | None = None

    def __post_init__(self):
        a = float(self.a)
        if not (0.0 < a <= 1.0):
            raise ValueError("a must lie in (0, 1]")
        object.__setattr__(self, "a", a)
        t0, t1 = map(float, _pairs("window", [self.window])[0])
        if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
            raise ValueError("window must be a nondegenerate finite interval")
        object.__setattr__(self, "window", (t0, t1))
        anchor = _check_positive("anchor_value", self.anchor_value)
        object.__setattr__(self, "anchor_value", anchor)
        try:
            events = np.asarray(self.events, np.float64)
        except (TypeError, ValueError) as error:
            # numpy refuses a ragged list, and a dict or a generator whole
            if "inhomogeneous" not in str(error) and np.ndim(self.events):
                raise
            events = np.empty(())
        if events.shape[1:] != (2,) and events.shape != (0,):  # (0,) is []
            raise ValueError("each event must be a pair")
        if a == 1.0 and events.size:
            raise ValueError("a = 1 is the constant path and has no events")
        object.__setattr__(self, "direction",
                           MaxARParams(a, self.direction).direction)
        # the knots, the window start with the anchor and then each event,
        # as contiguous read-only rows: every path value is read off these
        table = np.concatenate(([[t0], [anchor]], events.reshape(-1, 2).T), 1)
        table.flags.writeable = False
        object.__setattr__(self, "events", table[:, 1:].T)
        times, levels = table
        knots = (np.array([0, times.size]), times, levels)
        # each knot's next time and the left limit there: reversed growth
        # is largest there, and may overflow, or meet an infinite level
        with np.errstate(over="ignore", invalid="ignore"):
            following, reached = _left_limits(a, self.direction, knots, t1)
        forward = self.direction is Direction.FORWARD
        jumps = levels[1:] > reached[:-1] * (1.0 - _JUMP_SLACK) if forward \
            else levels[1:] < reached[:-1] * (1.0 + _JUMP_SLACK)
        # NaN fails every comparison and is refused with the rest
        for valid, message in (
                (times < following, "event times must increase strictly "
                                    "inside the window"),
                ((levels > 0.0) & (levels < math.inf),
                 "event values must be finite and positive"),
                (reached < math.inf, "path values must stay finite between "
                                     "events and up to the window end"),
                (jumps, "forward events must jump upward" if forward
                 else "reversed events must jump downward")):
            if not valid.all():
                raise ValueError(message)
        object.__setattr__(self, "_knots", knots)


def path_value(path: CadlagPath, t: float) -> float:
    """Value at time t in the window; right-continuous at events, with the
    window end evaluated as a left limit (no event ever sits there)."""
    t = float(t)
    t0, t1 = path.window
    if not (t0 <= t <= t1):
        raise ValueError(f"t={t} outside window [{t0}, {t1}]")
    return float(_levels(path.a, path.direction, path._knots, t))


def _levels(a: float, direction: Direction, knots, query, k=None):
    """Path values at query times, read off flat knot arrays (offsets,
    times, levels), window i's knots at [offsets[i], offsets[i + 1]) with
    its anchor first: each query moves the level of knot k by a^+-dt.  k
    defaults to the last knot at or before each query, which is searched
    only in one path's knots; a batch passes k.  The ufunc np.power keeps
    a float and an array bitwise equal, which Python's ** and numpy scalar
    ** (both libm) do not.
    """
    _, times, levels = knots
    if k is None:
        k = times.searchsorted(query, "right") - 1
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

    A window's uniforms pair up as (anchor or U, E), read ahead in blocks
    sized from the expected event count, which is refused above the size
    cap; -log(U) is taken once per block, and only the pairs the
    chain used are consumed.
    """
    rate = -math.log(a)
    if not rate:
        return np.arange(count + 1), np.zeros(count), \
            frechet_sample(rng, size=count)
    log1p = math.log1p
    starts, times, levels = [], [], []
    t = length  # no window is open: the next pair opens one
    # windows not yet closed, the one still open included
    while left := count - len(starts) + (t < length):
        events = left * length * rate
        _check_count(events, f"the jump chain expects {events:.8g} events,",
                     "draw a shorter window or fewer")
        block = rng._peek(2 * min(
            int(left + events + 4.0 * math.sqrt(events)) + 8, _BLOCK_PAIRS))
        logs = -np.log(block)
        read = len(times)
        for u, head, e in zip(block[::2].tolist(), logs[::2].tolist(),
                              logs[1::2].tolist()):
            if t < length:
                z = z / ((1.0 + step) * u)
            elif len(starts) < count:
                t, z = 0.0, 1.0 / head
                starts.append(len(times))
            else:
                break
            times.append(t)
            levels.append(z)
            step = z * e
            t += log1p(step) / rate
        rng.uniform(2 * (len(times) - read))
    starts.append(len(times))
    return np.array(starts), np.array(times), np.array(levels)


def _left_limits(a: float, direction: Direction, knots, end):
    """Each knot's next time, the next knot of its window or end, and the
    path's left limit there: the knot's level moved on to that time."""
    offsets, times, _ = knots
    following = np.append(times[1:], end)
    following[offsets[1:] - 1] = end
    # k = ... reads every knot's own time and level, with no index array
    return following, _levels(a, direction, knots, following, ...)


def _reversed_knots(a: float, length: float, knots):
    """Knots of each window's time reversal t -> length - t: the anchor is
    the forward value at length, and the events are the forward ones in
    reverse order at the forward left limits, so the reversal stays
    cadlag, grows at rate a^-1 and jumps down.  Slot j of window [s, e)
    reads forward knot s + e - 1 - j at its next time."""
    offsets, times, _ = knots
    window = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    source = (offsets[:-1] + offsets[1:] - 1)[window] - np.arange(times.size)
    following, limits = _left_limits(a, Direction.FORWARD, knots, length)
    return offsets, length - following[source], limits[source]


def _replicate_values(shape: ShapeFunction, length: float, times,
                      count: int, rng: RngState) -> np.ndarray:
    """Values at the given times of count independent windows on
    [0, length], read off one batch of knots; one row per time."""
    knots = _jump_chain(shape.a, length, count, rng)
    if shape.direction is Direction.REVERSED:
        knots = _reversed_knots(shape.a, length, knots)
    offsets, at, _ = knots
    starts = offsets[:-1]
    # each window's last knot at or before t: its knots at or before t,
    # counted from its start
    k = [starts + np.add.reduceat(at <= t, starts, dtype=np.intp) - 1
         for t in times]
    return _levels(shape.a, shape.direction, knots,
                   np.array(times)[:, None], np.array(k))


def _window_path(a: float, direction: Direction, length: float,
                 rng: RngState) -> CadlagPath:
    a = float(a)
    length = _check_positive("length", length)
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
                      np.stack((times[1:], levels[1:]), 1), seed)


def simulate_moving_max(a: float, length: float, rng: RngState) -> CadlagPath:
    """Exact draw of the moving-maximum process on the window [0, length].

    The value at 0 is unit Frechet and is drawn directly; the path then
    runs as a Markov jump chain, with no stopping rule, whose events form a
    Poisson process of rate -log a.  a = 1 is the constant member of the
    family; a = 0 has no continuous-time counterpart (independent values at
    every real time admit no measurable cadlag version) and is rejected, as
    is a window expected to make more events than the size cap.
    """
    return _window_path(a, Direction.FORWARD, length, rng)


def simulate_moving_max_reversed(a: float, length: float,
                                 rng: RngState) -> CadlagPath:
    """Exact draw of the time reversal on [0, length].

    Simulates the forward window and maps t to length - t taking left
    limits, which keeps the result cadlag: segments grow at rate a^-1 and
    events jump down to the forward pre-jump level.  a = 1 is its own
    reversal and returns the forward path, with MaxARParams' warning.
    """
    return _window_path(a, Direction.REVERSED, length, rng)


def sample_grid(path: CadlagPath, epsilon: float) -> DiscretePath:
    """Skeleton of the path on the grid {k * epsilon}, as a discrete chain.

    The skeleton of the moving-maximum process is exactly the stationary
    max-AR(1) chain with parameter a**epsilon, in the matching direction;
    the returned path carries those parameters.  A grid point landing on
    the window end uses the left-limit value there.  A grid of more points
    than the size cap is refused.
    """
    epsilon = float(epsilon)
    t0, t1 = path.window
    if not (0.0 < epsilon <= t1 - t0):
        raise ValueError("epsilon must lie in (0, window length]")
    points = np.floor((t1 - t0) / epsilon + 1e-9) + 1.0
    _check_count(points, f"epsilon={epsilon!r} gives {points:.8g} grid "
                 "points,", "use a larger epsilon")
    params = MaxARParams(path.a ** epsilon, path.direction)
    grid = t0 + epsilon * np.arange(int(points))
    grid[-1] = min(grid[-1], t1)
    return _owned_path(0, _levels(path.a, path.direction, path._knots, grid),
                       params, path.seed)
