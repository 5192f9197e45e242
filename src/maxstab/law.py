"""The closed-form law of the stationary max-AR(1) chain and its time
reversal: the parameters, both transition kernels and the bivariate CDF,
each one exponential.  It needs no numpy, so evaluating it loads no
other module of the package."""

import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum

from . import _EXPORTS

__all__ = list(_EXPORTS["law"])


def _number(name: str, value, convert=float):
    """convert(value), float by default; its TypeError, ValueError or
    OverflowError is raised as ValueError "<message>, in field '<name>'"."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{exc}, in field {name!r}") from exc


def _check_positive(name: str, value: float) -> float:
    """value as a float, refused unless it is finite and positive."""
    value = _number(name, value)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive")
    return value


def _check_unit(name: str, value: float) -> float:
    """value as a float, refused outside [0, 1], NaN included."""
    value = _number(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1]")
    return value


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
        a = _check_unit("a", self.a) + 0.0  # -0.0 is stored as +0.0
        object.__setattr__(self, "a", a)
        direction = Direction(self.direction)
        if direction is Direction.REVERSED and a in (0.0, 1.0):
            # warn at the first caller outside the package; __init__'s is 3
            frame, level = sys._getframe(2), 3
            while frame.f_globals.get("__package__") == __package__ \
                    and frame.f_back:
                frame, level = frame.f_back, level + 1
            warnings.warn(
                "reversed direction with a in {0, 1} equals the forward chain; "
                "canonicalizing to forward",
                stacklevel=level,
            )
            direction = Direction.FORWARD
        object.__setattr__(self, "direction", direction)

    def reversed(self) -> "MaxARParams":
        """The chain read backwards: the other direction, or self at a in
        {0, 1}, which are their own time reversal."""
        if self.a in (0.0, 1.0):
            return self
        return MaxARParams(self.a, Direction.REVERSED
                           if self.direction is Direction.FORWARD
                           else Direction.FORWARD)


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
