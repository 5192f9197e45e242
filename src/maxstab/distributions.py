"""Unit-shape Frechet distributions and the reproducible random layer.

Everything downstream draws randomness through :class:`RngState`, a
counter-based generator keyed by a (seed, stream) pair.  All sampling is
inverse-transform, so the number of uniforms consumed by an operation is a
deterministic function of its arguments.

Uniforms are built from Philox's 64-bit words by integer operations and one
exact subtraction, inside the block the generator returns: the top 52 bits
k of a word become the mantissa of the double 1 + k/2**52, and subtracting
1 - 2**-53 leaves (k + 1/2)/2**52.  Both operands lie within a factor of
two of each other, so by Sterbenz's lemma the difference is exact, and the
bits do not depend on any rounding mode, libm or SIMD path.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "RngState",
    "frechet_cdf",
    "frechet_quantile",
    "frechet_sample",
]

_RAW_SHIFT = np.uint64(12)
_ONE_BITS = np.uint64(0x3FF0000000000000)  # the exponent field of 1.0
_ONE_MINUS_HALF_ULP = 1.0 - 2.0**-53
_BUFFER_SIZE = 512


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """The uniforms (k + 1/2) / 2**52 of raw uint64 words, k their top 52
    bits, built in raw's own memory as the module docstring says; raw is
    overwritten and its float64 view returned.  Every y = 1 + k/2**52 has
    1 - 2**-53 in [y/2, 2y], which is what Sterbenz's lemma needs."""
    raw >>= _RAW_SHIFT
    raw |= _ONE_BITS
    u = raw.view(np.float64)
    u -= _ONE_MINUS_HALF_ULP
    return u


def _as_integer(value) -> int | None:
    """value as an int when it equals one: a Python or numpy integer or an
    integral float.  Fractions, NaN, inf, strings and None give None."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return number if number == value else None


def _check_size(size) -> int:
    """A block size as an int, refusing every value that is not a
    nonnegative integer."""
    n = _as_integer(size)
    if n is None or n < 0:
        raise ValueError(f"size must be a nonnegative integer, got {size!r}")
    return n


def _check_key(value) -> int:
    """value as an int in [0, 2**64), refusing every other value."""
    key = _as_integer(value)
    if key is None or not 0 <= key < 2**64:
        raise ValueError("seed and stream must be unsigned 64-bit integers")
    return key


class RngState:
    """Counter-based random stream identified by a (seed, stream) pair.

    The underlying generator is Philox-4x64 with the 128-bit key formed from
    the two identifiers, so distinct streams are independent by construction
    and a given pair always reproduces the same output sequence, regardless
    of whether draws are requested one at a time or in blocks.

    Uniforms are the centered values (k + 1/2) / 2**52 built from the top 52
    bits of each 64-bit output; they are exactly representable and lie
    strictly inside (0, 1), so log and reciprocal transforms are always safe.
    Each is made in place in the generator's output block as the double
    1 + k/2**52, set by integer shift and or, minus 1 - 2**-53: an exact
    subtraction by Sterbenz's lemma, so the bits are the same on every
    platform.

    seed and stream must be integers in [0, 2**64) (Python or numpy ints,
    or integral floats); anything else raises ValueError.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = _check_key(seed)
        self.stream = _check_key(stream)
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._bitgen = np.random.Philox(key=key)
        self._buf = np.empty(0, dtype=np.float64)
        self._pos = 0

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, stream={self.stream})"

    def substream(self, index: int) -> "RngState":
        """Fresh state for the same seed on a derived stream index."""
        return RngState(self.seed, index)

    def _refill(self, need: int) -> None:
        fresh = _uniforms(self._bitgen.random_raw(max(need, _BUFFER_SIZE)))
        left = self._buf[self._pos:]
        self._buf = np.concatenate([left, fresh]) if left.size else fresh
        self._pos = 0

    def uniform(self, size: int | None = None):
        """Uniform draw(s) in the open interval (0, 1).

        A scalar is read straight from the buffer, which keeps the
        one-at-a-time samplers' per-draw cost low.  A block is a new array
        that the caller owns.  One that runs a full buffer past what is
        buffered is drawn for the caller directly, with no copy, and leaves
        the buffer empty; the generator is sequential, so the stream is the
        same either way.  Either way the state keeps no reference to a
        block it returns.  A size that is not a nonnegative integer (an
        integral float is one) raises ValueError.
        """
        if size is None:
            if self._pos == self._buf.size:
                self._refill(1)
            self._pos += 1
            return float(self._buf[self._pos - 1])
        n = _check_size(size)
        need = n - (self._buf.size - self._pos)
        if need >= _BUFFER_SIZE:
            fresh = _uniforms(self._bitgen.random_raw(need))
            left = self._buf[self._pos:]
            self._buf = np.empty(0, dtype=np.float64)
            self._pos = 0
            return np.concatenate([left, fresh]) if left.size else fresh
        out = self._peek(n)
        self._pos += n
        return out.copy()

    def _peek(self, size: int) -> np.ndarray:
        """View of the next ``size`` uniforms, which stay unconsumed.

        A block sampler reads ahead with this, then consumes with
        :meth:`uniform` exactly the uniforms a one-at-a-time loop would
        have read, so the stream position never depends on the block size.
        The view must not be written to.
        """
        n = _check_size(size)
        if self._buf.size - self._pos < n:
            self._refill(n - (self._buf.size - self._pos))
        return self._buf[self._pos:self._pos + n]

    def exponential(self, size: int | None = None):
        """Unit-rate exponential draw(s) via -log(U).

        Both forms evaluate the same numpy expression, so one-at-a-time and
        block draws on the same stream are bitwise equal.
        """
        u = self.uniform(size)
        if size is None:
            return float(-np.log(u))
        return -np.log(u)


def _check_scale(c: float) -> float:
    c = float(c)
    if not (math.isfinite(c) and c > 0):
        raise ValueError("scale must be finite and positive")
    return c


def frechet_cdf(y, scale: float = 1.0):
    """CDF exp(-scale/y) on y > 0; accepts scalars or arrays.

    Nonpositive or non-finite y is a domain error: the support of the law is
    (0, inf) and callers are expected to have screened their data.
    """
    c = _check_scale(scale)
    arr = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValueError("y must be finite and positive")
    out = np.exp(-c / arr)
    if np.isscalar(y) or arr.ndim == 0:
        return float(out)
    return out


def frechet_quantile(p, scale: float = 1.0):
    """Inverse CDF: -scale/log(p) for p strictly inside (0, 1)."""
    c = _check_scale(scale)
    arr = np.asarray(p, dtype=np.float64)
    if not np.all((arr > 0) & (arr < 1)):
        raise ValueError("p must lie strictly inside (0, 1)")
    out = -c / np.log(arr)
    if np.isscalar(p) or arr.ndim == 0:
        return float(out)
    return out


def frechet_sample(rng: RngState, scale: float = 1.0, size: int | None = None):
    """Inverse-transform sample(s), one uniform per variate.

    Both forms evaluate the same numpy expression, so one-at-a-time and
    block draws on the same stream are bitwise equal.
    """
    c = _check_scale(scale)
    u = rng.uniform(size)
    if size is None:
        return float(-c / np.log(u))
    return -c / np.log(u)
