"""Unit-shape Frechet distributions and the reproducible random layer.

Everything downstream draws randomness through :class:`RngState`, a
counter-based generator keyed by a (seed, stream) pair.  All sampling is
inverse-transform, so the number of uniforms consumed by an operation is a
deterministic function of its arguments.
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
_INV_2_52 = 2.0**-52
_BUFFER_SIZE = 512


class RngState:
    """Counter-based random stream identified by a (seed, stream) pair.

    The underlying generator is Philox-4x64 with the 128-bit key formed from
    the two identifiers, so distinct streams are independent by construction
    and a given pair always reproduces the same output sequence, regardless
    of whether draws are requested one at a time or in blocks.

    Uniforms are the centered values (k + 1/2) / 2**52 built from the top 52
    bits of each 64-bit output; they are exactly representable and lie
    strictly inside (0, 1), so log and reciprocal transforms are always safe.
    """

    def __init__(self, seed: int, stream: int = 0):
        if not (0 <= int(seed) < 2**64 and 0 <= int(stream) < 2**64):
            raise ValueError("seed and stream must be unsigned 64-bit integers")
        self.seed = int(seed)
        self.stream = int(stream)
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
        raw = self._bitgen.random_raw(max(need, _BUFFER_SIZE))
        fresh = ((raw >> _RAW_SHIFT).astype(np.float64) + 0.5) * _INV_2_52
        left = self._buf[self._pos:]
        self._buf = np.concatenate([left, fresh]) if left.size else fresh
        self._pos = 0

    def uniform(self, size: int | None = None):
        """Uniform draw(s) in the open interval (0, 1)."""
        n = 1 if size is None else int(size)
        out = self._peek(n)
        self._pos += n
        if size is None:
            return float(out[0])
        return out.copy()

    def _peek(self, size: int) -> np.ndarray:
        """View of the next ``size`` uniforms, which stay unconsumed.

        A block sampler reads ahead with this, then consumes with
        :meth:`uniform` exactly the uniforms a one-at-a-time loop would
        have read, so the stream position never depends on the block size.
        The view must not be written to.
        """
        n = int(size)
        if n < 0:
            raise ValueError("size must be nonnegative")
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
