"""Unit-shape Frechet distributions and the reproducible random layer.

Everything downstream draws randomness through :class:`RngState`, a
counter-based generator keyed by a (seed, stream) pair.  All sampling is
inverse-transform, so the number of uniforms consumed by an operation is a
deterministic function of its arguments.

Uniforms are built from Philox's 64-bit words by integer operations and one
exact subtraction, in the stream's buffer as the words arrive: the top 52 bits
k of a word become the mantissa of the double 1 + k/2**52, and subtracting
1 - 2**-53 leaves (k + 1/2)/2**52.  Both operands lie within a factor of
two of each other, so by Sterbenz's lemma the difference is exact, and the
bits do not depend on any rounding mode, libm or SIMD path.
"""

from __future__ import annotations

import os

import numpy as np

from . import _EXPORTS
from .law import _check_positive, _number

__all__ = list(_EXPORTS["distributions"])

_RAW_SHIFT = np.uint64(12)
_ONE_BITS = np.uint64(0x3FF0000000000000)  # the exponent field of 1.0
_ONE_MINUS_HALF_ULP = 1.0 - 2.0**-53
_BUFFER_SIZE = 512
_CHUNK_WORDS = 1 << 14  # words per random_raw call of a refill: 128 KB
_SPLIT_WORDS = 1 << 17  # values from which a draw runs in halves (_both)


def _uniforms(raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The uniforms (k + 1/2) / 2**52 of raw uint64 words, k their top 52
    bits, built in out's memory (raw's by default) as the module docstring
    says and returned as its float64 view.  Every y = 1 + k/2**52 has
    1 - 2**-53 in [y/2, 2y], which is what Sterbenz's lemma needs."""
    bits = np.right_shift(raw, _RAW_SHIFT, out=raw if out is None else out)
    bits |= _ONE_BITS
    u = bits.view(np.float64)
    u -= _ONE_MINUS_HALF_ULP
    return u


def _fill(bitgen, out: np.ndarray) -> None:
    """Fill the uint64 array out with uniforms of bitgen's next words."""
    for lo in range(0, out.size, _CHUNK_WORDS):
        part = out[lo:lo + _CHUNK_WORDS]
        _uniforms(bitgen.random_raw(part.size), part)


_POOL = []  # the helper thread's executor, made by the first split
if hasattr(os, "register_at_fork"):  # a forked child lacks the thread
    os.register_at_fork(after_in_child=_POOL.clear)


def _both(first, second):
    """(first(), second()), run at once on the calling thread and one
    helper thread, or in turn with one usable CPU; second is not running
    when this returns or raises.  For the halves of a large block, whose
    numpy calls release the GIL; they must not write the same memory."""
    if not _POOL:
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") \
            else range(os.cpu_count() or 1)
        if len(cpus) < 2:
            return first(), second()
        from concurrent.futures import ThreadPoolExecutor
        _POOL.append(ThreadPoolExecutor(1))
    later = _POOL[0].submit(second)
    try:
        return first(), later.result()
    finally:
        later.exception()  # waits for second when first raised


_MAX_COUNT = 10**7  # the most values, draws or events one call may make


def _integer(value, rule: str, least: int | None = None,
             below: int | None = None) -> int:
    """value as an int when it equals one (a Python or numpy integer or an
    integral float) in [least, below); any other value, NaN, inf, strings
    and None included, raises ValueError saying ``rule`` and the value."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value \
            or (least is not None and number < least) \
            or (below is not None and number >= below):
        raise ValueError(f"{rule}, got {value!r}")
    return number


def _index(name: str, value) -> int:
    """value as an index, which enters int64 arithmetic: any other value
    raises ValueError saying so and the value, naming the field."""
    return _number(name, value, lambda v: _integer(
        v, "indices must be integers within int64", -2**63, 2**63))


def _check_count(count, lead: str, advice: str) -> None:
    """Refuse, before any work, a count that is not at most _MAX_COUNT,
    NaN included: ValueError "<lead> more than <the cap>; <advice>"."""
    if not count <= _MAX_COUNT:
        raise ValueError(f"{lead} more than {_MAX_COUNT:,}; {advice}")


def _pairs(name: str, items) -> tuple:
    """items as a tuple of pairs; items that are no sequence, or an item
    of another length or of none, raise ValueError naming the field."""
    try:
        items = tuple(items)
        if set(map(len, items)) <= {2}:
            return items
    except TypeError:  # no sequence, or an item with no length
        pass
    raise ValueError(f"{name} must be a pair")


def _check_key(value) -> int:
    """value as an int in [0, 2**64), refusing every other value."""
    return _integer(value, "seed and stream must be unsigned 64-bit integers",
                    0, 2**64)


def _quantiles(x: np.ndarray, qs):
    """np.quantile(x, qs) with its default linear method, bit for bit, but
    without np.quantile's np.unique, which imports numpy.ma: the order
    statistics at floor(v) and the next index, clipped to the array, for
    the virtual index v = (n - 1) q, selected by np.partition as
    np.quantile selects them and interpolated by the fraction g of v as
    numpy's _lerp does, from the upper neighbour where g >= 1/2."""
    last = np.size(x) - 1
    index = last * np.asarray(qs, dtype=np.float64)
    floor = np.floor(index)
    g = index - floor
    lo = np.minimum(floor.astype(np.intp), last)
    hi = np.minimum(lo + 1, last)
    order = np.partition(x, np.concatenate((lo.ravel(), hi.ravel())))
    lower, upper = order[lo], order[hi]
    diff = upper - lower
    return np.where(g >= 0.5, upper - diff * (1.0 - g), lower + diff * g)


class RngState:
    """Counter-based random stream identified by a (seed, stream) pair.

    The underlying generator is Philox-4x64 with the 128-bit key formed from
    the two identifiers, so distinct streams are independent by construction
    and a given pair always reproduces the same output sequence, regardless
    of whether draws are requested one at a time or in blocks.

    Uniforms are the centered values (k + 1/2) / 2**52 built from the top 52
    bits of each 64-bit output; they are exactly representable and lie
    strictly inside (0, 1), so log and reciprocal transforms are always safe.
    Each is made in the stream's buffer, from a chunk of words, as the double
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
        """Append at least need fresh uniforms to the unread ones.  A
        large refill draws the words Philox holds and whole blocks of four
        here, and the rest at once from a clone advanced past them, whose
        state the generator then takes."""
        left = self._buf[self._pos:]
        buf = np.empty(left.size + max(need, _BUFFER_SIZE))
        buf[:left.size] = left
        raw = buf.view(np.uint64)[left.size:]
        if raw.size < _SPLIT_WORDS:
            _fill(self._bitgen, raw)
        else:
            state = self._bitgen.state
            held = 4 - state["buffer_pos"]
            first = raw.size // 2 - (raw.size // 2 - held) % 4
            clone = np.random.Philox(**state["state"]).advance(
                (first - held) // 4)
            _both(lambda: _fill(self._bitgen, raw[:first]),
                  lambda: _fill(clone, raw[first:]))
            self._bitgen.state = clone.state
        self._buf, self._pos = buf, 0

    def uniform(self, size: int | None = None):
        """Uniform draw(s) in the open interval (0, 1).

        A scalar is read straight from the buffer, which keeps the
        one-at-a-time samplers' per-draw cost low.  A block is read ahead
        as :meth:`_peek` reads it, refilling the buffer first if it is
        short.  A block that is the whole buffer is handed to the caller
        with no copy, and the state starts an empty buffer; any other
        block is copied out.  Either way the state keeps no reference to a
        block it returns.  A size that is not a nonnegative integer (an
        integral float is one) raises ValueError.
        """
        if size is None:
            if self._pos == self._buf.size:
                self._refill(1)
            self._pos += 1
            return float(self._buf[self._pos - 1])
        block = self._peek(size)
        if block.size < self._buf.size:
            self._pos += block.size
            return block.copy()
        block, self._buf, self._pos = self._buf, np.empty(0), 0
        return block

    def _peek(self, size: int) -> np.ndarray:
        """View of the next ``size`` uniforms, which stay unconsumed.

        A block sampler reads ahead with this, then consumes with
        :meth:`uniform` exactly the uniforms a one-at-a-time loop would
        have read, so the stream position never depends on the block size.
        The view must not be written to.
        """
        n = _integer(size, "size must be a nonnegative int64", 0, 2**63)
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


def _array(name: str, values, convert=np.asarray) -> np.ndarray:
    """convert(values, dtype=np.float64), np.array to copy, by law's rule
    for a number: an entry that holds no number raises naming the field."""
    return _number(name, values, lambda v: convert(v, dtype=np.float64))


def _check_positive_array(name: str, values) -> np.ndarray:
    """values as a float64 array, refusing it when any entry is not finite
    and positive; an empty array passes."""
    arr = _array(name, values)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValueError(f"{name} must be finite and positive")
    return arr


def frechet_cdf(y, scale: float = 1.0):
    """CDF exp(-scale/y) on y > 0; accepts scalars or arrays.

    Nonpositive or non-finite y is a domain error: the support of the law is
    (0, inf) and callers are expected to have screened their data.
    """
    c = _check_positive("scale", scale)
    arr = _check_positive_array("y", y)
    with np.errstate(over="ignore"):  # y near 0: c / y is inf, the CDF 0
        out = np.exp(-c / arr)
    if np.isscalar(y) or arr.ndim == 0:
        return float(out)
    return out


def frechet_quantile(p, scale: float = 1.0):
    """Inverse CDF: -scale/log(p) for p strictly inside (0, 1)."""
    c = _check_positive("scale", scale)
    arr = _array("p", p)
    if not np.all((arr > 0) & (arr < 1)):
        raise ValueError("p must lie strictly inside (0, 1)")
    out = -c / np.log(arr)
    if np.isscalar(p) or arr.ndim == 0:
        return float(out)
    return out


def frechet_sample(rng: RngState, scale: float = 1.0, size: int | None = None):
    """Inverse-transform sample(s), one uniform per variate: scale over the
    unit exponential -log(U) of :meth:`RngState.exponential`, so
    one-at-a-time and block draws on the same stream are bitwise equal.
    """
    return _check_positive("scale", scale) / rng.exponential(size)
