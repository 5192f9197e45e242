"""Tests for the heavy-tailed marginal law and the seeded generator."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from maxstab import (
    ConditionalQuery,
    FiniteMixing,
    MaxARParams,
    RngState,
    SpectralSampler,
    conditional_cdf_mc,
    frechet_cdf,
    frechet_quantile,
    frechet_sample,
    ks_one_sample,
    ks_two_sample,
    sample_grid,
    simulate_forward,
    simulate_moving_max,
    simulate_reversed,
)
from maxstab.distributions import _check_count, _check_positive_array, \
    _quantiles
from maxstab.law import _check_unit

E_INV = 0.36787944117144233


class TestFrechetCdf:
    def test_unit_scale_at_one(self):
        assert frechet_cdf(1.0) == pytest.approx(E_INV, rel=1e-15)

    def test_half_scale_at_two(self):
        # exp(-0.5 / 2) = exp(-0.25)
        assert frechet_cdf(2.0, 0.5) == pytest.approx(0.7788007830714049, rel=1e-15)

    def test_rejects_nonpositive_argument(self):
        for bad in (0.0, -3.0, math.nan):
            with pytest.raises(ValueError):
                frechet_cdf(bad)

    def test_tiny_argument_is_the_limit_without_a_warning(self):
        """y = 1e-320 makes scale / y overflow on its way to the CDF 0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frechet_cdf(1e-320) == 0.0
            assert frechet_cdf([1e-320, 1.0]).tolist() == [0.0, E_INV]

    def test_tends_to_one(self):
        assert frechet_cdf(1e12) == pytest.approx(1.0, abs=1e-11)

    def test_vectorized(self):
        y = np.array([0.5, 1.0, 2.0])
        out = frechet_cdf(y)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(E_INV, rel=1e-15)

    def test_monotone(self):
        y = np.linspace(0.01, 50.0, 500)
        assert np.all(np.diff(frechet_cdf(y)) > 0)

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            frechet_cdf(1.0, 0.0)
        with pytest.raises(ValueError):
            frechet_cdf(1.0, -1.0)


class TestFrechetQuantile:
    def test_median(self):
        # -1 / log(1/2) = 1 / log 2
        assert frechet_quantile(0.5) == pytest.approx(1.4426950408889634, rel=1e-15)

    def test_at_e_inv(self):
        assert frechet_quantile(E_INV) == pytest.approx(1.0, rel=1e-14)

    def test_scale_linearity(self):
        assert frechet_quantile(0.5, 2.0) == pytest.approx(
            2.0 * frechet_quantile(0.5), rel=1e-15)

    def test_domain(self):
        for p in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                frechet_quantile(p)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            frechet_quantile(math.nan)
        with pytest.raises(ValueError):
            frechet_quantile(np.array([0.5, math.nan]))

    @given(st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
           st.floats(min_value=1e-2, max_value=1e2))
    def test_roundtrip(self, p, scale):
        y = frechet_quantile(p, scale)
        assert frechet_cdf(y, scale) == pytest.approx(p, rel=1e-12)

    @given(st.floats(min_value=0.05, max_value=100.0),
           st.floats(min_value=1e-2, max_value=1e2))
    def test_roundtrip_other_way(self, y, scale):
        # keep the CDF a normal double; in the subnormal range log loses
        # precision and the inversion identity cannot hold to 1e-12
        assume(scale / y < 700.0)
        p = frechet_cdf(y, scale)
        assert frechet_quantile(p, scale) == pytest.approx(y, rel=1e-12)


class TestRngState:
    def test_uniform_open_interval(self):
        rng = RngState(1)
        u = rng.uniform(size=200000)
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_reproducible(self):
        a = RngState(7).uniform(size=100)
        b = RngState(7).uniform(size=100)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngState(7, 0).uniform(size=100)
        b = RngState(7, 1).uniform(size=100)
        assert not np.array_equal(a, b)

    def test_substream(self):
        sub = RngState(7).substream(3)
        assert (sub.seed, sub.stream) == (7, 3)
        assert np.array_equal(sub.uniform(size=10), RngState(7, 3).uniform(size=10))

    def test_scalar_block_agreement(self):
        """Drawing one at a time walks the same sequence as a block draw."""
        rng = RngState(11)
        singles = np.array([rng.uniform() for _ in range(1000)])
        block = RngState(11).uniform(size=1000)
        assert np.array_equal(singles, block)

    def test_exponential_scalar_block_agreement(self):
        """One-at-a-time exponentials equal the block draw bit for bit."""
        rng = RngState(3)
        singles = np.array([rng.exponential() for _ in range(5000)])
        assert np.array_equal(singles, RngState(3).exponential(size=5000))

    @pytest.mark.parametrize("size", [1.5, -1, math.nan, math.inf, "3",
                                      np.float64(2.5)])
    def test_refuses_size_that_is_not_a_nonnegative_integer(self, size):
        with pytest.raises(ValueError, match="size must be a nonnegative"):
            RngState(1).uniform(size=size)
        with pytest.raises(ValueError, match="size must be a nonnegative"):
            RngState(1)._peek(size)

    @pytest.mark.parametrize("size", [3.0, np.int64(3), np.uint8(3)])
    def test_accepts_integral_size(self, size):
        assert np.array_equal(RngState(1).uniform(size=size),
                              RngState(1).uniform(size=3))

    def test_peek_does_not_consume(self):
        """A read-ahead, across a buffer refill too, returns the uniforms
        the next draw consumes, and consumes none of them."""
        rng = RngState(12)
        rng.uniform(size=500)
        ahead = rng._peek(1000).copy()
        assert np.array_equal(rng._peek(3), ahead[:3])
        assert np.array_equal(rng.uniform(size=1000), ahead)
        fresh = RngState(12)
        fresh.uniform(size=500)
        assert np.array_equal(fresh.uniform(size=1000), ahead)
        with pytest.raises(ValueError):
            rng._peek(-1)

    def test_mixed_sizes_equal_one_block(self):
        """Scalar, small and buffer-sized draws in sequence walk the same
        stream as one block draw."""
        sizes = [None, 3, 511, 600, None, 2000, 0, 512, 1, 700, 511]
        rng = RngState(13, 2)
        parts = [np.atleast_1d(rng.uniform(size)) for size in sizes]
        total = sum(1 if size is None else size for size in sizes)
        block = RngState(13, 2).uniform(size=total + 5)
        assert np.array_equal(np.concatenate(parts), block[:total])
        assert np.array_equal(rng.uniform(size=5), block[total:])

    @pytest.mark.parametrize("first", [0, 1, 511])
    @pytest.mark.parametrize("size", [1, 600, 5000])
    def test_block_owns_its_memory(self, first, size):
        """Writing into a returned block changes no later draw, whether it
        came from the buffer or straight from the generator."""
        rng = RngState(14)
        reference = RngState(14).uniform(size=first + size + 1000)
        rng.uniform(size=first)
        block = rng.uniform(size=size)
        assert np.array_equal(block, reference[first:first + size])
        block[:] = 2.0
        assert np.array_equal(rng.uniform(size=1000),
                              reference[first + size:])

    @pytest.mark.parametrize("bad", [1.5, -0.5, math.nan, math.inf,
                                     -math.inf, "7", "x", None, -1, 2**64,
                                     float(2**64), np.float64(2.5)])
    def test_refuses_keys_that_are_not_unsigned_64_bit_integers(self, bad):
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            RngState(bad)
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            RngState(1, bad)

    @pytest.mark.parametrize("key", [np.int64(7), np.uint64(7), np.int32(7),
                                     7.0])
    def test_accepts_integer_keys(self, key):
        rng = RngState(key, key)
        assert (rng.seed, rng.stream) == (7, 7)
        assert type(rng.seed) is int and type(rng.stream) is int
        assert np.array_equal(rng.uniform(size=10),
                              RngState(7, 7).uniform(size=10))

    def test_accepts_the_largest_keys(self):
        top = 2**64 - 1
        for key in (top, np.uint64(top)):
            assert RngState(key, key).seed == top

    def test_exponential_positive(self):
        e = RngState(3).exponential(size=10000)
        assert e.min() > 0.0
        assert abs(e.mean() - 1.0) < 0.05

    def test_uniform_mean(self):
        u = RngState(5).uniform(size=100000)
        assert abs(u.mean() - 0.5) < 0.005


class TestFrechetSample:
    def test_marginal_ks(self):
        rng = RngState(100)
        x = frechet_sample(rng, size=10000)
        res = ks_one_sample(x, frechet_cdf, level=0.01)
        assert res.passed, res

    def test_scaled_marginal_ks(self):
        rng = RngState(101)
        x = frechet_sample(rng, scale=3.0, size=10000)
        res = ks_one_sample(x, lambda y: frechet_cdf(y, 3.0), level=0.01)
        assert res.passed, res

    def test_scalar_draw(self):
        v = frechet_sample(RngState(1))
        assert isinstance(v, float) and v > 0.0

    @pytest.mark.parametrize("scale", [1.0, 3.0])
    def test_scalar_block_agreement(self, scale):
        """One-at-a-time draws equal the block draw bit for bit."""
        rng = RngState(4)
        singles = np.array([frechet_sample(rng, scale) for _ in range(5000)])
        block = frechet_sample(RngState(4), scale, size=5000)
        assert np.array_equal(singles, block)

    def test_max_stability(self):
        """Max of 50 rescaled copies is again the same law (two-sample KS)."""
        rng = RngState(102)
        block = frechet_sample(rng, size=10000 * 50).reshape(10000, 50)
        aggregated = block.max(axis=1) / 50.0
        single = frechet_sample(rng.substream(1), size=10000)
        res = ks_two_sample(aggregated, single, level=0.01)
        assert res.passed, res

    def test_deterministic(self):
        a = frechet_sample(RngState(9), size=50)
        b = frechet_sample(RngState(9), size=50)
        assert np.array_equal(a, b)


# the discrete battery's two grids, the independence test's grid, and the
# scalar levels its null quantile is read at
QUANTILE_GRIDS = [np.arange(1, 5) / 5, np.arange(1, 10) / 10.0,
                  np.arange(1, 21) / 21.0, 0.99, 0.999, 0.0, 1.0]


class TestQuantiles:
    """_quantiles is np.quantile's linear method, bit for bit."""

    @staticmethod
    def assert_bitwise(x, qs):
        want = np.asarray(np.quantile(x, qs), dtype=np.float64)
        got = np.asarray(_quantiles(x, qs), dtype=np.float64)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 31, 100, 999, 2000, 20000])
    @pytest.mark.parametrize("qs", QUANTILE_GRIDS)
    def test_frechet_samples(self, n, qs):
        self.assert_bitwise(frechet_sample(RngState(n), size=n), qs)

    @pytest.mark.parametrize("qs", QUANTILE_GRIDS)
    def test_tied_values(self, qs):
        x = np.round(frechet_sample(RngState(5), size=1001), 1)
        assert np.unique(x).size < 200
        self.assert_bitwise(x, qs)
        self.assert_bitwise(np.full(7, 2.5), qs)

    @pytest.mark.parametrize("n,q", [(3, 0.25), (5, 0.125), (11, 0.05),
                                     (21, 0.975)])
    def test_fractional_index_one_half(self, n, q):
        """At (n - 1) q = k + 1/2 numpy interpolates down from the upper
        neighbour."""
        assert (n - 1) * q % 1.0 == 0.5
        self.assert_bitwise(frechet_sample(RngState(n), size=n), q)


class TestArgumentChecks:
    def test_unit_interval_keeps_its_ends(self):
        assert _check_unit("a", 0) == 0.0 and _check_unit("a", 1) == 1.0
        for bad in (-1e-300, 1.0 + 2**-52, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=r"^a must lie in \[0, 1\]$"):
                _check_unit("a", bad)

    def test_positive_array_passes_empty(self):
        """The array sites accept an empty array, as they did before they
        shared the check."""
        empty = _check_positive_array("values", [])
        assert empty.dtype == np.float64 and empty.size == 0
        assert frechet_cdf(np.empty(0)).size == 0
        for bad in ([1.0, 0.0], [math.nan], [1.0, math.inf], [[-2.0]]):
            with pytest.raises(ValueError,
                               match="^values must be finite and positive$"):
                _check_positive_array("values", bad)


class _Started(Exception):
    """Raised by a stub at a call's first step of work: the size passed."""


class _StubRng(RngState):
    def _peek(self, size):
        raise _Started

    def uniform(self, size=None):
        raise _Started


class _StubPath:
    """A continuous path as sample_grid reads it: its window, then a."""

    def __init__(self, window):
        self.window = window

    @property
    def a(self):
        raise _Started


class _StubQuery:
    @property
    def conditioning(self):
        raise _Started


def _events(q, rng):
    """One jump-chain window expecting q events: -log of exp(-1) is 1.0."""
    return simulate_moving_max(math.exp(-1.0), q, rng)


def _points(q, rng):
    """A grid of q points, steps of 1 over a window of q - 1."""
    return sample_grid(_StubPath((0.0, q - 1.0)), 1.0)


def _table(q, rng):
    """A sampler table of q values: a window of q, or past int64, the
    whole int64 window once for each of 64 onsets."""
    if q == 2**70:
        return SpectralSampler.dirac((-2**63, 2**63 - 1),
                                     FiniteMixing({k: 1.0 for k in range(64)}))
    return SpectralSampler.constant((0, q - 1))


def _draws(q, rng):
    """The conditional Monte Carlo with q draws; a stub run stops at the
    query, before the draws' arrays are made."""
    query = _StubQuery() if isinstance(rng, _StubRng) \
        else ConditionalQuery((0, 1.0), ((1, 1.0),))
    return conditional_cdf_mc(query, 0.5, q, rng)


def _path(q, rng):
    """A max-AR path of q values, forward."""
    return simulate_forward(MaxARParams(0.5), q, rng)


def _reversed_path(q, rng):
    """A max-AR path of q values, reversed."""
    return simulate_reversed(MaxARParams(0.5), q, rng)


def _frechet(q, rng):
    """A block of q unit Frechet draws."""
    return frechet_sample(rng, size=q)


CAP_VALUES = (math.nan, math.inf, -1, 0, 1.5, 2**70, 10**7, 10**7 + 1)
_LENGTH = "length must be finite and positive"
_EPSILON = "epsilon must lie in"
_INDEX = "indices must be integers"
_WINDOW = "window must be a nonempty"
_N = "n must be an integer of at least 1000"
_PATH_N = "n must be a positive integer"
_SIZE = "size must be a nonnegative integer"
# per quantity: its call, the words before "more than 10,000,000" in its
# refusal, and each value's outcome in CAP_VALUES order: "ok" passes the
# cap, "cap" is refused by it, anything else is the other rule refusing
CAP_SITES = {
    "events": (_events, "events,",
               [_LENGTH] * 4 + ["ok", "cap", "ok", "cap"]),
    "points": (_points, "grid points,",
               [_EPSILON, "cap"] + [_EPSILON] * 3 + ["cap", "ok", "cap"]),
    "table": (_table, "values,",
              [_INDEX, _INDEX, _WINDOW, _WINDOW, _INDEX, "cap", "ok", "cap"]),
    "draws": (_draws, "draws is", [_N] * 5 + ["cap", "ok", "cap"]),
    "path": (_path, "values is", [_PATH_N] * 5 + ["cap", "ok", "cap"]),
    "reversed path": (_reversed_path, "values is",
                      [_PATH_N] * 5 + ["cap", "ok", "cap"]),
    "frechet": (_frechet, "values is",
                [_SIZE] * 3 + ["ok", _SIZE, "cap", "ok", "cap"]),
}


class TestSizeCap:
    """One rule bounds every size known before the work: at most
    10,000,000, refused before any work, NaN included."""

    @pytest.mark.parametrize("count", [math.nan, math.inf, 2**70, 10**7 + 1,
                                       10**7 + 1e-9 * 10**7])
    def test_refuses_above_the_cap(self, count):
        with pytest.raises(ValueError, match=re.escape(
                "lead more than 10,000,000; advice")):
            _check_count(count, "lead", "advice")

    @pytest.mark.parametrize("count", [-math.inf, -1, 0, 1.5, 10**7,
                                       float(10**7)])
    def test_accepts_up_to_the_cap(self, count):
        assert _check_count(count, "lead", "advice") is None

    @pytest.mark.parametrize("site, index", [
        (site, index) for site in CAP_SITES
        for index in range(len(CAP_VALUES))],
        ids=lambda v: repr(CAP_VALUES[v]) if isinstance(v, int) else v)
    def test_each_quantity(self, site, index):
        """The cap itself passes, or is refused by the quantity's other
        rule; above it the refusal names the quantity and the cap.  A
        refusal comes before any work: it reads no uniform and makes no
        numpy warning, and nothing that passes is allocated, since a stub
        stops the call at its first step."""
        call, noun, outcomes = CAP_SITES[site]
        value, outcome = CAP_VALUES[index], outcomes[index]
        if outcome == "ok":
            try:  # a sampler is built with no further work
                call(value, _StubRng(90))
            except _Started:
                pass
            return
        rng = RngState(90)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as refusal:
                call(value, rng)
        message = str(refusal.value)
        if outcome == "cap":
            assert f"{noun} more than 10,000,000; " in message
        else:
            assert outcome in message and "10,000,000" not in message
        assert rng.uniform() == RngState(90).uniform()
