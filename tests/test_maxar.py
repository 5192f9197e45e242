"""Tests for the discrete-time chain: exact samplers, transition kernels,
the stationary pair law, and the time reversal.

Closed-form transition and pair formulas are checked against independent
numerical quadrature, and the samplers are checked against the closed forms.
"""

import hashlib
import math
import os
import select
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from maxstab import (
    STATIONARY,
    Direction,
    DiscretePath,
    MaxARParams,
    RngState,
    bivariate_cdf,
    equilibrium_check,
    frechet_cdf,
    independence_test,
    kernel_cdf,
    kernel_sample,
    kernel_sample_many,
    frechet_sample,
    ks_one_sample,
    reverse_path,
    simulate_forward,
    simulate_reversed,
)
import maxstab.maxar
from maxstab.distributions import _BUFFER_SIZE, _SPLIT_WORDS, _both
from maxstab.maxar import _BLOCK_VALUES, _stationary_windows

FWD = MaxARParams(0.5, Direction.FORWARD)
REV = MaxARParams(0.5, Direction.REVERSED)

E_HALF = 0.6065306597126334
ROWS = _BLOCK_VALUES  # rows of one scan block of a single window
SPLIT = _SPLIT_WORDS  # values from which a draw runs in two halves
PROBE = 4  # uniforms read after a draw to pin the stream position


def forward_kernel_quadrature(a: float, x: float, y: float) -> float:
    """Transition CDF assembled from its atom plus integrated density."""
    if y < a * x:
        return 0.0
    atom = math.exp(-(1.0 - a) / (a * x)) if a > 0 else 0.0
    if a == 0.0:
        lo = 0.0
    else:
        lo = a * x
    dens, _ = integrate.quad(
        lambda u: (1.0 - a) / u**2 * math.exp(-(1.0 - a) / u), lo, y)
    return atom + dens


def reversed_kernel_quadrature(a: float, y: float, x: float) -> float:
    """Backward transition CDF from its density below the ratio bound."""
    bound = y / a
    scale = (1.0 - a) * math.exp(a / y)
    hi = min(x, bound)
    dens, _ = integrate.quad(
        lambda u: scale * math.exp(-1.0 / u) / u**2, 0.0, hi)
    return dens + (a if x >= bound else 0.0)


def bivariate_series(a: float, x: float, y: float, depth: int = 800) -> float:
    """Pair CDF from the raw onset sum, no closed-form simplification."""

    def weight(k: int) -> float:
        return (1.0 - a) * a**k if k >= 0 else 0.0

    if a == 0.0:
        total = 1.0 / x + 1.0 / y
    elif a == 1.0:
        total = max(1.0 / x, 1.0 / y)
    else:
        total = sum(max(weight(-n) / x, weight(1 - n) / y)
                    for n in range(1, -depth, -1))
    return math.exp(-total)


def stationary_pairs(a: float, n: int, rng: RngState):
    """n independent stationary transitions, vectorized."""
    params = MaxARParams(a, Direction.FORWARD)
    first = STATIONARY.sample(rng, size=n)
    second = kernel_sample_many(params, first, rng)
    return first, second


def forward_loop(a: float, u: np.ndarray) -> np.ndarray:
    """Reference recursion X(t) = max(a X(t-1), (1-a) F(t)), one step at a
    time, on one replicate's uniforms."""
    values = np.empty(u.size)
    values[0] = -1.0 / np.log(u[0])
    for t in range(1, u.size):
        innovation = -(1.0 - a) / np.log(u[t])
        decayed = a * values[t - 1]
        values[t] = decayed if decayed >= innovation else innovation
    return values


def philox_uniforms(seed: int, stream: int, skip: int, n: int) -> np.ndarray:
    """Uniforms skip to skip + n of the stream, on one thread: Philox's
    raw words from the start, each word's top 52 bits k as
    (k + 1/2) / 2**52, which is exact in float64."""
    key = np.array([seed, stream], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(skip + n)[skip:]
    return ((raw >> np.uint64(12)).astype(np.float64) + 0.5) / 2.0**52


def full_scan(a: float, width: int, count: int, u: np.ndarray) -> np.ndarray:
    """Reference prefix scan of the uniforms u that always runs all
    ceil(log2 width) passes, each over the whole array on one thread: the
    scan of ``_stationary_windows`` without its early stop and its
    split."""
    x = u.copy().reshape(width, count)
    np.log(x, out=x)
    np.divide(-1.0, x[0], out=x[0])
    np.divide(-(1.0 - a), x[1:], out=x[1:])
    step = 1
    while step < width:
        np.maximum(x[step:], a ** step * x[:-step], out=x[step:])
        step *= 2
    return x.T


class CountingNumpy:
    """Stand-in for the numpy module that counts the scan's passes.

    A pass writes its maximum a block of rows at a time, and it writes
    the window's last row exactly once, so the passes are the
    ``np.maximum`` calls whose ``out`` ends at the highest row written.
    """

    def __init__(self):
        self.last_rows = []

    def __getattr__(self, name):
        return getattr(np, name)

    def maximum(self, *args, out, **kwargs):
        self.last_rows.append(out[-1].ctypes.data)
        return np.maximum(*args, out=out, **kwargs)

    @property
    def passes(self) -> int:
        rows = self.last_rows
        return rows.count(max(rows)) if rows else 0


def transition_cdf(params: MaxARParams, current: float, level: float) -> float:
    """CDF of the next chain value given the current one, either direction.

    kernel_cdf keeps its arguments in forward time order, so for the
    reversed chain the conditioning value goes second.
    """
    if params.direction is Direction.FORWARD:
        return kernel_cdf(params, current, level)
    return kernel_cdf(params, level, current)


class TestStationaryLaw:
    def test_cdf_is_unit_frechet(self):
        assert STATIONARY.cdf(2.0) == frechet_cdf(2.0)
        y = np.array([0.5, 1.0, 4.0])
        assert np.array_equal(STATIONARY.cdf(y), frechet_cdf(y))

    def test_cdf_rejects_nonpositive_argument(self):
        for bad in (-1.0, 0.0, math.nan):
            with pytest.raises(ValueError):
                STATIONARY.cdf(bad)

    def test_pdf_is_unit_frechet_density(self):
        y = np.array([0.5, 1.0, 4.0])
        assert np.array_equal(STATIONARY.pdf(y), np.exp(-1.0 / y) / y**2)
        assert STATIONARY.pdf(2.0) == pytest.approx(math.exp(-0.5) / 4.0,
                                                    rel=1e-15)

    def test_pdf_tails_are_zero_without_warning(self):
        """x**2 underflows under a CDF of 0 and overflows past 1e154: the
        density's limit 0.0 is returned, with no numpy warning."""
        for x in (1e-200, 5e-324, 1e200, 1e300):
            assert STATIONARY.pdf(x) == 0.0
        assert STATIONARY.pdf(np.array([1e-200, 1.0])).tolist() \
            == [0.0, math.exp(-1.0)]

    def test_pdf_rejects_nonpositive_argument(self):
        for bad in (-1.0, 0.0, math.nan):
            with pytest.raises(ValueError):
                STATIONARY.pdf(bad)


class TestMaxARParams:
    def test_range(self):
        for bad in (-0.1, 1.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                MaxARParams(bad)

    def test_negative_zero_is_stored_as_zero(self):
        assert math.copysign(1.0, MaxARParams(-0.0).a) == 1.0

    def test_accepts_string_direction(self):
        p = MaxARParams(0.5, "reversed")
        assert p.direction is Direction.REVERSED

    def test_reversed_boundary_canonicalized(self):
        for a in (0.0, 1.0):
            with pytest.warns(UserWarning):
                p = MaxARParams(a, Direction.REVERSED)
            assert p.direction is Direction.FORWARD

    def test_canonicalization_warning_names_the_caller(self):
        with pytest.warns(UserWarning) as record:
            MaxARParams(1.0, Direction.REVERSED)
        assert [w.filename for w in record] == [__file__]

    def test_reversed_flips_direction(self):
        assert FWD.reversed() == REV
        assert REV.reversed() == FWD

    @pytest.mark.filterwarnings("error")
    def test_symmetric_members_are_their_own_reversal(self):
        for a in (0.0, 1.0):
            params = MaxARParams(a)
            assert params.reversed() is params


class TestDiscretePath:
    def test_times_and_len(self):
        path = DiscretePath(3, [1.0, 2.0, 1.5], FWD)
        assert list(path.times) == [3, 4, 5]
        assert len(path) == 3

    def test_values_read_only(self):
        path = DiscretePath(0, [1.0, 2.0], FWD)
        with pytest.raises(ValueError):
            path.values[0] = 5.0

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            DiscretePath(0, [1.0, 0.0], FWD)

    @pytest.mark.parametrize("values", [[], [[1.0, 2.0]]])
    def test_rejects_values_that_are_not_a_nonempty_row(self, values):
        with pytest.raises(ValueError, match="nonempty 1-d array"):
            DiscretePath(0, values, FWD)

    @pytest.mark.parametrize("params", [FWD, REV])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0,
                                     -0.0, -2.0])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_rejects_values_not_finite_and_positive(self, params, bad, where):
        values = [1.0, 1.5, 1.2]
        values[where] = bad
        with pytest.raises(ValueError, match="finite and positive"):
            DiscretePath(0, values, params)

    def test_rejects_forward_ratio_violation(self):
        # a forward chain can never drop below a times the previous value
        with pytest.raises(ValueError):
            DiscretePath(0, [1.0, 0.3], FWD)

    def test_rejects_reversed_ratio_violation(self):
        with pytest.raises(ValueError):
            DiscretePath(0, [1.0, 3.0], REV)

    def test_ratios(self):
        path = DiscretePath(0, [1.0, 2.0, 1.5], FWD)
        assert np.allclose(path.ratios(), [2.0, 0.75])

    @pytest.mark.parametrize("view", [False, True])
    def test_caller_writes_do_not_reach_the_path(self, view):
        values = np.array([1.0, 2.0, 1.5])
        given = values[:]
        if view:
            given.flags.writeable = False
        path = DiscretePath(0, given, FWD)
        values[1] = 7.0
        assert path.values.tolist() == [1.0, 2.0, 1.5]
        assert values.flags.writeable

    @pytest.mark.parametrize("start", [1.5, -0.5, math.nan, math.inf, "3",
                                       None])
    def test_refuses_start_index_that_is_not_an_integer(self, start):
        with pytest.raises(ValueError, match="start_index must be an integer"):
            DiscretePath(start, [1.0, 2.0], FWD)

    @pytest.mark.parametrize("start", [np.int64(-4), 2.0, np.float64(-4.0)])
    def test_accepts_integral_start_index(self, start):
        path = DiscretePath(start, [1.0, 2.0], FWD)
        assert type(path.start_index) is int
        assert path.start_index == start

    @pytest.mark.parametrize("params", [FWD, REV])
    @pytest.mark.parametrize("pair", [_BLOCK_VALUES - 2, _BLOCK_VALUES - 1,
                                      _BLOCK_VALUES, 2 * _BLOCK_VALUES])
    def test_ratio_violation_at_a_block_boundary(self, params, pair):
        """The ratio bound is checked a block of pairs at a time; a
        violating pair on either side of a boundary raises, and the message
        gives the extreme ratio of the whole path."""
        values = np.ones(2 * _BLOCK_VALUES + 2)
        values[pair + 1] = 0.3 if params is FWD else 3.0
        # within the bound everywhere else, beyond it at the pair
        values[pair + 2:] = values[pair + 1]
        ratio = values[pair + 1] / values[pair]
        with pytest.raises(ValueError, match="violates") as err:
            DiscretePath(0, values, params)
        assert repr(ratio) in str(err.value)
        values[pair + 1:] = 0.5 if params is FWD else 2.0
        DiscretePath(0, values, params)


class TestSimulateForward:
    def test_shape_and_determinism(self):
        p1 = simulate_forward(FWD, 100, RngState(1), start_index=5)
        p2 = simulate_forward(FWD, 100, RngState(1), start_index=5)
        assert len(p1) == 100
        assert p1.start_index == 5
        assert np.array_equal(p1.values, p2.values)
        assert p1.seed == (1, 0)

    @pytest.mark.parametrize("simulate,params",
                             [(simulate_forward, FWD), (simulate_reversed, REV)])
    @pytest.mark.parametrize("n", [2.7, math.nan, math.inf, -math.inf, 0, -3,
                                   np.float64(0.5), "5", None])
    def test_refuses_n_that_is_not_a_positive_integer(self, simulate, params,
                                                      n):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            simulate(params, n, RngState(1))

    @pytest.mark.parametrize("simulate,params",
                             [(simulate_forward, FWD), (simulate_reversed, REV)])
    @pytest.mark.parametrize("n", [np.int64(7), np.int32(7), np.uint8(7), 7.0])
    def test_accepts_integral_n(self, simulate, params, n):
        path = simulate(params, n, RngState(1))
        assert np.array_equal(path.values,
                              simulate(params, 7, RngState(1)).values)

    def test_constant_chain(self):
        path = simulate_forward(MaxARParams(1.0), 50, RngState(2))
        assert np.all(path.values == path.values[0])

    def test_iid_chain_marginal(self):
        path = simulate_forward(MaxARParams(0.0), 10000, RngState(3))
        res = ks_one_sample(path.values, frechet_cdf, level=0.01)
        assert res.passed, res

    def test_iid_chain_independent(self):
        path = simulate_forward(MaxARParams(0.0), 10000, RngState(4))
        pairs = path.values.reshape(-1, 2)
        report = independence_test(pairs)
        assert report.all_passed

    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
    def test_hold_fraction_matches_a(self, a):
        n = 40000
        path = simulate_forward(MaxARParams(a), n, RngState(5))
        v = path.values
        holds = np.abs(v[1:] - a * v[:-1]) <= 1e-12 * (a * v[:-1])
        freq = holds.mean()
        tol = 4.0 * math.sqrt(a * (1.0 - a) / (n - 1))
        assert abs(freq - a) < tol

    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
    def test_hold_probability_quadrature(self, a):
        """Stationary probability of the exact-decay event is a itself."""
        mass, _ = integrate.quad(
            lambda x: math.exp(-(1.0 - a) / (a * x)) * math.exp(-1.0 / x) / x**2,
            0.0, np.inf)
        assert abs(mass - a) < 1e-8

    def test_ratio_lower_bound(self):
        path = simulate_forward(FWD, 20000, RngState(6))
        assert path.ratios().min() >= 0.5 * (1.0 - 1e-9)

    @pytest.mark.parametrize("a", [0.5, 0.8])
    def test_window_marginals(self, a):
        """Each coordinate of a stationary transition is unit Frechet."""
        params = MaxARParams(a)
        rng = RngState(7)
        first = STATIONARY.sample(rng, size=10000)
        second = kernel_sample_many(params, first, rng)
        third = kernel_sample_many(params, second, rng)
        for column in (first, second, third):
            res = ks_one_sample(column, frechet_cdf, level=0.001)
            assert res.passed, res

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            simulate_forward(FWD, 0, RngState(1))

    @pytest.mark.parametrize("simulate,params",
                             [(simulate_forward, FWD), (simulate_reversed, REV)])
    def test_refuses_fractional_start_index(self, simulate, params):
        with pytest.raises(ValueError, match="start_index must be an integer"):
            simulate(params, 10, RngState(1), start_index=2.7)

    @pytest.mark.parametrize("simulate,params",
                             [(simulate_forward, FWD), (simulate_reversed, REV)])
    @pytest.mark.parametrize("n", [1, 100, _BLOCK_VALUES + 1])
    def test_drawn_values_are_read_only(self, simulate, params, n):
        path = simulate(params, n, RngState(1))
        for values in (path.values, reverse_path(path).values):
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 5.0


class TestStationaryWindows:
    """The prefix-scan kernel behind every stationary discrete draw."""

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 17, 1024, 1025, 4097])
    @pytest.mark.parametrize("a", [0.0, 0.05, 0.5, 0.95, 0.999, 1.0])
    def test_matches_step_by_step_loop(self, a, width):
        count = 3
        u = RngState(31).uniform(size=width * count).reshape(width, count)
        windows = _stationary_windows(a, width, count, RngState(31))
        assert windows.shape == (count, width)
        # simulate_forward is the one-replicate case: it reads the first
        # width uniforms of the stream in time order
        path = simulate_forward(MaxARParams(a), width, RngState(31)).values
        cases = [(windows[j], u[:, j]) for j in range(count)]
        cases.append((path, u.reshape(-1)[:width]))
        for got, uniforms in cases:
            expected = forward_loop(a, uniforms)
            rel = np.abs(got - expected) / expected
            assert rel.max() <= 64 * np.finfo(float).eps

    @pytest.mark.parametrize("width,count", [
        (1, 1), (2, 2000), (3, 3), (4, 1), (5, 2000), (17, 3), (64, 2000),
        (1024, 3), (1025, 1), (4096, 1), (4097, 3), (1_000_000, 1),
        # B - 1, B, B + 1 and 2B + 1 rows, B the rows of one scan block;
        # at a = 1 the last passes step further than a block
        (ROWS - 1, 1), (ROWS, 1), (ROWS + 1, 1), (2 * ROWS + 1, 1),
        (ROWS // 3 - 1, 3), (ROWS // 3, 3), (ROWS // 3 + 1, 3),
        (2 * (ROWS // 3) + 1, 3),
        # the battery's shapes; a row longer than a block is a block
        (2, 100_000), (3, 100_000), (600, 7)])
    @pytest.mark.parametrize(
        "a", [0.0, -0.0, 5e-324, 0.05, 0.5, 0.95, 0.999, 1.0])
    def test_early_stop_is_bitwise_the_full_scan(self, a, width, count):
        rng = RngState(35, width)
        windows = _stationary_windows(a, width, count, rng)
        expected = full_scan(a, width, count,
                             philox_uniforms(35, width, 0, width * count))
        assert np.array_equal(windows, expected)
        fresh = RngState(35, width)
        fresh.uniform(size=width * count)
        assert rng.uniform() == fresh.uniform()

    @pytest.mark.parametrize("a,fewest,most",
                             [(0.0, 0, 0), (0.5, 1, 6), (1.0, 20, 20)])
    def test_stop_fires(self, monkeypatch, a, fewest, most):
        """At width 1e6 the full scan runs 20 passes; a = 0.5 stops after
        at most 6, a = 0 runs none and a = 1 all of them."""
        spy = CountingNumpy()
        monkeypatch.setattr(maxstab.maxar, "np", spy)
        _stationary_windows(a, 1_000_000, 1, RngState(36))
        assert fewest <= spy.passes <= most

    @pytest.mark.parametrize("a", [0.0, 0.05, 0.3, 0.5, 0.9, 1.0])
    def test_width_two_is_one_literal_step(self, a):
        """The battery's atom check compares nexts == a * starts exactly."""
        n = 5000
        windows = _stationary_windows(a, 2, n, RngState(32))
        u = RngState(32).uniform(size=2 * n)
        starts = -1.0 / np.log(u[:n])
        nexts = np.maximum(a * starts, -(1.0 - a) / np.log(u[n:]))
        assert np.array_equal(windows[:, 0], starts)
        assert np.array_equal(windows[:, 1], nexts)
        if 0.0 < a < 1.0:
            assert 0.0 < np.mean(windows[:, 1] == a * windows[:, 0]) < 1.0

    @pytest.mark.parametrize("width,count", [(1, 1), (2, 7), (5, 3), (600, 1)])
    def test_consumes_width_times_count_uniforms(self, width, count):
        rng = RngState(33)
        _stationary_windows(0.4, width, count, rng)
        fresh = RngState(33)
        fresh.uniform(size=width * count)
        assert rng.uniform() == fresh.uniform()

    def test_stream_keeps_no_reference_to_a_draw(self):
        """A drawn block is the path's own: writing to the scan's base
        array changes no later draw of the stream."""
        rng, fresh = RngState(40), RngState(40)
        windows = _stationary_windows(0.5, 4 * _BLOCK_VALUES, 1, rng)
        fresh.uniform(size=4 * _BLOCK_VALUES)
        windows.base[...] = 0.0
        assert np.array_equal(rng.uniform(size=600), fresh.uniform(size=600))

    def test_simulate_forward_single_value(self):
        rng = RngState(34)
        path = simulate_forward(MaxARParams(0.6), 1, rng)
        fresh = RngState(34)
        assert path.values.tolist() == [-1.0 / np.log(fresh.uniform(size=1))[0]]
        assert rng.uniform() == fresh.uniform()


def split_case(a: float, width: int, count: int, used: int,
               scalars: bool = False) -> bool:
    """Whether width * count stationary values, drawn after a prefix of
    the stream, and the uniforms after them are those of the one-thread
    oracle.  The prefix is a block of ``_BUFFER_SIZE + used`` uniforms,
    which leaves Philox holding 4 - used of its last four words and the
    stream's buffer empty, or with scalars ``used`` single uniforms, which
    leave ``_BUFFER_SIZE - used`` uniforms in the buffer."""
    seed, stream = 41, used
    rng = RngState(seed, stream)
    skip = used if scalars else _BUFFER_SIZE + used
    if scalars:
        for _ in range(used):
            rng.uniform()
    else:
        rng.uniform(size=skip)
    if count == 1:
        got = simulate_forward(MaxARParams(a), width, rng).values[None, :]
    else:
        got = _stationary_windows(a, width, count, rng)
    u = philox_uniforms(seed, stream, skip, width * count + PROBE)
    expected = full_scan(a, width, count, u[:-PROBE])
    return np.array_equal(got, expected) \
        and np.array_equal(rng.uniform(size=PROBE), u[-PROBE:])


class TestSplitDraws:
    """From ``_SPLIT_WORDS`` values on, a draw's stages run in two halves
    at once: the refill of the stream's buffer, the innovations, each scan
    pass short of the half row, and the path check.  The values and the
    stream position stay those of one thread."""

    @pytest.mark.parametrize("scalars", [False, True])
    @pytest.mark.parametrize("used", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [SPLIT - 1, SPLIT, SPLIT + 1])
    @pytest.mark.parametrize("a", [0.0, 0.05, 0.95, 1.0])
    def test_draw_is_the_one_thread_scan(self, a, n, used, scalars):
        """a = 1 runs every pass, the last ones past the half row."""
        assert split_case(a, n, 1, used, scalars)

    @pytest.mark.parametrize("width,count", [
        (SPLIT // 3 + 1, 3), (2 * ROWS + 1, 5), (4, SPLIT // 4),
        (5, SPLIT // 4)])
    @pytest.mark.parametrize("a", [0.05, 0.95, 1.0])
    def test_windows_are_the_one_thread_scan(self, a, width, count):
        """Many windows drawn together split on rows; at width 4 and 5
        only the first pass is short of the half row."""
        assert split_case(a, width, count, 2)

    @pytest.mark.parametrize("used", [0, 1, 2, 3])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_split_refill_after_buffered_uniforms(self, used, extra):
        """A block that needs about ``_SPLIT_WORDS`` fresh words beyond
        the ones the buffer still holds."""
        rng = RngState(42, used)
        for _ in range(used):
            rng.uniform()
        size = (_BUFFER_SIZE - used) % _BUFFER_SIZE + SPLIT + extra
        u = philox_uniforms(42, used, used, size + PROBE)
        assert np.array_equal(rng.uniform(size=size), u[:-PROBE])
        assert np.array_equal(rng.uniform(size=PROBE), u[-PROBE:])

    @pytest.mark.parametrize("params", [FWD, REV])
    @pytest.mark.parametrize("offset", [-1, 0])
    def test_long_path_check_sees_both_halves(self, params, offset):
        """A ratio beyond the bound, or a NaN, on either side of the half
        is refused."""
        values = np.ones(SPLIT + 2)
        half = (values.size - 1) // 2 + offset
        values[half + 1:] = 0.3 if params is FWD else 3.0
        with pytest.raises(ValueError, match="violates"):
            DiscretePath(0, values, params)
        values = np.ones(SPLIT + 2)
        values[values.size // 2 + offset] = math.nan
        with pytest.raises(ValueError, match="finite and positive"):
            DiscretePath(0, values, params)

    def test_both_returns_both_results_and_raises_after_second(self):
        """An error in either half reaches the caller, and only once the
        other half is done (with one usable CPU, second never starts)."""
        steps = []

        def fails():
            raise KeyError("half")

        def slow():
            steps.append("start")
            time.sleep(0.05)
            steps.append("end")
            return 2

        assert _both(lambda: 1, slow) == (1, 2)
        steps.clear()
        with pytest.raises(KeyError):
            _both(fails, slow)
        assert steps in ([], ["start", "end"])
        with pytest.raises(KeyError):
            _both(lambda: 1, fails)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_draws_the_parents_values(self):
        """A child forked after a large draw has no helper thread of its
        own; its large draws start one and equal the parent's."""
        params, n = MaxARParams(0.5), 1_000_000
        simulate_forward(params, n, RngState(43))
        expected = simulate_forward(params, n, RngState(44)).values
        read, write = os.pipe()
        with warnings.catch_warnings():
            # Python 3.12 on warns of a fork with threads running
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            try:
                values = simulate_forward(params, n, RngState(44)).values
                os.write(write, hashlib.sha256(values.tobytes()).digest())
            finally:
                os._exit(0)
        os.close(write)
        try:
            ready = select.select([read], [], [], 60)[0]
            digest = os.read(read, 32) if ready else b""
        finally:
            if not ready:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)
        assert ready, "the forked child's draw did not finish in 60 s"
        assert digest == hashlib.sha256(expected.tobytes()).digest()

    @pytest.mark.parametrize("disabled", [
        None, "AVX512_SPR AVX512_ICL X86_V4",
        "AVX512_SPR AVX512_ICL X86_V4 X86_V3"])
    def test_split_adds_no_host_dependence(self, disabled):
        """With numpy's wider SIMD paths switched off, the split still
        equals the one-thread oracle computed by the same numpy."""
        tests = Path(__file__).resolve().parent
        src = Path(maxstab.maxar.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), str(tests),
                          os.environ.get("PYTHONPATH")])))
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        code = ("import test_maxar as t\n"
                "print(all(t.split_case(a, t.SPLIT + 1, 1, used)\n"
                "          for a in (0.05, 0.95, 1.0) for used in range(4))\n"
                "      and t.split_case(0.5, t.SPLIT // 3 + 1, 3, 0))")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=300)
        if "cannot disable" in result.stderr:
            pytest.skip(f"this numpy has no {disabled} to switch off")
        assert result.returncode == 0, result.stderr
        assert result.stdout == "True\n"


class TestSimulateReversed:
    def test_ratio_upper_bound(self):
        path = simulate_reversed(REV, 20000, RngState(8))
        assert path.params.direction is Direction.REVERSED
        assert path.ratios().max() <= 2.0 * (1.0 + 1e-9)

    def test_hold_fraction(self):
        n = 40000
        path = simulate_reversed(REV, n, RngState(9))
        v = path.values
        target = v[:-1] / 0.5
        holds = np.abs(v[1:] - target) <= 1e-12 * target
        assert abs(holds.mean() - 0.5) < 4.0 * math.sqrt(0.25 / (n - 1))

    def test_window_marginals(self):
        rng = RngState(10)
        first = STATIONARY.sample(rng, size=10000)
        second = kernel_sample_many(REV, first, rng)
        for column in (first, second):
            res = ks_one_sample(column, frechet_cdf, level=0.001)
            assert res.passed, res

    @pytest.mark.parametrize("a", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("n", [1, 2, 513, 5000])
    def test_equals_reversed_forward_draw(self, a, n):
        """One reversed path is the forward draw read backwards, bit for
        bit, and leaves the stream where the forward draw does."""
        rng_rev, rng_fwd = RngState(13, 4), RngState(13, 4)
        rev = simulate_reversed(MaxARParams(a, Direction.REVERSED), n,
                                rng_rev, start_index=-2)
        via = reverse_path(simulate_forward(MaxARParams(a), n, rng_fwd,
                                            start_index=-2))
        assert rev.values.tobytes() == via.values.tobytes()
        assert (rev.start_index, rev.params, rev.seed) == \
            (via.start_index, via.params, via.seed)
        assert rng_rev.uniform() == rng_fwd.uniform()

    def test_reads_only_a(self):
        """Forward params still draw the reversed chain: the forward draw
        on the same stream read backwards."""
        rev = simulate_reversed(FWD, 300, RngState(15))
        via = reverse_path(simulate_forward(FWD, 300, RngState(15)))
        assert rev.params == REV
        assert rev.values.tobytes() == via.values.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_symmetric_members_give_the_forward_path(self, a):
        """a in {0, 1} is its own reversal: the draw is the forward path
        and the reversals say so without a warning."""
        params = MaxARParams(a)
        fwd = simulate_forward(params, 300, RngState(16))
        rev = simulate_reversed(params, 300, RngState(16))
        assert rev.params == params
        assert rev.values.tobytes() == fwd.values.tobytes()
        assert reverse_path(fwd).params == params

    def test_wrong_scan_fails_the_reversed_bound(self, monkeypatch):
        """The reversed path checks the scan's values once: a forward drop
        below a times the previous value is a reversed rise above 1/a."""
        scan = _stationary_windows

        def dropping(a, width, count, rng):
            x = scan(a, width, count, rng)
            x[0, width // 2] *= 0.5 * a
            return x

        monkeypatch.setattr(maxstab.maxar, "_stationary_windows", dropping)
        with pytest.raises(ValueError, match="reversed path violates"):
            simulate_reversed(REV, 1000, RngState(14))

    def test_reverse_path_involution(self):
        path = simulate_forward(FWD, 500, RngState(11))
        back = reverse_path(reverse_path(path))
        assert np.array_equal(back.values, path.values)
        assert back.params == path.params

    def test_reverse_flips_direction_and_values(self):
        path = simulate_forward(FWD, 300, RngState(12))
        rev = reverse_path(path)
        assert rev.params.direction is Direction.REVERSED
        assert np.array_equal(rev.values, path.values[::-1])


class TestKernelCdf:
    def test_forward_reference_value(self):
        assert kernel_cdf(FWD, 1.0, 1.0) == pytest.approx(E_HALF, rel=1e-15)

    def test_reversed_reference_value(self):
        assert kernel_cdf(REV, 1.0, 1.0) == pytest.approx(0.5 * E_HALF, rel=1e-15)

    def test_forward_zero_below_support(self):
        assert kernel_cdf(FWD, 1.0, 0.49) == 0.0

    def test_rejects_nonpositive_level(self):
        with pytest.raises(ValueError):
            kernel_cdf(FWD, 1.0, -1.0)

    def test_forward_atom_jump(self):
        a, x = 0.5, 1.3
        at = kernel_cdf(MaxARParams(a), x, a * x)
        assert at == pytest.approx(math.exp(-(1 - a) / (a * x)), rel=1e-14)
        assert kernel_cdf(MaxARParams(a), x, a * x * (1 - 1e-9)) == 0.0

    def test_reversed_saturates_at_ratio_bound(self):
        assert kernel_cdf(REV, 2.0, 1.0) == pytest.approx(1.0, rel=1e-15)
        assert kernel_cdf(REV, 5.0, 1.0) == 1.0

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.85])
    @pytest.mark.parametrize("y", [0.7, 1.0, 2.2])
    def test_forward_matches_quadrature(self, a, y):
        x = 1.3
        got = kernel_cdf(MaxARParams(a), x, y)
        want = forward_kernel_quadrature(a, x, y)
        assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.85])
    @pytest.mark.parametrize("x", [0.4, 1.0, 3.0])
    def test_reversed_matches_quadrature(self, a, x):
        current = 1.1
        params = MaxARParams(a, Direction.REVERSED)
        got = transition_cdf(params, current, x)
        want = reversed_kernel_quadrature(a, current, x)
        assert got == pytest.approx(want, abs=1e-9)

    def test_iid_limit(self):
        # a = 0: the next value ignores the current one
        assert kernel_cdf(MaxARParams(0.0), 7.0, 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-15)
        assert kernel_cdf(MaxARParams(0.0), 0.1, 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-15)

    def test_constant_limit(self):
        assert kernel_cdf(MaxARParams(1.0), 2.0, 1.9) == 0.0
        assert kernel_cdf(MaxARParams(1.0), 2.0, 2.0) == 1.0

    def test_rejects_nonpositive_current(self):
        with pytest.raises(ValueError):
            kernel_cdf(FWD, 0.0, 1.0)

    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.1, max_value=5.0),
           st.floats(min_value=0.1, max_value=5.0),
           st.floats(min_value=0.1, max_value=5.0))
    def test_monotone_and_bounded(self, a, current, y1, y2):
        lo, hi = sorted((y1, y2))
        for params in (MaxARParams(a), MaxARParams(a, Direction.REVERSED)):
            c_lo = transition_cdf(params, current, lo)
            c_hi = transition_cdf(params, current, hi)
            assert 0.0 <= c_lo <= c_hi <= 1.0


class TestKernelSample:
    def test_constant_chain_holds(self):
        assert kernel_sample(MaxARParams(1.0), 2.7, RngState(1)) == 2.7

    def test_scalar_matches_vector(self):
        rng = RngState(13)
        singles = np.array([kernel_sample(FWD, 1.3, rng) for _ in range(500)])
        block = kernel_sample_many(FWD, np.full(500, 1.3), RngState(13))
        assert np.array_equal(singles, block)

    @pytest.mark.parametrize("params", [REV, MaxARParams(0.0)])
    def test_scalar_matches_vector_reversed_and_iid(self, params):
        """Scalar and block draws agree on the reversed kernel, where the
        atom at y/a and the log branch are both taken, and on a = 0."""
        n, y = 5000, 1.3
        rng = RngState(13)
        singles = np.array([kernel_sample(params, y, rng) for _ in range(n)])
        block = kernel_sample_many(params, np.full(n, y), RngState(13))
        assert np.array_equal(singles, block)
        if params.direction is Direction.REVERSED:
            atoms = int((block == y / params.a).sum())
            assert 0 < atoms < n

    @pytest.mark.parametrize("seed", [0, 17])
    def test_iid_block_is_a_frechet_sample(self, seed):
        """At a = 0 the forward kernel forgets the current values: a block
        is the stream's unit Frechet sample, bit for bit."""
        n = 5000
        block = kernel_sample_many(MaxARParams(0.0), np.geomspace(1e-3, 1e3, n),
                                   RngState(seed))
        assert block.tobytes() == frechet_sample(RngState(seed),
                                                 size=n).tobytes()

    @pytest.mark.parametrize("params", [FWD, REV])
    def test_empirical_cdf_on_grid(self, params):
        n, x = 40000, 1.3
        draws = kernel_sample_many(params, np.full(n, x), RngState(14))
        for y in np.linspace(0.3, 4.0, 20):
            p = transition_cdf(params, x, y)
            emp = float((draws <= y).mean())
            tol = 4.5 * math.sqrt(max(p * (1.0 - p), 1e-4) / n)
            assert abs(emp - p) < tol, (y, emp, p)

    def test_forward_atom_frequency(self):
        a, x, n = 0.5, 1.3, 40000
        draws = kernel_sample_many(MaxARParams(a), np.full(n, x), RngState(15))
        atom = math.exp(-(1 - a) / (a * x))
        freq = float((draws == a * x).mean())
        assert abs(freq - atom) < 4.0 * math.sqrt(atom * (1 - atom) / n)

    def test_forward_continuous_part(self):
        """Conditioned on escaping the atom, draws follow the truncated
        closed-form law, which is continuous and KS-testable."""
        a, x = 0.5, 1.3
        draws = kernel_sample_many(MaxARParams(a), np.full(40000, x), RngState(16))
        cont = draws[draws > a * x]
        f0 = math.exp(-(1 - a) / (a * x))

        def cdf(y):
            return (np.exp(-(1 - a) / y) - f0) / (1.0 - f0)

        res = ks_one_sample(cont, cdf, level=0.01)
        assert res.passed, res

    def test_reversed_atom_frequency(self):
        y, n = 1.3, 40000
        draws = kernel_sample_many(REV, np.full(n, y), RngState(17))
        freq = float((draws == y / 0.5).mean())
        assert abs(freq - 0.5) < 4.0 * math.sqrt(0.25 / n)

    def test_reversed_continuous_part(self):
        y = 1.3
        draws = kernel_sample_many(REV, np.full(40000, y), RngState(19))
        cont = draws[draws < y / 0.5]

        def cdf(x):
            return np.exp(0.5 / y - 1.0 / x)

        res = ks_one_sample(cont, cdf, level=0.01)
        assert res.passed, res

    @pytest.mark.parametrize("params", [FWD, REV, MaxARParams(0.0), MaxARParams(1.0)])
    def test_one_step_invariance(self, params):
        rng = RngState(19)
        start = STATIONARY.sample(rng, size=10000)
        nxt = kernel_sample_many(params, start, rng)
        res = ks_one_sample(nxt, frechet_cdf, level=0.001)
        assert res.passed, res

    def test_rejects_nonpositive_current(self):
        with pytest.raises(ValueError):
            kernel_sample(FWD, -1.0, RngState(1))


class TestBivariateCdf:
    def test_reference_value(self):
        assert bivariate_cdf(FWD, 1.0, 1.0) == pytest.approx(
            0.22313016014842982, rel=1e-15)

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("x,y", [(0.6, 1.4), (1.0, 1.0), (2.5, 0.8)])
    def test_matches_onset_series(self, a, x, y):
        got = bivariate_cdf(MaxARParams(a), x, y)
        assert got == pytest.approx(bivariate_series(a, x, y), rel=1e-12)

    def test_iid_product(self):
        got = bivariate_cdf(MaxARParams(0.0), 0.8, 1.7)
        assert got == pytest.approx(
            math.exp(-1 / 0.8) * math.exp(-1 / 1.7), rel=1e-14)

    def test_constant_comonotone(self):
        got = bivariate_cdf(MaxARParams(1.0), 0.8, 1.7)
        assert got == pytest.approx(math.exp(-1 / 0.8), rel=1e-14)

    def test_reversed_swaps_arguments(self):
        for x, y in [(0.6, 1.4), (1.3, 0.9)]:
            assert bivariate_cdf(REV, x, y) == pytest.approx(
                bivariate_cdf(FWD, y, x), rel=1e-14)

    @pytest.mark.parametrize("a", [0.3, 0.7])
    def test_consistent_with_kernel(self, a):
        """P[pair in rectangle] equals the kernel integrated over the
        stationary law up to the first level."""
        params = MaxARParams(a)
        x, y = 1.2, 0.9
        split = min(y / a, x)

        def integrand(u):
            return kernel_cdf(params, u, y) * math.exp(-1.0 / u) / u**2

        left, _ = integrate.quad(integrand, 0.0, split)
        right, _ = integrate.quad(integrand, split, x)
        assert left + right == pytest.approx(
            bivariate_cdf(params, x, y), abs=1e-9)

    def test_empirical_rectangle(self):
        n = 40000
        first, second = stationary_pairs(0.5, n, RngState(20))
        emp = float(((first <= 1.0) & (second <= 1.0)).mean())
        p = bivariate_cdf(FWD, 1.0, 1.0)
        assert abs(emp - p) < 4.0 * math.sqrt(p * (1 - p) / n)


class TestEquilibrium:
    def test_reference_case(self):
        report = equilibrium_check(0.5, 100000, RngState(21))
        assert report.all_passed, report.failures

    @pytest.mark.parametrize("a", [0.2, 0.8])
    def test_other_parameters(self, a):
        report = equilibrium_check(a, 40000, RngState(22))
        assert report.all_passed, report.failures

    def test_requires_large_sample(self):
        with pytest.raises(ValueError):
            equilibrium_check(0.5, 999, RngState(1))

    @pytest.mark.parametrize("a", [0.0, 1.0, math.nan])
    def test_requires_a_strictly_inside_the_unit_interval(self, a):
        with pytest.raises(ValueError, match="strictly inside"):
            equilibrium_check(a, 2000, RngState(1))

    @pytest.mark.parametrize("n", [1000.5, math.nan, math.inf, "2000", None])
    def test_refuses_n_that_is_not_an_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            equilibrium_check(0.5, n, RngState(1))

    def test_accepts_integral_n(self):
        report = equilibrium_check(0.5, 2000.0, RngState(23))
        assert report.params["n"] == 2000
        assert report.to_dict() == \
            equilibrium_check(0.5, 2000, RngState(23)).to_dict()

    def test_report_schema(self):
        report = equilibrium_check(0.5, 2000, RngState(23))
        payload = report.to_dict()
        assert payload["checks"]
        for entry in payload["checks"]:
            assert set(entry) == {"name", "value", "threshold", "pass",
                                  "provenance"}


class TestChapmanKolmogorov:
    @pytest.mark.parametrize("direction",
                             [Direction.FORWARD, Direction.REVERSED])
    @pytest.mark.parametrize("a", [0.3, 0.7])
    def test_stationarity_integral(self, a, direction):
        """Integrating the kernel against the stationary law recovers the
        stationary CDF exactly."""
        params = MaxARParams(a, direction)
        for y in (0.6, 1.0, 1.7):
            def integrand(x):
                return transition_cdf(params, x, y) * math.exp(-1.0 / x) / x**2

            kink = y / a if direction is Direction.FORWARD else y * a
            left, _ = integrate.quad(integrand, 0.0, kink)
            right, _ = integrate.quad(integrand, kink, np.inf)
            assert left + right == pytest.approx(
                math.exp(-1.0 / y), abs=1e-8)
