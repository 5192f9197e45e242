"""Tests for the conditional-distribution evaluator and the rank-based
independence test.

The exact two-factor evaluator is checked against the closed-form
transition kernels, against quadrature built from those kernels, and
against its own Monte Carlo counterpart.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from maxstab import (
    ConditionalQuery,
    Direction,
    FiniteMixing,
    GeometricMixing,
    MaxARParams,
    RngState,
    conditional_cdf,
    conditional_cdf_mc,
    conditional_factors,
    independence_test,
    kernel_cdf,
    ks_two_sample,
    simulate_forward,
)
from maxstab.analysis import _joint_grid_statistic, _null_statistics


def indicator_grid_statistic(u: np.ndarray, v: np.ndarray, grid: int) -> float:
    """The grid statistic from two n x grid indicator matrices and their
    matmul: the reference form of the bin-label table statistic."""
    qs = np.arange(1, grid + 1) / (grid + 1.0)
    iu = (u[:, None] <= np.quantile(u, qs)[None, :]).astype(np.float64)
    iv = (v[:, None] <= np.quantile(v, qs)[None, :]).astype(np.float64)
    joint = iu.T @ iv / u.size
    product = np.outer(iu.mean(axis=0), iv.mean(axis=0))
    return float(np.abs(joint - product).max())


def forward_kernel(a: float, x: float, y: float) -> float:
    return kernel_cdf(MaxARParams(a), x, y)


def reversed_kernel(a: float, y: float, x: float) -> float:
    """P[previous <= x | current = y], arguments in time order."""
    return kernel_cdf(MaxARParams(a, Direction.REVERSED), x, y)


def two_step_quadrature(a: float, x: float, y: float) -> float:
    """P[X(2) <= y | X(0) = x] by integrating the one-step kernel."""
    atom = math.exp(-(1.0 - a) / (a * x))
    total = atom * forward_kernel(a, a * x, y)

    def integrand(u):
        return forward_kernel(a, u, y) * (1.0 - a) / u**2 \
            * math.exp(-(1.0 - a) / u)

    kink = y / a
    if kink > a * x:
        left, _ = integrate.quad(integrand, a * x, kink)
        right, _ = integrate.quad(integrand, kink, np.inf)
        total += left + right
    else:
        part, _ = integrate.quad(integrand, a * x, np.inf)
        total += part
    return total


def path_pair_quadrature(a: float, x: float, c1: float, c2: float) -> float:
    """P[X(1) <= c1, X(2) <= c2 | X(0) = x] via the intermediate value."""
    atom = math.exp(-(1.0 - a) / (a * x))
    total = atom * forward_kernel(a, a * x, c2) if a * x <= c1 else 0.0
    if c1 > a * x:
        def integrand(u):
            return forward_kernel(a, u, c2) * (1.0 - a) / u**2 \
                * math.exp(-(1.0 - a) / u)

        kink = c2 / a
        pieces = sorted({min(kink, c1)})
        lo = a * x
        for edge in pieces + [c1]:
            if edge > lo:
                part, _ = integrate.quad(integrand, lo, edge)
                total += part
                lo = edge
    return total


def brute_factors(a: float, query: ConditionalQuery) -> tuple[float, float]:
    """Raw onset sums of the two conditional factors, no closed forms.

    Each onset n contributes its decay shape Y(s) = (1-a) a^(s-n) on s >= n;
    a = 1 is the constant process Y = 1.  Onsets start far enough below
    the query times that the omitted tail is below float resolution.
    """
    (t, z), targets = query.conditioning, query.targets
    times = [t] + [ti for ti, _ in targets]

    def shape(s: int, n: int) -> float:
        k = s - n
        if a == 1.0:
            return 1.0
        if k < 0:
            return 0.0
        if a == 0.0:
            return 1.0 if k == 0 else 0.0
        return (1.0 - a) * a**k

    onsets = [0] if a == 1.0 else range(min(times) - 2000, max(times) + 1)
    indicator = excess = 0.0
    for n in onsets:
        ref = shape(t, n) / z
        peak = max(shape(ti, n) / zi for ti, zi in targets)
        if peak <= ref:
            indicator += shape(t, n)
        excess += max(0.0, peak - ref)
    return indicator, excess


class TestConditionalQuery:
    def test_normalizes_types(self):
        q = ConditionalQuery((0.0, 1), (((1.0), 2),))
        assert q.conditioning == (0, 1.0)
        assert q.targets == ((1, 2.0),)

    def test_rejects_duplicate_targets(self):
        with pytest.raises(ValueError):
            ConditionalQuery((0, 1.0), ((1, 2.0), (1, 3.0)))

    def test_rejects_empty_targets(self):
        with pytest.raises(ValueError):
            ConditionalQuery((0, 1.0), ())

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            ConditionalQuery((0, 0.0), ((1, 1.0),))
        with pytest.raises(ValueError):
            ConditionalQuery((0, 1.0), ((1, -2.0),))

    @pytest.mark.parametrize("conditioning,targets", [
        ((0.7, 1.0), ((2, 2.0),)),
        ((0, 1.0), ((2.9, 2.0),)),
        ((0, 1.0), ((1, 1.0), (1.5, 2.0))),
        ((float("nan"), 1.0), ((1, 1.0),)),
        ((0, 1.0), ((float("inf"), 1.0),)),
        (("0", 1.0), ((1, 1.0),)),
        ((0, 1.0), ((None, 1.0),)),
    ])
    def test_rejects_indices_that_are_not_integers(self, conditioning,
                                                   targets):
        with pytest.raises(ValueError, match="indices must be integers"):
            ConditionalQuery(conditioning, targets)

    @pytest.mark.parametrize("conditioning,targets,field", [
        ((0,), ((1, 1.0),), "conditioning"),
        ((0, 1.0, 2.0), ((1, 1.0),), "conditioning"),
        (0, ((1, 1.0),), "conditioning"),
        ((0, 1.0), ((1, 1.0), (2,)), "each target"),
        ((0, 1.0), ((1, 1.0, 3.0),), "each target"),
        ((0, 1.0), (1,), "each target"),
    ])
    def test_refuses_pairs_of_another_length(self, conditioning, targets,
                                             field):
        with pytest.raises(ValueError, match=f"^{field} must be a pair$"):
            ConditionalQuery(conditioning, targets)

    def test_accepts_integral_indices_as_int(self):
        q = ConditionalQuery((np.int64(-2), 1.0),
                             ((np.float64(3.0), 2.0), (1e3, 1.5)))
        assert q.conditioning == (-2, 1.0)
        assert q.targets == ((3, 2.0), (1000, 1.5))
        assert all(type(t) is int for t, _ in (q.conditioning, *q.targets))


class TestConditionalCdf:
    @pytest.mark.parametrize("a", [0.0, 0.3, 1.0])
    def test_self_target(self, a):
        base = ConditionalQuery((0, 1.0), ((0, 2.0),))
        assert conditional_cdf(base, a) == 1.0
        tight = ConditionalQuery((0, 1.0), ((0, 0.5),))
        assert conditional_cdf(tight, a) == 0.0

    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
    def test_matches_forward_kernel(self, a):
        for x in (0.6, 1.0, 1.9):
            for y in np.linspace(0.2, 4.0, 20):
                q = ConditionalQuery((0, x), ((1, float(y)),))
                want = forward_kernel(a, x, float(y))
                assert conditional_cdf(q, a) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
    def test_matches_reversed_kernel(self, a):
        for y in (0.6, 1.0, 1.9):
            for x in np.linspace(0.2, 4.0, 20):
                q = ConditionalQuery((0, y), ((-1, float(x)),))
                want = reversed_kernel(a, y, float(x))
                assert conditional_cdf(q, a) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("a", [0.3, 0.6])
    @pytest.mark.parametrize("x,y", [(1.0, 0.9), (1.3, 2.0)])
    def test_two_step_matches_quadrature(self, a, x, y):
        q = ConditionalQuery((0, x), ((2, y),))
        assert conditional_cdf(q, a) == pytest.approx(
            two_step_quadrature(a, x, y), abs=1e-8)

    @pytest.mark.parametrize("c1", [0.8, 1.5])
    @pytest.mark.parametrize("c2", [0.6, 2.0])
    def test_two_target_matches_quadrature(self, c1, c2):
        a, x = 0.5, 1.1
        q = ConditionalQuery((0, x), ((1, c1), (2, c2)))
        assert conditional_cdf(q, a) == pytest.approx(
            path_pair_quadrature(a, x, c1, c2), abs=1e-8)

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_past_and_future_factorize(self, a):
        """Given the present, one past and one future target are
        conditionally independent, so the value splits into the two
        kernels."""
        for x in (0.7, 1.2):
            for w, y in [(0.5, 0.9), (1.4, 2.2), (3.0, 0.6)]:
                q = ConditionalQuery((0, x), ((-1, w), (1, y)))
                want = reversed_kernel(a, x, w) * forward_kernel(a, x, y)
                assert conditional_cdf(q, a) == pytest.approx(want, rel=1e-12)

    def test_constant_limit(self):
        q = ConditionalQuery((0, 1.0), ((5, 2.0), (9, 1.5)))
        assert conditional_cdf(q, 1.0) == 1.0
        q2 = ConditionalQuery((0, 1.0), ((5, 2.0), (9, 0.5)))
        assert conditional_cdf(q2, 1.0) == 0.0

    def test_iid_limit(self):
        q = ConditionalQuery((0, 1.0), ((3, 2.0), (7, 1.5)))
        want = math.exp(-1.0 / 2.0) * math.exp(-1.0 / 1.5)
        assert conditional_cdf(q, 0.0) == pytest.approx(want, rel=1e-14)

    def test_distant_target_approaches_marginal(self):
        """Far away from the conditioning index the chain mixes back to
        its stationary law."""
        q = ConditionalQuery((0, 1.0), ((40, 1.3),))
        got = conditional_cdf(q, 0.5)
        assert got == pytest.approx(math.exp(-1.0 / 1.3), abs=1e-9)

    def test_huge_level_drops_out(self):
        with_extra = ConditionalQuery((0, 1.0), ((1, 0.9), (3, 1e9)))
        without = ConditionalQuery((0, 1.0), ((1, 0.9),))
        assert conditional_cdf(with_extra, 0.5) == pytest.approx(
            conditional_cdf(without, 0.5), abs=1e-6)

    def test_monotone_in_levels(self):
        a = 0.5
        values = [conditional_cdf(
            ConditionalQuery((0, 1.0), ((1, z), (2, 1.0))), a)
            for z in np.linspace(0.3, 3.0, 15)]
        assert all(lo <= hi + 1e-15 for lo, hi in zip(values, values[1:]))

    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.2, max_value=4.0),
           st.floats(min_value=0.2, max_value=4.0),
           st.floats(min_value=0.2, max_value=4.0))
    def test_in_unit_interval(self, a, z, z1, z2):
        q = ConditionalQuery((0, z), ((-2, z1), (3, z2)))
        value = conditional_cdf(q, a)
        assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("tol", [1e-6, 0.0, 1e-3])
    def test_tol_argument_is_refused(self, tol):
        """conditional_cdf took a tol that had no effect; it is gone."""
        q = ConditionalQuery((0, 1.2), ((-2, 0.8), (3, 1.5)))
        with pytest.raises(TypeError, match="tol"):
            conditional_cdf(q, 0.4, tol=tol)

    def test_a_validation(self):
        q = ConditionalQuery((0, 1.0), ((1, 1.0),))
        with pytest.raises(ValueError):
            conditional_cdf(q, 1.5)

    @pytest.mark.parametrize("a", [0.0, 0.3, 0.8, 1.0])
    @pytest.mark.parametrize("conditioning,targets", [
        ((40, 1.1), ((-30, 0.9), (75, 1.7), (5, 0.6))),
        ((0, 0.8), ((0, 1.4), (-60, 0.5), (55, 2.3), (12, 1.0))),
    ])
    def test_matches_raw_onset_sums(self, a, conditioning, targets):
        q = ConditionalQuery(conditioning, targets)
        f = conditional_factors(q, a)
        indicator, excess = brute_factors(a, q)
        assert f.indicator_moment == pytest.approx(indicator, rel=1e-12,
                                                   abs=1e-300)
        assert f.excess_moment == pytest.approx(excess, rel=1e-12)

    def test_distant_targets_factorize(self):
        """Targets 1e5 steps away have decayed to nothing in float, so the
        value is the product of the two stationary marginals."""
        q = ConditionalQuery((0, 1.0), ((-50_000, 0.7), (50_000, 1.3)))
        want = math.exp(-1.0 / 0.7 - 1.0 / 1.3)
        assert conditional_cdf(q, 0.5) == pytest.approx(want, rel=1e-15)

    def test_factors_combine(self):
        q = ConditionalQuery((0, 1.0), ((1, 0.8), (4, 1.2)))
        f = conditional_factors(q, 0.6)
        assert f.value == pytest.approx(
            f.indicator_moment * math.exp(-f.excess_moment), rel=1e-15)
        assert conditional_cdf(q, 0.6) == f.value


class TestSpansPastInt64:
    """Query times 2**64 - 1 apart, whose span int64 cannot hold, are
    independent: the conditional law is that of the targets alone."""

    @pytest.mark.parametrize("a", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("cond, target, want", [
        ((-2**63, 1.0), (2**63 - 1, 1.0), math.exp(-1.0)),
        ((2**63 - 1, 1.0), (-2**63, 0.01), math.exp(-100.0)),
        ((-2**62, 2.0), (2**62 + 2**61, 0.5), math.exp(-2.0)),
        ((2**62, 1.0), (-2**62 - 5, 1.0), math.exp(-1.0)),
    ])
    def test_exact(self, a, cond, target, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = conditional_cdf(ConditionalQuery(cond, (target,)), a)
        assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.9])
    def test_monte_carlo(self, a):
        """Under a one-point mixing at 2**63 - 10 every draw is the same
        row: (1-a) a^9 at the conditioning time 2**63 - 1, and nothing at
        -2**63, before the onset, however low the target level."""
        q = ConditionalQuery((2**63 - 1, 1.0), ((-2**63, 0.01),))
        est = conditional_cdf_mc(q, a, 1000, RngState(1),
                                 FiniteMixing(((2**63 - 10, 1.0),)))
        assert est.value == pytest.approx((1.0 - a) * a**9, rel=1e-14)
        assert est.excess_moment == 0.0
        assert est.stderr == 0.0


# offsets from the conditioning time and levels, 2 to 5 query times: a
# target d steps later has a level above a**d times the conditioning level
# at every a tested, so no exact value is 0
CALIBRATION_SHAPES = [
    (1.0, ((1, 1.0),)),
    (1.2, ((1, 1.3), (-2, 1.5))),
    (0.7, ((2, 1.1), (-1, 2.0), (5, 0.8))),
    (1.0, ((-3, 1.3), (1, 1.4), (4, 1.7), (-1, 1.1))),
]
CALIBRATION_QUERIES = [
    ConditionalQuery((t0, z0), tuple((t0 + d, z) for d, z in targets))
    for t0 in (0, 3, 1000, -10**6) for z0, targets in CALIBRATION_SHAPES
] + [ConditionalQuery((-2**63, 1.0), ((2**63 - 1, 1.0),)),
     ConditionalQuery((2**62, 1.0), ((-2**62 - 5, 1.0),))]


class TestMonteCarloCalibration:
    """The default mixing charges the conditioning time and every target
    wherever they lie, so the Monte Carlo estimate agrees with the exact
    value in units of its own stderr at every index, int64's ends
    included (where the two query times are independent and e^-1 is
    due)."""

    @pytest.mark.parametrize("a", [0.0, 0.5, 0.9])
    def test_z_scores(self, a):
        """Four seeds per query at n = 20,000: every |z| at most 4, and
        the mean z, which has a standard error of about 0.12 over the 72
        runs, within 0.5 of 0."""
        zs = []
        for stream, query in enumerate(CALIBRATION_QUERIES):
            exact = conditional_cdf(query, a)
            for seed in range(4):
                est = conditional_cdf_mc(query, a, 20_000,
                                         RngState(seed, stream))
                assert est.stderr > 0.0, (query, seed)
                zs.append((est.value - exact) / est.stderr)
        assert max(map(abs, zs)) <= 4.0
        assert abs(sum(zs) / len(zs)) <= 0.5


class TestConditionalMc:
    def test_kernel_query_agreement(self):
        q = ConditionalQuery((0, 1.0), ((1, 1.0),))
        series = conditional_cdf(q, 0.5)
        est = conditional_cdf_mc(q, 0.5, 20000, RngState(50))
        assert est.stderr > 0.0
        assert abs(est.value - series) < 4.0 * est.stderr

    def test_multi_target_agreement(self):
        q = ConditionalQuery((0, 1.0), ((1, 1.0), (2, 1.5), (-1, 0.7)))
        series = conditional_cdf(q, 0.5)
        est = conditional_cdf_mc(q, 0.5, 40000, RngState(51))
        assert abs(est.value - series) < 4.0 * est.stderr

    @pytest.mark.parametrize("ratio", [0.3, 0.7])
    def test_mixing_choice_does_not_matter(self, ratio):
        """Any full-support onset mixing gives an unbiased estimate."""
        q = ConditionalQuery((0, 1.0), ((1, 1.2), (3, 0.9)))
        series = conditional_cdf(q, 0.4)
        est = conditional_cdf_mc(q, 0.4, 40000, RngState(52),
                                 mixing=GeometricMixing(ratio))
        assert abs(est.value - series) < 4.0 * est.stderr

    def test_iid_agreement(self):
        q = ConditionalQuery((0, 1.0), ((0, 1.5), (2, 0.8), (-3, 1.2)))
        series = conditional_cdf(q, 0.0)
        est = conditional_cdf_mc(q, 0.0, 40000, RngState(59))
        assert est.stderr > 0.0
        assert abs(est.value - series) < 4.0 * est.stderr

    def test_default_mixing_has_finite_variance(self):
        """For a**2 above the mixing ratio the 1/mass weights give infinite
        variance; the default ratio max(0.5, a) keeps the stderr honest."""
        q = ConditionalQuery((5, 0.3), ((-40, 1.1), (60, 2.0), (7, 0.4)))
        series = conditional_cdf(q, 0.93)
        est = conditional_cdf_mc(q, 0.93, 100000, RngState(17))
        assert abs(est.value - series) < 5.0 * est.stderr

    def test_constant_chain_exact(self):
        q = ConditionalQuery((0, 1.0), ((4, 2.0),))
        est = conditional_cdf_mc(q, 1.0, 1000, RngState(53))
        assert est.value == 1.0
        assert est.stderr == 0.0

    @pytest.mark.parametrize("mixing", [
        None, FiniteMixing(((-3, 1.0), (0, 2.0), (1, 1.0), (4, 0.5)))],
        ids=["default", "finite"])
    @pytest.mark.parametrize("query", [
        ConditionalQuery((0, 1.3), ((1, 0.9), (2, 1.7))),
        ConditionalQuery((0, 1.2), ((1, 0.9), (-2, 1.5))),
        ConditionalQuery((3, 0.7), ((5, 1.1), (-1, 2.0), (0, 0.8), (9, 1.4))),
        ConditionalQuery((0, 1.0), ((1, 1.5),)),
    ])
    def test_constant_chain_has_no_sampling_error(self, query, mixing):
        """At a = 1 both terms are the same for every draw: the estimate
        is the exact one, with no rounding left in any standard error,
        and no uniform is read."""
        rng = RngState(4)
        est = conditional_cdf_mc(query, 1.0, 100_000, rng, mixing)
        exact = conditional_factors(query, 1.0)
        assert (est.stderr, est.indicator_stderr, est.excess_stderr) \
            == (0.0, 0.0, 0.0)
        assert est.value == conditional_cdf(query, 1.0)
        assert (est.indicator_moment, est.excess_moment) \
            == (exact.indicator_moment, exact.excess_moment)
        assert rng.uniform() == RngState(4).uniform()

    def test_sample_size_floor(self):
        q = ConditionalQuery((0, 1.0), ((1, 1.0),))
        with pytest.raises(ValueError):
            conditional_cdf_mc(q, 0.5, 999, RngState(1))

    @pytest.mark.parametrize("n", [1000.9, 999.5, float("nan"),
                                   float("inf"), "1000", None])
    def test_refuses_sample_size_that_is_not_an_integer(self, n):
        q = ConditionalQuery((0, 1.0), ((1, 1.0),))
        with pytest.raises(ValueError,
                           match="n must be an integer of at least 1000"):
            conditional_cdf_mc(q, 0.5, n, RngState(1))

    def test_refuses_more_than_ten_million_draws(self):
        """The draws' size is known before they start, so it is refused
        at once, with no uniform read."""
        q = ConditionalQuery((0, 1.0), ((1, 1.0),))
        rng = RngState(1)
        with pytest.raises(ValueError, match="n = 10,000,001 draws"):
            conditional_cdf_mc(q, 0.5, 10**7 + 1, rng)
        assert rng.uniform() == RngState(1).uniform()

    @pytest.mark.parametrize("query", [
        ConditionalQuery((0, 1.2), ((1, 0.9), (-2, 1.5))),
        ConditionalQuery((3, 0.7), ((5, 1.1), (-1, 2.0), (0, 0.8), (9, 1.4))),
    ])
    @pytest.mark.parametrize("a", [0.4, 1.0])
    def test_peak_memory_per_draw(self, query, a):
        """The draws are made block by block, so the traced peak does not
        grow with the query's size: at most 48 bytes per draw plus 1 MiB."""
        n = 200_000
        conditional_cdf_mc(query, a, 1000, RngState(2))  # warm the caches
        tracemalloc.start()
        try:
            conditional_cdf_mc(query, a, n, RngState(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * n + 2**20

    @pytest.mark.parametrize("mixing", [
        None, FiniteMixing(((-3, 1.0), (0, 2.0), (1, 1.0), (4, 0.5)))],
        ids=["default", "finite"])
    def test_peak_memory_is_flat_in_n(self, mixing):
        """Each block's terms are folded into running moments and no
        per-draw array is held, so a million draws trace under 2 MB (a
        per-draw array of them would take 8 MB)."""
        query = ConditionalQuery((0, 1.2), ((1, 0.9), (-2, 1.5)))
        conditional_cdf_mc(query, 0.4, 1000, RngState(2), mixing)
        tracemalloc.start()
        try:
            conditional_cdf_mc(query, 0.4, 1_000_000, RngState(3), mixing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_integral_sample_size_runs_as_int(self):
        q = ConditionalQuery((0, 1.0), ((1, 1.0),))
        as_float = conditional_cdf_mc(q, 0.5, 1000.0, RngState(1))
        as_int = conditional_cdf_mc(q, 0.5, np.int64(1000), RngState(1))
        assert as_float == as_int
        assert type(as_float.n) is int and as_float.n == 1000


class TestIndependenceTest:
    def test_iid_chain_passes(self):
        path = simulate_forward(MaxARParams(0.0), 8000, RngState(54))
        report = independence_test(path.values.reshape(-1, 2))
        assert report.all_passed

    def test_synthetic_independent_passes(self):
        rng = RngState(55)
        pairs = rng.uniform(size=8000).reshape(-1, 2)
        report = independence_test(pairs)
        assert report.all_passed

    def test_dependent_chain_rejected(self):
        path = simulate_forward(MaxARParams(0.5), 8000, RngState(56))
        report = independence_test(path.values.reshape(-1, 2))
        assert report.all_passed is False

    def test_constant_coordinate_flagged(self):
        pairs = np.column_stack([np.ones(2000),
                                 RngState(57).uniform(size=2000)])
        report = independence_test(pairs)
        assert report.all_passed is True  # nothing failed...
        assert report.checks[0].passed is None  # ...but nothing was decided
        assert "not applicable" in report.checks[0].note

    def test_input_validation(self):
        with pytest.raises(ValueError):
            independence_test(np.ones((500, 2)))
        with pytest.raises(ValueError):
            independence_test(np.ones((2000, 3)))
        with pytest.raises(ValueError):
            independence_test(np.full((2000, 2), np.nan))
        with pytest.raises(ValueError):
            independence_test(np.ones((2000, 2)), level=0.7)

    def test_grid_and_null_size_are_fixed(self):
        """The grid and the number of null tables are constants of the
        test, recorded in its report."""
        pairs = RngState(59).uniform(size=4000).reshape(-1, 2)
        report = independence_test(pairs)
        assert report.params["grid"] == 20
        assert report.params["n_null"] == 2000
        with pytest.raises(TypeError):
            independence_test(pairs, grid=10)

    def test_null_rate_within_band(self):
        """False rejection rate stays near the nominal level."""
        rejections = 0
        for r in range(80):
            pairs = RngState(58, r).uniform(size=2400).reshape(-1, 2)
            report = independence_test(pairs, level=0.05)
            if report.all_passed is False:
                rejections += 1
        assert rejections <= 9  # 80 trials at 5%: mean 4, generous ceiling

    def test_realized_size_at_identify_pair_count(self):
        """At 5000 pairs, identify's pair count for 1e4 values, the 1% test
        rejects 2000 i.i.d. sets at its level within 3.5 binomial standard
        deviations (5 to 35).  Measured: 25 of 2000 with the fixed-margin
        table null of 2000 draws; 38 of 2000, outside the band, with the
        former null of 200 simulated data sets."""
        rejections = 0
        for r in range(2000):
            pairs = RngState(61, r).uniform(size=10_000).reshape(-1, 2)
            if independence_test(pairs).checks[0].passed is False:
                rejections += 1
        assert 5 <= rejections <= 35


class TestGridStatistic:
    @pytest.mark.parametrize("n", [1000, 10_000, 100_000])
    @pytest.mark.parametrize("decimals", [None, 2])
    def test_equals_indicator_form(self, n, decimals):
        """The bin-label table gives the indicator-matmul statistic bit for
        bit, on continuous data and on data with ties."""
        pairs = simulate_forward(MaxARParams(0.3), 2 * n,
                                 RngState(59, n)).values.reshape(-1, 2)
        if decimals is not None:
            pairs = np.round(pairs, decimals)
        u, v = pairs[:, 0], pairs[:, 1]
        assert _joint_grid_statistic(u, v) == \
            indicator_grid_statistic(u, v, 20)

    def test_table_null_matches_simulated_pairs(self):
        """Fixed-margin null tables give the statistic the law it has on
        i.i.d. uniform pairs (two-sample KS, 2000 draws each, 2000 pairs)."""
        n = 2000
        tables = _null_statistics(n)
        rng = RngState(60)
        direct = [_joint_grid_statistic(*rng.uniform(size=2 * n).reshape(2, n))
                  for _ in range(2000)]
        ks = ks_two_sample(tables, direct)
        assert ks.passed, ks
