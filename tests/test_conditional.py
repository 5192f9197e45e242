"""Tests for the conditional-distribution evaluator and the rank-based
independence test.

The exact two-factor evaluator is checked against the closed-form
transition kernels, against quadrature built from those kernels, and
against its own Monte Carlo counterpart.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from maxstab import (
    ConditionalQuery,
    Direction,
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
from maxstab.conditional import _joint_grid_statistic, _null_statistics


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

    def test_tol_validation(self):
        q = ConditionalQuery((0, 1.0), ((1, 1.0),))
        for bad in (0.0, -1e-9, 1e-3):
            with pytest.raises(ValueError):
                conditional_cdf(q, 0.5, tol=bad)

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

    def test_sample_size_floor(self):
        q = ConditionalQuery((0, 1.0), ((1, 1.0),))
        with pytest.raises(ValueError):
            conditional_cdf_mc(q, 0.5, 999, RngState(1))


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
        assert _joint_grid_statistic(u, v, 20) == \
            indicator_grid_statistic(u, v, 20)

    def test_table_null_matches_simulated_pairs(self):
        """Fixed-margin null tables give the statistic the law it has on
        i.i.d. uniform pairs (two-sample KS, 2000 draws each, 2000 pairs)."""
        n = 2000
        tables = _null_statistics(n, 20, 2000)
        rng = RngState(60)
        direct = [_joint_grid_statistic(*rng.uniform(size=2 * n).reshape(2, n), 20)
                  for _ in range(2000)]
        ks = ks_two_sample(tables, direct)
        assert ks.passed, ks
