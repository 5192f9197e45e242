"""Tests for the statistical toolbox: KS helpers, ratio-support and
parameter identification, and the verification battery."""

import math

import numpy as np
import pytest
from scipy import stats

import maxstab.analysis
import maxstab.continuous
from maxstab import (
    AmbiguousRatioError,
    BatterySizes,
    Direction,
    IdentificationError,
    MaxARParams,
    RngState,
    ShapeFunction,
    UnclassifiableDataError,
    frechet_cdf,
    frechet_quantile,
    frechet_sample,
    identify,
    kernel_sample_many,
    ks_critical_value,
    ks_one_sample,
    ks_two_sample,
    run_battery,
    simulate_forward,
    simulate_reversed,
)


def pair_minima(a: float, n: int, rng: RngState) -> np.ndarray:
    """Minima of n independent stationary transitions."""
    first = frechet_sample(rng, size=n)
    second = kernel_sample_many(MaxARParams(a), first, rng)
    return np.minimum(first, second)


def pair_min_gap(a1: float, a2: float) -> float:
    """Analytic sup distance between the two pair-minimum CDFs.

    The minimum of a consecutive stationary pair has CDF
    2 exp(-1/m) - exp(-(2-a)/m); the marginal terms cancel in the
    difference, leaving the gap between two exponential tails.
    """
    m = np.linspace(0.01, 10.0, 20000)
    gap = np.abs(np.exp(-(2 - a1) / m) - np.exp(-(2 - a2) / m))
    return float(gap.max())


class TestKsCriticalValue:
    def test_reference_level(self):
        assert ks_critical_value(0.01) == pytest.approx(1.6276236, abs=1e-6)

    def test_formula(self):
        for level in (0.001, 0.05, 0.2):
            want = math.sqrt(-0.5 * math.log(level / 2.0))
            assert ks_critical_value(level) == pytest.approx(want, rel=1e-15)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                ks_critical_value(bad)


class TestKsOneSample:
    def test_matching_law_passes(self):
        x = frechet_sample(RngState(80), size=5000)
        res = ks_one_sample(x, frechet_cdf)
        assert res.passed and res.n == 5000

    def test_statistic_agrees_with_scipy(self):
        x = frechet_sample(RngState(81), size=2000)
        ours = ks_one_sample(x, frechet_cdf).statistic
        theirs = stats.kstest(x, lambda y: frechet_cdf(y)).statistic
        assert ours == pytest.approx(theirs, abs=1e-12)

    def test_wrong_scale_fails_at_analytic_gap(self):
        """Scale-2 draws against the unit CDF: the sup distance between
        exp(-2/y) and exp(-1/y) is exactly 1/4, at the crossing of p and
        p^2."""
        x = frechet_sample(RngState(82), scale=2.0, size=20000)
        res = ks_one_sample(x, frechet_cdf)
        assert not res.passed
        assert res.statistic == pytest.approx(0.25, abs=0.02)

    def test_boundary_sample_size(self):
        x = frechet_sample(RngState(83), size=30)
        assert ks_one_sample(x, frechet_cdf).n == 30
        with pytest.raises(ValueError):
            ks_one_sample(x[:29], frechet_cdf)

    def test_rejects_non_finite(self):
        x = np.ones(100)
        x[3] = np.inf
        with pytest.raises(ValueError):
            ks_one_sample(x, frechet_cdf)

    def test_null_rejection_rate(self):
        """The asymptotic threshold keeps the false alarm rate at or below
        about the nominal level."""
        rejections = 0
        trials = 400
        for r in range(trials):
            x = frechet_sample(RngState(84, r), size=250)
            if not ks_one_sample(x, frechet_cdf, level=0.01).passed:
                rejections += 1
        assert rejections <= math.ceil(2 * 0.01 * trials)


class TestKsTwoSample:
    def test_same_law_passes(self):
        x = frechet_sample(RngState(85), size=4000)
        y = frechet_sample(RngState(86), size=5000)
        res = ks_two_sample(x, y)
        assert res.passed and res.n == 4000

    def test_statistic_agrees_with_scipy(self):
        x = frechet_sample(RngState(87), size=1500)
        y = frechet_sample(RngState(88), size=900)
        ours = ks_two_sample(x, y).statistic
        theirs = stats.ks_2samp(x, y).statistic
        assert ours == pytest.approx(theirs, abs=1e-12)

    def test_size_floor(self):
        with pytest.raises(ValueError):
            ks_two_sample(np.ones(29), np.ones(100))

    def test_rejects_non_finite(self):
        x = frechet_sample(RngState(93), size=50)
        y = frechet_sample(RngState(94), size=50)
        for bad in (math.nan, math.inf):
            z = x.copy()
            z[7] = bad
            with pytest.raises(ValueError, match="finite"):
                ks_two_sample(z, y)
            with pytest.raises(ValueError, match="finite"):
                ks_two_sample(y, z)

    def test_marginals_hide_dependence_but_minima_reveal_it(self):
        """Chains with different a share the same marginal law; the pair
        minimum separates them by a sup distance near its analytic value."""
        n = 10000
        mins_a = pair_minima(0.5, n, RngState(89))
        mins_b = pair_minima(0.9, n, RngState(90))
        marg_a = frechet_sample(RngState(91), size=n)
        marg_b = frechet_sample(RngState(92), size=n)
        assert ks_two_sample(marg_a, marg_b).passed
        res = ks_two_sample(mins_a, mins_b)
        assert not res.passed
        gap = pair_min_gap(0.5, 0.9)
        assert gap == pytest.approx(0.1137, abs=1e-3)
        assert res.statistic == pytest.approx(gap, abs=0.03)


def median_clusters(ratios: np.ndarray, rel_tol: float):
    """Every run of sorted ratios with np.median of each, sorted by count
    descending, then by median: the reference form of _ratio_clusters
    before runs too small to be atoms were dropped."""
    order = np.sort(ratios)
    breaks = np.nonzero(order[1:] / order[:-1] - 1.0 > rel_tol)[0]
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks + 1, [order.size]])
    clusters = [(float(np.median(order[s:e])), int(e - s))
                for s, e in zip(starts, ends)]
    return sorted(clusters, key=lambda c: (-c[1], c[0]))


class TestRatioClusters:
    @pytest.mark.parametrize("decimals", [0, 2])
    @pytest.mark.parametrize("rel_tol", [1e-9, 1e-3])
    def test_matches_median_reference(self, decimals, rel_tol):
        """Rounded values give many tied ratios, with runs of odd and even
        length; the candidate atoms equal the reference's bit for bit."""
        values = np.round(
            simulate_forward(MaxARParams(0.6), 5000, RngState(114)).values * 20,
            decimals) + 1.0
        ratios = values[1:] / values[:-1]
        expected = [c for c in median_clusters(ratios, rel_tol)
                    if c[1] >= maxstab.analysis._ATOM_MIN_COUNT]
        assert len(expected) > 10
        assert {c[1] % 2 for c in expected} == {0, 1}
        assert maxstab.analysis._ratio_clusters(ratios, rel_tol) == expected


class TestIdentify:
    def test_forward_round_trip(self):
        path = simulate_forward(MaxARParams(0.3), 10000, RngState(97))
        result = identify(path.values)
        assert result.params.direction is Direction.FORWARD
        assert abs(result.params.a - 0.3) < 1e-12
        assert abs(result.atom_mass - 0.3) < 0.02

    def test_reversed_round_trip(self):
        path = simulate_reversed(MaxARParams(0.7, Direction.REVERSED),
                                 10000, RngState(98))
        result = identify(path.values)
        assert result.params.direction is Direction.REVERSED
        assert abs(result.params.a - 0.7) < 1e-9
        assert result.atom_location == pytest.approx(1.0 / 0.7, rel=1e-9)

    def test_iid_detected(self):
        path = simulate_forward(MaxARParams(0.0), 10000, RngState(99))
        result = identify(path.values)
        assert result.params.a == 0.0
        assert result.atom_location is None

    def test_constant_detected(self):
        path = simulate_forward(MaxARParams(1.0), 500, RngState(100))
        result = identify(path.values)
        assert result.params.a == 1.0
        assert result.atom_mass == 1.0

    def test_notes_present(self):
        path = simulate_forward(MaxARParams(0.5), 5000, RngState(101))
        result = identify(path.values)
        assert result.notes
        assert result.n_used == 5000

    def test_dependent_data_outside_family(self):
        """A log-Gaussian autoregression is dependent but has no ratio
        atom, so no member of the family explains it."""
        gen = np.random.Generator(np.random.Philox(5))
        g = np.empty(4000)
        g[0] = gen.standard_normal()
        for t in range(1, 4000):
            g[t] = 0.8 * g[t - 1] + 0.6 * gen.standard_normal()
        with pytest.raises(UnclassifiableDataError):
            identify(np.exp(g))

    def test_two_sided_atoms_ambiguous(self):
        """Exact halving and doubling runs in one series support both a
        forward and a reversed reading."""
        steps = []
        for _ in range(25):
            steps.extend([0.5] * 10)
            steps.extend([1.2, 0.9, 1.1])
            steps.extend([2.0] * 10)
            steps.extend([0.8, 1.3, 0.95])
        values = np.cumprod([1.0] + steps)
        with pytest.raises(AmbiguousRatioError):
            identify(values)

    def test_atom_with_violating_support_ambiguous(self):
        """An exact atom inside a diffuse ratio cloud matches no member:
        a forward chain would forbid ratios below its atom."""
        base = frechet_sample(RngState(102), size=4000)
        values = base.copy()
        for start in range(100, 3700, 90):
            values[start + 1] = 0.5 * values[start]
            values[start + 2] = 0.5 * values[start + 1]
        with pytest.raises(AmbiguousRatioError):
            identify(values)

    @pytest.mark.parametrize("a", [0.5, 0.9])
    @pytest.mark.parametrize("reversed_dir", [False, True])
    def test_atom_path_skips_independence_test(self, monkeypatch, a,
                                               reversed_dir):
        """A path with a ratio atom never reads the independence verdict,
        so it never pays for the test; a path without one still does."""
        calls = []
        honest = maxstab.analysis.independence_test

        def spy(*args, **kwargs):
            calls.append(args)
            return honest(*args, **kwargs)

        monkeypatch.setattr(maxstab.analysis, "independence_test", spy)
        simulate = simulate_reversed if reversed_dir else simulate_forward
        direction = Direction.REVERSED if reversed_dir else Direction.FORWARD
        path = simulate(MaxARParams(a, direction), 10_000, RngState(103))
        result = identify(path.values)
        assert result.params.direction is direction
        assert result.params.a == pytest.approx(a, rel=1e-9)
        assert calls == []
        identify(simulate_forward(MaxARParams(0.0), 10_000, RngState(99)).values)
        assert len(calls) == 1

    def test_atom_at_one_only_unclassifiable(self, monkeypatch):
        """Each value repeated once gives an atom at ratio 1 and no other;
        no member of the family has it, and the test is not run."""
        monkeypatch.setattr(maxstab.analysis, "independence_test", None)
        values = np.repeat(frechet_sample(RngState(104), size=3000), 2)
        with pytest.raises(UnclassifiableDataError, match="sits at one"):
            identify(values)

    def test_exceptions_are_value_errors(self):
        assert issubclass(UnclassifiableDataError, IdentificationError)
        assert issubclass(AmbiguousRatioError, IdentificationError)
        assert issubclass(IdentificationError, ValueError)

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            identify(np.ones(99))

    @pytest.mark.parametrize("rel_tol", [math.inf, math.nan, -1.0, 1.5])
    def test_refuses_rel_tol_outside_the_unit_interval(self, rel_tol):
        """A tolerance of inf once merged every ratio into one atom and gave
        a = 1; NaN or a negative one found no atom and said unclassifiable."""
        path = simulate_forward(MaxARParams(0.5), 3000, RngState(1))
        with pytest.raises(ValueError, match=r"rel_tol must lie in \[0, 1\]"):
            identify(path, rel_tol=rel_tol)

    @pytest.mark.parametrize("n", [100, 1999])
    def test_short_atomless_path_unclassifiable(self, monkeypatch, n):
        """Below 2000 values a path with no atom cannot be tested for
        independence, so it is refused before the test runs."""
        monkeypatch.setattr(maxstab.analysis, "independence_test", None)
        values = simulate_forward(MaxARParams(0.0), n, RngState(105)).values
        with pytest.raises(UnclassifiableDataError, match="too few values"):
            identify(values)

    def test_reversed_atom_with_a_ratio_beyond_it_ambiguous(self):
        """One ratio above 1/a is impossible for the reversed chain whose
        atom sits at 1/a."""
        values = simulate_reversed(MaxARParams(0.5, Direction.REVERSED),
                                   4000, RngState(106)).values.copy()
        values[2001] = 3.0 * values[2000]
        with pytest.raises(AmbiguousRatioError, match="beyond it"):
            identify(values)

    @pytest.mark.parametrize("a", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("reversed_dir", [False, True])
    def test_recovery_smoke(self, a, reversed_dir):
        for r in range(5):
            if reversed_dir:
                path = simulate_reversed(
                    MaxARParams(a, Direction.REVERSED), 10000,
                    RngState(103, 10 * r))
            else:
                path = simulate_forward(MaxARParams(a), 10000,
                                        RngState(104, 10 * r))
            result = identify(path.values)
            want = Direction.REVERSED if reversed_dir else Direction.FORWARD
            assert result.params.direction is want
            assert abs(result.params.a - a) < 1e-3


class TestBatterySizes:
    def test_defaults(self):
        sizes = BatterySizes()
        assert sizes.transitions == 20000
        assert sizes.copies == 50

    def test_scaled(self):
        sizes = BatterySizes().scaled(10000)
        assert sizes.transitions == 10000
        assert sizes.marginal == 2000
        assert sizes.aggregation == 1000

    def test_scaled_floors(self):
        sizes = BatterySizes().scaled(1000)
        assert sizes.marginal == 1000
        assert sizes.aggregation == 500

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            BatterySizes().scaled(0)
        with pytest.raises(ValueError):
            BatterySizes(copies=0)

    @pytest.mark.parametrize("name", [
        "marginal", "transitions", "aggregation", "copies", "path_length",
        "continuous_replicates", "skeleton_points"])
    def test_rejects_non_integer_sizes(self, name):
        """A fractional size is refused up front, not deep in a draw or
        written into a report; an integral float is taken as its int."""
        with pytest.raises(ValueError, match=f"battery size {name} must be "
                           r"an integer, got 400\.5"):
            BatterySizes(**{name: 400.5})
        size = getattr(BatterySizes(**{name: 400.0}), name)
        assert size == 400 and type(size) is int

    def test_rejects_sizes_below_check_minimum(self):
        """A size the checks cannot run on is refused up front, naming the
        field and its minimum; each minimum itself is accepted."""
        minimums = {"marginal": 30, "transitions": 150, "aggregation": 30,
                    "path_length": 2, "continuous_replicates": 30}
        for name, least in minimums.items():
            BatterySizes(**{name: least})
            with pytest.raises(ValueError,
                               match=f"{name} must be at least {least}"):
                BatterySizes(**{name: least - 1})


class TestRunBattery:
    def test_discrete_forward(self):
        report = run_battery(MaxARParams(0.5), RngState(105))
        assert report.all_passed, report.failures
        names = {c.name for c in report.checks}
        assert "transition_atom_mass" in names
        assert "chapman_kolmogorov_quadrature" in names
        assert "reversal_involution" in names
        assert "max_stability_pair_min" in names
        assert "equilibrium_grid" in names

    def test_discrete_reversed(self):
        report = run_battery(MaxARParams(0.5, Direction.REVERSED),
                             RngState(106))
        assert report.all_passed, report.failures

    def test_discrete_boundaries(self):
        for a in (0.0, 1.0):
            report = run_battery(MaxARParams(a), RngState(107))
            assert report.all_passed, report.failures

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a", [0.0, 5e-324, 1e-16, 1e-13, 1e-6, 0.5,
                                   1.0 - 1e-15, 1.0])
    def test_chapman_kolmogorov_holds_across_domain(self, a):
        """The stationarity integral is exact to rounding for every a,
        including where the kernel's kink y/a lies far in the tail."""
        report = run_battery(MaxARParams(a), RngState(112),
                             sizes=BatterySizes().scaled(1000))
        check = next(c for c in report.checks
                     if c.name == "chapman_kolmogorov_quadrature")
        assert check.passed is True
        assert check.value < 1e-8

    @pytest.mark.parametrize("direction", list(Direction))
    def test_transition_atom_mass_at_subnormal_a(self, direction):
        """At subnormal a the binomial variance a(1-a)/n underflows; the
        threshold must stay positive, so the never-held atom passes."""
        report = run_battery(MaxARParams(5e-324, direction), RngState(3),
                             sizes=BatterySizes().scaled(1000))
        check = next(c for c in report.checks
                     if c.name == "transition_atom_mass")
        assert check.threshold > 0.0
        assert report.all_passed, report.failures

    def test_chapman_kolmogorov_detects_wrong_kernel(self, monkeypatch):
        """Dropping the (1 - a) factor above the atom breaks stationarity;
        the check must see it through kernel_cdf alone."""
        def wrong(params, x, y):
            return 0.0 if y < params.a * x else math.exp(-1.0 / y)

        monkeypatch.setattr(maxstab.analysis, "kernel_cdf", wrong)
        report = run_battery(MaxARParams(0.4), RngState(113),
                             sizes=BatterySizes().scaled(1000))
        check = next(c for c in report.checks
                     if c.name == "chapman_kolmogorov_quadrature")
        assert check.passed is False
        assert check.value > 0.01

    def test_continuous_forward(self):
        report = run_battery(ShapeFunction(0.5), RngState(108))
        assert report.all_passed, report.failures
        names = {c.name for c in report.checks}
        assert "skeleton_ratio_edge" in names
        assert "holding_probability" in names

    def test_continuous_reversed(self):
        report = run_battery(ShapeFunction(0.5, Direction.REVERSED),
                             RngState(109))
        assert report.all_passed, report.failures

    def test_report_metadata(self):
        report = run_battery(MaxARParams(0.3), RngState(110),
                             sizes=BatterySizes().scaled(2000))
        payload = report.to_dict()
        assert payload["params"]["a"] == 0.3
        assert payload["params"]["direction"] == "forward"
        assert payload["seeds"]
        for entry in payload["checks"]:
            assert set(entry) == {"name", "value", "threshold", "pass",
                                  "provenance"}

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, math.inf, math.nan])
    def test_continuous_rejects_bad_epsilon(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            run_battery(ShapeFunction(0.5), RngState(1), epsilon=epsilon)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_continuous_rejects_subnormal_step_decay(self, direction,
                                                     monkeypatch):
        """At a = 1e-300 and epsilon = 1.1, a**epsilon underflows to 0:
        the skeleton edge has no target, so nothing is drawn."""
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before refusing")

        for name in ("_jump_chain", "_window_path"):
            monkeypatch.setattr(maxstab.continuous, name, no_draw)
        monkeypatch.setattr(maxstab.analysis, "_stationary_windows", no_draw)
        with pytest.raises(ValueError, match=r"a\*\*epsilon = 0\.0 at "
                           r"a=1e-300, epsilon=1\.1 is not a normal float"):
            run_battery(ShapeFunction(1e-300, direction), RngState(23),
                        BatterySizes().scaled(1000), epsilon=1.1)

    def test_rejects_unknown_spec(self):
        with pytest.raises(TypeError):
            run_battery(object(), RngState(1))

    def test_detects_corrupted_simulator(self, monkeypatch):
        """A biased replicate source must trip the marginal checks."""
        honest = maxstab.analysis._stationary_windows

        def biased(a, width, count, rng):
            return 1.3 * honest(a, width, count, rng)

        monkeypatch.setattr(maxstab.analysis, "_stationary_windows", biased)
        report = run_battery(MaxARParams(0.5), RngState(111))
        assert report.all_passed is False
        assert any("stationary_marginal" in c.name for c in report.failures)

    @pytest.mark.parametrize("direction", list(Direction))
    def test_wrong_path_scan_fails_the_edge_checks(self, direction,
                                                   monkeypatch):
        """A path scan that breaks the one-step bound is recorded as a
        failed ratio edge and a failed involution, not raised."""
        honest = maxstab.analysis._stationary_windows

        def dropping(a, width, count, rng):
            x = honest(a, width, count, rng)
            if count == 1:
                x[0, width // 2] *= 1e-3
            return x

        monkeypatch.setattr(maxstab.analysis, "_stationary_windows", dropping)
        report = run_battery(MaxARParams(0.5, direction), RngState(111),
                             BatterySizes().scaled(1000))
        edge = "ratio_lower_edge" if direction is Direction.FORWARD \
            else "ratio_upper_edge"
        assert {c.name for c in report.failures} == {edge,
                                                     "reversal_involution"}
