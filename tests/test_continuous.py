"""Tests for the continuous-time moving-maximum process: exact window
simulation, cadlag path semantics, time reversal, and grid skeletons."""

import math

import numpy as np
import pytest
from scipy import integrate

from maxstab import (
    CadlagPath,
    Direction,
    MaxARParams,
    RngState,
    STATIONARY,
    ShapeFunction,
    frechet_cdf,
    kernel_sample_many,
    ks_one_sample,
    ks_two_sample,
    path_value,
    sample_grid,
    simulate_moving_max,
    simulate_moving_max_reversed,
)


def replicate_values(a: float, length: float, at: float, count: int,
                     seed: int, reversed_direction: bool = False):
    """Values of independent window draws at a fixed interior time."""
    sim = simulate_moving_max_reversed if reversed_direction \
        else simulate_moving_max
    out = np.empty(count)
    for r in range(count):
        out[r] = path_value(sim(a, length, RngState(seed, r)), at)
    return out


class TestShapeFunction:
    def test_unit_integral(self):
        for a in (0.2, 0.5, 0.9):
            shape = ShapeFunction(a)
            total, _ = integrate.quad(shape, 0.0, np.inf)
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_reversed_unit_integral(self):
        shape = ShapeFunction(0.5, Direction.REVERSED)
        total, _ = integrate.quad(shape, -np.inf, 0.0)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_supports_mirror(self):
        fwd = ShapeFunction(0.5)
        rev = ShapeFunction(0.5, Direction.REVERSED)
        assert fwd(-0.5) == 0.0 and rev(0.5) == 0.0
        assert fwd(2.0) == pytest.approx(rev(-2.0), rel=1e-15)

    def test_decay_rate(self):
        shape = ShapeFunction(0.5)
        assert shape(3.0) == pytest.approx(0.5 * shape(2.0), rel=1e-15)

    def test_rejects_boundary_rates(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                ShapeFunction(bad)

    def test_vectorized(self):
        shape = ShapeFunction(0.5)
        out = shape(np.array([-1.0, 0.0, 1.0]))
        assert out[0] == 0.0
        assert out[1] == pytest.approx(math.log(2.0), rel=1e-15)


class TestCadlagPath:
    def test_rejects_event_outside_window(self):
        with pytest.raises(ValueError):
            CadlagPath(0.5, Direction.FORWARD, (0.0, 1.0), 1.0,
                       ((1.5, 2.0),))

    def test_rejects_unordered_events(self):
        with pytest.raises(ValueError):
            CadlagPath(0.5, Direction.FORWARD, (0.0, 2.0), 1.0,
                       ((1.0, 5.0), (0.5, 6.0)))

    def test_rejects_forward_downward_jump(self):
        # after decaying halfway, 0.4 sits below the envelope 1 * 0.5^1
        with pytest.raises(ValueError):
            CadlagPath(0.5, Direction.FORWARD, (0.0, 2.0), 1.0,
                       ((1.0, 0.4),))

    def test_rejects_reversed_upward_jump(self):
        with pytest.raises(ValueError):
            CadlagPath(0.5, Direction.REVERSED, (0.0, 2.0), 1.0,
                       ((1.0, 3.0),))

    def test_rejects_degenerate_window(self):
        with pytest.raises(ValueError):
            CadlagPath(0.5, Direction.FORWARD, (1.0, 1.0), 1.0, ())

    def test_rejects_nonpositive_anchor(self):
        with pytest.raises(ValueError):
            CadlagPath(0.5, Direction.FORWARD, (0.0, 1.0), 0.0, ())

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            CadlagPath(0.0, Direction.FORWARD, (0.0, 1.0), 1.0, ())

    def test_event_times_property(self):
        path = CadlagPath(0.5, Direction.FORWARD, (0.0, 3.0), 1.0,
                          ((1.0, 5.0), (2.0, 4.0)))
        assert np.array_equal(path.event_times, [1.0, 2.0])


class TestPathValue:
    def test_anchor_at_start(self):
        path = CadlagPath(0.5, Direction.FORWARD, (0.0, 2.0), 1.3, ())
        assert path_value(path, 0.0) == 1.3

    def test_halves_per_unit(self):
        path = CadlagPath(0.5, Direction.FORWARD, (0.0, 3.0), 1.0, ())
        assert path_value(path, 1.0) == pytest.approx(0.5, rel=1e-15)
        assert path_value(path, 2.0) == pytest.approx(0.25, rel=1e-15)

    def test_right_continuous_at_event(self):
        path = CadlagPath(0.5, Direction.FORWARD, (0.0, 2.0), 1.0,
                          ((1.0, 5.0),))
        assert path_value(path, 1.0) == 5.0
        approach = path_value(path, 1.0 - 1e-9)
        assert approach == pytest.approx(0.5, rel=1e-6)

    def test_window_end_is_left_limit(self):
        path = CadlagPath(0.5, Direction.FORWARD, (0.0, 2.0), 1.0,
                          ((1.0, 4.0),))
        assert path_value(path, 2.0) == pytest.approx(2.0, rel=1e-15)

    def test_reversed_grows_between_events(self):
        path = CadlagPath(0.5, Direction.REVERSED, (0.0, 2.0), 1.0,
                          ((1.0, 0.3),))
        assert path_value(path, 0.5) == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert path_value(path, 1.0) == 0.3

    def test_outside_window(self):
        path = CadlagPath(0.5, Direction.FORWARD, (0.0, 1.0), 1.0, ())
        for t in (-0.1, 1.1):
            with pytest.raises(ValueError):
                path_value(path, t)

    def test_method_alias(self):
        path = CadlagPath(0.5, Direction.FORWARD, (0.0, 1.0), 1.0, ())
        assert path.value(0.5) == path_value(path, 0.5)


class TestSimulateMovingMax:
    def test_deterministic_and_seeded(self):
        p1 = simulate_moving_max(0.5, 3.0, RngState(60))
        p2 = simulate_moving_max(0.5, 3.0, RngState(60))
        assert p1.anchor_value == p2.anchor_value
        assert p1.events == p2.events
        assert p1.seed == (60, 0)

    def test_constant_member(self):
        path = simulate_moving_max(1.0, 2.0, RngState(61))
        assert path.events == ()
        assert path_value(path, 1.7) == path.anchor_value

    def test_rejects_iid_limit(self):
        with pytest.raises(ValueError, match="discrete"):
            simulate_moving_max(0.0, 1.0, RngState(1))

    def test_rejects_bad_length(self):
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                simulate_moving_max(0.5, bad, RngState(1))

    def test_anchor_marginal(self):
        anchors = np.array([simulate_moving_max(0.5, 1.0,
                                                RngState(62, r)).anchor_value
                            for r in range(3000)])
        res = ks_one_sample(anchors, frechet_cdf, level=0.01)
        assert res.passed, res

    def test_interior_marginal(self):
        values = replicate_values(0.5, 1.25, 0.6, 4000, seed=63)
        res = ks_one_sample(values, frechet_cdf, level=0.01)
        assert res.passed, res

    def test_unconditional_holding_probability(self):
        """No arrival shows in a unit window with probability a."""
        a, reps = 0.5, 5000
        held = 0
        z0 = np.empty(reps)
        decayed = np.empty(reps, dtype=bool)
        for r in range(reps):
            path = simulate_moving_max(a, 1.0, RngState(64, r))
            z0[r] = path.anchor_value
            decayed[r] = not path.events
        freq = decayed.mean()
        assert abs(freq - a) < 4.0 * math.sqrt(a * (1 - a) / reps)
        # conditioned on the starting level near 1, the chance matches the
        # quadrature of exp(-(1-a)/(a z)) over the bin
        bin_mask = (z0 >= 0.9) & (z0 <= 1.1)
        mass, _ = integrate.quad(
            lambda z: math.exp(-1.0 / z) / z**2, 0.9, 1.1)
        num, _ = integrate.quad(
            lambda z: math.exp(-(1 - a) / (a * z)) * math.exp(-1.0 / z) / z**2,
            0.9, 1.1)
        target = num / mass
        got = decayed[bin_mask].mean()
        n_bin = int(bin_mask.sum())
        assert abs(got - target) < 4.0 * math.sqrt(
            target * (1 - target) / n_bin)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_holding_probability_quadrature(self, s):
        """Integrating the hold chance over the stationary law gives a^s."""
        a = 0.6
        b = a**s
        total, _ = integrate.quad(
            lambda z: math.exp(-(1 - b) / (b * z)) * math.exp(-1.0 / z) / z**2,
            0.0, np.inf)
        assert total == pytest.approx(b, abs=1e-8)

    def test_pathwise_envelope_bound(self):
        """Between any two grid times the path never falls faster than the
        decay rate; sample_grid revalidates this on construction."""
        path = simulate_moving_max(0.5, 20.0, RngState(65))
        skeleton = sample_grid(path, 0.25)
        assert skeleton.ratios().min() >= 0.5**0.25 * (1.0 - 1e-9)


class TestJumpChain:
    """Closed forms of the window draw: events form a Poisson process of
    rate -log a, and the window sup has exponent 1 + L (-log a)."""

    @pytest.mark.parametrize("a,length", [(0.5, 2.0), (0.1, 5.0)])
    def test_event_count_is_poisson(self, a, length):
        reps = 5000
        rng = RngState(78)
        counts = np.array([len(simulate_moving_max(a, length, rng).events)
                           for _ in range(reps)])
        mean = -length * math.log(a)
        assert abs(counts.mean() - mean) < 4.0 * math.sqrt(mean / reps)
        # the sample variance of Poisson counts has variance
        # (mean + 2 mean^2) / reps to leading order
        assert abs(counts.var() - mean) < 4.0 * math.sqrt(
            (mean + 2.0 * mean**2) / reps)

    @pytest.mark.parametrize("a,length", [(0.5, 2.0), (0.1, 5.0),
                                          (0.9, 20.0)])
    def test_window_sup_law(self, a, length):
        rng = RngState(79)
        sups = np.empty(4000)
        for r in range(sups.size):
            path = simulate_moving_max(a, length, rng)
            sups[r] = max([path.anchor_value]
                          + [v for _, v in path.events])
        scale = 1.0 - length * math.log(a)
        res = ks_one_sample(sups, lambda z: frechet_cdf(z, scale),
                            level=0.01)
        assert res.passed, res

    @pytest.mark.parametrize("a,length", [(1e-6, 10.0), (1.0 - 1e-9, 5.0),
                                          (0.5, 1e4)])
    def test_domain_edges(self, a, length):
        path = simulate_moving_max(a, length, RngState(80))
        assert isinstance(path, CadlagPath)
        assert path.window == (0.0, length)
        mean = -length * math.log(a)
        assert abs(len(path.events) - mean) <= 5.0 * math.sqrt(mean)


class TestSimulateMovingMaxReversed:
    def test_direction_and_growth(self):
        path = simulate_moving_max_reversed(0.5, 3.0, RngState(66))
        assert path.direction is Direction.REVERSED
        skeleton = sample_grid(path, 0.25)
        assert skeleton.ratios().max() <= 0.5**-0.25 * (1.0 + 1e-9)

    def test_constant_member_warns(self):
        with pytest.warns(UserWarning):
            path = simulate_moving_max_reversed(1.0, 2.0, RngState(67))
        assert path.direction is Direction.FORWARD

    def test_mirrors_forward_draw(self):
        """With the same seed, the reversal is the forward path read
        backwards through left limits."""
        fwd = simulate_moving_max(0.5, 3.0, RngState(68))
        rev = simulate_moving_max_reversed(0.5, 3.0, RngState(68))
        event_times = set(np.round(fwd.event_times, 12))
        for t in np.linspace(0.05, 2.95, 30):
            if any(abs(3.0 - t - et) < 1e-6 for et in event_times):
                continue
            assert path_value(rev, t) == pytest.approx(
                path_value(fwd, 3.0 - t), rel=1e-12)

    def test_reads_forward_knots_backwards(self):
        """The reversed anchor is the forward value at the window end, and
        its event times are the forward ones mirrored, bit for bit."""
        fwd = simulate_moving_max(0.5, 7.0, RngState(78))
        rev = simulate_moving_max_reversed(0.5, 7.0, RngState(78))
        assert len(fwd.events) > 3
        assert rev.anchor_value == path_value(fwd, 7.0)
        assert [t for t, _ in rev.events] \
            == [7.0 - t for t, _ in reversed(fwd.events)]

    def test_interior_marginal(self):
        values = replicate_values(0.5, 1.25, 0.6, 4000, seed=69,
                                  reversed_direction=True)
        res = ks_one_sample(values, frechet_cdf, level=0.01)
        assert res.passed, res

    def test_same_law_as_forward(self):
        """Marginals and consecutive pair minima agree between the two
        directions (two-sample KS over independent replicates)."""
        eps = 0.25
        fwd = np.empty((2000, 2))
        rev = np.empty((2000, 2))
        for r in range(2000):
            pf = simulate_moving_max(0.5, 2 * eps, RngState(70, r))
            pr = simulate_moving_max_reversed(0.5, 2 * eps, RngState(71, r))
            fwd[r] = (path_value(pf, 0.0), path_value(pf, eps))
            rev[r] = (path_value(pr, 0.0), path_value(pr, eps))
        res = ks_two_sample(fwd[:, 0], rev[:, 0], level=0.01)
        assert res.passed, res
        res = ks_two_sample(fwd.min(axis=1), rev.min(axis=1), level=0.01)
        assert res.passed, res


class TestSampleGrid:
    def test_grid_count_and_params(self):
        path = simulate_moving_max(0.5, 1.0, RngState(72))
        skeleton = sample_grid(path, 0.1)
        assert len(skeleton) == 11
        assert skeleton.params == MaxARParams(0.5**0.1, Direction.FORWARD)
        assert skeleton.seed == path.seed

    def test_matches_pointwise_evaluation(self):
        """Grid and pointwise values come from one map, so they agree bit
        for bit in either direction."""
        for simulate in (simulate_moving_max, simulate_moving_max_reversed):
            for seed in range(12):
                path = simulate(0.3, 20.0, RngState(73, seed))
                skeleton = sample_grid(path, 0.37)
                for k, value in enumerate(skeleton.values):
                    assert value == path_value(path, min(0.37 * k, 20.0))

    def test_epsilon_validation(self):
        path = simulate_moving_max(0.5, 1.0, RngState(74))
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                sample_grid(path, bad)

    def test_minimum_ratio_attains_decay(self):
        """On a long window some grid step holds no arrival, so the lowest
        consecutive skeleton ratio equals the decay factor exactly."""
        path = simulate_moving_max(0.5, 60.0, RngState(75))
        skeleton = sample_grid(path, 0.1)
        target = 0.5**0.1
        assert abs(skeleton.ratios().min() - target) <= 1e-9 * target

    def test_skeleton_matches_discrete_chain(self):
        """2-point skeletons of the continuous process follow the same law
        as stationary transitions of the matching discrete chain."""
        eps, reps = 0.25, 3000
        a_eff = 0.5**eps
        cont = np.empty((reps, 2))
        for r in range(reps):
            path = simulate_moving_max(0.5, 2 * eps, RngState(76, r))
            cont[r] = (path_value(path, 0.0), path_value(path, eps))
        rng = RngState(77)
        first = STATIONARY.sample(rng, size=reps)
        second = kernel_sample_many(MaxARParams(a_eff), first, rng)
        res = ks_two_sample(cont[:, 0], first, level=0.01)
        assert res.passed, res
        res = ks_two_sample(cont.min(axis=1), np.minimum(first, second),
                            level=0.01)
        assert res.passed, res
