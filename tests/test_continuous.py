"""Tests for the continuous-time moving-maximum process: exact window
simulation, cadlag path semantics, time reversal, and grid skeletons."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy import integrate

from maxstab import (
    CadlagPath,
    Direction,
    MaxARParams,
    RngState,
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
from maxstab import continuous, distributions
from maxstab.continuous import _JUMP_SLACK, _jump_chain, _left_limits, \
    _replicate_values, _reversed_knots
from maxstab.distributions import frechet_sample

PROBE = 4  # uniforms read after a chain to pin the stream position


def replicate_values(a: float, length: float, at: float, count: int,
                     seed: int, reversed_direction: bool = False):
    """Values of independent window draws at a fixed interior time."""
    sim = simulate_moving_max_reversed if reversed_direction \
        else simulate_moving_max
    out = np.empty(count)
    for r in range(count):
        out[r] = path_value(sim(a, length, RngState(seed, r)), at)
    return out


def loop_chain(a: float, length: float, rng: RngState):
    """Reference window draw: the scalar extremal-process chain as one
    call per window, returning (anchor, [(time, level), ...])."""
    rate = -math.log(a)
    anchor = z = frechet_sample(rng)
    t, events = 0.0, []
    while True:
        step = z * rng.exponential()
        t += math.log1p(step) / rate
        if t >= length:
            return anchor, events
        z = z / ((1.0 + step) * rng.uniform())
        events.append((t, z))


def assert_chain_is_loop(a: float, length: float, count: int,
                         rng: RngState, ref: RngState) -> None:
    """_jump_chain on rng draws, window by window, the knots loop_chain
    draws on ref, and leaves both streams at the same position."""
    offsets, times, levels = _jump_chain(a, length, count, rng)
    assert offsets.size == count + 1
    for i in range(count):
        anchor, events = loop_chain(a, length, ref)
        knots = slice(offsets[i], offsets[i + 1])
        assert times[knots].tolist() == [0.0] + [t for t, _ in events]
        assert levels[knots].tolist() == [anchor] + [v for _, v in events]
    assert rng.uniform(size=PROBE).tolist() \
        == ref.uniform(size=PROBE).tolist()


def loop_levels(path: CadlagPath, t: float, left: bool = False) -> float:
    """Reference value of one path at one time: the last knot at (or
    strictly before) t, moved by a^+-dt through the ufunc np.power."""
    knots = [(path.window[0], path.anchor_value), *path.events.tolist()]
    k = max(i for i, (tt, _) in enumerate(knots)
            if (tt < t if left and i else tt <= t))
    dt = t - knots[k][0]
    if path.direction is Direction.REVERSED:
        dt = -dt
    return float(knots[k][1] * np.power(path.a, dt))


def loop_reversal(forward: CadlagPath) -> CadlagPath:
    """Reference time reversal of a forward path on [0, length]: the
    anchor is the value at the end, and each event, in reverse order,
    moves to length - t at the forward left limit."""
    length = forward.window[1]
    events = [(length - t, loop_levels(forward, t, left=True))
              for t, _ in reversed(forward.events.tolist())]
    return CadlagPath(forward.a, Direction.REVERSED, (0.0, length),
                      path_value(forward, length), events, forward.seed)


def loop_accepts(a, direction, window, anchor, events) -> bool:
    """Reference event validation: the per-event loop with Python **,
    whose OverflowError on a reversed gap too long to grow over, the last
    one up to the window end included, counts as a refusal."""
    prev_t, prev_v = window[0], anchor
    for tt, vv in events:
        if not (prev_t < tt < window[1]):
            return False
        if not (math.isfinite(vv) and vv > 0):
            return False
        try:
            if direction is Direction.FORWARD:
                if vv <= prev_v * a ** (tt - prev_t) * (1.0 - _JUMP_SLACK):
                    return False
            elif vv >= prev_v * a ** (-(tt - prev_t)) * (1.0 + _JUMP_SLACK):
                return False
        except OverflowError:
            return False
        prev_t, prev_v = tt, vv
    if direction is Direction.REVERSED:
        try:
            prev_v * a ** (-(window[1] - prev_t))
        except OverflowError:
            return False
    return True


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

    @pytest.mark.parametrize("window,events,field", [
        ((0.0,), (), "window"),
        ((0.0, 1.0, 5.0), (), "window"),
        (1.0, (), "window"),
        ((0.0, 2.0), ((1.0,),), "each event"),
        ((0.0, 2.0), ((1.0, 3.0, 4.0),), "each event"),
        ((0.0, 2.0), ((1.0, 3.0), (1.5,)), "each event"),
        ((0.0, 2.0), [(1.0, 3.0), 1.5], "each event"),
        ((0.0, 2.0), [[]], "each event"),
        ((0.0, 2.0), [1.0, 3.0], "each event"),
        ((0.0, 2.0), np.array([[[1.0], [3.0]]]), "each event"),
        ((0.0, 2.0), np.empty((0, 3)), "each event"),
        ((0.0, 2.0), 1.0, "each event"),
    ])
    def test_refuses_pairs_of_another_length(self, window, events, field):
        with pytest.raises(ValueError, match=f"^{field} must be a pair$"):
            CadlagPath(0.5, Direction.FORWARD, window, 1.0, events)

    @pytest.mark.parametrize("events,message", [
        ([(math.nan, 3.0)], "event times must increase strictly inside"),
        ([(1.0, math.nan)], "event values must be finite and positive"),
        ([(math.inf, 3.0)], "event times must increase strictly inside"),
        ([(1.0, math.inf)], "event values must be finite and positive"),
        ([(1.0, "x")], "could not convert string to float: 'x'"),
        ([("one", 3.0)], "could not convert string to float: 'one'"),
    ])
    def test_refuses_entries_that_are_not_finite_numbers(self, events,
                                                         message):
        with pytest.raises(ValueError, match=f"^{message}"):
            CadlagPath(0.5, Direction.FORWARD, (0.0, 2.0), 1.0, events)

    def test_events_are_read_only(self):
        path = CadlagPath(0.5, Direction.FORWARD, (0.0, 3.0), 1.0,
                          [(1.0, 5.0), (2.0, 4.0)])
        assert path.events.dtype == np.float64
        assert path.events.shape == (2, 2)
        with pytest.raises(ValueError, match="read-only"):
            path.events[0, 1] = 9.0
        with pytest.raises(ValueError):
            path.events.flags.writeable = True
        assert path.events.tolist() == [[1.0, 5.0], [2.0, 4.0]]

    def test_caller_writes_do_not_reach_the_path(self):
        events = np.array([[1.0, 5.0], [2.0, 4.0]])
        path = CadlagPath(0.5, Direction.FORWARD, (0.0, 3.0), 1.0, events)
        events[0, 1] = 9.0
        events[1, 0] = 2.5
        assert path.events.tolist() == [[1.0, 5.0], [2.0, 4.0]]
        assert path_value(path, 1.5) == 5.0 * 0.5**0.5
        assert path_value(path, 2.0) == 4.0

    @pytest.mark.parametrize("events", [(), [], np.empty((0, 2))])
    def test_constant_member_takes_no_events(self, events):
        path = CadlagPath(1.0, Direction.FORWARD, (0.0, 2.0), 1.5, events)
        assert path.events.shape == (0, 2)
        assert path_value(path, 1.0) == path_value(path, 2.0) == 1.5

    def test_rejects_degenerate_window(self):
        with pytest.raises(ValueError):
            CadlagPath(0.5, Direction.FORWARD, (1.0, 1.0), 1.0, ())

    def test_rejects_nonpositive_anchor(self):
        with pytest.raises(ValueError):
            CadlagPath(0.5, Direction.FORWARD, (0.0, 1.0), 0.0, ())

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            CadlagPath(0.0, Direction.FORWARD, (0.0, 1.0), 1.0, ())

    @pytest.mark.parametrize("anchor,events", [
        (1.0, ()), (1e-300, ((1.0, 1e-301),)), (1.0, ((0.5, 1e-10),))])
    def test_rejects_reversed_growth_past_window_end(self, anchor, events):
        """Growth over the last segment is checked up to the window end,
        where it is largest, so no value read later can overflow."""
        with pytest.raises(ValueError, match="window end"):
            CadlagPath(1e-300, Direction.REVERSED, (0.0, 4.0), anchor,
                       events)

    def test_reversed_growth_up_to_window_end_reads_finite(self):
        # (1e-300) ** -1 = 1e300 is still a float
        path = CadlagPath(1e-300, Direction.REVERSED, (0.0, 1.0), 1.0, ())
        assert path_value(path, 1.0) == pytest.approx(1e300)
        grid = sample_grid(path, 0.5).values
        assert np.all(np.isfinite(grid)) and grid[-1] == path_value(path, 1.0)

    def test_event_times_column(self):
        path = CadlagPath(0.5, Direction.FORWARD, (0.0, 3.0), 1.0,
                          ((1.0, 5.0), (2.0, 4.0)))
        assert np.array_equal(path.events[:, 0], [1.0, 2.0])

    @pytest.mark.parametrize("direction,event", [
        ("forward", (1.0, 2.5)), ("reversed", (1.0, 0.5))])
    def test_constant_member_has_no_events(self, direction, event):
        """a = 1 never jumps, so an event is refused in either direction,
        before the reversed direction is canonicalized with a warning."""
        with pytest.raises(ValueError, match="a = 1 .* has no events"):
            CadlagPath(1.0, direction, (0.0, 2.0), 1.5, (event,))

    def test_constant_member_reads_forward_with_one_warning(self):
        """A reversed a = 1 path, built or drawn, reads forward, and each
        warns exactly once."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            built = CadlagPath(1.0, "reversed", (0.0, 2.0), 1.5, ())
            assert len(caught) == 1
            drawn = simulate_moving_max_reversed(1.0, 2.0, RngState(67))
            assert len(caught) == 2
        assert built.direction is drawn.direction is Direction.FORWARD
        assert sample_grid(built, 0.5).values.tolist() == [1.5] * 5


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


class TestSimulateMovingMax:
    def test_deterministic_and_seeded(self):
        p1 = simulate_moving_max(0.5, 3.0, RngState(60))
        p2 = simulate_moving_max(0.5, 3.0, RngState(60))
        assert p1.anchor_value == p2.anchor_value
        assert p1.events.tolist() == p2.events.tolist()
        assert p1.seed == (60, 0)

    def test_constant_member(self):
        path = simulate_moving_max(1.0, 2.0, RngState(61))
        assert path.events.shape == (0, 2)
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
            decayed[r] = not len(path.events)
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

    def test_refuses_a_chain_past_the_event_cap(self):
        """The expected event count -count L log a is known before the
        draw: above the cap the chain is refused at once, naming it, and
        reads no uniform."""
        for draw, expected in (
                (lambda rng: simulate_moving_max(0.5, 1e300, rng),
                 "6.9314718e+299"),
                (lambda rng: simulate_moving_max_reversed(0.5, 1e300, rng),
                 "6.9314718e+299"),
                (lambda rng: _jump_chain(0.5, 1e4, 10**4, rng),
                 "69314718")):
            rng = RngState(81)
            with pytest.raises(ValueError, match=re.escape(
                    f"expects {expected} events, more than 10,000,000")):
                draw(rng)
            assert rng.uniform() == RngState(81).uniform()


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
        event_times = set(np.round(fwd.events[:, 0], 12))
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
        assert [t for t, _ in rev.events.tolist()] \
            == [7.0 - t for t, _ in reversed(fwd.events.tolist())]

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

    def test_refuses_a_grid_past_the_point_cap(self):
        path = simulate_moving_max(0.5, 10.0, RngState(74))
        for epsilon, points in ((1e-9, "1e+10"), (1e-300, "1e+301"),
                                (1e-6, "10000001")):
            with pytest.raises(ValueError, match=re.escape(
                    f"epsilon={epsilon!r} gives {points} grid points, "
                    "more than 10,000,000")):
                sample_grid(path, epsilon)

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
        first = frechet_sample(rng, size=reps)
        second = kernel_sample_many(MaxARParams(a_eff), first, rng)
        res = ks_two_sample(cont[:, 0], first, level=0.01)
        assert res.passed, res
        res = ks_two_sample(cont.min(axis=1), np.minimum(first, second),
                            level=0.01)
        assert res.passed, res


class TestKnotArrays:
    """The jump chain, the value map and the reversal on flat knot arrays
    against one-path-at-a-time references."""

    @pytest.mark.parametrize("a", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("length", [0.2, 1.25, 20.0])
    def test_chain_is_successive_window_draws(self, a, length):
        count = 40
        rng = RngState(90, 1)
        offsets, times, levels = _jump_chain(a, length, count, rng)
        ref = RngState(90, 1)
        public = RngState(90, 1)
        assert offsets.size == count + 1
        for i in range(count):
            anchor, events = loop_chain(a, length, ref)
            path = simulate_moving_max(a, length, public)
            knots = slice(offsets[i], offsets[i + 1])
            assert times[knots].tolist() == [0.0] + [t for t, _ in events]
            assert levels[knots].tolist() == [anchor] + [v for _, v in events]
            assert path.anchor_value == anchor
            assert path.events.tolist() == [[t, v] for t, v in events]
        assert rng.uniform() == ref.uniform() == public.uniform()

    @pytest.mark.parametrize("a,length,count", [(0.5, 600.0, 3),
                                                (0.1, 300.0, 3),
                                                (0.5, 0.1, 300)])
    @pytest.mark.parametrize("skip", [0, 1, 2, 3])
    def test_chain_reads_the_loop_uniforms(self, a, length, count, skip):
        """Long windows, and chains that start inside a partly read buffer,
        read and consume exactly the one-at-a-time chain's uniforms."""
        rng, ref = RngState(96, skip), RngState(96, skip)
        for _ in range(skip):
            assert rng.uniform() == ref.uniform()
        assert_chain_is_loop(a, length, count, rng, ref)

    @pytest.mark.parametrize("pairs", [1, 2, 3])
    @pytest.mark.parametrize("a,length,count", [(0.5, 20.0, 5),
                                                (0.1, 0.3, 40)])
    def test_read_ahead_shortfall_continues(self, monkeypatch, pairs, a,
                                            length, count):
        """Blocks of a few pairs fall short of every draw: the chain
        carries its time and level into the next block, bit for bit."""
        monkeypatch.setattr(continuous, "_BLOCK_PAIRS", pairs)
        assert_chain_is_loop(a, length, count, RngState(97, pairs),
                             RngState(97, pairs))

    def test_large_read_ahead_splits_its_refill(self, monkeypatch):
        """A chain expected to read more than a split's worth of uniforms
        fills its first block in two halves."""
        halves = []

        def both(first, second):
            halves.append(1)
            return first(), second()

        monkeypatch.setattr(distributions, "_both", both)
        assert_chain_is_loop(0.5, 2e5, 1, RngState(98), RngState(98))
        assert halves

    def test_constant_member_draws_anchors_only(self):
        rng = RngState(91)
        offsets, times, levels = _jump_chain(1.0, 5.0, 7, rng)
        assert offsets.tolist() == list(range(8))
        assert not times.any()
        assert levels.tolist() == frechet_sample(RngState(91),
                                                 size=7).tolist()
        assert rng.uniform() == RngState(91).uniform(size=8)[7]

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("a,length", [(0.5, 1.25), (0.1, 3.0),
                                          (0.9, 0.4)])
    def test_batch_reads_equal_path_reads(self, direction, a, length):
        count = 60
        knots = _jump_chain(a, length, count, RngState(92, 5))
        if direction is Direction.REVERSED:
            knots = _reversed_knots(a, length, knots)
        offsets, times, _ = knots
        sim = simulate_moving_max if direction is Direction.FORWARD \
            else simulate_moving_max_reversed
        rng = RngState(92, 5)
        paths = [sim(a, length, rng) for _ in range(count)]
        following, limits = _left_limits(a, direction, knots, length)
        for i, path in enumerate(paths):
            own = times[offsets[i]:offsets[i + 1]]
            # the knots are the path's own, bit for bit
            assert own.tolist() \
                == [0.0] + [t for t, _ in path.events.tolist()]
            # each knot's left limit is read at the next event, and the
            # last one's at the window end
            ends = [*own[1:], length]
            assert following[offsets[i]:offsets[i + 1]].tolist() == ends
            assert limits[offsets[i]:offsets[i + 1]].tolist() \
                == [loop_levels(path, t, left=True) for t in ends]
        # the batch read at times shared by every window: the inner times,
        # every event of every window and one ulp below it, and both ends
        inner = np.random.default_rng(3).uniform(0.0, length, size=3)
        events = times[times > 0.0]
        shared = [0.0, *inner, *events, *np.nextafter(events, 0.0), length]
        got = _replicate_values(ShapeFunction(a, direction), length, shared,
                                count, RngState(92, 5))
        for row, t in zip(got, shared):
            want = [loop_levels(path, t) for path in paths]
            assert row.tolist() == want
            assert want == [path_value(path, t) for path in paths]

    @pytest.mark.parametrize("a,length", [(0.5, 7.0), (0.1, 20.0)])
    def test_reversal_is_the_loop_reversal(self, a, length):
        for seed in range(10):
            forward = simulate_moving_max(a, length, RngState(93, seed))
            rev = simulate_moving_max_reversed(a, length, RngState(93, seed))
            ref = loop_reversal(forward)
            assert rev.anchor_value == ref.anchor_value
            assert rev.events.tolist() == ref.events.tolist()

    def test_array_check_accepts_what_the_loop_accepts(self):
        rng = np.random.default_rng(94)
        cases = []
        for seed in range(30):
            a = float(rng.uniform(0.05, 0.95))
            for path in (simulate_moving_max(a, 4.0, RngState(95, seed)),
                         simulate_moving_max_reversed(a, 4.0,
                                                      RngState(95, seed))):
                cases.append((a, path.direction, path.anchor_value,
                              path.events.tolist()))
        inputs = []
        for a, direction, anchor, events in cases:
            inputs.append((a, direction, anchor, events))
            if len(events) >= 2:
                swapped = list(events)
                swapped[0], swapped[1] = swapped[1], swapped[0]
                inputs.append((a, direction, anchor, swapped))
            edge_event = (4.0, anchor * 10.0 if direction is Direction.FORWARD
                          else anchor * 1e-3)
            inputs.append((a, direction, anchor, events + [edge_event]))
            inputs.append((a, direction, anchor, [(0.0, anchor)] + events))
            for j in range(len(events)):
                prev_t, prev_v = ((0.0, anchor) if j == 0 else events[j - 1])
                t = events[j][0]
                sign = 1.0 if direction is Direction.FORWARD else -1.0
                reached = prev_v * a ** (sign * (t - prev_t))
                edge = reached * (1.0 - sign * _JUMP_SLACK)
                for factor in (1.0 - 1e-12, 1.0 + 1e-12):
                    moved = list(events)
                    moved[j] = (t, edge * factor)
                    inputs.append((a, direction, anchor, moved))
                for bad in (math.nan, 0.0, -1.0, math.inf):
                    moved = list(events)
                    moved[j] = (t, bad)
                    inputs.append((a, direction, anchor, moved))
                moved = list(events)
                moved[j] = (math.nan, events[j][1])
                inputs.append((a, direction, anchor, moved))
        # a reversed level that would grow past the float range over a gap
        inputs.append((0.5, Direction.REVERSED, 1.0, [(3.99, 1e-300)]))
        inputs.append((1e-300, Direction.REVERSED, 1.0, [(2.0, 0.5)]))
        inputs.append((1e-300, Direction.FORWARD, 1.0, [(2.0, 1e-300)]))
        # and past it over the last segment, up to the window end
        inputs.append((1e-300, Direction.REVERSED, 1.0, []))
        inputs.append((1e-300, Direction.REVERSED, 1e-300, [(1.0, 1e-301)]))
        inputs.append((1e-300, Direction.REVERSED, 1e-300, [(3.5, 1e-301)]))
        accepted = 0
        for a, direction, anchor, events in inputs:
            want = loop_accepts(a, direction, (0.0, 4.0), anchor, events)
            try:
                CadlagPath(a, direction, (0.0, 4.0), anchor, tuple(events))
                got = True
            except ValueError:
                got = False
            assert got == want, (a, direction, anchor, events)
            accepted += got
        # both outcomes occur often
        assert 0.1 * len(inputs) < accepted < 0.9 * len(inputs)
