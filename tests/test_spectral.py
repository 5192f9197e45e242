"""Tests for the spectral layer: mixing laws, shape samplers, cone
membership, the exponent functional, and the stopped max-stable draw."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maxstab import (
    ConeKind,
    ConeSpec,
    ExponentFunctional,
    FiniteMixing,
    GeometricMixing,
    IndexedPath,
    MaxARParams,
    RngState,
    SamplerKind,
    SpectralBoundError,
    SpectralSampler,
    bivariate_cdf,
    cone_member,
    dehaan_max_stable,
    exponent_rectangle,
    frechet_cdf,
    ks_one_sample,
    sample_spectral,
    shift,
    spectral_bound,
    spectral_mean,
)
from maxstab.spectral import _FIRST_BLOCK

UNIFORM5 = FiniteMixing({n: 1.0 for n in range(-2, 3)})


def brute_exponent(a: float, points, onsets) -> float:
    """Raw onset sum of the rectangle exponent, no closed forms."""
    total = 0.0
    for n in onsets:
        best = 0.0
        for t, z in points:
            k = t - n
            if k < 0:
                continue
            if a == 0.0:
                w = 1.0 if k == 0 else 0.0
            elif a == 1.0:
                w = 1.0
            else:
                w = (1.0 - a) * a**k
            best = max(best, w / z)
        total += best
    return total


def loop_dehaan(sampler, bound, rng, max_points=100000):
    """The point-by-point de Haan construction, kept as the reference for
    the block sampler: the window and the number of marks drawn."""
    # marks 1/Gamma_k, Gamma_k the arrivals of a unit-rate Poisson process
    gamma = 0.0
    running = np.zeros(sampler.length)
    floor = 0.0
    for k in range(max_points):
        gamma += rng.exponential()
        u = 1.0 / gamma
        if floor > 0.0 and u * bound < floor:
            return running, k + 1
        y = sample_spectral(sampler, rng)
        if float(y.values.max()) > bound * (1.0 + 1e-12):
            raise SpectralBoundError("spectral draw above the bound")
        np.maximum(running, u * y.values, out=running)
        floor = float(running.min())
    raise RuntimeError("stopping rule did not trigger within max_points")


def dehaan_outcome(draw, sampler, bound, stream, max_points=100000):
    """Window bytes (or the exception type) and the next uniform after it."""
    rng = RngState(60, stream)
    try:
        out = draw(sampler, bound, rng, max_points)
        result = (out[0] if draw is loop_dehaan else out.values).tobytes()
    except (SpectralBoundError, RuntimeError) as err:
        result = type(err)
    return result, rng.uniform()


SPREAD = FiniteMixing({n: 1.0 + 0.1 * n for n in range(-3, 12)})
BLOCK_SAMPLERS = [
    sampler
    for window in ((0, 0), (0, 3), (-2, 6), (0, 10))
    for sampler in (
        SpectralSampler.constant(window),
        SpectralSampler.dirac(window, GeometricMixing(0.8)),
        SpectralSampler.dirac(window, SPREAD),
        SpectralSampler.decay(0.3, window, GeometricMixing(0.8)),
        SpectralSampler.decay(0.7, window, SPREAD),
    )
]


class TestGeometricMixing:
    def test_default_pmf(self):
        m = GeometricMixing()
        assert m.center_mass == pytest.approx(1.0 / 3.0, rel=1e-15)
        for n in range(-4, 5):
            assert m.pmf(n) == pytest.approx((1.0 / 3.0) * 0.5 ** abs(n),
                                             rel=1e-14)

    def test_pmf_normalized(self):
        m = GeometricMixing(0.7)
        total = sum(m.pmf(n) for n in range(-200, 201))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_sample_frequencies(self):
        m = GeometricMixing()
        draws = m.sample(RngState(30), size=200000)
        for k in range(-2, 3):
            p = m.pmf(k)
            freq = float((draws == k).mean())
            assert abs(freq - p) < 4.0 * math.sqrt(p * (1 - p) / draws.size)

    def test_one_uniform_per_draw(self):
        m = GeometricMixing()
        rng = RngState(31)
        m.sample(rng, size=5)
        # the sixth uniform of the stream is untouched by the five draws
        assert rng.uniform() == RngState(31).uniform(size=6)[5]

    def test_ratio_validation(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                GeometricMixing(bad)


class TestFiniteMixing:
    def test_normalizes_and_sorts(self):
        m = FiniteMixing({2: 2.0, -1: 1.0, 0: 1.0})
        assert m.support == (-1, 0, 2)
        assert m.pmf(2) == pytest.approx(0.5, rel=1e-15)
        assert m.pmf(1) == 0.0

    def test_accepts_pairs(self):
        m = FiniteMixing(((0, 1.0), (1, 3.0)))
        assert m.pmf(1) == pytest.approx(0.75, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteMixing({})
        with pytest.raises(ValueError):
            FiniteMixing(((0, 1.0), (0, 2.0)))
        with pytest.raises(ValueError):
            FiniteMixing({0: -1.0})

    def test_sample_frequencies(self):
        m = FiniteMixing({0: 1.0, 3: 3.0})
        draws = m.sample(RngState(32), size=100000)
        freq = float((draws == 3).mean())
        assert abs(freq - 0.75) < 4.0 * math.sqrt(0.1875 / draws.size)
        assert set(np.unique(draws)) <= {0, 3}


class TestSpectralSampler:
    def test_window_normalization(self):
        s = SpectralSampler.constant((2, 5))
        assert s.window == (2, 5)
        assert s.length == 4

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            SpectralSampler.constant((3, 2))

    def test_kind_parameter_rules(self):
        with pytest.raises(ValueError):
            SpectralSampler(SamplerKind.CONSTANT, (0, 1), a=0.5)
        with pytest.raises(ValueError):
            SpectralSampler(SamplerKind.DIRAC, (0, 1), a=0.5)
        with pytest.raises(ValueError):
            SpectralSampler.decay(1.0, (0, 1))
        with pytest.raises(ValueError):
            SpectralSampler.decay(0.0, (0, 1))

    def test_default_mixing(self):
        s = SpectralSampler.decay(0.5, (0, 3))
        assert isinstance(s.mixing, GeometricMixing)


class TestSampleSpectral:
    def test_constant_all_ones(self):
        path = sample_spectral(SpectralSampler.constant((-1, 2)), RngState(1))
        assert path.start == -1
        assert np.all(path.values == 1.0)

    def test_dirac_at_most_one_active(self):
        sampler = SpectralSampler.dirac((-2, 3))
        seen_zero_path = False
        for r in range(500):
            path = sample_spectral(sampler, RngState(33, r))
            nz = np.nonzero(path.values)[0]
            assert nz.size <= 1
            if nz.size == 0:
                seen_zero_path = True
            else:
                t = path.start + int(nz[0])
                assert path.values[nz[0]] == pytest.approx(
                    1.0 / sampler.mixing.pmf(t), rel=1e-14)
        # onsets outside the window leave an all-zero window
        assert seen_zero_path

    def test_decay_exact_cascade(self):
        sampler = SpectralSampler.decay(0.6, (-2, 4))
        for r in range(300):
            path = sample_spectral(sampler, RngState(34, r))
            v = path.values
            nz = np.nonzero(v)[0]
            if nz.size == 0:
                continue
            onset = nz[0]
            assert np.all(v[:onset] == 0.0)
            # the cascade is an exact floating-point identity
            assert np.all(v[onset + 1:] == 0.6 * v[onset:-1])

    def test_decay_ratio_essential_infimum(self):
        sampler = SpectralSampler.decay(0.45, (0, 1))
        ratios = []
        for r in range(10000):
            path = sample_spectral(sampler, RngState(35, r))
            if path.values[0] > 0.0:
                ratios.append(path.values[1] / path.values[0])
        ratios = np.array(ratios)
        assert ratios.min() == pytest.approx(0.45, rel=1e-12)
        assert np.all(np.abs(ratios - 0.45) <= 1e-12 * 0.45)

    @pytest.mark.parametrize("mixing", [None, GeometricMixing(0.6)])
    def test_decay_unit_mean(self, mixing):
        sampler = SpectralSampler.decay(0.5, (0, 4), mixing=mixing)
        rng = RngState(36)
        vals = np.array([sample_spectral(sampler, rng).value_at(2)
                         for _ in range(50000)])
        stderr = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) < 4.0 * stderr


class TestSpectralMean:
    def test_geometric_mixing_is_unit(self):
        for sampler in (SpectralSampler.decay(0.3, (0, 5)),
                        SpectralSampler.dirac((0, 5)),
                        SpectralSampler.constant((0, 5))):
            for t in range(6):
                assert spectral_mean(sampler, t) == pytest.approx(1.0, rel=1e-10)

    def test_finite_mixing_partial_sum(self):
        a = 0.5
        sampler = SpectralSampler.decay(a, (0, 3), mixing=UNIFORM5)
        for t in range(4):
            manual = sum((1.0 - a) * a ** (t - n)
                         for n in UNIFORM5.support if n <= t)
            assert spectral_mean(sampler, t) == pytest.approx(manual, rel=1e-14)

    def test_finite_dirac_charge(self):
        sampler = SpectralSampler.dirac((0, 3), mixing=FiniteMixing({1: 1.0}))
        assert spectral_mean(sampler, 1) == 1.0
        assert spectral_mean(sampler, 2) == 0.0

    def test_outside_window(self):
        with pytest.raises(ValueError):
            spectral_mean(SpectralSampler.constant((0, 3)), 4)


class TestSpectralBound:
    def test_constant(self):
        assert spectral_bound(SpectralSampler.constant((0, 9))) == 1.0

    def test_dirac_finite(self):
        sampler = SpectralSampler.dirac((0, 3), mixing=FiniteMixing(
            {1: 1.0, 2: 3.0, 7: 1.0}))
        # in-window peaks are 1/0.2 and 1/0.6; the mass at 7 never shows
        assert spectral_bound(sampler) == pytest.approx(5.0, rel=1e-14)

    def test_dirac_geometric(self):
        m = GeometricMixing()
        sampler = SpectralSampler.dirac((-1, 3), mixing=m)
        assert spectral_bound(sampler) == pytest.approx(1.0 / m.pmf(3), rel=1e-14)

    def test_decay_finite_brute_force(self):
        a = 0.55
        sampler = SpectralSampler.decay(a, (0, 3), mixing=UNIFORM5)
        lo, hi = sampler.window
        brute = max((1.0 - a) * a ** (max(lo, n) - n) / sampler.mixing.pmf(n)
                    for n in sampler.mixing.support)
        assert spectral_bound(sampler) == pytest.approx(brute, rel=1e-14)

    def test_decay_geometric_brute_force(self):
        a, m = 0.3, GeometricMixing(0.5)
        sampler = SpectralSampler.decay(a, (-2, 4), mixing=m)
        lo, hi = sampler.window
        brute = max((1.0 - a) * a ** (max(lo, n) - n) / m.pmf(n)
                    for n in range(-300, hi + 1))
        assert spectral_bound(sampler) == pytest.approx(brute, rel=1e-12)

    def test_decay_geometric_unbounded(self):
        sampler = SpectralSampler.decay(0.5, (0, 3))
        assert spectral_bound(sampler) == math.inf

    @pytest.mark.parametrize("sampler", [
        SpectralSampler.decay(0.3, (-2, 4)),
        SpectralSampler.dirac((0, 3), mixing=UNIFORM5),
        SpectralSampler.decay(0.5, (0, 3), mixing=UNIFORM5),
    ])
    def test_realizations_respect_bound(self, sampler):
        bound = spectral_bound(sampler)
        rng = RngState(37)
        for _ in range(2000):
            top = sample_spectral(sampler, rng).values.max()
            assert top <= bound * (1.0 + 1e-12)


class TestConeMember:
    def test_spike_is_dirac(self):
        assert cone_member([0.0, 2.0, 0.0], ConeSpec(ConeKind.DIRAC))
        assert not cone_member([1.0, 2.0, 0.0], ConeSpec(ConeKind.DIRAC))

    def test_flat_is_constant(self):
        assert cone_member([1.5, 1.5, 1.5], ConeSpec(ConeKind.CONSTANT))
        assert not cone_member([1.5, 1.5, 1.4], ConeSpec(ConeKind.CONSTANT))

    def test_geometric_tail_is_decay(self):
        spec = ConeSpec(ConeKind.DECAY, a=0.5)
        assert cone_member([0.0, 0.5, 0.25, 0.125], spec)
        assert not cone_member([0.0, 0.5, 0.3, 0.125], spec)
        assert not cone_member([0.0, 0.5, 0.25, 0.125],
                               ConeSpec(ConeKind.DECAY, a=0.6))

    def test_interior_zero_breaks_decay(self):
        assert not cone_member([0.5, 0.0, 0.125], ConeSpec(ConeKind.DECAY, a=0.5))

    def test_zero_path_in_every_cone(self):
        for spec in (ConeSpec(ConeKind.DIRAC), ConeSpec(ConeKind.CONSTANT),
                     ConeSpec(ConeKind.DECAY, a=0.5)):
            assert cone_member([0.0, 0.0, 0.0], spec)

    def test_sampler_realizations_belong(self):
        spec = ConeSpec(ConeKind.DECAY, a=0.7)
        sampler = SpectralSampler.decay(0.7, (-3, 5))
        rng = RngState(38)
        for _ in range(200):
            assert cone_member(sample_spectral(sampler, rng), spec)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariance(self, u):
        base = np.array([0.0, 0.5, 0.25, 0.125])
        spec = ConeSpec(ConeKind.DECAY, a=0.5)
        assert cone_member(u * base, spec) == cone_member(base, spec)

    def test_validation(self):
        with pytest.raises(ValueError):
            cone_member([1.0, -0.5], ConeSpec(ConeKind.DIRAC))
        with pytest.raises(ValueError):
            ConeSpec(ConeKind.DECAY)
        with pytest.raises(ValueError):
            ConeSpec(ConeKind.CONSTANT, a=0.5)


class TestShift:
    def test_shift_semantics(self):
        path = IndexedPath(0, [1.0, 2.0, 3.0])
        g = shift(path, 2)
        assert g.value_at(0) == path.value_at(2)
        assert g.start == -2

    def test_identity_and_involution(self):
        path = IndexedPath(3, [1.0, 2.0])
        same = shift(path, 0)
        assert same.start == 3 and np.array_equal(same.values, path.values)
        back = shift(shift(path, 5), -5)
        assert back.start == 3 and np.array_equal(back.values, path.values)

    def test_value_at_outside_window(self):
        with pytest.raises(ValueError):
            IndexedPath(0, [1.0]).value_at(1)


class TestExponentRectangle:
    @pytest.mark.parametrize("a", [0.0, 0.4, 1.0])
    def test_single_point(self, a):
        func = ExponentFunctional(a)
        assert exponent_rectangle(func, [(0, 2.0)]) == pytest.approx(
            0.5, rel=1e-12)

    def test_reference_pair(self):
        func = ExponentFunctional(0.5)
        got = exponent_rectangle(func, [(0, 1.0), (1, 1.0)])
        assert got == pytest.approx(1.5, rel=1e-12)

    @pytest.mark.parametrize("a", [0.3, 0.8])
    def test_matches_raw_onset_sum(self, a):
        func = ExponentFunctional(a)
        points = [(0, 0.7), (2, 1.3), (5, 0.9)]
        brute = brute_exponent(a, points, range(-900, 6))
        assert exponent_rectangle(func, points) == pytest.approx(
            brute, rel=1e-10)

    def test_iid_case_merges_times(self):
        func = ExponentFunctional(0.0)
        got = exponent_rectangle(func, [(0, 2.0), (0, 1.0), (3, 4.0)])
        assert got == pytest.approx(1.25, rel=1e-14)

    def test_constant_case(self):
        func = ExponentFunctional(1.0)
        got = exponent_rectangle(func, [(0, 2.0), (7, 0.5)])
        assert got == pytest.approx(2.0, rel=1e-14)

    def test_onset_restriction(self):
        shifts = (-1, 0, 2)
        func = ExponentFunctional(0.5, shifts=shifts)
        points = [(0, 1.0), (2, 2.0)]
        brute = brute_exponent(0.5, points, shifts)
        assert exponent_rectangle(func, points) == pytest.approx(
            brute, rel=1e-13)

    @given(st.floats(min_value=0.05, max_value=0.95),
           st.sampled_from([0.5, 2.0, 10.0]))
    def test_homogeneity(self, a, u):
        func = ExponentFunctional(a)
        points = [(0, 1.0), (2, 0.7)]
        scaled = [(t, z * u) for t, z in points]
        assert exponent_rectangle(func, scaled) * u == pytest.approx(
            exponent_rectangle(func, points), rel=1e-12)

    def test_matches_pair_cdf(self):
        for a in (0.2, 0.5, 0.9):
            func = ExponentFunctional(a)
            for x, y in [(0.6, 1.4), (1.0, 1.0), (2.5, 0.8)]:
                lam = exponent_rectangle(func, [(0, x), (1, y)])
                assert math.exp(-lam) == pytest.approx(
                    bivariate_cdf(MaxARParams(a), x, y), rel=1e-12)

    def test_monotonicity(self):
        func = ExponentFunctional(0.5)
        base = exponent_rectangle(func, [(0, 1.0)])
        wider = exponent_rectangle(func, [(0, 1.0), (4, 1.0)])
        looser = exponent_rectangle(func, [(0, 2.0)])
        assert wider >= base >= looser

    def test_validation(self):
        with pytest.raises(ValueError):
            exponent_rectangle(ExponentFunctional(0.5), [])
        with pytest.raises(ValueError):
            exponent_rectangle(ExponentFunctional(0.5), [(0, -1.0)])
        with pytest.raises(ValueError):
            ExponentFunctional(1.0, shifts=(0, 1))
        with pytest.raises(ValueError):
            ExponentFunctional(1.5)


class TestDehaanMaxStable:
    def test_constant_sampler_gives_flat_frechet(self):
        sampler = SpectralSampler.constant((0, 3))
        tops = []
        for r in range(300):
            path = dehaan_max_stable(sampler, 1.0, RngState(39, r))
            assert np.all(path.values == path.values[0])
            tops.append(path.values[0])
        res = ks_one_sample(np.array(tops), frechet_cdf, level=0.01)
        assert res.passed, res

    def test_deterministic(self):
        sampler = SpectralSampler.decay(0.5, (0, 3), mixing=UNIFORM5)
        bound = spectral_bound(sampler)
        p1 = dehaan_max_stable(sampler, bound, RngState(40))
        p2 = dehaan_max_stable(sampler, bound, RngState(40))
        assert np.array_equal(p1.values, p2.values)

    def test_truncated_mixture_marginals(self):
        sampler = SpectralSampler.decay(0.5, (0, 3), mixing=UNIFORM5)
        bound = spectral_bound(sampler)
        draws = np.empty((1500, 4))
        for r in range(1500):
            draws[r] = dehaan_max_stable(sampler, bound, RngState(41, r)).values
        for col in range(4):
            scale = spectral_mean(sampler, col)
            res = ks_one_sample(draws[:, col],
                                lambda y, c=scale: frechet_cdf(y, c),
                                level=0.01)
            assert res.passed, res

    def test_truncated_mixture_rectangle(self):
        sampler = SpectralSampler.decay(0.5, (0, 3), mixing=UNIFORM5)
        bound = spectral_bound(sampler)
        draws = np.empty((1500, 4))
        for r in range(1500):
            draws[r] = dehaan_max_stable(sampler, bound, RngState(42, r)).values
        func = ExponentFunctional(0.5, shifts=UNIFORM5.support)
        points = [(0, 1.0), (3, 1.5)]
        target = math.exp(-exponent_rectangle(func, points))
        emp = float(((draws[:, 0] <= 1.0) & (draws[:, 3] <= 1.5)).mean())
        assert abs(emp - target) < 4.0 * math.sqrt(target * (1 - target) / 1500)

    def test_understated_bound_detected(self):
        sampler = SpectralSampler.decay(0.5, (0, 3), mixing=UNIFORM5)
        bound = spectral_bound(sampler)
        with pytest.raises(SpectralBoundError):
            for r in range(20):
                dehaan_max_stable(sampler, bound / 2.0, RngState(43, r))

    def test_uncharged_coordinate_rejected(self):
        sampler = SpectralSampler.decay(0.5, (0, 3),
                                        mixing=FiniteMixing({5: 1.0}))
        with pytest.raises(ValueError):
            dehaan_max_stable(sampler, 10.0, RngState(1))

    def test_charge_check_repeats_per_call(self):
        """The per-sampler check is cached, yet every call on an uncharged
        sampler still raises, and a charged sampler still draws."""
        sampler = SpectralSampler.decay(0.5, (0, 3),
                                        mixing=FiniteMixing({2: 1.0}))
        for _ in range(2):
            with pytest.raises(ValueError, match="coordinate 0 is never"):
                dehaan_max_stable(sampler, 10.0, RngState(1))
        charged = SpectralSampler.decay(0.5, (0, 3),
                                        mixing=FiniteMixing({-1: 1.0}))
        for _ in range(2):
            assert dehaan_max_stable(charged, 10.0, RngState(1)).values.min() \
                > 0.0

    def test_max_points_exhaustion(self):
        sampler = SpectralSampler.constant((0, 1))
        with pytest.raises(RuntimeError) as info:
            dehaan_max_stable(sampler, 1.0, RngState(1), max_points=1)
        floor = 1.0 / RngState(1).exponential()
        message = str(info.value)
        assert "1 points drawn" in message
        assert f"last floor {floor!r}" in message
        assert "bound 1.0" in message

    def test_bound_validation(self):
        sampler = SpectralSampler.constant((0, 1))
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                dehaan_max_stable(sampler, bad, RngState(1))


class TestDehaanBlocks:
    """The block sampler against the point-by-point loop: bitwise the same
    windows, errors and stream positions."""

    @pytest.mark.parametrize("sampler", BLOCK_SAMPLERS,
                             ids=lambda s: f"{s.kind.value}{s.window}")
    def test_matches_point_loop(self, sampler):
        bound = spectral_bound(sampler)
        for stream in range(8):
            assert dehaan_outcome(dehaan_max_stable, sampler, bound, stream) \
                == dehaan_outcome(loop_dehaan, sampler, bound, stream)

    def test_many_blocks(self):
        """Wide windows under geometric mixing take thousands of points."""
        sampler = SpectralSampler.decay(0.3, (0, 10), GeometricMixing())
        bound = spectral_bound(sampler)
        _, marks = loop_dehaan(sampler, bound, RngState(60, 0))
        assert marks > 7 * _FIRST_BLOCK  # into the fourth block
        assert dehaan_outcome(dehaan_max_stable, sampler, bound, 0) \
            == dehaan_outcome(loop_dehaan, sampler, bound, 0)

    @pytest.mark.parametrize("sampler", [
        SpectralSampler.constant((0, 3)),
        SpectralSampler.decay(0.7, (-2, 6), SPREAD),
        SpectralSampler.dirac((0, 10), GeometricMixing(0.8)),
    ], ids=lambda s: s.kind.value)
    def test_exhaustion_on_same_draws(self, sampler):
        """A draw that reads K marks returns under max_points = K and
        raises under K - 1, in both forms."""
        bound = spectral_bound(sampler)
        for stream in range(4):
            _, marks = loop_dehaan(sampler, bound, RngState(60, stream))
            for max_points in (marks, marks - 1):
                assert dehaan_outcome(dehaan_max_stable, sampler, bound,
                                      stream, max_points) \
                    == dehaan_outcome(loop_dehaan, sampler, bound, stream,
                                      max_points)
            assert dehaan_outcome(dehaan_max_stable, sampler, bound, stream,
                                  marks - 1)[0] is RuntimeError

    @pytest.mark.parametrize("sampler", [
        SpectralSampler.constant((0, 2)),
        SpectralSampler.decay(0.3, (0, 0), GeometricMixing(0.8)),
        SpectralSampler.decay(0.5, (0, 3), UNIFORM5),
        SpectralSampler.dirac((-2, 6), SPREAD),
    ], ids=lambda s: f"{s.kind.value}{s.window}")
    def test_bound_error_on_same_streams(self, sampler):
        """Under a halved bound a stream raises at the same point in both
        forms, or stops before any point exceeds the bound in both."""
        bound = spectral_bound(sampler) / 2.0
        outcomes = [dehaan_outcome(loop_dehaan, sampler, bound, stream)
                    for stream in range(12)]
        assert any(result is SpectralBoundError for result, _ in outcomes)
        for stream, expected in enumerate(outcomes):
            assert dehaan_outcome(dehaan_max_stable, sampler, bound,
                                  stream) == expected
