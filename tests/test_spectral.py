"""Tests for the spectral layer: mixing laws, shape samplers, the exponent
functional, and the stopped max-stable draw."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maxstab import (
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
    dehaan_max_stable,
    exponent_rectangle,
    frechet_cdf,
    ks_one_sample,
    spectral_bound,
    spectral_mean,
)
import maxstab.spectral
from maxstab.spectral import _BLOCK_ELEMENTS, _FIRST_BLOCK, _decay_profile, \
    _onset_rows, _spectral_rows, _support_rows

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


def array_pow(x: float, k: int) -> float:
    """x**k by numpy's array power on a one-element array, as the package
    computes every power.  Python's ``**`` calls the C library's scalar
    pow, which can differ in the last bit (at x = 0.3, k = 4 on AVX-512)."""
    return float((x ** np.array([k]))[0])


def onset_row(sampler, onset):
    """One window row of the dirac or decay spectral process at the given
    spike or onset index, point by point: the reference for
    ``_spectral_rows``."""
    lo, hi = sampler.window
    values = np.zeros(sampler.length)
    if sampler.kind is SamplerKind.DIRAC:
        if lo <= onset <= hi:
            values[onset - lo] = 1.0 / sampler.mixing.pmf(onset)
        return values
    a = sampler.a
    first = max(lo, onset)
    if first <= hi:
        level = (1.0 - a) * array_pow(a, first - onset) \
            / sampler.mixing.pmf(onset)
        for k in range(first - lo, sampler.length):
            values[k] = level
            level = a * level
    return values


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
        if sampler.kind is SamplerKind.CONSTANT:
            y = np.ones(sampler.length)
        else:
            y = _spectral_rows(sampler, [sampler.mixing.sample(rng)])[0]
        if float(y.max()) > bound * (1.0 + 1e-12):
            raise SpectralBoundError("spectral draw above the bound")
        np.maximum(running, u * y, out=running)
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

    @pytest.mark.parametrize("make, size", [
        (lambda: SpectralSampler.dirac((0, 2**62)), 2**62 + 1),
        (lambda: SpectralSampler.constant((1, 10**7 + 1)), 10**7 + 1),
        (lambda: SpectralSampler.decay(
            0.5, (0, 10**9), mixing=FiniteMixing({0: 1.0})), 10**9 + 1),
        (lambda: SpectralSampler.decay(0.5, (0, 2 * 10**6), mixing=UNIFORM5),
         10**7 + 5),
    ])
    def test_refuses_a_table_too_large_to_hold(self, make, size):
        """The largest table a sampler builds holds one window row, or one
        per support point of a finite mixing; the refusal gives its size.
        Only the sampler is built, so no table is allocated."""
        with pytest.raises(ValueError, match=f"would hold {size:,} values"):
            make()

    def test_accepts_the_largest_table(self):
        s = SpectralSampler.decay(0.5, (1, 2 * 10**6), mixing=UNIFORM5)
        assert s.length * len(s.mixing.support) == 10**7


class TestSpectralRows:
    @pytest.mark.parametrize(
        "sampler",
        [s for s in BLOCK_SAMPLERS if s.kind is not SamplerKind.CONSTANT],
        ids=lambda s: f"{s.kind.value}{s.window}")
    def test_matches_onset_loop(self, sampler):
        lo, hi = sampler.window
        onsets = [n for n in range(lo - 5, hi + 6)
                  if sampler.mixing.pmf(n) > 0.0]
        rows = _spectral_rows(sampler, onsets)
        assert rows.shape == (len(onsets), sampler.length)
        for n, row in zip(onsets, rows):
            assert row.tobytes() == onset_row(sampler, n).tobytes()

    def test_dirac_at_most_one_active(self):
        sampler = SpectralSampler.dirac((-2, 3))
        rows = _spectral_rows(sampler,
                              sampler.mixing.sample(RngState(33), size=500))
        seen_zero_path = False
        for row in rows:
            nz = np.nonzero(row)[0]
            assert nz.size <= 1
            if nz.size == 0:
                seen_zero_path = True
            else:
                t = sampler.window[0] + int(nz[0])
                assert row[nz[0]] == pytest.approx(
                    1.0 / sampler.mixing.pmf(t), rel=1e-14)
        # onsets outside the window leave an all-zero window
        assert seen_zero_path

    def test_decay_exact_cascade(self):
        sampler = SpectralSampler.decay(0.6, (-2, 4))
        rows = _spectral_rows(sampler,
                              sampler.mixing.sample(RngState(34), size=300))
        for v in rows:
            nz = np.nonzero(v)[0]
            if nz.size == 0:
                continue
            onset = nz[0]
            assert np.all(v[:onset] == 0.0)
            # the cascade is an exact floating-point identity
            assert np.all(v[onset + 1:] == 0.6 * v[onset:-1])

    def test_decay_ratio_essential_infimum(self):
        sampler = SpectralSampler.decay(0.45, (0, 1))
        rows = _spectral_rows(
            sampler, sampler.mixing.sample(RngState(35), size=10000))
        rows = rows[rows[:, 0] > 0.0]
        ratios = rows[:, 1] / rows[:, 0]
        assert ratios.min() == pytest.approx(0.45, rel=1e-12)
        assert np.all(np.abs(ratios - 0.45) <= 1e-12 * 0.45)

    @pytest.mark.parametrize("mixing", [None, GeometricMixing(0.6)])
    def test_decay_unit_mean(self, mixing):
        """50,000 onsets drawn in one call, one uniform each; the mean of
        their rows at an interior coordinate is 1."""
        sampler = SpectralSampler.decay(0.5, (0, 4), mixing=mixing)
        rows = _spectral_rows(
            sampler, sampler.mixing.sample(RngState(36), size=50000))
        vals = rows[:, 2]
        stderr = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) < 4.0 * stderr

    @pytest.mark.parametrize("mixing", [
        GeometricMixing(0.3), GeometricMixing(0.5), GeometricMixing(0.8),
        GeometricMixing(0.97), GeometricMixing(0.999), SPREAD,
    ], ids=repr)
    def test_scalar_pmf_matches_array(self, mixing):
        n = np.arange(-1100, 1100)
        masses = mixing.pmf(n)
        scalars = [mixing.pmf(int(k)) for k in n]
        assert all(isinstance(m, float) for m in scalars)
        assert np.array(scalars).tobytes() == masses.tobytes()


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

    @pytest.mark.parametrize("a", [0.05, 0.3, 0.49])
    @pytest.mark.parametrize("ratio", [0.5, 0.8])
    @pytest.mark.parametrize("window", [(-9, -4), (-2, 4), (0, 0), (3, 10)])
    def test_window_ends_dominate_earlier_onsets(self, a, ratio, window):
        """Under geometric mixing the rows at the window's ends hold the
        largest value of every row at or before the window's end."""
        lo, hi = window
        m = GeometricMixing(ratio)
        for sampler in (SpectralSampler.decay(a, window, m),
                        SpectralSampler.dirac(window, m)):
            brute = _spectral_rows(sampler, range(lo - 300, hi + 1)).max()
            assert spectral_bound(sampler) == brute

    @pytest.mark.parametrize("sampler", [
        SpectralSampler.decay(0.3, (1100, 1105)),
        SpectralSampler.dirac((0, 2000)),
        SpectralSampler.dirac((-5000, -4990), GeometricMixing(0.8)),
    ], ids=lambda s: f"{s.kind.value}{s.window}")
    def test_underflowing_mass_gives_infinity(self, sampler):
        """A window end whose mass underflows to 0 has no finite bound;
        the bound says so without a numpy warning, and the de Haan
        sampler refuses it."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = spectral_bound(sampler)
        assert bound == math.inf
        with pytest.raises(ValueError, match="bound must be finite"):
            dehaan_max_stable(sampler, bound, RngState(1))

    @pytest.mark.parametrize("sampler", [
        SpectralSampler.decay(0.3, (-2, 4)),
        SpectralSampler.dirac((0, 3), mixing=UNIFORM5),
        SpectralSampler.decay(0.5, (0, 3), mixing=UNIFORM5),
    ])
    def test_realizations_respect_bound(self, sampler):
        bound = spectral_bound(sampler)
        rows = _spectral_rows(sampler,
                              sampler.mixing.sample(RngState(37), size=2000))
        assert rows.max() <= bound * (1.0 + 1e-12)


class TestIndexedPath:
    def test_value_at_outside_window(self):
        with pytest.raises(ValueError):
            IndexedPath(0, [1.0]).value_at(1)

    def test_times_start_at_start(self):
        assert IndexedPath(3, [1, 2]).start == 3

    @pytest.mark.parametrize("values", [[], [[1.0, 2.0]]])
    def test_refuses_values_that_are_not_a_nonempty_row(self, values):
        with pytest.raises(ValueError, match="nonempty 1-d array"):
            IndexedPath(0, values)


# Each integer index the spectral layer takes, read back through what the
# index decides.
INDEX_INPUTS = {
    "start": lambda t: IndexedPath(t, [1.0]).start,
    "value_at": lambda t: IndexedPath(2, [5.0]).value_at(t),
    "window": lambda t: SpectralSampler.decay(0.5, (0, t)).window,
    "mixing": lambda t: FiniteMixing({0: 1.0, t: 1.0}).support,
    "shifts": lambda t: ExponentFunctional(0.5, shifts=(0, t)).shifts,
    "points": lambda t: exponent_rectangle(ExponentFunctional(0.5),
                                           [(0, 1.0), (t, 1.0)]),
    "mean": lambda t: spectral_mean(
        SpectralSampler.decay(0.5, (0, 3), mixing=UNIFORM5), t),
    "geometric_pmf": lambda t: GeometricMixing().pmf(t),
    "finite_pmf": lambda t: FiniteMixing({0: 1.0, 1: 1.0, 2: 2.0}).pmf(t),
}


class TestIndices:
    """Indices are integers: a fraction or an infinity is refused, never
    truncated, and an integral float is taken as its int."""

    @pytest.mark.parametrize("bad", [1.5, math.inf])
    @pytest.mark.parametrize("name", list(INDEX_INPUTS))
    def test_refuses_a_non_integer(self, name, bad):
        with pytest.raises(ValueError, match="indices must be integers"):
            INDEX_INPUTS[name](bad)

    @pytest.mark.parametrize("bad", [2**63, -2**63 - 1, 2**70])
    @pytest.mark.parametrize("name", list(INDEX_INPUTS))
    def test_refuses_an_integer_beyond_int64(self, name, bad):
        with pytest.raises(ValueError, match="integers within int64"):
            INDEX_INPUTS[name](bad)

    @pytest.mark.parametrize("edge", [2**63 - 1, -2**63])
    def test_int64_edges_are_indices(self, edge):
        assert IndexedPath(edge, [1.0]).start == edge
        assert GeometricMixing().pmf(edge) == 0.0

    @pytest.mark.parametrize("name", list(INDEX_INPUTS))
    def test_integral_float_is_its_int(self, name):
        assert repr(INDEX_INPUTS[name](2.0)) == repr(INDEX_INPUTS[name](2))

    @pytest.mark.parametrize("bad", [0.7, math.nan, "1",
                                     np.array([0.0, 1.5]), [0, 1.5]])
    @pytest.mark.parametrize("mixing", [GeometricMixing(),
                                        FiniteMixing({0: 1.0, 1: 1.0})])
    def test_pmf_refuses_what_it_once_truncated(self, mixing, bad):
        with pytest.raises(ValueError, match="indices must be integers"):
            mixing.pmf(bad)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8,
                                       np.float64])
    def test_pmf_of_an_integer_array(self, dtype):
        """Every integer array, and an integral float one, gives the
        masses of its ints bit for bit."""
        mixing = GeometricMixing(0.3)
        masses = mixing.pmf(np.array([[0, 1], [2, 3]], dtype=dtype))
        assert masses.shape == (2, 2)
        assert masses.ravel().tolist() == [mixing.pmf(n) for n in range(4)]


class TestExponentRectangle:
    @pytest.mark.parametrize("points", [[(0, 1e-320)],
                                        [(0, 1.0), (1, 1e-320)],
                                        [(0, 1e-320), (3, 2.0)]])
    @pytest.mark.parametrize("func", [ExponentFunctional(0.0),
                                      ExponentFunctional(0.4),
                                      ExponentFunctional(1.0),
                                      ExponentFunctional(0.4, (0, 1))])
    def test_tiny_level_is_the_limit_without_a_warning(self, func, points):
        """A level of 1e-320 overflows its share of the exponent, which
        is then infinite: the probability of staying below it is 0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exponent_rectangle(func, points) == math.inf

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

    @pytest.mark.parametrize("a", [0.0, 0.45, 1.0])
    @pytest.mark.parametrize("times", [[0], [5, 5, 5], [3, -2, 3, 0, -2, 7],
                                       list(range(9, -1, -1))])
    def test_onset_rows_stand_at_the_distinct_times(self, a, times):
        """The rows sit at np.unique's distinct times, bit for bit."""
        t = np.array(times, dtype=np.int64)
        weights, rows = _onset_rows(a, t)
        expected = _decay_profile(a, t, np.unique(t))
        assert weights.shape == (expected.shape[0],)
        assert rows.shape == expected.shape
        assert np.array_equal(rows, expected)

    @pytest.mark.parametrize("a", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("points", [[(-2**63, 1.0), (2**63 - 1, 1.0)],
                                        [(-2**62, 1.0), (2**62 + 2**61, 1.0)]])
    def test_span_past_int64(self, a, points):
        """Two times further apart than int64 holds are independent: each
        adds 1/z, with no wrap and no overflow warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = exponent_rectangle(ExponentFunctional(a), points)
        assert got == 2.0

    @given(st.sampled_from([0.0, 0.3, 0.5, 0.97, 1.0]),
           st.lists(st.integers(-2**40, 2**40), min_size=1, max_size=6),
           st.lists(st.integers(-2**40, 2**40), min_size=1, max_size=6))
    def test_spans_inside_int64_keep_their_bits(self, a, times, onsets):
        """Where no span wraps, the rows and weights are those of the
        plain int64 differences, bit for bit."""
        t = np.array(times, dtype=np.int64)
        k = t[None, :] - np.array(onsets, dtype=np.int64)[:, None]
        want = np.where(k >= 0, a ** np.maximum(k, 0).astype(np.float64), 0.0)
        assert np.array_equal(_decay_profile(a, t, onsets), want)
        distinct = np.unique(t)
        with np.errstate(divide="ignore"):
            gaps = -np.expm1(np.diff(distinct) * np.log(a))
        assert np.array_equal(_onset_rows(a, t)[0][1:], gaps)

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

    def test_refuses_empty_shifts(self):
        with pytest.raises(ValueError, match="shifts must be nonempty"):
            ExponentFunctional(0.5, shifts=())


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

    @pytest.mark.parametrize("bad", [2.5, math.inf, -1])
    def test_max_points_must_be_a_nonnegative_integer(self, bad):
        sampler = SpectralSampler.constant((0, 1))
        with pytest.raises(ValueError, match="max_points must be a "
                           "nonnegative integer"):
            dehaan_max_stable(sampler, 1.0, RngState(1), max_points=bad)

    def test_max_points_zero_draws_nothing(self):
        sampler = SpectralSampler.constant((0, 1))
        with pytest.raises(RuntimeError, match="0 points drawn"):
            dehaan_max_stable(sampler, 1.0, RngState(1), max_points=0)

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

    @pytest.mark.parametrize("sampler", [
        SpectralSampler.decay(0.7, (-2, 6), SPREAD),
        SpectralSampler.dirac((0, 10), SPREAD),
    ], ids=lambda s: s.kind.value)
    def test_finite_mixing_reads_cached_rows(self, sampler, monkeypatch):
        """Under a finite mixing every block indexes the support rows built
        once per sampler, instead of building rows per block."""
        rows = _support_rows(sampler)
        assert not rows.flags.writeable
        assert np.array_equal(rows,
                              _spectral_rows(sampler, SPREAD._support))
        bound = spectral_bound(sampler)
        expected = [dehaan_outcome(dehaan_max_stable, sampler, bound, stream)
                    for stream in range(4)]

        def refuse(*args):
            raise AssertionError("rows rebuilt inside a block")

        monkeypatch.setattr(maxstab.spectral, "_spectral_rows", refuse)
        for stream in range(4):
            assert dehaan_outcome(dehaan_max_stable, sampler, bound,
                                  stream) == expected[stream]
        assert _support_rows(sampler) is rows

    def test_many_blocks(self):
        """Wide windows under geometric mixing take thousands of points."""
        sampler = SpectralSampler.decay(0.3, (0, 10), GeometricMixing())
        bound = spectral_bound(sampler)
        _, marks = loop_dehaan(sampler, bound, RngState(60, 9))
        cap = _BLOCK_ELEMENTS // sampler.length
        first = min(max(_FIRST_BLOCK, int(2 * bound)), cap)
        assert marks > first + cap  # into the third block
        assert dehaan_outcome(dehaan_max_stable, sampler, bound, 9) \
            == dehaan_outcome(loop_dehaan, sampler, bound, 9)

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
