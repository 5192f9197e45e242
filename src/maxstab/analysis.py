"""Statistical verification and identification for simulated paths.

The battery rechecks every closed-form identity of the family against
simulation with explicit thresholds; ``identify`` recovers the dependence
parameter and time direction of a path from the support and atoms of its
consecutive-value ratios.  Ratio-based identification is meaningful only
within this process family: the one-step ratio support [a, inf) (forward)
or (0, 1/a] (reversed) with an atom of mass a at the finite edge is what
the decision rules rely on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .conditional import independence_test
from .continuous import ShapeFunction, path_value, sample_grid, \
    simulate_moving_max, simulate_moving_max_reversed
from .distributions import RngState, frechet_cdf, frechet_sample
from .maxar import Direction, DiscretePath, MaxARParams, \
    _pair_cdf_errors, _stationary_windows, kernel_cdf, kernel_sample_many, \
    reverse_path, simulate_forward, simulate_reversed
from .report import EmpiricalReport

__all__ = [
    "KsResult",
    "RatioSupportEstimate",
    "IdentificationResult",
    "IdentificationError",
    "UnclassifiableDataError",
    "AmbiguousRatioError",
    "BatterySizes",
    "ks_critical_value",
    "ks_one_sample",
    "ks_two_sample",
    "ratio_support",
    "identify",
    "run_battery",
]


class IdentificationError(ValueError):
    """Input data could not be attributed to the process family."""


class UnclassifiableDataError(IdentificationError):
    pass


class AmbiguousRatioError(IdentificationError):
    """Ratio evidence points both ways; diagnostics carried in args."""


class KsResult(NamedTuple):
    statistic: float
    threshold: float
    passed: bool
    n: int


def ks_critical_value(level: float) -> float:
    """Asymptotic Kolmogorov-Smirnov critical constant: the statistic
    threshold is this value divided by sqrt(effective n)."""
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    return math.sqrt(-0.5 * math.log(level / 2.0))


_KS_MIN_VALUES = 30


def ks_one_sample(values, cdf: Callable, level: float = 0.01) -> KsResult:
    """Sup distance between the empirical CDF of an i.i.d. sample and a
    target CDF, with the asymptotic threshold at the given level."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    if n < _KS_MIN_VALUES:
        raise ValueError(f"need at least {_KS_MIN_VALUES} values")
    if not np.all(np.isfinite(x)):
        raise ValueError("values must be finite")
    f = np.asarray(cdf(x), dtype=np.float64)
    steps = np.arange(1, n + 1) / n
    stat = float(np.max(np.maximum(steps - f, f - (steps - 1.0 / n))))
    threshold = ks_critical_value(level) / math.sqrt(n)
    return KsResult(stat, threshold, stat < threshold, n)


def ks_two_sample(x, y, level: float = 0.01) -> KsResult:
    """Sup distance between two empirical CDFs with the asymptotic
    two-sample threshold."""
    x = np.sort(np.asarray(x, dtype=np.float64))
    y = np.sort(np.asarray(y, dtype=np.float64))
    n, m = x.size, y.size
    if n < _KS_MIN_VALUES or m < _KS_MIN_VALUES:
        raise ValueError(f"need at least {_KS_MIN_VALUES} values in each "
                         "sample")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("values must be finite")
    pooled = np.concatenate([x, y])
    fx = np.searchsorted(x, pooled, side="right") / n
    fy = np.searchsorted(y, pooled, side="right") / m
    stat = float(np.abs(fx - fy).max())
    threshold = ks_critical_value(level) * math.sqrt((n + m) / (n * m))
    return KsResult(stat, threshold, stat < threshold, min(n, m))


def _as_values(path) -> np.ndarray:
    if isinstance(path, DiscretePath):
        return np.asarray(path.values, dtype=np.float64)
    values = np.asarray(path, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("expected a 1-d array of values")
    if not np.all(np.isfinite(values)) or np.any(values <= 0):
        raise ValueError("values must be finite and positive")
    return values


_ATOM_MIN_COUNT = 3
_ATOM_MIN_MASS = 0.01


def _ratio_clusters(ratios: np.ndarray, rel_tol: float):
    """Maximal runs of sorted ratios whose consecutive gaps are below
    rel_tol in relative terms.  Returns [(median, count)] of the runs with
    at least _ATOM_MIN_COUNT members, the only ones that can be atoms,
    sorted by count descending, then by median."""
    order = np.sort(ratios)
    gaps = order[1:] / order[:-1] - 1.0
    breaks = np.nonzero(gaps > rel_tol)[0]
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks + 1, [order.size]])
    counts = ends - starts
    keep = counts >= _ATOM_MIN_COUNT
    starts, counts = starts[keep], counts[keep]
    # the median of a sorted run, as np.median evaluates it: the middle
    # value, or the mean of the two middle values
    lower = order[starts + (counts - 1) // 2]
    upper = order[starts + counts // 2]
    medians = np.where(counts % 2 == 1, lower, (lower + upper) / 2.0)
    rank = np.lexsort((medians, -counts))
    return list(zip(medians[rank].tolist(), counts[rank].tolist()))


@dataclass(frozen=True)
class RatioSupportEstimate:
    """Observed support and dominant atom of consecutive-value ratios."""

    min_ratio: float
    max_ratio: float
    atom_location: float | None
    atom_mass: float
    n_ratios: int


def ratio_support(path, rel_tol: float = 1e-9) -> RatioSupportEstimate:
    """Estimate the ratio support and its atom from a path.

    The atom is the largest cluster of ratios that agree to rel_tol.  On
    simulated paths the ratios at the atom equal a only to within a few
    ulp, so the rel_tol clustering, not exact float equality, is what
    finds it; clusters need at least three members (_ATOM_MIN_COUNT) to
    count as an atom.
    """
    values = _as_values(path)
    if values.size < 2:
        raise ValueError("need at least two values")
    ratios = values[1:] / values[:-1]
    clusters = _ratio_clusters(ratios, rel_tol)
    if not clusters:
        return RatioSupportEstimate(float(ratios.min()), float(ratios.max()),
                                    None, 0.0, ratios.size)
    location, count = clusters[0]
    return RatioSupportEstimate(float(ratios.min()), float(ratios.max()),
                                location, count / ratios.size, ratios.size)


@dataclass(frozen=True)
class IdentificationResult:
    params: MaxARParams
    atom_location: float | None
    atom_mass: float
    n_used: int
    notes: str


def identify(path, rel_tol: float = 1e-9, level: float = 0.01) -> IdentificationResult:
    """Recover (a, direction) of a stationary path from this family.

    Decision order: constant path means a = 1; otherwise the dominant
    ratio atom gives a (below one: forward at the atom, above one:
    reversed at its reciprocal); with no atom, disjoint consecutive pairs
    that pass the independence test mean a = 0.  Only a path with no atom
    runs the test, since an atom is incompatible with independence.
    Raises UnclassifiableDataError or AmbiguousRatioError when the
    evidence supports no member or two members.
    """
    values = _as_values(path)
    n = values.size
    if n < 100:
        raise ValueError("need at least 100 values")
    if values.max() <= values.min() * (1.0 + rel_tol):
        return IdentificationResult(
            MaxARParams(1.0, Direction.FORWARD), None, 1.0, n,
            "constant path: fully dependent member")

    ratios = values[1:] / values[:-1]
    clusters = _ratio_clusters(ratios, rel_tol)
    atoms = [(loc, cnt) for loc, cnt in clusters
             if cnt / ratios.size >= _ATOM_MIN_MASS]
    below = [c for c in atoms if c[0] < 1.0 - rel_tol]
    above = [c for c in atoms if c[0] > 1.0 + rel_tol]

    if not atoms:
        if n < 2000:
            raise UnclassifiableDataError(
                "no ratio atom found and too few values to assess "
                "independence (need at least 2000)")
        pairs = values[:2 * (n // 2)].reshape(-1, 2)  # disjoint consecutive
        if independence_test(pairs, level=level).checks[0].passed is not True:
            raise UnclassifiableDataError(
                "no ratio atom and the independence test rejected; the path "
                "does not match any member of the family")
        return IdentificationResult(
            MaxARParams(0.0, Direction.FORWARD), None, 0.0, n,
            "disjoint consecutive pairs consistent with independence and "
            "no ratio atom")
    if below and above:
        raise AmbiguousRatioError(
            "ratio atoms on both sides of one", {"below": below, "above": above})
    if below:
        loc, cnt = below[0]
        support_ok = ratios.min() >= loc * (1.0 - rel_tol)
        if not support_ok:
            raise AmbiguousRatioError(
                "atom below one but ratios extend beneath it",
                {"atom": (loc, cnt), "min_ratio": float(ratios.min())})
        return IdentificationResult(
            MaxARParams(loc, Direction.FORWARD), loc, cnt / ratios.size, n,
            "ratio atom at the lower support edge")
    if above:
        loc, cnt = above[0]
        support_ok = ratios.max() <= loc * (1.0 + rel_tol)
        if not support_ok:
            raise AmbiguousRatioError(
                "atom above one but ratios extend beyond it",
                {"atom": (loc, cnt), "max_ratio": float(ratios.max())})
        return IdentificationResult(
            MaxARParams(1.0 / loc, Direction.REVERSED), loc,
            cnt / ratios.size, n, "ratio atom at the upper support edge")
    raise UnclassifiableDataError(
        "the only ratio atom sits at one; the path does not match any "
        "member of the family")


# the smallest size each battery check can run on: a KS test needs
# _KS_MIN_VALUES per sample, the kernel checks split the transitions into
# _KERNEL_BINS quantile bins, and a path needs two values for one ratio
_KERNEL_BINS = 5
_MIN_SIZES = {"marginal": _KS_MIN_VALUES,
              "transitions": _KERNEL_BINS * _KS_MIN_VALUES,
              "aggregation": _KS_MIN_VALUES, "path_length": 2,
              "continuous_replicates": _KS_MIN_VALUES}


@dataclass(frozen=True)
class BatterySizes:
    """Sample sizes for the verification battery."""

    marginal: int = 4000
    transitions: int = 20000
    aggregation: int = 2000
    copies: int = 50
    path_length: int = 4000
    continuous_replicates: int = 3000
    skeleton_points: int = 400

    def __post_init__(self):
        for field in fields(self):
            size = getattr(self, field.name)
            least = _MIN_SIZES.get(field.name, 1)
            if size < least:
                need = "positive" if size < 1 else f"at least {least}"
                raise ValueError(f"battery size {field.name} must be "
                                 f"{need}, got {size}")

    def scaled(self, n: int) -> "BatterySizes":
        """Derive all sizes from one base count n."""
        return replace(
            self,
            marginal=max(1000, n // 5),
            transitions=n,
            aggregation=max(500, n // 10),
            path_length=max(1000, n // 5),
            continuous_replicates=max(1000, n // 5),
        )


_QUADRATURE_NODES = 32


def _discrete_battery(params: MaxARParams, sizes: BatterySizes,
                      rng: RngState, report: EmpiricalReport) -> None:
    a = params.a
    reversed_dir = params.direction is Direction.REVERSED
    level = 0.001

    windows = _stationary_windows(a, 3, sizes.marginal, rng.substream(1))
    if reversed_dir:
        windows = windows[:, ::-1]
    for col in range(windows.shape[1]):
        ks = ks_one_sample(windows[:, col], frechet_cdf, level)
        report.add(f"stationary_marginal_ks_t{col}", ks.statistic, ks.threshold,
                   ks.passed, "unit Frechet marginal at a fixed coordinate "
                   "across independent replicates")

    path = (simulate_reversed if reversed_dir else simulate_forward)(
        params, sizes.path_length, rng.substream(2))
    ratios = path.ratios()
    if a > 0.0:
        if reversed_dir:
            report.add("ratio_upper_edge", float(ratios.max()),
                       (1.0 / a) * (1.0 + 1e-9),
                       float(ratios.max()) <= (1.0 / a) * (1.0 + 1e-9),
                       "reversed one-step ratios never exceed 1/a")
        else:
            report.add("ratio_lower_edge", float(ratios.min()),
                       a * (1.0 - 1e-9),
                       float(ratios.min()) >= a * (1.0 - 1e-9),
                       "forward one-step ratios never fall below a")

    if 0.0 < a < 1.0:
        n = sizes.transitions
        sub = rng.substream(3)
        starts, nexts = _stationary_windows(a, 2, n, sub).T
        atom_freq = float(np.mean(nexts == a * starts))
        # a * (1 - a) / n underflows to 0 at subnormal a; only there is it
        # split, so every other threshold keeps its bits
        sigma = math.sqrt(a * (1.0 - a) / n) \
            or math.sqrt(a) * math.sqrt((1.0 - a) / n)
        report.add("transition_atom_mass", abs(atom_freq - a), 4.0 * sigma,
                   abs(atom_freq - a) <= 4.0 * sigma,
                   "holding frequency of the decayed value equals a")

        forward = MaxARParams(a, Direction.FORWARD)
        sampled = kernel_sample_many(forward, starts, sub)
        edges = np.quantile(starts, np.arange(1, _KERNEL_BINS) / _KERNEL_BINS)
        bins = np.searchsorted(edges, starts)
        for b in range(_KERNEL_BINS):
            mask = bins == b
            ks = ks_two_sample(nexts[mask], sampled[mask], level)
            report.add(f"kernel_sample_two_sample_bin{b}", ks.statistic,
                       ks.threshold, ks.passed,
                       "recursion step vs inverse-CDF kernel draw from the "
                       "same stationary starts")
        lo_edges = np.concatenate([[0.0], edges])
        hi_edges = np.concatenate([edges, [math.inf]])
        y_grid = np.quantile(nexts, np.arange(1, 10) / 10.0)
        for b in range(_KERNEL_BINS):
            mask = bins == b
            n_bin = int(mask.sum())
            p_lo = math.exp(-1.0 / lo_edges[b]) if lo_edges[b] > 0 else 0.0
            p_hi = math.exp(-1.0 / hi_edges[b]) if hi_edges[b] < math.inf else 1.0
            worst = 0.0
            for y in y_grid:
                cut = min(p_hi, math.exp(-a / y))
                target = math.exp(-(1.0 - a) / y) * max(0.0, cut - p_lo) \
                    / (p_hi - p_lo)
                emp = float(np.mean(nexts[mask] <= y))
                worst = max(worst, abs(emp - target))
            report.add(f"kernel_binned_cdf_bin{b}", worst,
                       3.0 / math.sqrt(n_bin), worst < 3.0 / math.sqrt(n_bin),
                       "closed-form transition CDF mixed over the "
                       "conditioning bin")

        grid = (0.5, 1.0, 2.0)
        worst = max(_pair_cdf_errors(forward, starts, nexts, grid).values())
        bound = 2.0 / math.sqrt(n)
        report.add("bivariate_grid", worst, bound, worst < bound,
                   "closed-form joint CDF of a stationary transition pair")

        rev = MaxARParams(a, Direction.REVERSED)
        rev_starts = frechet_sample(sub, size=n)
        rev_nexts = kernel_sample_many(rev, rev_starts, sub)
        worst = max(_pair_cdf_errors(rev, rev_starts, rev_nexts, grid).values())
        report.add("equilibrium_grid", worst, bound, worst < bound,
                   "detailed balance: backward transition pairs carry the "
                   "swapped forward joint law")

    copies = sizes.copies
    reps = sizes.aggregation
    sub = rng.substream(4)
    block = _stationary_windows(a, 2, reps * copies, sub)
    block = block.reshape(reps, copies, 2)
    aggregated = block.max(axis=1) / copies
    single = _stationary_windows(a, 2, reps, sub)
    if reversed_dir:
        aggregated = aggregated[:, ::-1]
        single = single[:, ::-1]
    ks = ks_two_sample(aggregated[:, 0], single[:, 0], level)
    report.add("max_stability_marginal", ks.statistic, ks.threshold, ks.passed,
               "rescaled pointwise max of independent copies keeps the "
               "marginal law")
    ks = ks_two_sample(aggregated.min(axis=1), single.min(axis=1), level)
    report.add("max_stability_pair_min", ks.statistic, ks.threshold, ks.passed,
               "rescaled pointwise max of independent copies keeps the "
               "consecutive-pair law (minimum statistic)")

    # With u = exp(-1/x) the stationary law is uniform on (0, 1) and the
    # forward kernel CDF is a step in u with one kink at exp(-a/y): one
    # fixed panel on each side of it integrates it to rounding.  The upper
    # panel is mapped by w = 1 - u, since u rounds onto 1 for tiny a.
    forward_params = MaxARParams(a, Direction.FORWARD)
    nodes, weights = leggauss(_QUADRATURE_NODES)
    nodes, weights = (nodes + 1.0) / 2.0, weights / 2.0
    worst = 0.0
    for y in (0.5, 1.0, 2.0, 4.0):
        lower, upper = math.exp(-a / y), -math.expm1(-a / y)
        with np.errstate(divide="ignore", over="ignore"):
            xs = -1.0 / np.array([np.log(lower * nodes),
                                  np.log1p(-upper * nodes)])
        # at a = 0 or subnormal a, upper * nodes underflows and x overflows
        cdf = [[kernel_cdf(forward_params, x, y) for x in row]
               for row in np.minimum(xs, np.finfo(float).max).tolist()]
        integral = float(np.dot([lower, upper], np.dot(cdf, weights)))
        worst = max(worst, abs(integral - math.exp(-1.0 / y)))
    report.add("chapman_kolmogorov_quadrature", worst, 1e-8, worst < 1e-8,
               "transition kernel integrated against the stationary law "
               "returns the stationary CDF")

    with warnings.catch_warnings():
        # at a in {0, 1} reverse_path canonicalizes the direction and says
        # so; inside a routine battery run that advisory is expected noise
        warnings.simplefilter("ignore", UserWarning)
        twice = reverse_path(reverse_path(path))
    same = twice.values.shape == path.values.shape and \
        bool(np.all(twice.values == path.values))
    report.add("reversal_involution", 0.0 if same else 1.0, 0.5, same,
               "reversing a path twice restores it exactly")


def _continuous_battery(shape: ShapeFunction, epsilon: float,
                        sizes: BatterySizes, rng: RngState,
                        report: EmpiricalReport) -> None:
    a = shape.a
    reversed_dir = shape.direction is Direction.REVERSED
    simulate = simulate_moving_max_reversed if reversed_dir \
        else simulate_moving_max
    a_eff = a ** epsilon
    level = 0.001

    length = sizes.skeleton_points * epsilon
    path = simulate(a, length, rng.substream(1))
    skeleton = sample_grid(path, epsilon)
    ratios = skeleton.ratios()
    if reversed_dir:
        edge = float(ratios.max())
        target = 1.0 / a_eff
    else:
        edge = float(ratios.min())
        target = a_eff
    report.add("skeleton_ratio_edge", abs(edge - target), 1e-9 * target,
               abs(edge - target) <= 1e-9 * target,
               "grid skeleton ratio support edge equals the per-step decay "
               "exactly")

    reps = sizes.continuous_replicates
    sub = rng.substream(2)
    first = np.empty(reps)
    second = np.empty(reps)
    for i in range(reps):
        p = simulate(a, 2.0 * epsilon, sub)
        first[i] = path_value(p, 0.0)
        second[i] = path_value(p, epsilon)
    ks = ks_one_sample(first, frechet_cdf, level)
    report.add("continuous_marginal_ks", ks.statistic, ks.threshold, ks.passed,
               "unit Frechet marginal of the continuous process")
    chain_pairs = _stationary_windows(a_eff, 2, reps, rng.substream(3))
    if reversed_dir:
        chain_pairs = chain_pairs[:, ::-1]
    ks = ks_two_sample(np.minimum(first, second),
                       chain_pairs.min(axis=1), level)
    report.add("skeleton_pair_min_two_sample", ks.statistic, ks.threshold,
               ks.passed, "skeleton pair law matches the discrete chain at "
               "the per-step decay (minimum statistic)")
    ks = ks_two_sample(second, chain_pairs[:, 1], level)
    report.add("skeleton_marginal_two_sample", ks.statistic, ks.threshold,
               ks.passed, "skeleton coordinate matches the discrete chain "
               "marginal")

    sub = rng.substream(4)
    held = 0
    for i in range(reps):
        p = simulate(a, 1.25, sub)
        z0 = path_value(p, 0.125)
        z1 = path_value(p, 1.125)
        if reversed_dir:
            z0, z1 = z1, z0
        if abs(z1 - a * z0) <= 1e-12 * max(z1, a * z0):
            held += 1
    sigma = math.sqrt(a * (1.0 - a) / reps)
    report.add("holding_probability", abs(held / reps - a),
               4.0 * sigma + 1e-12, abs(held / reps - a) <= 4.0 * sigma + 1e-12,
               "probability of one unit of pure decay equals a")


def run_battery(spec, rng: RngState, sizes: BatterySizes | None = None,
                epsilon: float = 0.1) -> EmpiricalReport:
    """Run the verification battery for a discrete chain (MaxARParams) or a
    continuous moving maximum (ShapeFunction, skeleton step epsilon).

    Individual check failures are recorded in the report, never raised.
    """
    sizes = sizes or BatterySizes()
    if isinstance(spec, MaxARParams):
        report = EmpiricalReport(params={
            "kind": "discrete", "a": spec.a,
            "direction": spec.direction.value, "sizes": vars(sizes)})
        report.seeds.append((rng.seed, rng.stream))
        _discrete_battery(spec, sizes, rng, report)
        return report
    if isinstance(spec, ShapeFunction):
        if not (math.isfinite(epsilon) and epsilon > 0):
            raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
        report = EmpiricalReport(params={
            "kind": "continuous", "a": spec.a,
            "direction": spec.direction.value, "epsilon": epsilon,
            "sizes": vars(sizes)})
        report.seeds.append((rng.seed, rng.stream))
        _continuous_battery(spec, epsilon, sizes, rng, report)
        return report
    raise TypeError("spec must be MaxARParams or ShapeFunction")
