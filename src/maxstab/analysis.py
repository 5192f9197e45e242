"""Statistical verification and identification for simulated paths.

The battery rechecks every closed-form identity of the family against
simulation with explicit thresholds, and records each check, with the
seeds and parameters behind it, in an :class:`EmpiricalReport`;
``equilibrium_check`` and ``independence_test`` report the same way.
``identify`` recovers the dependence parameter and time direction of a
path from the support and atoms of its consecutive-value ratios.
Ratio-based identification is meaningful only within this process family:
the one-step ratio support [a, inf) (forward) or (0, 1/a] (reversed) with
an atom of mass a at the finite edge is what the decision rules rely on.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import _EXPORTS
from .distributions import RngState, _array, _check_count, \
    _check_positive_array, _integer, _quantiles, frechet_cdf, frechet_sample
from .law import Direction, MaxARParams, _check_positive, _check_unit, \
    _number, bivariate_cdf, kernel_cdf
from .maxar import DiscretePath, _RATIO_SLACK, _stationary_windows, \
    kernel_sample_many, reverse_path

# continuous is imported inside the functions that run its battery, so
# that only a process verifying the continuous process loads it.

__all__ = list(_EXPORTS["analysis"])

_RELATIONS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge}


@dataclass(frozen=True)
class CheckResult:
    """One named check with its observed value and decision threshold.

    ``passed`` is None when the check was not applicable to the input (for
    example a degeneracy test on constant data); such checks do not count
    against :meth:`EmpiricalReport.all_passed`.
    """

    name: str
    value: float
    threshold: float
    passed: bool | None
    note: str = ""


@dataclass
class EmpiricalReport:
    """Collection of check results plus the seeds and parameters that
    produced them, serializable to a stable JSON document."""

    checks: list[CheckResult] = field(default_factory=list)
    seeds: list[tuple[int, int]] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    def add(self, name: str, value: float, threshold: float,
            passed: bool | None, note: str = "") -> CheckResult:
        result = CheckResult(name, float(value), float(threshold), passed, note)
        self.checks.append(result)
        return result

    def check(self, name: str, value: float, threshold: float, note: str,
              relation: str = "<") -> CheckResult:
        """Record a decided check that passes when value ``relation``
        threshold holds, both taken as floats, so a NaN value fails under
        every relation (``<``, ``<=`` or ``>=``)."""
        value, threshold = float(value), float(threshold)
        return self.add(name, value, threshold,
                        _RELATIONS[relation](value, threshold), note)

    @property
    def all_passed(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.passed is False]

    def to_dict(self) -> dict:
        return {
            "checks": [
                {
                    "name": c.name,
                    "value": c.value,
                    "threshold": c.threshold,
                    "pass": c.passed,
                    "provenance": c.note,
                }
                for c in self.checks
            ],
            "seeds": [list(s) for s in self.seeds],
            "params": dict(self.params),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


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
    level = _number("level", level)
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    return math.sqrt(-0.5 * math.log(level / 2.0))


_KS_MIN_VALUES = 30


def _ks_sample(name: str, values) -> np.ndarray:
    """values sorted as float64, refusing, by name, a sample that is not
    1-d of _KS_MIN_VALUES values or more, or not finite."""
    x = _array(name, values)
    if x.ndim != 1 or x.size < _KS_MIN_VALUES:
        raise ValueError(f"need at least {_KS_MIN_VALUES} values in 1-d {name}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    return np.sort(x)


def ks_one_sample(values, cdf: Callable, level: float = 0.01) -> KsResult:
    """Sup distance between the empirical CDF of an i.i.d. sample and a
    target CDF, with the asymptotic threshold at the given level."""
    x = _ks_sample("values", values)
    n = x.size
    f = np.asarray(cdf(x), dtype=np.float64)
    steps = np.arange(1, n + 1) / n
    stat = float(np.max(np.maximum(steps - f, f - (steps - 1.0 / n))))
    threshold = ks_critical_value(level) / math.sqrt(n)
    return KsResult(stat, threshold, stat < threshold, n)


def ks_two_sample(x, y, level: float = 0.01) -> KsResult:
    """Sup distance between two empirical CDFs with the asymptotic
    two-sample threshold."""
    x, y = _ks_sample("x", x), _ks_sample("y", y)
    n, m = x.size, y.size
    pooled = np.concatenate([x, y])
    fx = np.searchsorted(x, pooled, side="right") / n
    fy = np.searchsorted(y, pooled, side="right") / m
    stat = float(np.abs(fx - fy).max())
    threshold = ks_critical_value(level) * math.sqrt((n + m) / (n * m))
    return KsResult(stat, threshold, stat < threshold, min(n, m))


def _as_values(path) -> np.ndarray:
    if isinstance(path, DiscretePath):
        return path.values
    values = _array("values", path)
    if values.ndim != 1:
        raise ValueError("expected a 1-d array of values")
    return _check_positive_array("values", values)


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


_GRID, _N_NULL = 20, 2000  # the independence test's grid size and null tables


def _grid_labels(x: np.ndarray) -> np.ndarray:
    """Bin label of each value on the quantile grid: label <= k exactly
    when x <= q_k, ties included."""
    qs = np.arange(1, _GRID + 1) / (_GRID + 1.0)
    return np.searchsorted(_quantiles(x, qs), x, side="left")


def _joint_grid_statistic(u: np.ndarray, v: np.ndarray) -> float:
    """Sup over a quantile grid of |joint empirical CDF - product of
    empirical marginals|.  A pure rank statistic for continuous data.

    The joint and marginal CDF counts are the cumulative sums of the
    (_GRID+1)^2 table of bin-label pairs."""
    size = _GRID + 1
    cells = _grid_labels(u) * size + _grid_labels(v)
    table = np.bincount(cells, minlength=size * size).reshape(size, size)
    cdf = table.cumsum(axis=0).cumsum(axis=1)
    n = u.size
    product = np.outer(cdf[:_GRID, _GRID] / n, cdf[_GRID, :_GRID] / n)
    return float(np.abs(cdf[:_GRID, :_GRID] / n - product).max())


def _null_statistics(n: int) -> np.ndarray:
    """_N_NULL draws of the grid statistic for n i.i.d. independent pairs.

    The statistic is a function of the table of bin-label pairs.  Under
    independence with continuous marginals both label vectors have the
    bin counts of n distinct values, and their pairing is a uniform
    permutation, so the table is uniform among the tables with those
    margins.  A null table is drawn row by row, each row a multivariate
    hypergeometric draw from the column counts still unassigned, taken one
    cell at a time.  Only the _GRID x _GRID corner enters the statistic, so
    the last row and column are never drawn.  The draws use a fixed
    internal generator, so they depend on n alone.
    """
    gen = np.random.Generator(np.random.Philox(key=np.uint64(0x9E3779B97F4A7C15)))
    margin = np.bincount(_grid_labels(np.arange(n, dtype=np.float64)),
                         minlength=_GRID + 1)
    marginal = margin[:_GRID].cumsum() / n
    product = np.outer(marginal, marginal)
    # one column per draw: col_left[j] is column j's unassigned count
    col_left = np.repeat(margin[:, None], _N_NULL, axis=1)
    col_used = np.zeros((_GRID, _N_NULL), dtype=np.int64)
    worst = np.zeros(_N_NULL)
    for r in range(_GRID):
        row_left = np.full(_N_NULL, margin[r])
        # columns right of j are untouched while column j is drawn
        rest = col_left[::-1].cumsum(axis=0)[::-1]
        for j in range(_GRID):
            cell = gen.hypergeometric(col_left[j], rest[j + 1], row_left)
            col_left[j] -= cell
            col_used[j] += cell
            row_left -= cell
        col_left[_GRID] -= row_left
        joint = col_used.cumsum(axis=0) / n
        np.maximum(worst, np.abs(joint - product[r][:, None]).max(axis=0),
                   out=worst)
    return worst


@lru_cache(maxsize=32)
def _null_quantile(n: int, level: float) -> float:
    """Null quantile of the grid statistic, computed once per process for
    each (n, level)."""
    return float(_quantiles(_null_statistics(n), 1.0 - level))


def independence_test(pairs, level: float = 0.01) -> EmpiricalReport:
    """Test whether the two coordinates of i.i.d. pairs are independent.

    Compares the joint empirical CDF with the product of the marginal
    empirical CDFs on a quantile grid and calibrates the sup distance
    against its null law.  The statistic depends only on the table of
    bin-label pairs, and for continuous data the null law of that table is
    exact: uniform among the tables with the margins of n distinct values.
    The threshold is the (1 - level) quantile of 2000 such tables, on a
    grid of 20 quantiles.  Constant coordinates make the test inapplicable
    and are flagged rather than decided.
    """
    arr = _array("pairs", pairs)
    level = _number("level", level)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("pairs must be an (n, 2) array")
    if arr.shape[0] < 1000:
        raise ValueError("need at least 1000 pairs")
    if not np.all(np.isfinite(arr)):
        raise ValueError("pairs must be finite")
    if not (0.0 < level < 0.5):
        raise ValueError("level must lie in (0, 0.5)")
    u, v = arr[:, 0], arr[:, 1]
    report = EmpiricalReport(params={"n": int(arr.shape[0]), "level": level,
                                     "grid": _GRID, "n_null": _N_NULL})
    if u.min() == u.max() or v.min() == v.max():
        report.add("independence_sup_distance", math.nan, math.nan, None,
                   "not applicable: a coordinate is constant")
        return report
    stat = _joint_grid_statistic(u, v)
    threshold = _null_quantile(arr.shape[0], level)
    report.check("independence_sup_distance", stat, threshold,
                 "joint empirical CDF vs product of marginals on a rank grid",
                 "<=")
    return report


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
    rel_tol = _check_unit("rel_tol", rel_tol)
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
        verdict = independence_test(pairs, level=level)
        if verdict.checks[0].passed is not True:
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


def _pair_cdf_errors(params: MaxARParams, starts: np.ndarray,
                     nexts: np.ndarray, grid) -> dict:
    """{(u, v): |empirical - closed-form joint CDF|} of the pairs
    (starts, nexts) at every point of grid x grid."""
    return {(u, v): abs(float(np.mean((starts <= u) & (nexts <= v)))
                        - bivariate_cdf(params, u, v))
            for u in grid for v in grid}


def equilibrium_check(a: float, n: int, rng: RngState,
                      grid=(0.5, 1.0, 2.0), tolerance: float = 0.01) -> EmpiricalReport:
    """Compare empirical joint CDFs of consecutive pairs, in both time
    directions, against the closed-form bivariate CDF on a grid.

    Independent stationary pairs are used for each direction so the
    empirical CDF error bound sqrt(1/4n) applies exactly.
    """
    n = _integer(n, "n must be an integer of at least 1000", 1000)
    _check_count(n, f"n = {n:,} pairs is", "use fewer pairs")
    a = _number("a", a)
    if not 0.0 < a < 1.0:
        raise ValueError("the two-sided comparison needs a strictly inside (0, 1)")
    grid = _number("grid", grid, tuple)
    if not [_check_positive("grid", u) for u in grid]:
        raise ValueError("grid must be nonempty")
    tolerance = _number("tolerance", tolerance)
    params = MaxARParams(a, Direction.FORWARD)
    reversed_params = params.reversed()
    report = EmpiricalReport(params={"a": a, "n": n, "grid": list(grid),
                                     "tolerance": tolerance})
    report.seeds.append((rng.seed, rng.stream))

    fwd_x, fwd_y = _stationary_windows(a, 2, n, rng).T
    # independent draw through the dual kernel: start from the stationary
    # law and step backwards; detailed balance says the pair must have the
    # forward joint law with the coordinates swapped
    rev_start = frechet_sample(rng, size=n)
    rev_next = kernel_sample_many(reversed_params, rev_start, rng)
    backward = _pair_cdf_errors(reversed_params, rev_start, rev_next, grid)
    for (u, v), err in _pair_cdf_errors(params, fwd_x, fwd_y, grid).items():
        report.check(f"forward_pair_cdf_{u}_{v}", err, tolerance,
                     "closed-form joint CDF of consecutive stationary values")
        report.check(f"reversed_pair_cdf_{u}_{v}", backward[u, v], tolerance,
                     "detailed-balance identity linking the two kernels")
    return report


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
            rule = f"battery size {field.name} must be"
            size = _integer(getattr(self, field.name), f"{rule} an integer")
            least = _MIN_SIZES.get(field.name, 1)
            need = "positive" if size < 1 else f"at least {least}"
            object.__setattr__(self, field.name,
                               _integer(size, f"{rule} {need}", least))

    def scaled(self, n: int) -> "BatterySizes":
        """Derive all sizes from one base count n."""
        n = _integer(n, "battery size transitions must be an integer")
        return replace(
            self,
            marginal=max(1000, n // 5),
            transitions=n,
            aggregation=max(500, n // 10),
            path_length=max(1000, n // 5),
            continuous_replicates=max(1000, n // 5),
        )


_QUADRATURE_NODES = 32


def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The _QUADRATURE_NODES Gauss-Legendre nodes on (0, 1), ascending, and
    their weights.

    Each positive root x of P_n is found by Newton's method on the
    three-term recurrence, from the first guess cos(pi (k - 1/4) /
    (n + 1/2)) (Hale & Townsend 2013); the guesses are close enough that
    four steps reach rounding, and a fifth is kept as a margin.  The pair
    of roots +-x maps to (1 -+ x) / 2, with weight 2 / ((1 - x^2) P_n'(x)^2)
    halved, and the weights are scaled to sum to 1.  numpy's ``leggauss``
    gives the same nodes through a LAPACK eigensolve, which would load
    ``numpy.polynomial`` into every process running the battery.
    """
    n = _QUADRATURE_NODES

    def legendre(x):  # P_n(x) and P_{n-1}(x)
        prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            prev, p = p, ((2 * j - 1) * x * p - (j - 1) * prev) / j
        return p, prev

    x = np.cos(np.pi * (np.arange(n // 2) + 0.75) / (n + 0.5))
    for _ in range(5):
        p, prev = legendre(x)
        x = x - p * (1.0 - x * x) / (n * (prev - x * p))
    p, prev = legendre(x)
    # (1 - x^2) P_n'(x) = n (P_{n-1}(x) - x P_n(x)) holds off the root too
    half = (1.0 - x * x) / (n * (prev - x * p)) ** 2
    weights = np.concatenate((half, half[::-1]))
    return (np.concatenate(((1.0 - x) / 2.0, (1.0 + x[::-1]) / 2.0)),
            weights / weights.sum())


def _windows(a: float, width: int, count: int, rng: RngState,
             reversed_dir: bool) -> np.ndarray:
    """count stationary windows of the chain, read in its direction."""
    windows = _stationary_windows(a, width, count, rng)
    return windows[:, ::-1] if reversed_dir else windows


def _discrete_battery(params: MaxARParams, sizes: BatterySizes,
                      rng: RngState, report: EmpiricalReport) -> None:
    a = params.a
    reversed_dir = params.direction is Direction.REVERSED
    forward = MaxARParams(a, Direction.FORWARD)
    level = 0.001

    windows = _windows(a, 3, sizes.marginal, rng.substream(1), reversed_dir)
    for col in range(windows.shape[1]):
        ks = ks_one_sample(windows[:, col], frechet_cdf, level)
        report.check(f"stationary_marginal_ks_t{col}", ks.statistic,
                     ks.threshold, "unit Frechet marginal at a fixed "
                     "coordinate across independent replicates")

    # the path's values, checked here rather than by DiscretePath, so a
    # wrong scan shows as failed checks
    values = _windows(a, sizes.path_length, 1, rng.substream(2),
                      reversed_dir)[0]
    ratios = values[1:] / values[:-1]
    if a > 0.0:
        if reversed_dir:
            report.check("ratio_upper_edge", ratios.max(),
                         (1.0 / a) * (1.0 + _RATIO_SLACK),
                         "reversed one-step ratios never exceed 1/a", "<=")
        else:
            report.check("ratio_lower_edge", ratios.min(),
                         a * (1.0 - _RATIO_SLACK),
                         "forward one-step ratios never fall below a", ">=")

    if 0.0 < a < 1.0:
        n = sizes.transitions
        sub = rng.substream(3)
        starts, nexts = _stationary_windows(a, 2, n, sub).T
        atom_freq = float(np.mean(nexts == a * starts))
        # a * (1 - a) / n underflows to 0 at subnormal a; only there is it
        # split, so every other threshold keeps its bits
        sigma = math.sqrt(a * (1.0 - a) / n) \
            or math.sqrt(a) * math.sqrt((1.0 - a) / n)
        report.check("transition_atom_mass", abs(atom_freq - a), 4.0 * sigma,
                     "holding frequency of the decayed value equals a", "<=")

        sampled = kernel_sample_many(forward, starts, sub)
        edges = _quantiles(starts, np.arange(1, _KERNEL_BINS) / _KERNEL_BINS)
        bins = np.searchsorted(edges, starts)
        masks = [bins == b for b in range(_KERNEL_BINS)]
        for b, mask in enumerate(masks):
            ks = ks_two_sample(nexts[mask], sampled[mask], level)
            report.check(f"kernel_sample_two_sample_bin{b}", ks.statistic,
                         ks.threshold, "recursion step vs inverse-CDF kernel "
                         "draw from the same stationary starts")
        lo_edges = np.concatenate([[0.0], edges])
        hi_edges = np.concatenate([edges, [math.inf]])
        y_grid = _quantiles(nexts, np.arange(1, 10) / 10.0)
        for b, mask in enumerate(masks):
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
            report.check(f"kernel_binned_cdf_bin{b}", worst,
                         3.0 / math.sqrt(n_bin), "closed-form transition CDF "
                         "mixed over the conditioning bin")

        grid = (0.5, 1.0, 2.0)
        worst = max(_pair_cdf_errors(forward, starts, nexts, grid).values())
        bound = 2.0 / math.sqrt(n)
        report.check("bivariate_grid", worst, bound,
                     "closed-form joint CDF of a stationary transition pair")

        rev = forward.reversed()
        rev_starts = frechet_sample(sub, size=n)
        rev_nexts = kernel_sample_many(rev, rev_starts, sub)
        worst = max(_pair_cdf_errors(rev, rev_starts, rev_nexts, grid).values())
        report.check("equilibrium_grid", worst, bound,
                     "detailed balance: backward transition pairs carry the "
                     "swapped forward joint law")

    copies = sizes.copies
    reps = sizes.aggregation
    sub = rng.substream(4)
    block = _windows(a, 2, reps * copies, sub, reversed_dir)
    aggregated = block.reshape(reps, copies, 2).max(axis=1) / copies
    single = _windows(a, 2, reps, sub, reversed_dir)
    ks = ks_two_sample(aggregated[:, 0], single[:, 0], level)
    report.check("max_stability_marginal", ks.statistic, ks.threshold,
                 "rescaled pointwise max of independent copies keeps the "
                 "marginal law")
    ks = ks_two_sample(aggregated.min(axis=1), single.min(axis=1), level)
    report.check("max_stability_pair_min", ks.statistic, ks.threshold,
                 "rescaled pointwise max of independent copies keeps the "
                 "consecutive-pair law (minimum statistic)")

    # With u = exp(-1/x) the stationary law is uniform on (0, 1) and the
    # forward kernel CDF is a step in u with one kink at exp(-a/y): one
    # fixed panel on each side of it integrates it to rounding.  The upper
    # panel is mapped by w = 1 - u, since u rounds onto 1 for tiny a.
    nodes, weights = _gauss_legendre()
    worst = 0.0
    for y in (0.5, 1.0, 2.0, 4.0):
        lower, upper = math.exp(-a / y), -math.expm1(-a / y)
        with np.errstate(divide="ignore", over="ignore"):
            xs = -1.0 / np.array([np.log(lower * nodes),
                                  np.log1p(-upper * nodes)])
        # at a = 0 or subnormal a, upper * nodes underflows and x overflows
        cdf = [[kernel_cdf(forward, x, y) for x in row]
               for row in np.minimum(xs, np.finfo(float).max).tolist()]
        panels = (np.array(cdf) * weights).sum(axis=1)
        integral = float(lower * panels[0] + upper * panels[1])
        worst = max(worst, abs(integral - math.exp(-1.0 / y)))
    report.check("chapman_kolmogorov_quadrature", worst, 1e-8,
                 "transition kernel integrated against the stationary law "
                 "returns the stationary CDF")

    try:
        path = DiscretePath(0, values, params)
        same = np.array_equal(reverse_path(reverse_path(path)).values,
                              path.values)
    except ValueError:  # the values break the one-step bound
        same = False
    report.check("reversal_involution", 0.0 if same else 1.0, 0.5,
                 "reversing a path twice restores it exactly")


def _continuous_battery(shape: ShapeFunction, epsilon: float,
                        sizes: BatterySizes, rng: RngState,
                        report: EmpiricalReport) -> None:
    from .continuous import _replicate_values, _window_path, sample_grid

    a = shape.a
    reversed_dir = shape.direction is Direction.REVERSED
    a_eff = a ** epsilon
    level = 0.001

    length = sizes.skeleton_points * epsilon
    path = _window_path(a, shape.direction, length, rng.substream(1))
    skeleton = sample_grid(path, epsilon)
    ratios = skeleton.ratios()
    if reversed_dir:
        edge = float(ratios.max())
        target = 1.0 / a_eff
    else:
        edge = float(ratios.min())
        target = a_eff
    report.check("skeleton_ratio_edge", abs(edge - target), 1e-9 * target,
                 "grid skeleton ratio support edge equals the per-step decay "
                 "exactly", "<=")

    reps = sizes.continuous_replicates
    first, second = _replicate_values(shape, 2.0 * epsilon, (0.0, epsilon),
                                      reps, rng.substream(2))
    ks = ks_one_sample(first, frechet_cdf, level)
    report.check("continuous_marginal_ks", ks.statistic, ks.threshold,
                 "unit Frechet marginal of the continuous process")
    chain_pairs = _windows(a_eff, 2, reps, rng.substream(3), reversed_dir)
    ks = ks_two_sample(np.minimum(first, second),
                       chain_pairs.min(axis=1), level)
    report.check("skeleton_pair_min_two_sample", ks.statistic, ks.threshold,
                 "skeleton pair law matches the discrete chain at the "
                 "per-step decay (minimum statistic)")
    ks = ks_two_sample(second, chain_pairs[:, 1], level)
    report.check("skeleton_marginal_two_sample", ks.statistic, ks.threshold,
                 "skeleton coordinate matches the discrete chain marginal")

    z0, z1 = _replicate_values(shape, 1.25, (0.125, 1.125), reps,
                               rng.substream(4))
    if reversed_dir:
        z0, z1 = z1, z0
    held = int(np.count_nonzero(
        np.abs(z1 - a * z0) <= 1e-12 * np.maximum(z1, a * z0)))
    sigma = math.sqrt(a * (1.0 - a) / reps)
    report.check("holding_probability", abs(held / reps - a),
                 4.0 * sigma + 1e-12,
                 "probability of one unit of pure decay equals a", "<=")


def run_battery(spec, rng: RngState, sizes: BatterySizes | None = None,
                epsilon: float = 0.1) -> EmpiricalReport:
    """Run the verification battery for a discrete chain (MaxARParams) or a
    continuous moving maximum (ShapeFunction, skeleton step epsilon).

    Individual check failures are recorded in the report, never raised.
    """
    sizes = sizes or BatterySizes()
    discrete = isinstance(spec, MaxARParams)
    if not discrete:
        from .continuous import ShapeFunction

        if not isinstance(spec, ShapeFunction):
            raise TypeError("spec must be MaxARParams or ShapeFunction")
        _check_positive("epsilon", epsilon)
        # a subnormal or zero per-step decay leaves the skeleton edge no
        # target, and its reciprocal overflows or divides by zero
        if not spec.a ** epsilon >= sys.float_info.min:
            raise ValueError(f"a**epsilon = {spec.a ** epsilon!r} at "
                             f"a={spec.a!r}, epsilon={epsilon!r} is not a "
                             "normal float")
    params = {"kind": "discrete", "a": spec.a,
              "direction": spec.direction.value, "sizes": vars(sizes)}
    if not discrete:
        params.update(kind="continuous", epsilon=epsilon)
    report = EmpiricalReport(seeds=[(rng.seed, rng.stream)], params=params)
    if discrete:
        _discrete_battery(spec, sizes, rng, report)
    else:
        _continuous_battery(spec, epsilon, sizes, rng, report)
    return report
