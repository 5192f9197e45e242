"""Exact simulation and statistical verification of stationary max-stable
Markov processes: the discrete max-autoregressive chain, its time
reversal, and the continuous-time moving-maximum process.

Submodules load on first use: ``import maxstab`` loads none of them, and
``maxstab.<name>`` or ``from maxstab import <name>`` loads the one module
that defines the name (and what that module imports)."""

import importlib

__version__ = "0.1.0"

# Each submodule's public names: the only list of them, which each
# submodule's ``__all__`` is read from.  Kept here so that the package can
# answer ``__all__``, ``dir`` and a name lookup without importing every
# module.
_EXPORTS = {
    "analysis": (
        "KsResult", "IdentificationResult", "IdentificationError",
        "UnclassifiableDataError", "AmbiguousRatioError", "BatterySizes",
        "ks_critical_value", "ks_one_sample", "ks_two_sample", "identify",
        "run_battery", "CheckResult", "EmpiricalReport", "independence_test",
        "equilibrium_check"),
    "conditional": (
        "ConditionalQuery", "ConditionalFactors", "McConditionalEstimate",
        "conditional_factors", "conditional_cdf", "conditional_cdf_mc"),
    "continuous": (
        "ShapeFunction", "CadlagPath", "simulate_moving_max",
        "simulate_moving_max_reversed", "path_value", "sample_grid"),
    "distributions": (
        "RngState", "frechet_cdf", "frechet_quantile", "frechet_sample"),
    "law": ("Direction", "MaxARParams", "kernel_cdf", "bivariate_cdf"),
    "maxar": (
        "DiscretePath", "simulate_forward", "simulate_reversed",
        "reverse_path", "kernel_sample_many"),
    "serialize": (
        "format_float", "discrete_csv_text", "parse_discrete_csv",
        "discrete_json_text", "parse_discrete_json", "continuous_csv_text",
        "parse_continuous_csv", "continuous_json_text",
        "parse_continuous_json"),
    "spectral": (
        "IndexedPath", "GeometricMixing", "FiniteMixing", "SamplerKind",
        "SpectralSampler", "SpectralBoundError", "spectral_mean",
        "spectral_bound", "ExponentFunctional", "exponent_rectangle",
        "dehaan_max_stable"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
