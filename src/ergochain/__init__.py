"""Convergence-rate analysis of two-component Gibbs chains on staircase
distributions: exact kernels, drift certificates, conditional-variance
norm bounds, spectral gaps, and reproducible simulation.

Importing the package loads none of its submodules: each public name is
imported from the submodule that defines it on first access (PEP 562),
so `import ergochain` and the spec layer (spec, presets, errors) run
without numpy, and only a name from a numeric submodule loads it.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# each submodule and the public names it defines, in __all__ order
_EXPORTS = {
    "spec": ("SequenceSpec", "TailLimits", "power_law", "geometric",
             "mixed_geometric", "alternating", "table", "solve_constant",
             "MARGINAL_X", "DGS", "RGS"),
    "family": ("TailEstimates", "BivariateFamily", "build_family", "tail_limits"),
    "presets": ("example_names", "example_spec", "example_description"),
    "kernels": ("TransitionMatrix", "build_Px", "build_Pdgs", "build_Prgs",
                "TVCurve", "tv_curve", "SpectralGap", "spectral_gap"),
    "drift": ("drift_coefficient", "DriftCertificate", "NoCertificate",
              "find_drift_certificate", "admissible_c_interval", "lift_to_rgs",
              "DriftReport", "verify_drift", "certify"),
    "subgeo": ("conditional_variance_stat", "NormBounds", "divergence_statistics",
               "DivergenceStats", "SubgeoReport", "build_subgeo_report"),
    "classify": ("GEOMETRIC", "SUBGEOMETRIC", "INCONCLUSIVE", "ErgodicityVerdict",
                 "classify", "verdict_report"),
    "samplers": ("CHAIN_IDS", "make_rng", "marginal_step", "dgs_step", "rgs_step",
                 "RunConfig", "Trace", "run_chain", "EnsembleResult",
                 "run_marginal_ensemble"),
    "diagnostics": ("CLT_NOTE", "BatchMeansEstimate", "batch_means"),
    "errors": ("ErgochainError", "NonPositiveSequence", "DegenerateTruncation",
               "OutOfSupport", "IndexOutOfRange", "BadScanProbability",
               "StartNotInSupport", "BadSeed", "NotSymmetricKernel", "BadZ",
               "COutOfRange", "TooFewSamples", "UnknownFormat", "EmptyReport"),
}
_SUBMODULE = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SUBMODULE]


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """Loading a submodule binds it as an attribute of the package; the
    submodule classify must not hide the function of that name."""

    def __setattr__(self, name, value):
        if not (name in _SUBMODULE and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
