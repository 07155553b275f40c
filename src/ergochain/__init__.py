"""Convergence-rate analysis of two-component Gibbs chains on staircase
distributions: exact kernels, drift certificates, conditional-variance
norm bounds, spectral gaps, and reproducible simulation."""

from .classify import (
    GEOMETRIC,
    INCONCLUSIVE,
    SUBGEOMETRIC,
    ErgodicityVerdict,
    classify,
    verdict_report,
)
from .diagnostics import CLT_NOTE, BatchMeansEstimate, batch_means
from .drift import (
    DriftCertificate,
    DriftReport,
    NoCertificate,
    admissible_c_interval,
    certify,
    drift_coefficient,
    find_drift_certificate,
    lift_to_rgs,
    px_drift_coefficient,
    verify_drift,
)
from .errors import (
    BadScanProbability,
    BadSeed,
    BadZ,
    COutOfRange,
    DegenerateTruncation,
    EmptyReport,
    ErgochainError,
    IndexOutOfRange,
    NonPositiveSequence,
    NotSymmetricKernel,
    OutOfSupport,
    StartNotInSupport,
    TooFewSamples,
    UnknownFormat,
)
from .family import (
    BivariateFamily,
    SequenceSpec,
    TailEstimates,
    TailLimits,
    alternating,
    birth_death_probs,
    build_family,
    geometric,
    mixed_geometric,
    power_law,
    solve_constant,
    table,
    tail_limits,
)
from .kernels import (
    DGS,
    MARGINAL_X,
    RGS,
    SpectralGap,
    TransitionMatrix,
    TVCurve,
    build_Pdgs,
    build_Prgs,
    build_Px,
    spectral_gap,
    tv_curve,
)
from .presets import example_description, example_names, example_spec
from .samplers import (
    CHAIN_IDS,
    EnsembleResult,
    RunConfig,
    Trace,
    dgs_step,
    make_rng,
    marginal_step,
    rgs_step,
    run_chain,
    run_marginal_ensemble,
)
from .subgeo import (
    DivergenceStats,
    NormBounds,
    SubgeoReport,
    build_subgeo_report,
    conditional_variance_stat,
    divergence_statistics,
    operator_norm_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # family
    "SequenceSpec", "TailLimits", "TailEstimates", "BivariateFamily",
    "power_law", "geometric", "mixed_geometric", "alternating", "table",
    "solve_constant", "build_family", "birth_death_probs", "tail_limits",
    # presets
    "example_names", "example_spec", "example_description",
    # kernels
    "MARGINAL_X", "DGS", "RGS", "TransitionMatrix",
    "build_Px", "build_Pdgs", "build_Prgs",
    "TVCurve", "tv_curve", "SpectralGap", "spectral_gap",
    # drift
    "drift_coefficient", "px_drift_coefficient",
    "DriftCertificate", "NoCertificate",
    "find_drift_certificate", "admissible_c_interval", "lift_to_rgs",
    "DriftReport", "verify_drift", "certify",
    # subgeo
    "conditional_variance_stat", "operator_norm_bounds", "NormBounds",
    "divergence_statistics", "DivergenceStats",
    "SubgeoReport", "build_subgeo_report",
    # classify
    "GEOMETRIC", "SUBGEOMETRIC", "INCONCLUSIVE",
    "ErgodicityVerdict", "classify", "verdict_report",
    # samplers
    "CHAIN_IDS", "make_rng", "marginal_step", "dgs_step", "rgs_step",
    "RunConfig", "Trace", "run_chain",
    "EnsembleResult", "run_marginal_ensemble",
    # diagnostics
    "CLT_NOTE", "BatchMeansEstimate", "batch_means",
    # errors
    "ErgochainError", "NonPositiveSequence", "DegenerateTruncation",
    "OutOfSupport", "IndexOutOfRange", "BadScanProbability",
    "StartNotInSupport", "BadSeed", "NotSymmetricKernel", "BadZ", "COutOfRange",
    "TooFewSamples", "UnknownFormat", "EmptyReport",
]
