"""drpkit: sample-based expected-coverage testing for posterior estimators.

Estimates expected coverage probabilities purely from samples (the DRP,
distance-to-random-point, test) or from density evaluations (the classical HPD
test), and ships synthetic benchmarks with known ground truth: a Gaussian toy
model, a conjugate model with an uninformative estimator, and a linear-Gaussian
source-reconstruction problem with exact and biased reverse-SDE samplers.
"""

__version__ = "0.1.0"

from .numerics import (
    DecompositionError,
    SeededRng,
    binomial_band,
    cholesky,
    ks_uniform_statistic,
    norm_cdf,
    norm_isf,
)
from .coverage import (
    CoverageCurve,
    DataShift,
    DensityUnavailableError,
    DistanceMetric,
    DrpSpec,
    Euclidean,
    HpdSpec,
    JointSampleSet,
    NormalizationError,
    NormalizationMap,
    PosteriorSampler,
    PriorDraw,
    RankTable,
    ReferencePolicy,
    SimulationError,
    UnitHypercubeUniform,
    WeightedEuclidean,
    coverage_tests,
    default_levels,
    drp_test,
    ecp_curve,
    fit_normalization,
    hpd_test,
    sample_reference,
)
from .benchmarks import (
    ConjugateConfig,
    DiagonalGaussianSampler,
    ToyConfig,
    ToySimulation,
    UninformativeSampler,
    biased_mean,
    conjugate_datashift_policy,
    conjugate_posterior_params,
    conjugate_prior_policy,
    generate_conjugate,
    generate_toy,
    toy_prior_policy,
)
from .lensing import (
    DiffusionPosteriorSampler,
    DivergenceError,
    LensingModel,
    OperatorError,
    PriorError,
    VeSchedule,
    build_model,
    build_operator,
    build_prior,
    conjugate_posterior,
    lensing_prior_policy,
    likelihood_score,
    make_dataset,
    prior_score,
    simulate,
)

__all__ = [
    "DecompositionError", "SeededRng", "binomial_band", "cholesky", "ks_uniform_statistic",
    "norm_cdf", "norm_isf",
    "CoverageCurve", "DataShift", "DensityUnavailableError", "DistanceMetric", "DrpSpec",
    "Euclidean", "HpdSpec", "JointSampleSet", "NormalizationError", "NormalizationMap",
    "PosteriorSampler", "PriorDraw", "RankTable", "ReferencePolicy", "SimulationError",
    "UnitHypercubeUniform", "WeightedEuclidean", "coverage_tests", "default_levels", "drp_test",
    "ecp_curve", "fit_normalization", "hpd_test", "sample_reference",
    "ConjugateConfig", "DiagonalGaussianSampler", "ToyConfig", "ToySimulation",
    "UninformativeSampler", "biased_mean", "conjugate_datashift_policy",
    "conjugate_posterior_params", "conjugate_prior_policy", "generate_conjugate", "generate_toy",
    "toy_prior_policy",
    "DiffusionPosteriorSampler", "DivergenceError", "LensingModel", "OperatorError", "PriorError",
    "VeSchedule", "build_model", "build_operator", "build_prior", "conjugate_posterior",
    "lensing_prior_policy", "likelihood_score", "make_dataset", "prior_score", "simulate",
]
