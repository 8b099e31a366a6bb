"""Synthetic benchmarks with known ground truth.

Two generators:

* a diagonal-Gaussian toy model in D dimensions whose estimator is correct,
  overconfident, underconfident, or position-dependently biased (the bias is
  built so that density ranks stay uniform, i.e. the HPD test is blind to it),
* a one-dimensional conjugate-Gaussian model paired with an "uninformative"
  estimator that simply returns the prior, which the HPD test and
  x-independent DRP reference points cannot distinguish from a perfect fit.

All four toy cases consume identical random streams at equal seeds (the biased
case draws and discards the mean offset), so case-to-case comparisons are
exactly paired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .coverage import DataShift, PosteriorSampler, PriorDraw, _simulated_set
from .numerics import SeededRng, _check_int, norm_isf

TOY_CASES = ("correct", "overconfident", "underconfident", "biased")

_TOY_TAG = "toy-sim"
_CONJ_TAG = "conjugate-sim"
_Z_ARG_CLAMP = 1e-12


@dataclass(frozen=True)
class ToyConfig:
    dim: int = 10
    n_sims: int = 500
    case: str = "correct"
    theta_bounds: ClassVar[tuple] = (-5.0, 5.0)
    log_sigma_bounds: ClassVar[tuple] = (-5.0, -1.0)
    narrow_factor: ClassVar[float] = 0.5
    wide_factor: ClassVar[float] = 2.0

    def __post_init__(self):
        if self.case not in TOY_CASES:
            raise ValueError(f"case must be one of {TOY_CASES}, got {self.case!r}")
        _check_int(self.dim, "dim", 1)
        _check_int(self.n_sims, "n_sims", 1)


@dataclass(frozen=True, eq=False)
class ToySimulation:
    """One toy simulation: the truth, its noise scale, and the estimator's
    diagonal-Gaussian parameters. Serves as the observation payload."""

    theta_true: np.ndarray
    sigma: np.ndarray
    estimator_mean: np.ndarray
    estimator_sigma: np.ndarray


def biased_mean(theta_true, sigma) -> np.ndarray:
    """Estimator mean for the biased toy case.

    Per dimension: theta - sign(theta) * Z(1 - |theta|/5) * sigma, with 5 the
    edge of ``ToyConfig.theta_bounds``, Z the standard normal inverse survival
    function clamped to [1e-12, 1 - 1e-12], and sign(0) = 0 at the origin.
    """
    theta = np.asarray(theta_true, dtype=float)
    sig = np.asarray(sigma, dtype=float)
    if theta.shape != sig.shape:
        raise ValueError(f"shape mismatch: theta {theta.shape}, sigma {sig.shape}")
    arg = np.clip(1.0 - np.abs(theta) / ToyConfig.theta_bounds[1], _Z_ARG_CLAMP, 1.0 - _Z_ARG_CLAMP)
    z = np.array([norm_isf(a) for a in arg.ravel()]).reshape(theta.shape)
    return theta - np.sign(theta) * z * sig


class DiagonalGaussianSampler(PosteriorSampler):
    """Posterior estimator N(estimator_mean, diag(estimator_sigma^2)) per simulation."""

    def sample(self, x: ToySimulation, n: int, rng: SeededRng) -> np.ndarray:
        z = rng.generator().standard_normal((n, x.estimator_mean.size))
        z *= x.estimator_sigma
        z += x.estimator_mean
        return z

    def log_density(self, theta, x: ToySimulation) -> np.ndarray:
        z = np.atleast_2d(theta) - x.estimator_mean
        z /= x.estimator_sigma
        z *= z
        return -0.5 * z.sum(axis=1) - np.log(x.estimator_sigma).sum()


def generate_toy(config: ToyConfig, seed: int = 0):
    """Build the toy validation set and its estimator.

    Per simulation: theta_true uniform over the theta box, log10 sigma uniform
    over the log-sigma bounds per dimension, then the case-specific estimator:
    correct draws the mean from N(theta, diag(sigma^2)) and keeps width sigma;
    over/underconfident keep that mean draw and shrink/widen the width by
    sqrt(narrow_factor) / sqrt(wide_factor); biased sets the mean from
    :func:`biased_mean` and keeps width sigma. Truths landing exactly on the
    box boundary are redrawn.
    """
    lo, hi = config.theta_bounds

    def simulate(rng):
        g = rng.generator()
        theta = g.uniform(lo, hi, config.dim)
        bad = (theta <= lo) | (theta >= hi)
        while bad.any():
            theta[bad] = g.uniform(lo, hi, int(bad.sum()))
            bad = (theta <= lo) | (theta >= hi)
        log_sigma = g.uniform(config.log_sigma_bounds[0], config.log_sigma_bounds[1], config.dim)
        sigma = 10.0 ** log_sigma
        mean_offset = g.standard_normal(config.dim)
        if config.case == "biased":
            mean = biased_mean(theta, sigma)
            est_sigma = sigma
        else:
            mean = theta + sigma * mean_offset
            factor = {"correct": 1.0,
                      "overconfident": math.sqrt(config.narrow_factor),
                      "underconfident": math.sqrt(config.wide_factor)}[config.case]
            est_sigma = factor * sigma
        return theta, ToySimulation(theta_true=theta, sigma=sigma, estimator_mean=mean, estimator_sigma=est_sigma)

    return _simulated_set(seed, _TOY_TAG, config.n_sims, simulate), DiagonalGaussianSampler()


def toy_prior_policy(config: ToyConfig) -> PriorDraw:
    """Reference points from the toy prior (uniform over the theta box)."""
    lo, hi = config.theta_bounds
    return PriorDraw(draw=lambda g: g.uniform(lo, hi, config.dim))


# --- conjugate-Gaussian model and the uninformative estimator ---------------------

@dataclass(frozen=True)
class ConjugateConfig:
    n_sims: int = 500
    n_obs: ClassVar[int] = 50
    mu0: ClassVar[float] = 0.0
    sigma0: ClassVar[float] = 1.0
    sigma_x: ClassVar[float] = 0.1

    def __post_init__(self):
        _check_int(self.n_sims, "n_sims", 1)


def conjugate_posterior_params(xs):
    """True posterior (mean, variance) for theta given observations xs.

    variance = (1/sigma0^2 + n_x/sigma_x^2)^-1 and
    mean = variance * (mu0/sigma0^2 + sum(xs)/sigma_x^2); with no observations
    this recovers the prior.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    s = 1.0 / (1.0 / ConjugateConfig.sigma0**2 + xs.size / ConjugateConfig.sigma_x**2)
    m = s * (ConjugateConfig.mu0 / ConjugateConfig.sigma0**2 + xs.sum() / ConjugateConfig.sigma_x**2)
    return m, s


def generate_conjugate(config: ConjugateConfig, seed: int = 0):
    """Forward-model draws: theta ~ N(mu0, sigma0^2), x_i ~ N(theta, sigma_x^2).

    Returns the validation set (x payload = the n_obs observation vector) and
    an (n_sims, 2) array of true-posterior (mean, variance) pairs.
    """
    def simulate(rng):
        g = rng.generator()
        theta = g.normal(config.mu0, config.sigma0)
        return theta, g.normal(theta, config.sigma_x, config.n_obs)

    dataset = _simulated_set(seed, _CONJ_TAG, config.n_sims, simulate)
    return dataset, np.array([conjugate_posterior_params(xs) for xs in dataset.observations])


class UninformativeSampler(PosteriorSampler):
    """Estimator equal to the prior N(mu0, sigma0^2) of ``ConjugateConfig``, ignoring the data."""

    def sample(self, x, n: int, rng: SeededRng) -> np.ndarray:
        z = rng.generator().standard_normal((n, 1))
        z *= ConjugateConfig.sigma0
        z += ConjugateConfig.mu0
        return z

    def log_density(self, theta, x) -> np.ndarray:
        z = (np.atleast_2d(theta)[:, 0] - ConjugateConfig.mu0) / ConjugateConfig.sigma0
        return -0.5 * z * z - math.log(ConjugateConfig.sigma0)


def conjugate_prior_policy() -> PriorDraw:
    """Reference points from the conjugate prior N(mu0, sigma0^2)."""
    return PriorDraw(draw=lambda g: np.array([g.normal(ConjugateConfig.mu0, ConjugateConfig.sigma0)]))


def conjugate_datashift_policy() -> DataShift:
    """theta_r = x[0] + U(-1, 1): the x-dependent reference policy that exposes
    the uninformative estimator."""
    return DataShift(coordinate=0, half_width=1.0)
