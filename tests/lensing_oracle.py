"""Dense reference scores for the reverse-SDE lensing chain.

Both are built by dense solves from the model's public fields alone (operator,
sigma_n, prior_mean, prior_cov), so they share no eigenbasis with the chain's
law that they check. ``theta`` is one point (D,) or a block of rows (n, D), and
a score has theta's shape.
"""

import numpy as np

from drpkit.lensing import SCORE_KINDS


def _solve(cov, rows):
    """cov^-1 r for each row r of ``rows`` (or for ``rows`` itself, if 1-D)."""
    return np.linalg.solve(cov, np.atleast_2d(rows).T).T.reshape(np.shape(rows))


def prior_score(model, schedule, theta, t):
    """Score of the time-t prior N(mu_0, Sigma_0 + sigma_t^2 I) at theta."""
    cov = model.prior_cov + schedule.sigma(t) ** 2 * np.eye(model.dim_theta)
    return -_solve(cov, np.asarray(theta, dtype=float) - model.prior_mean)


def likelihood_score(model, schedule, kind, theta, x, t):
    """Gradient in theta of the log time-t likelihood of ``kind``: for "biased"
    A^T (sigma_n^2 I + sigma_t^2 A A^T)^-1 (x - A theta), for "exact" the
    diffused-posterior score minus the diffused-prior score. At t = 0 both
    kinds take the sigma_t -> 0 limit, the score of N(x | A theta, sigma_n^2 I)."""
    if kind not in SCORE_KINDS:
        raise ValueError(f"kind must be one of {SCORE_KINDS}, got {kind!r}")
    A, noise, s2 = model.operator, model.sigma_n**2, schedule.sigma(t) ** 2
    theta, x = np.asarray(theta, dtype=float), np.asarray(x, dtype=float)
    resid = x - theta @ A.T
    if t == 0:
        return resid @ A / noise
    if kind == "biased":
        return _solve(noise * np.eye(model.dim_x) + s2 * A @ A.T, resid) @ A
    post_cov = np.linalg.inv(np.linalg.inv(model.prior_cov) + A.T @ A / noise)
    post_mean = post_cov @ (np.linalg.solve(model.prior_cov, model.prior_mean) + A.T @ x / noise)
    diffused = -_solve(post_cov + s2 * np.eye(model.dim_theta), theta - post_mean)
    return diffused - prior_score(model, schedule, theta, t)
