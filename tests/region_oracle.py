"""The explicit-region ECP: an oracle for the rank path of drp_test and hpd_test.

It draws through the public sampler interface on the same substreams the
engine uses, ("posterior", sim_id) and ("reference", 0, sim_id), but shares
none of the engine's draw, rank, normalization or distance code: it fits its
own bounds and only builds the NormalizationMap that a policy's ``point`` takes.
"""

import math

import numpy as np

from drpkit.coverage import DensityUnavailableError, NormalizationMap, UnitHypercubeUniform, default_levels
from drpkit.numerics import SeededRng


def _ceil_count(c: float, n: int) -> int:
    # smallest k with k/n >= c, robust to grid values like 0.3 * 500
    return int(math.ceil(c * n - 1e-9))


def region_membership_ecp(dataset, sampler, *, method, n_post, levels=None, seed=0,
                          policy=UnitHypercubeUniform(), bounds=None):
    """ECP computed the explicit-region way, for cross-checking the rank path.

    For each level c an empirical credible region of mass c is built outright
    and the truth's membership is counted. For DRP that region is the smallest
    ball around theta_r holding a fraction c of the samples, and membership
    coincides with the rank event f < c up to rank quantization. For HPD the
    rank convention counts sample densities below the truth's, so the region
    consistent with it is the density-quantile region (the sample subset of
    mass c taken upward from the lowest density); membership in it likewise
    coincides with f < c. With repeats=1 both paths see identical draws.
    Distances are Euclidean, after the affine map sending ``bounds`` (lo, hi)
    or (D, 2), else the truths' per-dimension min and max, to 0 and 1.
    Intended for small instances (n_sims <= 100, n_post <= 1000).
    """
    if method not in ("drp", "hpd"):
        raise ValueError(f"method must be 'drp' or 'hpd', got {method!r}")
    if dataset.n_sims > 100 or n_post > 1000:
        raise ValueError("region-membership oracle is restricted to n_sims <= 100, n_post <= 1000")
    if method == "hpd" and not callable(getattr(sampler, "log_density", None)):
        raise DensityUnavailableError("HPD region oracle requires sampler.log_density")
    levels = default_levels() if levels is None else np.asarray(levels, dtype=float).ravel()
    if method == "drp":
        if bounds is None:
            lo, hi = dataset.theta_true.min(axis=0), dataset.theta_true.max(axis=0)
        else:
            lo, hi = np.broadcast_to(np.asarray(bounds, dtype=float), (dataset.dim_theta, 2)).T
        nmap = NormalizationMap(offset=lo, scale=hi - lo)

        def distances(points, ref):
            return np.sqrt((((points - lo) / (hi - lo) - ref) ** 2).sum(axis=1))

    root = SeededRng(seed)
    covered = np.zeros((dataset.n_sims, levels.size))

    for i in range(dataset.n_sims):
        sid = int(dataset.sim_ids[i])
        x = dataset.observations[i]
        samples = np.asarray(sampler.sample(x, n_post, root.substream("posterior", sid)), dtype=float)
        if method == "drp":
            theta_r = policy.point(root.substream("reference", 0, sid).generator(), x, nmap)
            d = np.sort(distances(samples, theta_r))
            d_truth = distances(dataset.theta_true[i][None, :], theta_r)[0]
            for j, c in enumerate(levels):
                k = _ceil_count(c, n_post)
                covered[i, j] = k >= 1 and d_truth <= d[k - 1]
        else:
            log_dens = np.sort(np.asarray(sampler.log_density(samples, x), dtype=float).ravel())
            log_truth = float(np.asarray(sampler.log_density(dataset.theta_true[i][None, :], x)).ravel()[0])
            for j, c in enumerate(levels):
                k = _ceil_count(c, n_post)
                covered[i, j] = k >= 1 and log_truth <= log_dens[k - 1]

    return covered.mean(axis=0)
