"""Expected-coverage-probability estimation from samples.

Two engines over a validation set of (theta_true, x) pairs:

* the HPD test ranks the truth's posterior density against the densities of n
  posterior draws (requires density evaluations), and
* the DRP test ranks the truth's distance to a random reference point against
  the distances of n posterior draws (requires samples only).

Each simulation yields a rank fraction f in [0, 1]; the expected coverage at
credibility level c = 1 - alpha is the fraction of simulations with f < c.
For an optimal posterior estimator the ranks are uniform and the curve sits on
the diagonal. Parameters are affinely normalized to the unit hypercube before
any distance is computed; reference points pass through the same map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .numerics import (BinomialBand, SeededRng, binomial_band, parallel_map,
                       single_thread_blas)

DEFAULT_LEVELS_COUNT = 101


def default_levels() -> np.ndarray:
    """The default credibility grid {0.00, 0.01, ..., 1.00}."""
    return np.arange(DEFAULT_LEVELS_COUNT) / (DEFAULT_LEVELS_COUNT - 1.0)


class NormalizationError(ValueError):
    def __init__(self, message, dimension=None):
        super().__init__(message)
        self.dimension = dimension


class DensityUnavailableError(TypeError):
    """The posterior sampler does not expose log_density, required for HPD."""


class SimulationError(RuntimeError):
    """An error raised while processing one simulation; carries sim_id."""

    def __init__(self, sim_id, message):
        super().__init__(f"simulation {sim_id}: {message}")
        self.sim_id = sim_id


@dataclass(frozen=True)
class JointSampleSet:
    """Validation draws from the true joint distribution of (theta, x).

    ``theta_true`` is (n_sims, dim_theta); ``observations`` holds one payload
    per simulation (any object the posterior sampler understands); ``sim_ids``
    are a permutation of 0..n_sims-1 and key all per-simulation randomness, so
    reordering the set does not change any result.
    """

    theta_true: np.ndarray
    observations: tuple
    sim_ids: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta_true, dtype=float)
        if theta.ndim != 2 or theta.shape[0] < 1:
            raise ValueError(f"theta_true must be (n_sims, dim) with n_sims >= 1, got {theta.shape}")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta_true must be finite")
        ids = np.asarray(self.sim_ids)
        if len(self.observations) != theta.shape[0] or ids.shape != (theta.shape[0],):
            raise ValueError("theta_true, observations and sim_ids must have equal length")
        if not np.array_equal(np.sort(ids), np.arange(theta.shape[0])):
            raise ValueError("sim_ids must be a permutation of 0..n_sims-1")
        object.__setattr__(self, "theta_true", theta)
        object.__setattr__(self, "sim_ids", ids.astype(int))

    @property
    def n_sims(self) -> int:
        return self.theta_true.shape[0]

    @property
    def dim_theta(self) -> int:
        return self.theta_true.shape[1]

    def permuted(self, order) -> "JointSampleSet":
        order = np.asarray(order, dtype=int)
        return JointSampleSet(
            theta_true=self.theta_true[order],
            observations=tuple(self.observations[i] for i in order),
            sim_ids=self.sim_ids[order],
        )


class PosteriorSampler:
    """Base for posterior estimators.

    ``sample(x, n, rng)`` must return an (n, dim) float array of draws from
    p_hat(theta | x). Estimators usable with the HPD test additionally expose
    ``log_density(theta, x)`` returning per-row log densities (any fixed
    per-x offset is irrelevant: only the ordering at fixed x is used).
    """

    log_density = None

    def sample(self, x, n: int, rng: SeededRng) -> np.ndarray:
        raise NotImplementedError


def has_density(sampler) -> bool:
    return callable(getattr(sampler, "log_density", None))


@dataclass(frozen=True)
class NormalizationMap:
    """Per-dimension affine map sending the fit bounds to exactly 0 and 1."""

    offset: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        off = np.asarray(self.offset, dtype=float).ravel()
        sc = np.asarray(self.scale, dtype=float).ravel()
        if off.shape != sc.shape:
            raise ValueError("offset and scale must have equal length")
        if not np.all(sc > 0):
            raise NormalizationError(
                f"scale must be positive in every dimension, got min {sc.min()}",
                dimension=int(np.argmin(sc)),
            )
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "scale", sc)

    @property
    def dim(self) -> int:
        return self.offset.size

    def apply(self, theta) -> np.ndarray:
        return (np.asarray(theta, dtype=float) - self.offset) / self.scale

    def apply_coordinate(self, value: float, dim: int) -> float:
        return (float(value) - self.offset[dim]) / self.scale[dim]


def fit_normalization(dataset: JointSampleSet, explicit_bounds=None) -> NormalizationMap:
    """Normalization map from explicit per-dimension (lo, hi) bounds, or from
    the empirical per-dimension min/max of the dataset truths."""
    d = dataset.dim_theta
    if explicit_bounds is not None:
        b = np.asarray(explicit_bounds, dtype=float)
        if b.shape == (2,):
            b = np.tile(b, (d, 1))
        if b.shape != (d, 2):
            raise ValueError(f"explicit_bounds must be (lo, hi) or ({d}, 2), got {b.shape}")
        lo, hi = b[:, 0], b[:, 1]
        bad = np.nonzero(~(lo < hi))[0]
        if bad.size:
            raise NormalizationError(
                f"bounds must satisfy lo < hi; dimension {bad[0]} has ({lo[bad[0]]}, {hi[bad[0]]})",
                dimension=int(bad[0]),
            )
    else:
        lo = dataset.theta_true.min(axis=0)
        hi = dataset.theta_true.max(axis=0)
        bad = np.nonzero(~(lo < hi))[0]
        if bad.size:
            raise NormalizationError(
                f"dimension {bad[0]} is degenerate (min == max == {lo[bad[0]]}); "
                "provide explicit bounds",
                dimension=int(bad[0]),
            )
    return NormalizationMap(offset=lo, scale=hi - lo)


# --- reference-point policies -------------------------------------------------

@dataclass(frozen=True)
class UnitHypercubeUniform:
    """theta_r uniform on [0, 1]^D in normalized space."""


@dataclass(frozen=True)
class PriorDraw:
    """theta_r drawn in raw parameter space by ``draw(generator)`` and normalized."""

    draw: Callable[[np.random.Generator], np.ndarray]


@dataclass(frozen=True)
class DataShift:
    """theta_r = x[coordinate] + Uniform(-half_width, half_width), normalized.

    Only meaningful for scalar parameters (dim 1) with an indexable x payload.
    """

    coordinate: int
    half_width: float

    def __post_init__(self):
        if self.half_width < 0:
            raise ValueError("half_width must be >= 0")


ReferencePolicy = Union[UnitHypercubeUniform, PriorDraw, DataShift]


def sample_reference(policy: ReferencePolicy, x, dim: int, rng, nmap: Optional[NormalizationMap] = None) -> np.ndarray:
    """One reference point theta_r in normalized coordinates.

    ``rng`` may be a SeededRng or a live Generator. Prior and data-shift
    policies require ``nmap`` to map their raw-space point through the active
    normalization.
    """
    g = rng.generator() if isinstance(rng, SeededRng) else rng
    if isinstance(policy, UnitHypercubeUniform):
        return g.uniform(size=dim)
    if nmap is None:
        raise ValueError(f"{type(policy).__name__} policy requires a normalization map")
    if isinstance(policy, PriorDraw):
        point = np.asarray(policy.draw(g), dtype=float).ravel()
        if point.size != dim:
            raise ValueError(f"prior draw has dimension {point.size}, expected {dim}")
        return nmap.apply(point)
    if isinstance(policy, DataShift):
        if dim != 1:
            raise ValueError(f"DataShift requires a scalar parameter space, got dim {dim}")
        arr = np.asarray(x, dtype=float).ravel()
        if policy.coordinate >= arr.size:
            raise ValueError(
                f"observation has {arr.size} coordinates, DataShift needs index {policy.coordinate}"
            )
        u = g.uniform(-policy.half_width, policy.half_width) if policy.half_width > 0 else 0.0
        return np.array([nmap.apply_coordinate(arr[policy.coordinate] + u, 0)])
    raise TypeError(f"unknown reference policy {type(policy).__name__}")


# --- distance metrics -----------------------------------------------------------

@dataclass(frozen=True)
class Euclidean:
    pass


@dataclass(frozen=True)
class WeightedEuclidean:
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).ravel()
        if w.size == 0 or not np.all(w > 0):
            raise ValueError("weights must be positive in every dimension")
        object.__setattr__(self, "weights", w)


DistanceMetric = Union[Euclidean, WeightedEuclidean]


def distances_to(metric: DistanceMetric, points: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Distances from each row of ``points`` to ``ref`` under the metric."""
    diff = np.atleast_2d(points) - ref
    if isinstance(metric, Euclidean):
        sq = (diff * diff).sum(axis=1)
    elif isinstance(metric, WeightedEuclidean):
        if metric.weights.size != diff.shape[1]:
            raise ValueError(
                f"metric has {metric.weights.size} weights, points have dimension {diff.shape[1]}"
            )
        sq = (diff * diff * metric.weights).sum(axis=1)
    else:
        raise TypeError(f"unknown metric {type(metric).__name__}")
    return np.sqrt(sq)


# --- rank statistics ----------------------------------------------------------

@dataclass(frozen=True)
class RankTable:
    """Rank fractions as arrays, one row per (simulation, repeat), in sim_id
    order with repeats in order; ``theta_r`` (rows, D) holds the DRP reference
    points and is None for HPD ranks."""

    sim_id: np.ndarray
    f: np.ndarray
    theta_r: Optional[np.ndarray] = None


def _fraction_strictly_below(values: np.ndarray, threshold: float) -> float:
    # strict comparison: ties do not count
    return float(np.count_nonzero(values < threshold)) / values.size


def drp_rank(post_samples, theta_true, theta_r, metric: DistanceMetric = Euclidean()) -> float:
    """Fraction of posterior samples strictly closer to theta_r than the truth is.

    All inputs are expected in normalized coordinates. Equal distances count as
    not closer, so a point-mass estimator at the truth yields f = 0.
    """
    samples = np.atleast_2d(np.asarray(post_samples, dtype=float))
    truth = np.asarray(theta_true, dtype=float).ravel()
    ref = np.asarray(theta_r, dtype=float).ravel()
    if samples.shape[0] < 1:
        raise ValueError("drp_rank requires at least one posterior sample")
    if samples.shape[1] != truth.size or truth.size != ref.size:
        raise ValueError(
            f"dimension mismatch: samples {samples.shape}, truth {truth.shape}, ref {ref.shape}"
        )
    d_samples = distances_to(metric, samples, ref)
    d_truth = distances_to(metric, truth[None, :], ref)[0]
    if not (np.all(np.isfinite(d_samples)) and math.isfinite(d_truth)):
        raise ValueError("non-finite distance encountered")
    return _fraction_strictly_below(d_samples, d_truth)


def hpd_rank(sample_densities, truth_density, log_scale: bool = False) -> float:
    """Fraction of sample densities strictly below the truth's density.

    With ``log_scale=False`` (the default) inputs are plain densities and must
    be nonnegative; with ``log_scale=True`` they are log densities and may take
    any finite value (the comparison only uses ordering at fixed x).
    """
    dens = np.asarray(sample_densities, dtype=float).ravel()
    truth = float(truth_density)
    if dens.size < 1:
        raise ValueError("hpd_rank requires at least one sample density")
    if not np.all(np.isfinite(dens)) or not math.isfinite(truth):
        raise ValueError("densities must be finite")
    if not log_scale and (truth < 0 or np.any(dens < 0)):
        raise ValueError("densities must be nonnegative")
    return _fraction_strictly_below(dens, truth)


# --- curve assembly -------------------------------------------------------------

@dataclass(frozen=True)
class CoverageCurve:
    """Estimated expected coverage over a credibility grid, with rank provenance."""

    levels: np.ndarray
    ecp: np.ndarray
    band: BinomialBand
    n_sims: int
    n_post: int
    method: str
    ranks: RankTable

    def rank_values(self) -> np.ndarray:
        return self.ranks.f

    def in_band_fraction(self) -> float:
        """Fraction of grid levels where |ecp - c| is within the band half-width."""
        dev = np.abs(self.ecp - self.levels)
        return float(np.mean(dev <= self.band.half_widths))

    def max_sigma_deviation(self) -> float:
        """Largest |ecp - c| in units of the one-sigma binomial half-width.

        Levels with zero binomial width (c = 0, 1) are skipped; this is the
        out-of-band measure used by the benchmark pass/fail thresholds.
        """
        sigma = np.sqrt(self.levels * (1.0 - self.levels) / self.n_sims)
        mask = sigma > 0
        if not mask.any():
            return 0.0
        return float(np.max(np.abs(self.ecp - self.levels)[mask] / sigma[mask]))


def ecp_curve(ranks: RankTable, levels=None, n_post: int = 0,
              n_sims: Optional[int] = None, method: str = "", band_z: float = 3.0) -> CoverageCurve:
    """Assemble a coverage curve: ecp(c) = #{f_i < c} / #ranks, with binomial band.

    ``n_sims`` defaults to the number of distinct sim_ids (repeat runs pool
    their ranks but do not shrink the band).
    """
    if ranks.f.size == 0:
        raise ValueError("ecp_curve requires at least one rank")
    levels = default_levels() if levels is None else np.asarray(levels, dtype=float).ravel()
    if levels.size == 0 or levels.min() < 0 or levels.max() > 1:
        raise ValueError("levels must be a nonempty grid within [0, 1]")
    f = np.sort(ranks.f)
    ecp = np.searchsorted(f, levels, side="left") / f.size
    if n_sims is None:
        n_sims = np.unique(ranks.sim_id).size
    band = binomial_band(levels, n_sims, z=band_z)
    return CoverageCurve(levels=levels, ecp=ecp, band=band, n_sims=int(n_sims),
                         n_post=int(n_post), method=method, ranks=ranks)


# --- the two tests ---------------------------------------------------------------

_POST_TAG = "posterior"
_REF_TAG = "reference"


def _rank_table(dataset: JointSampleSet, draws, rank, on_draws=None) -> RankTable:
    """The per-simulation loop of every test, run in sim_id order.

    ``draws(i, sid)`` gives simulation i's (n, D) draws and ``rank(i, samples)``
    one (f, theta_r) pair per repeat. Errors are re-raised as SimulationError.
    """

    def one_sim(i):
        sid = int(dataset.sim_ids[i])
        try:
            samples = draws(i, sid)
            if on_draws is not None:
                on_draws(sid, samples)
            return rank(i, samples)
        except SimulationError:
            raise
        except Exception as e:
            raise SimulationError(sid, str(e)) from e

    with single_thread_blas():
        per_sim = parallel_map(one_sim, np.argsort(dataset.sim_ids))
    f, theta_r = zip(*[pair for pairs in per_sim for pair in pairs])
    return RankTable(sim_id=np.repeat(np.arange(dataset.n_sims), [len(p) for p in per_sim]),
                     f=np.array(f), theta_r=None if theta_r[0] is None else np.array(theta_r))


def _sampler_draws(dataset: JointSampleSet, sampler, n_post: int, root: SeededRng):
    """Draw source: n_post draws per simulation from its "posterior" substream."""
    shape = (n_post, dataset.dim_theta)

    def draws(i, sid):
        samples = np.asarray(sampler.sample(dataset.observations[i], n_post,
                                            root.substream(_POST_TAG, sid)), dtype=float)
        if samples.shape != shape:
            raise SimulationError(sid, f"sampler returned shape {samples.shape}, expected {shape}")
        if not np.all(np.isfinite(samples)):
            raise SimulationError(sid, "sampler returned non-finite draws")
        return samples

    return draws


def _drp_ranker(dataset: JointSampleSet, policy, metric, bounds, root: SeededRng, repeats: int):
    """Ranker: per repeat r, a reference point from substream ("reference", r,
    sim_id) and the DRP rank, all in normalized coordinates."""
    nmap = fit_normalization(dataset, bounds)

    def rank(i, samples):
        sid = int(dataset.sim_ids[i])
        norm_samples = nmap.apply(samples)
        norm_truth = nmap.apply(dataset.theta_true[i])
        out = []
        for r in range(repeats):
            theta_r = sample_reference(policy, dataset.observations[i], nmap.dim,
                                       root.substream(_REF_TAG, r, sid), nmap)
            out.append((drp_rank(norm_samples, norm_truth, theta_r, metric), theta_r))
        return out

    return rank


def drp_test(dataset: JointSampleSet, sampler, *, n_post: int,
             policy: ReferencePolicy = UnitHypercubeUniform(),
             metric: DistanceMetric = Euclidean(),
             levels=None, seed: int = 0, bounds=None, repeats: int = 1,
             band_z: float = 3.0, on_draws=None) -> CoverageCurve:
    """Distance-to-random-point coverage test over a validation set.

    Per simulation i (keyed by its sim_id): n_post posterior draws from a
    dedicated substream, one reference point per repeat from another, all
    normalized through the same map, ranked by distance. Deterministic given
    the seed and invariant to simulation order and scheduling.

    ``on_draws(sim_id, draws)``, when given, is called with each simulation's
    raw (n_post, D) draws, so callers can keep them without sampling again.
    Under DRPKIT_THREADS it runs on worker threads, in no fixed order.
    """
    if n_post < 1:
        raise ValueError(f"n_post must be >= 1, got {n_post}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    root = SeededRng(seed)
    table = _rank_table(dataset, _sampler_draws(dataset, sampler, n_post, root),
                        _drp_ranker(dataset, policy, metric, bounds, root, repeats), on_draws)
    return ecp_curve(table, levels, n_post=n_post, n_sims=dataset.n_sims,
                     method="drp", band_z=band_z)


def drp_test_precomputed(dataset: JointSampleSet, samples_by_sim: dict, *,
                         policy: ReferencePolicy = UnitHypercubeUniform(),
                         metric: DistanceMetric = Euclidean(),
                         levels=None, seed: int = 0, bounds=None, repeats: int = 1,
                         band_z: float = 3.0) -> CoverageCurve:
    """DRP test over already-materialized posterior draws ({sim_id: (n_i, D)}).

    Shares drp_test's normalization, reference substreams and rank computation
    exactly, so running it on draws dumped by drp_test (same seed) reproduces
    the same curve bit for bit. Per-sim sample counts may differ; the curve's
    n_post records the common count, or 0 when counts are mixed.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    dim = dataset.dim_theta

    def draws(i, sid):
        if sid not in samples_by_sim:
            raise ValueError("no posterior samples")
        samples = np.atleast_2d(np.asarray(samples_by_sim[sid], dtype=float))
        if samples.shape[0] < 1 or samples.shape[1] != dim:
            raise ValueError(f"samples for sim {sid} have shape {samples.shape}, expected (n, {dim})")
        return samples

    table = _rank_table(dataset, draws,
                        _drp_ranker(dataset, policy, metric, bounds, SeededRng(seed), repeats))
    counts = {np.atleast_2d(np.asarray(samples_by_sim[int(s)])).shape[0] for s in dataset.sim_ids}
    n_post = counts.pop() if len(counts) == 1 else 0
    return ecp_curve(table, levels, n_post=n_post, n_sims=dataset.n_sims,
                     method="drp", band_z=band_z)


def hpd_test(dataset: JointSampleSet, sampler, *, n_post: int,
             levels=None, seed: int = 0, band_z: float = 3.0, on_draws=None) -> CoverageCurve:
    """Highest-posterior-density coverage test; requires sampler.log_density.

    Draws from the same substreams as drp_test, and ``on_draws`` is called as
    drp_test calls it.
    """
    if n_post < 1:
        raise ValueError(f"n_post must be >= 1, got {n_post}")
    if not has_density(sampler):
        raise DensityUnavailableError(
            f"{type(sampler).__name__} does not expose log_density, required for the HPD test"
        )

    def rank(i, samples):
        x = dataset.observations[i]
        log_dens = np.asarray(sampler.log_density(samples, x), dtype=float).ravel()
        log_truth = float(np.asarray(sampler.log_density(dataset.theta_true[i][None, :], x)).ravel()[0])
        return [(hpd_rank(log_dens, log_truth, log_scale=True), None)]

    table = _rank_table(dataset, _sampler_draws(dataset, sampler, n_post, SeededRng(seed)), rank, on_draws)
    return ecp_curve(table, levels, n_post=n_post, n_sims=dataset.n_sims,
                     method="hpd", band_z=band_z)


# --- region-membership oracle -----------------------------------------------------

def _ceil_count(c: float, n: int) -> int:
    # smallest k with k/n >= c, robust to grid values like 0.3 * 500
    return int(math.ceil(c * n - 1e-9))


def region_membership_ecp(dataset: JointSampleSet, sampler, *, method: str, n_post: int,
                          levels=None, seed: int = 0,
                          policy: ReferencePolicy = UnitHypercubeUniform(),
                          metric: DistanceMetric = Euclidean(), bounds=None) -> np.ndarray:
    """ECP computed the explicit-region way, for cross-checking the rank path.

    For each level c an empirical credible region of mass c is built outright
    and the truth's membership is counted. For DRP that region is the smallest
    ball around theta_r holding a fraction c of the samples, and membership
    coincides with the rank event f < c up to rank quantization. For HPD the
    rank convention counts sample densities below the truth's, so the region
    consistent with it is the density-quantile region (the sample subset of
    mass c taken upward from the lowest density); membership in it likewise
    coincides with f < c. Consumes the same substreams as drp_test/hpd_test
    with repeats=1, so both paths see identical draws. Intended for small
    instances (n_sims <= 100, n_post <= 1000).
    """
    if method not in ("drp", "hpd"):
        raise ValueError(f"method must be 'drp' or 'hpd', got {method!r}")
    if dataset.n_sims > 100 or n_post > 1000:
        raise ValueError("region-membership oracle is restricted to n_sims <= 100, n_post <= 1000")
    if method == "hpd" and not has_density(sampler):
        raise DensityUnavailableError("HPD region oracle requires sampler.log_density")
    levels = default_levels() if levels is None else np.asarray(levels, dtype=float).ravel()
    nmap = fit_normalization(dataset, bounds) if method == "drp" else None
    root = SeededRng(seed)
    dim = dataset.dim_theta
    draws = _sampler_draws(dataset, sampler, n_post, root)
    covered = np.zeros((dataset.n_sims, levels.size))

    for i in range(dataset.n_sims):
        sid = int(dataset.sim_ids[i])
        x = dataset.observations[i]
        samples = draws(i, sid)
        if method == "drp":
            theta_r = sample_reference(policy, x, dim, root.substream(_REF_TAG, 0, sid), nmap)
            d = np.sort(distances_to(metric, nmap.apply(samples), theta_r))
            d_truth = distances_to(metric, nmap.apply(dataset.theta_true[i])[None, :], theta_r)[0]
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
