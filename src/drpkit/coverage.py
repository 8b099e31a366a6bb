"""Expected-coverage-probability estimation from samples.

Two engines over a validation set of (theta_true, x) pairs:

* the HPD test ranks the truth's posterior density against the densities of n
  posterior draws (requires density evaluations), and
* the DRP test ranks the truth's distance to a random reference point against
  the distances of n posterior draws (requires samples only).

Each simulation yields a rank: k of its n draws fall strictly below the truth,
and f = k / n in [0, 1]; the expected coverage at credibility level
c = 1 - alpha is the fraction of simulations with f < c.
For an optimal posterior estimator the ranks are uniform and the curve sits on
the diagonal. Parameters are affinely normalized to the unit hypercube before
any distance is computed; reference points pass through the same map.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .numerics import SeededRng, binomial_band

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
    ``log_density(theta, x)`` returning per-row log densities. The HPD test
    scores a simulation's truth and draws in one call, so each row's value
    must depend on that row alone, apart from an offset shared by the rows of
    one call (only the ordering at fixed x is used).
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
        bad = np.nonzero(~(np.isfinite(off) & np.isfinite(sc)))[0]
        if bad.size:
            raise NormalizationError(f"offset and scale must be finite; dimension {bad[0]} has "
                                     f"offset {off[bad[0]]}, scale {sc[bad[0]]}", dimension=int(bad[0]))
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
        out = np.subtract(theta, self.offset, dtype=float)  # a new array, never ``theta``
        out /= self.scale
        return out


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
    with np.errstate(over="ignore"):  # an infinite scale is NormalizationMap's error to report
        scale = hi - lo
    return NormalizationMap(offset=lo, scale=scale)


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
        if isinstance(self.coordinate, bool) or not isinstance(self.coordinate, numbers.Integral):
            raise ValueError(f"coordinate must be an integer, got {self.coordinate!r}")
        if self.coordinate < 0:
            raise ValueError(f"coordinate must be >= 0, got {self.coordinate}")
        if not 0 <= self.half_width < math.inf:
            raise ValueError(f"half_width must be finite and >= 0, got {self.half_width}")


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
        return nmap.apply([arr[policy.coordinate] + u])
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
        if w.size == 0 or not np.all((w > 0) & np.isfinite(w)):
            raise ValueError("weights must be positive and finite in every dimension")
        object.__setattr__(self, "weights", w)


DistanceMetric = Union[Euclidean, WeightedEuclidean]


def distances_to(metric: DistanceMetric, points: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Distances from each row of ``points`` to ``ref`` under the metric; the
    differences are squared and weighted in one scratch buffer."""
    sq = np.subtract(np.atleast_2d(points), ref, dtype=float)
    sq *= sq
    if isinstance(metric, WeightedEuclidean):
        if metric.weights.size != sq.shape[1]:
            raise ValueError(
                f"metric has {metric.weights.size} weights, points have dimension {sq.shape[1]}"
            )
        sq *= metric.weights
    elif not isinstance(metric, Euclidean):
        raise TypeError(f"unknown metric {type(metric).__name__}")
    return np.sqrt(sq.sum(axis=1))


# --- rank statistics ----------------------------------------------------------

@dataclass(frozen=True)
class RankTable:
    """Ranks as arrays, one row per (simulation, repeat), in sim_id order with
    repeats in order: ``k`` of the ``n`` ranked draws fall strictly below the
    truth, and ``f = k / n``. ``theta_r`` (rows, D) holds the DRP reference
    points and is None for HPD ranks."""

    sim_id: np.ndarray
    k: np.ndarray
    n: np.ndarray
    theta_r: Optional[np.ndarray] = None

    @property
    def f(self) -> np.ndarray:
        return self.k / self.n


# --- curve assembly -------------------------------------------------------------

@dataclass(frozen=True)
class CoverageCurve:
    """Estimated expected coverage over a credibility grid, with rank provenance."""

    levels: np.ndarray
    ecp: np.ndarray
    band: np.ndarray  # binomial half-width at each level
    n_sims: int
    n_post: int
    method: str
    ranks: RankTable

    def in_band_fraction(self) -> float:
        """Fraction of grid levels where |ecp - c| is within the band half-width."""
        dev = np.abs(self.ecp - self.levels)
        return float(np.mean(dev <= self.band))

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


def _checked_levels(levels) -> np.ndarray:
    """The credibility grid: the default for None, else ``levels`` checked."""
    levels = default_levels() if levels is None else np.asarray(levels, dtype=float).ravel()
    if levels.size == 0 or not ((levels >= 0) & (levels <= 1)).all():  # NaN fails too
        raise ValueError("levels must be a nonempty grid within [0, 1]")
    return levels


def ecp_curve(ranks: RankTable, levels=None) -> CoverageCurve:
    """Assemble a coverage curve from the table alone: ecp(c) = #{f_i < c} / #ranks,
    a 3-sigma binomial band over the n_sims distinct sim_ids (repeats pool their
    ranks but do not shrink the band), n_post the common draw count (0 when
    counts differ), and method "drp" when the table holds reference points, else "hpd"."""
    if ranks.k.size == 0:
        raise ValueError("ecp_curve requires at least one rank")
    levels = _checked_levels(levels)
    f = np.sort(ranks.f)
    ecp = np.searchsorted(f, levels, side="left") / f.size
    n_sims = 1 + np.count_nonzero(np.diff(np.sort(ranks.sim_id)))  # one plus the steps between sorted ids
    n = ranks.n
    return CoverageCurve(levels=levels, ecp=ecp, band=binomial_band(levels, n_sims), n_sims=int(n_sims),
                         n_post=int(n[0]) if (n == n[0]).all() else 0,
                         method="hpd" if ranks.theta_r is None else "drp", ranks=ranks)


# --- the two tests ---------------------------------------------------------------

_POST_TAG = "posterior"
_REF_TAG = "reference"


@dataclass(frozen=True)
class DrpSpec:
    """A DRP test for :func:`coverage_tests`; fields as in :func:`drp_test`."""

    policy: ReferencePolicy = UnitHypercubeUniform()
    metric: DistanceMetric = Euclidean()
    bounds: object = None
    repeats: int = 1


@dataclass(frozen=True)
class HpdSpec:
    """An HPD test for :func:`coverage_tests`; needs sampler.log_density."""


def _rank_table(dataset: JointSampleSet, runs, draws, rankers, on_draws=None) -> list:
    """The loop of every test: one RankTable per ranker, in sim_id order.

    ``runs`` yields (sim_id, item) pairs, pulled one at a time; a simulation
    may come in several runs, in any order. ``draws(i, sim_id, item)`` gives
    (n + 1, D) rows: the truth of simulation i, then the run's n draws. Each
    ranker ``(rank, repeats, dim)`` ranks them: ``rank(i, rows)`` gives the
    repeats' counts k of draws strictly below the truth and their (repeats,
    dim) reference points, or None when dim is None. Counts add up over a
    simulation's runs, so its rank is the one its draws would get in one block.
    The draws are then passed to ``on_draws(sid, draws)`` and dropped. Errors,
    and a simulation with no draws, are raised as SimulationError.
    """
    index = np.argsort(dataset.sim_ids).tolist()  # sim_id -> dataset row
    n_sims = dataset.n_sims
    n = np.zeros(n_sims, dtype=np.int64)
    k = [np.zeros((n_sims, repeats), dtype=np.int64) for _, repeats, _ in rankers]
    refs = [None if dim is None else np.empty((n_sims, repeats, dim)) for _, repeats, dim in rankers]
    for sid, item in runs:
        try:
            rows = draws(index[sid], sid, item)
            for (rank, _, _), k_of, refs_of in zip(rankers, k, refs):
                counts, theta_r = rank(index[sid], rows)
                k_of[sid] += counts
                if refs_of is not None:
                    refs_of[sid] = theta_r
            if on_draws is not None:
                on_draws(sid, rows[1:])
        except SimulationError:
            raise
        except Exception as e:
            raise SimulationError(sid, str(e)) from e
        n[sid] += len(rows) - 1
    if not n.all():
        raise SimulationError(int(np.argmin(n)), "no posterior samples")
    tables = []
    for k_of, refs_of in zip(k, refs):
        n_all = np.repeat(n, k_of.shape[1])
        tables.append(RankTable(sim_id=np.repeat(np.arange(n_sims), k_of.shape[1]), k=k_of.ravel(), n=n_all,
                                theta_r=None if refs_of is None else refs_of.reshape(n_all.size, -1)))
    return tables


def _drp_ranker(dataset: JointSampleSet, spec: DrpSpec, root: SeededRng):
    """Ranker: per repeat r, a reference point from substream ("reference", r,
    sim_id) and the DRP rank, all in normalized coordinates."""
    if spec.repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {spec.repeats}")
    nmap = fit_normalization(dataset, spec.bounds)
    if isinstance(spec.metric, WeightedEuclidean) and spec.metric.weights.size != nmap.dim:
        raise ValueError(f"metric has {spec.metric.weights.size} weights, parameters have dimension {nmap.dim}")
    if isinstance(spec.policy, DataShift) and nmap.dim != 1:
        raise ValueError(f"DataShift requires a scalar parameter space, got dim {nmap.dim}")
    if not isinstance(spec.policy, ReferencePolicy):
        raise TypeError(f"unknown reference policy {type(spec.policy).__name__}")
    if not isinstance(spec.metric, DistanceMetric):
        raise TypeError(f"unknown metric {type(spec.metric).__name__}")

    def rank(i, rows):
        sid = int(dataset.sim_ids[i])
        rows = nmap.apply(rows)
        refs = np.array([sample_reference(spec.policy, dataset.observations[i], nmap.dim,
                                          root.substream(_REF_TAG, r, sid), nmap)
                         for r in range(spec.repeats)])
        dists = [distances_to(spec.metric, rows, ref) for ref in refs]
        if not np.isfinite(dists).all():
            raise ValueError("non-finite distance encountered")
        return [int(np.count_nonzero(d[1:] < d[0])) for d in dists], refs  # strict: ties do not count

    return rank, spec.repeats, nmap.dim


def _hpd_ranker(dataset: JointSampleSet, source):
    """Ranker: the truth's log density against the draws' log densities."""
    if not has_density(source):
        raise DensityUnavailableError(f"{type(source).__name__} does not expose log_density, "
                                      "required for the HPD test")

    def rank(i, rows):
        log_dens = np.asarray(source.log_density(rows, dataset.observations[i]), dtype=float).ravel()
        if log_dens.size != len(rows):
            raise ValueError(f"log_density gave {log_dens.size} values for {len(rows)} rows")
        if not np.isfinite(log_dens).all():
            raise ValueError("densities must be finite")
        return [int(np.count_nonzero(log_dens[1:] < log_dens[0]))], None  # strict: ties do not count

    return rank, 1, None


def coverage_tests(dataset: JointSampleSet, source, tests, *, n_post: Optional[int] = None,
                   levels=None, seed: int = 0, on_draws=None) -> list:
    """Several coverage tests on one pass over the draws: one curve per spec in ``tests``.

    ``source`` is a sampler (anything with a callable ``sample``), which gives
    simulation i (keyed by its sim_id) n_post draws from a dedicated
    substream, or draws made elsewhere: a mapping {sim_id: (n_i, D) array}, or
    an iterable of (sim_id, (rows, D) array) runs. Draws from elsewhere bring
    their own counts, so they take no n_post; an HPD test needs the sampler's
    log_density. A simulation's draws may come in several runs, in any order,
    and an iterable is consumed once, one run at a time, so it can stream a
    file too large to hold (``fileio.read_posterior_runs``). Draws of
    sim_ids outside the dataset are ignored.

    Every test ranks each run's draws, which are then dropped. A DRP test
    draws one reference point per repeat from another substream, normalizes
    all points through one map and ranks by distance; its counts add up over a
    simulation's runs. Each curve is deterministic given the seed, invariant
    to simulation order, and the same as its drp_test or hpd_test call alone;
    draws dumped from a sampler give the sampler's curve bit for bit. Every argument is checked before the first draw.
    ``on_draws(sim_id, draws)``, if given, gets each run's draws once, in run
    order (sim_id order for a sampler), so callers can keep or stream them
    without sampling again. Simulations run one after another on the calling
    thread; BLAS threads are whatever the environment sets.
    """
    tests = list(tests)
    if not tests:
        raise ValueError("tests must hold at least one DrpSpec or HpdSpec")
    sampled = callable(getattr(source, "sample", None))
    if sampled and (n_post is None or n_post < 1):
        raise ValueError(f"n_post must be >= 1 for a sampler, got {n_post}")
    if not sampled and n_post is not None:
        raise ValueError("n_post applies to a sampler only; draws made elsewhere bring their own counts")
    levels = _checked_levels(levels)
    root = SeededRng(seed)
    rankers = []
    for spec in tests:
        if isinstance(spec, DrpSpec):
            rankers.append(_drp_ranker(dataset, spec, root))
        elif isinstance(spec, HpdSpec):
            rankers.append(_hpd_ranker(dataset, source))
        else:
            raise TypeError(f"unknown coverage test {type(spec).__name__}")
    dim = dataset.dim_theta

    def draws(i, sid, block):
        if sampled:
            block = source.sample(dataset.observations[i], n_post, root.substream(_POST_TAG, sid))
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[1] != dim or not block.shape[0] or sampled and len(block) != n_post:
            raise ValueError(f"draws have shape {block.shape}, expected ({n_post or 'n'}, {dim})")
        if not np.isfinite(block).all():
            raise ValueError("draws are not finite")
        return np.vstack((dataset.theta_true[i], block))  # the truth in row 0, the draws below

    if sampled:
        runs = ((sid, None) for sid in range(dataset.n_sims))
    else:
        pairs = source.items() if isinstance(source, Mapping) else source
        runs = ((int(sid), block) for sid, block in pairs if 0 <= sid < dataset.n_sims)
    return [ecp_curve(table, levels) for table in _rank_table(dataset, runs, draws, rankers, on_draws)]


def drp_test(dataset: JointSampleSet, source, *, n_post: Optional[int] = None,
             policy: ReferencePolicy = UnitHypercubeUniform(),
             metric: DistanceMetric = Euclidean(),
             levels=None, seed: int = 0, bounds=None, repeats: int = 1,
             on_draws=None) -> CoverageCurve:
    """Distance-to-random-point coverage test over a validation set, on a
    sampler's draws or on draws made elsewhere: the one-test case of
    :func:`coverage_tests`, which describes it."""
    return coverage_tests(dataset, source, [DrpSpec(policy, metric, bounds, repeats)],
                          n_post=n_post, levels=levels, seed=seed, on_draws=on_draws)[0]


def hpd_test(dataset: JointSampleSet, sampler, *, n_post: int,
             levels=None, seed: int = 0, on_draws=None) -> CoverageCurve:
    """Highest-posterior-density coverage test; requires sampler.log_density. The
    one-test case of :func:`coverage_tests`, on the same draws as drp_test."""
    return coverage_tests(dataset, sampler, [HpdSpec()], n_post=n_post, levels=levels,
                          seed=seed, on_draws=on_draws)[0]
