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
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .numerics import SeededRng, _check_int, binomial_band

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


@dataclass(frozen=True, eq=False)
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
        if ids.dtype.kind not in "iu":
            raise ValueError(f"sim_ids must be integers, got {ids.dtype}")
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


def _simulated_set(seed: int, tag: str, n_sims: int, simulate) -> JointSampleSet:
    """The set whose simulation i is ``simulate(rng)`` -> (theta, x), on substream
    (tag, i) of ``seed``: a larger n_sims keeps the earlier simulations."""
    root = SeededRng(seed)
    thetas, xs = zip(*[simulate(root.substream(tag, i)) for i in range(n_sims)])
    return JointSampleSet(theta_true=np.reshape(thetas, (n_sims, -1)), observations=xs, sim_ids=np.arange(n_sims))


class PosteriorSampler:
    """Base for posterior estimators.

    ``sample(x, n, rng)`` must return an (n, dim) float array of draws from
    p_hat(theta | x). Estimators usable with the HPD test additionally expose
    ``log_density(theta, x)`` returning one finite log density per row. The HPD test
    scores a simulation's truth and draws in one call, so each row's value
    must depend on that row alone, apart from an offset shared by the rows of
    one call (only the ordering at fixed x is used).
    """

    log_density = None

    def sample(self, x, n: int, rng: SeededRng) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class NormalizationMap:
    """Per-dimension affine map sending the fit bounds to exactly 0 and 1, and
    the distance of the mapped space, its squared differences weighted by
    ``weights`` (one positive finite weight per dimension) when they are given."""

    offset: np.ndarray
    scale: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        off = np.asarray(self.offset, dtype=float).ravel()
        sc = np.asarray(self.scale, dtype=float).ravel()
        if off.shape != sc.shape:
            raise ValueError("offset and scale must have equal length")
        bad = np.nonzero(~(np.isfinite(off) & np.isfinite(sc)))[0]
        if bad.size:
            raise NormalizationError(f"offset and scale must be finite; dimension {bad[0]} has "
                                     f"offset {off[bad[0]]}, scale {sc[bad[0]]}", dimension=int(bad[0]))
        bad = np.nonzero(sc <= 0)[0]
        if bad.size:
            raise NormalizationError(f"bounds must satisfy lo < hi; dimension {bad[0]} has "
                                     f"lo {off[bad[0]]}, hi {off[bad[0]] + sc[bad[0]]}", dimension=int(bad[0]))
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float).ravel()
            if w.size == 0 or not np.all((w > 0) & np.isfinite(w)):
                raise ValueError("weights must be positive and finite in every dimension")
            if w.size != off.size:
                raise ValueError(f"metric has {w.size} weights, parameters have dimension {off.size}")
            object.__setattr__(self, "weights", w)
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "scale", sc)

    @property
    def dim(self) -> int:
        return self.offset.size

    def apply(self, theta) -> np.ndarray:
        out = np.subtract(theta, self.offset, dtype=float)  # a new array, never ``theta``
        out /= self.scale
        return out

    def distances(self, points, ref) -> np.ndarray:
        """Distances from each row of the mapped ``points`` to the mapped ``ref``;
        the differences are squared and weighted in one scratch buffer, so each
        row's distance depends on that row alone."""
        sq = np.subtract(np.atleast_2d(points), ref, dtype=float)
        sq *= sq
        if self.weights is not None:
            sq *= self.weights
        return np.sqrt(sq.sum(axis=1))


def fit_normalization(dataset: JointSampleSet, explicit_bounds=None, weights=None) -> NormalizationMap:
    """Normalization map from explicit per-dimension (lo, hi) bounds, or from
    the empirical per-dimension min/max of the dataset truths, with the
    distance ``weights`` (None: unweighted)."""
    d = dataset.dim_theta
    if explicit_bounds is not None:
        b = np.asarray(explicit_bounds, dtype=float)
        if b.shape == (2,):
            b = np.tile(b, (d, 1))
        if b.shape != (d, 2):
            raise ValueError(f"explicit_bounds must be (lo, hi) or ({d}, 2), got {b.shape}")
        lo, hi = b[:, 0], b[:, 1]
    else:
        lo = dataset.theta_true.min(axis=0)
        hi = dataset.theta_true.max(axis=0)
    with np.errstate(over="ignore"):  # NormalizationMap reports bad bounds, an infinite scale too
        scale = hi - lo
    return NormalizationMap(offset=lo, scale=scale, weights=weights)


# --- reference-point policies -------------------------------------------------
# ``check(dataset)`` refuses a dataset the policy cannot serve, before any draw;
# ``point(g, x, nmap)`` draws one theta_r for x from Generator g, normalized by nmap.

@dataclass(frozen=True)
class UnitHypercubeUniform:
    """theta_r uniform on [0, 1]^D in normalized space."""

    def check(self, dataset: JointSampleSet):
        """Every dataset can be served."""

    def point(self, g: np.random.Generator, x, nmap: NormalizationMap) -> np.ndarray:
        return g.uniform(size=nmap.dim)


@dataclass(frozen=True)
class PriorDraw:
    """theta_r drawn in raw parameter space by ``draw(generator)`` and normalized."""

    draw: Callable[[np.random.Generator], np.ndarray]

    def check(self, dataset: JointSampleSet):
        """Every dataset can be served; each draw's dimension is checked in ``point``."""

    def point(self, g: np.random.Generator, x, nmap: NormalizationMap) -> np.ndarray:
        point = np.asarray(self.draw(g), dtype=float).ravel()
        if point.size != nmap.dim:
            raise ValueError(f"prior draw has dimension {point.size}, expected {nmap.dim}")
        return nmap.apply(point)


@dataclass(frozen=True)
class DataShift:
    """theta_r = x[coordinate] + Uniform(-half_width, half_width), normalized.

    Only meaningful for scalar parameters (dim 1) with an indexable x payload.
    """

    coordinate: int
    half_width: float

    def __post_init__(self):
        _check_int(self.coordinate, "coordinate", 0)
        if not 0 <= self.half_width < math.inf:
            raise ValueError(f"half_width must be finite and >= 0, got {self.half_width}")

    def check(self, dataset: JointSampleSet):
        """Refuse a non-scalar theta, and any x without a finite value at ``coordinate``."""
        if dataset.dim_theta != 1:
            raise ValueError(f"DataShift requires a scalar parameter space, got dim {dataset.dim_theta}")
        c, width = self.coordinate, math.inf
        for sid, i in enumerate(np.argsort(dataset.sim_ids)):  # in sim_id order, as the draws
            try:
                x = np.asarray(dataset.observations[i], dtype=float).ravel()
            except (TypeError, ValueError) as e:
                raise SimulationError(sid, f"DataShift needs a finite observation coordinate {c}: {e}") from e
            width = min(width, x.size)
            if x.size > c and not np.isfinite(x[c]):
                raise SimulationError(sid, f"DataShift needs a finite observation coordinate {c}, got {x[c]}")
        if c >= width:
            raise ValueError(f"observations have {width} coordinates, DataShift needs index {c}")

    def point(self, g: np.random.Generator, x, nmap: NormalizationMap) -> np.ndarray:
        u = g.uniform(-self.half_width, self.half_width) if self.half_width > 0 else 0.0
        return nmap.apply([np.asarray(x, dtype=float).ravel()[self.coordinate] + u])


ReferencePolicy = Union[UnitHypercubeUniform, PriorDraw, DataShift]


# --- rank statistics ----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RankTable:
    """Ranks as arrays, one row per (simulation, repeat), in sim_id order with
    repeats in order: ``k`` of the ``n`` ranked draws fall strictly below the
    truth, and ``f = k / n``. ``theta_r`` (rows, D) holds the DRP reference
    points and is None for HPD ranks. A table no engine makes raises ValueError."""

    sim_id: np.ndarray
    k: np.ndarray
    n: np.ndarray
    theta_r: Optional[np.ndarray] = None

    def __post_init__(self):
        sid, k, n = (np.asarray(a) for a in (self.sim_id, self.k, self.n))
        for name, value in (("sim_id", sid), ("k", k), ("n", n)):
            object.__setattr__(self, name, value)  # the arrays checked here are the ones kept
        rows = k.shape if self.theta_r is None else np.shape(self.theta_r)[:1]
        if not (k.ndim == 1 and k.size and sid.shape == n.shape == k.shape == rows
                and k.dtype.kind in "iu" and n.dtype.kind in "iu"):
            raise ValueError(f"sim_id {sid.shape}, k {k.shape} {k.dtype}, n {n.shape} {n.dtype} and theta_r "
                             f"{np.shape(self.theta_r)} are not one row per rank, >= 1, with integer counts")
        bad = np.flatnonzero((n < 1) | (k < 0) | (k > n))
        if bad.size:
            raise ValueError(f"row {bad[0]} has k {k[bad[0]]} of n {n[bad[0]]}, expected n >= 1 and 0 <= k <= n")

    @property
    def f(self) -> np.ndarray:
        return self.k / self.n


# --- curve assembly -------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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


def ecp_curve(ranks: RankTable, levels=None) -> CoverageCurve:
    """Assemble a coverage curve from the table alone: ecp(c) = #{f_i < c} / #ranks,
    a 3-sigma binomial band over the n_sims distinct sim_ids (repeats pool their
    ranks but do not shrink the band), n_post the common draw count (0 when
    counts differ), and method "drp" when the table holds reference points, else "hpd"."""
    levels = default_levels() if levels is None else np.asarray(levels, dtype=float).ravel()
    if levels.size == 0 or not ((levels >= 0) & (levels <= 1)).all():  # NaN fails too
        raise ValueError("levels must be a nonempty grid within [0, 1]")
    f = np.sort(ranks.f)
    ecp = np.searchsorted(f, levels, side="left") / f.size
    n_sims = 1 + np.count_nonzero(np.diff(np.sort(ranks.sim_id)))  # one plus the steps between sorted ids
    return CoverageCurve(levels=levels, ecp=ecp, band=binomial_band(levels, n_sims), n_sims=int(n_sims),
                         n_post=int(ranks.n[0]) if (ranks.n == ranks.n[0]).all() else 0,
                         method="hpd" if ranks.theta_r is None else "drp", ranks=ranks)


# --- the two tests ---------------------------------------------------------------

_POST_TAG = "posterior"
_REF_TAG = "reference"


@dataclass(frozen=True, eq=False)
class DrpSpec:
    """A DRP test for :func:`coverage_tests`; fields as in :func:`drp_test`."""

    policy: ReferencePolicy = UnitHypercubeUniform()
    weights: object = None
    bounds: object = None
    repeats: int = 1


@dataclass(frozen=True)
class HpdSpec:
    """An HPD test for :func:`coverage_tests`; needs sampler.log_density."""


def _drp_scorer(dataset: JointSampleSet, spec: DrpSpec, root: SeededRng):
    """``(score, refs)``: ``score(sid, x, rows)`` gives the (repeats, 1 + n)
    distances of the normalized ``rows`` to one reference point per repeat,
    drawn from substream ("reference", r, sid) on the simulation's first run and
    kept at ``refs[sid]``."""
    if not isinstance(spec.policy, ReferencePolicy):
        raise TypeError(f"unknown reference policy {type(spec.policy).__name__}")
    repeats = _check_int(spec.repeats, "repeats", 1)
    nmap = fit_normalization(dataset, spec.bounds, spec.weights)
    spec.policy.check(dataset)
    refs, drawn = np.empty((dataset.n_sims, repeats, nmap.dim)), np.zeros(dataset.n_sims, dtype=bool)

    def score(sid, x, rows):
        rows = nmap.apply(rows)
        if not drawn[sid]:
            refs[sid] = [spec.policy.point(root.substream(_REF_TAG, r, sid).generator(), x, nmap)
                         for r in range(repeats)]
            drawn[sid] = True
        return np.array([nmap.distances(rows, ref) for ref in refs[sid]])

    return score, refs


def coverage_tests(dataset: JointSampleSet, source, tests, *, n_post: Optional[int] = None,
                   seed: int = 0, on_draws=None) -> list:
    """Several coverage tests on one pass over the draws: one curve per spec in ``tests``
    on the default grid; ``ecp_curve(curve.ranks, levels)`` regrids one.

    ``source`` is a sampler (anything with a callable ``sample``), which gives
    each simulation n_post draws from a substream keyed by its sim_id, or draws
    made elsewhere, keyed by integer sim_ids: a mapping {sim_id: (n_i, D)
    array} or an iterable of (sim_id, (rows, D) array) runs, pulled one at a
    time so it can stream a large file (``fileio.read_posterior_runs``). Those
    bring their own counts, so they take no n_post, and HPD needs a sampler's
    log_density. A simulation may come in several runs, in any order; a key
    that is not an integer, or a sim_id outside the dataset, is refused when
    its run is reached, before it is scored.

    Each run's draws are checked, stacked below the truth, scored by every test
    (DRP: distances to one reference point per repeat, from another substream,
    after one normalization map; HPD: log densities), passed to ``on_draws(sim_id,
    draws)`` if given (in run order; sim_id order for a sampler), and dropped.
    A test's scores must be repeats x (1 + n) finite values, in any shape; each
    repeat's row adds its count of draws scoring strictly below the truth. Each curve
    is deterministic given the seed, invariant to simulation order, and the same
    as its drp_test or hpd_test call alone; dumped draws give the sampler's
    curve bit for bit.
    Every argument is checked before the first draw; errors in a run, and a
    simulation with no draws, raise SimulationError. Runs are serial.
    """
    tests = list(tests)
    if not tests:
        raise ValueError("tests must hold at least one DrpSpec or HpdSpec")
    sampled = callable(getattr(source, "sample", None))
    if sampled:
        _check_int(n_post, "n_post", 1)
    elif n_post is not None:
        raise ValueError("n_post applies to a sampler only; draws made elsewhere bring their own counts")
    root = SeededRng(seed)
    scorers = []  # (test name, score(sid, x, rows), the DRP reference points or None)
    for spec in tests:
        if not isinstance(spec, (DrpSpec, HpdSpec)):
            raise TypeError(f"unknown coverage test {type(spec).__name__}")
        if isinstance(spec, HpdSpec) and not callable(getattr(source, "log_density", None)):
            raise DensityUnavailableError(f"{type(source).__name__} does not expose log_density, required for the HPD test")
        scorers.append(("drp", *_drp_scorer(dataset, spec, root)) if isinstance(spec, DrpSpec)
                       else ("hpd", lambda sid, x, rows: source.log_density(rows, x), None))

    dim, n_sims, n = dataset.dim_theta, dataset.n_sims, np.zeros(dataset.n_sims, dtype=np.int64)
    counts = [np.zeros((n_sims, 1 if refs is None else refs.shape[1]), dtype=np.int64) for _, _, refs in scorers]
    index = np.argsort(dataset.sim_ids).tolist()  # sim_id -> dataset row
    runs = ((sid, None) for sid in range(n_sims)) if sampled else source  # a sampler draws each block
    for sid, block in runs.items() if isinstance(runs, Mapping) else runs:
        sid = _check_int(sid, "sim_id")
        if not 0 <= sid < n_sims:
            raise SimulationError(sid, f"not in the dataset of {n_sims} simulations")
        i = index[sid]
        x = dataset.observations[i]
        try:
            if sampled:
                block = source.sample(x, n_post, root.substream(_POST_TAG, sid))
            block = np.asarray(block, dtype=float)
            if block.ndim != 2 or block.shape[1] != dim or not block.shape[0] or sampled and len(block) != n_post:
                raise ValueError(f"draws have shape {block.shape}, expected ({n_post or 'n'}, {dim})")
            if not np.isfinite(block).all():
                raise ValueError("draws are not finite")
            rows = np.vstack((dataset.theta_true[i], block))  # the truth in row 0, the draws below
            for (name, score, _), k in zip(scorers, counts):
                scores = np.asarray(score(sid, x, rows), dtype=float)  # any shape of repeats x (1 + n) values
                if scores.size != k.shape[1] * len(rows):
                    raise ValueError(f"{name} test gave {scores.size} scores, expected {k.shape[1] * len(rows)}")
                if not np.isfinite(scores).all():
                    raise ValueError(f"{name} test gave non-finite scores")
                for r, row in enumerate(scores.reshape(k.shape[1], len(rows))):
                    k[sid, r] += np.count_nonzero(row[1:] < row[0])  # strict: ties do not count
            if on_draws is not None:
                on_draws(sid, rows[1:])
        except SimulationError:
            raise
        except Exception as e:
            raise SimulationError(sid, str(e)) from e
        n[sid] += len(block)
    if not n.all():
        raise SimulationError(int(np.argmin(n)), "no posterior samples")
    return [ecp_curve(RankTable(sim_id=np.arange(n_sims).repeat(k.shape[1]), k=k.ravel(), n=n.repeat(k.shape[1]),
                                theta_r=None if refs is None else refs.reshape(k.size, -1)))
            for (_, _, refs), k in zip(scorers, counts)]


def drp_test(dataset: JointSampleSet, source, *, n_post: Optional[int] = None,
             policy: ReferencePolicy = UnitHypercubeUniform(), weights=None,
             seed: int = 0, bounds=None, repeats: int = 1,
             on_draws=None) -> CoverageCurve:
    """Distance-to-random-point coverage test over a validation set, on a
    sampler's draws or on draws made elsewhere: the one-test case of
    :func:`coverage_tests`, which describes it."""
    return coverage_tests(dataset, source, [DrpSpec(policy, weights, bounds, repeats)],
                          n_post=n_post, seed=seed, on_draws=on_draws)[0]


def hpd_test(dataset: JointSampleSet, sampler, *, n_post: int,
             seed: int = 0, on_draws=None) -> CoverageCurve:
    """Highest-posterior-density coverage test; requires sampler.log_density. The
    one-test case of :func:`coverage_tests`, on the same draws as drp_test."""
    return coverage_tests(dataset, sampler, [HpdSpec()], n_post=n_post, seed=seed, on_draws=on_draws)[0]
