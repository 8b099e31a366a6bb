"""Tests for the coverage engines: normalization, reference policies, rank
statistics, curve assembly, and the two full tests with their region oracle."""

import re
import threading

import numpy as np
import pytest

from drpkit import fileio
from drpkit.benchmarks import ToySimulation
from drpkit.coverage import (
    DataShift,
    DensityUnavailableError,
    DrpSpec,
    HpdSpec,
    JointSampleSet,
    NormalizationError,
    NormalizationMap,
    PosteriorSampler,
    PriorDraw,
    RankTable,
    SimulationError,
    UnitHypercubeUniform,
    coverage_tests,
    default_levels,
    drp_test,
    ecp_curve,
    fit_normalization,
    hpd_test,
)
from drpkit.numerics import SeededRng, binomial_band, ks_uniform_statistic
from region_oracle import region_membership_ecp

# Monte-Carlo-calibrated null thresholds (99.9th percentile with margin):
# KS of 1e4 ranks against the discrete uniform on {0..n}/n is below 0.0272
# for n = 100; 0.03 is the CI threshold.
RANK_KS_THRESHOLD = 0.03


def make_dataset(thetas, observations=None, sim_ids=None):
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    n = thetas.shape[0]
    if observations is None:
        observations = tuple([None] * n)
    if sim_ids is None:
        sim_ids = np.arange(n)
    return JointSampleSet(theta_true=thetas, observations=tuple(observations), sim_ids=sim_ids)


class GaussianSampler(PosteriorSampler):
    """1-D estimator N(m(x), scale^2) with x = (meanomega) payload."""

    def __init__(self, scale=1.0):
        self.scale = scale

    def sample(self, x, n, rng):
        mean = 0.0 if x is None else float(x)
        return mean + self.scale * rng.generator().standard_normal((n, 1))

    def log_density(self, theta, x):
        mean = 0.0 if x is None else float(x)
        z = (np.atleast_2d(theta)[:, 0] - mean) / self.scale
        return -0.5 * z * z


class PointMassSampler(PosteriorSampler):
    """Degenerate estimator: every draw equals the truth carried in x."""

    def sample(self, x, n, rng):
        return np.tile(np.asarray(x, dtype=float), (n, 1))


class StoredSampler(PosteriorSampler):
    """Returns pre-stored draws keyed by the observation payload (an index)."""

    def __init__(self, draws, log_densities=None):
        self.draws = draws
        self._logd = log_densities

    def sample(self, x, n, rng):
        return self.draws[int(x)][:n]

    def log_density(self, theta, x):
        if self._logd is None:
            raise NotImplementedError
        return self._logd[int(x)](np.atleast_2d(theta))


class TestFitNormalization:
    def test_explicit_bounds_midpoint(self):
        ds = make_dataset([[0.0], [1.0]])
        nmap = fit_normalization(ds, explicit_bounds=(-5.0, 5.0))
        assert nmap.apply(np.array([0.0]))[0] == 0.5

    def test_empirical_max_maps_to_one(self):
        ds = make_dataset([[1.0], [3.0]])
        nmap = fit_normalization(ds)
        assert nmap.apply(np.array([3.0]))[0] == 1.0
        assert nmap.apply(np.array([1.0]))[0] == 0.0

    def test_affine_value(self):
        ds = make_dataset([[0.0], [1.0]])
        nmap = fit_normalization(ds, explicit_bounds=(-5.0, 5.0))
        assert nmap.apply(np.array([2.5]))[0] == 0.75

    def test_bounds_map_to_exact_endpoints(self):
        ds = make_dataset(np.random.default_rng(0).uniform(-3, 7, (20, 4)))
        nmap = fit_normalization(ds)
        lo = ds.theta_true.min(axis=0)
        hi = ds.theta_true.max(axis=0)
        assert np.array_equal(nmap.apply(lo), np.zeros(4))
        assert np.array_equal(nmap.apply(hi), np.ones(4))

    def test_degenerate_dimension_named(self):
        ds = make_dataset([[1.0, 2.0], [4.0, 2.0]])
        with pytest.raises(NormalizationError) as err:
            fit_normalization(ds)
        assert err.value.dimension == 1
        assert "dimension 1" in str(err.value)

    def test_bad_explicit_bounds(self):
        ds = make_dataset([[1.0], [2.0]])
        with pytest.raises(NormalizationError):
            fit_normalization(ds, explicit_bounds=(3.0, 3.0))

    @pytest.mark.parametrize("bounds, message", [
        ([(0.0, 1.0), (3.0, 3.0)], "dimension 1 has lo 3.0, hi 3.0"),
        ([(5.0, 3.0), (0.0, 1.0)], "dimension 0 has lo 5.0, hi 3.0"),
    ])
    def test_bad_bounds_name_the_dimension_and_its_lo_and_hi(self, bounds, message):
        with pytest.raises(NormalizationError, match=f"lo < hi; {message}$") as err:
            fit_normalization(make_dataset([[1.0, 1.0], [2.0, 2.0]]), explicit_bounds=bounds)
        assert err.value.dimension == int(message.split()[1])

    @pytest.mark.parametrize("offset, scale", [
        ([0.0, np.inf], [1.0, 1.0]), ([0.0, 0.0], [1.0, np.inf]), ([0.0, np.nan], [1.0, 1.0]),
        ([0.0, 0.0], [1.0, np.nan]),
    ])
    def test_map_requires_finite_offset_and_scale(self, offset, scale):
        with pytest.raises(NormalizationError, match="finite") as err:
            NormalizationMap(offset=np.array(offset), scale=np.array(scale))
        assert err.value.dimension == 1

    @pytest.mark.parametrize("bounds", [(0.0, np.inf), (-np.inf, np.inf), (-1e308, 1e308)])
    def test_infinite_explicit_bounds_rejected(self, bounds):
        with pytest.raises(NormalizationError, match="finite"):
            fit_normalization(make_dataset([[1.0], [2.0]]), explicit_bounds=bounds)


class TestSampleReference:
    """Each policy's ``check`` and ``point``, the two methods the DRP ranker calls."""

    def test_hypercube_range(self):
        nmap = NormalizationMap(offset=np.zeros(3), scale=np.ones(3))
        theta_r = UnitHypercubeUniform().point(SeededRng(5).generator(), None, nmap)
        assert theta_r.shape == (3,)
        assert np.all((theta_r >= 0) & (theta_r <= 1))

    def test_datashift_zero_width_exact(self):
        ds = make_dataset([[0.0], [1.0]])
        nmap = fit_normalization(ds)
        out = DataShift(0, 0.0).point(SeededRng(2).generator(), np.array([0.3]), nmap)
        assert out[0] == nmap.apply(np.array([0.3]))[0]

    def test_hypercube_uniformity(self):
        g = SeededRng(17).generator()
        nmap = NormalizationMap(offset=np.zeros(1), scale=np.ones(1))
        draws = np.array([UnitHypercubeUniform().point(g, None, nmap)[0] for _ in range(100_000)])
        assert ks_uniform_statistic(draws) < 0.01

    def test_prior_draw_is_normalized(self):
        ds = make_dataset([[0.0], [10.0]])
        nmap = fit_normalization(ds)
        policy = PriorDraw(draw=lambda g: np.array([5.0]))
        assert policy.point(SeededRng(0).generator(), None, nmap)[0] == 0.5

    def test_datashift_requires_scalar_theta(self):
        ds = make_dataset([[0.0, 0.0], [1.0, 1.0]], observations=(np.array([0.3]),) * 2)
        with pytest.raises(ValueError):
            DataShift(0, 1.0).check(ds)

    @pytest.mark.parametrize("coordinate, half_width, message", [
        (-1, 1.0, "coordinate"), (0, -0.5, "half_width"), (0, np.nan, "half_width"),
        (0, np.inf, "half_width"), (1.5, 1.0, "coordinate must be an integer, got 1.5"),
        (0.0, 1.0, "coordinate must be an integer, got 0.0"),
    ])
    def test_datashift_validation(self, coordinate, half_width, message):
        with pytest.raises(ValueError, match=message):
            DataShift(coordinate, half_width)

    def test_datashift_takes_numpy_integers(self):
        assert DataShift(np.int64(1), 0.5).coordinate == 1

    def test_unknown_policy_type_is_named_before_the_map_is_needed(self):
        with pytest.raises(TypeError, match="unknown reference policy str"):
            drp_test(make_dataset([[0.0], [1.0]]), {}, policy="bogus", bounds=(1.0, 0.0))  # bounds no map fits

    def test_datashift_missing_coordinate(self):
        ds = make_dataset([[0.0], [1.0]], observations=(np.array([0.3, 0.4]),) * 2)
        with pytest.raises(ValueError):
            DataShift(4, 1.0).check(ds)


def drp_ranks(truths, draws, ref, weights=None):
    """DRP ranks through drp_test: simulation i ranks its truth truths[i]
    against its draws draws[i], a mapping source, by distance to the fixed
    reference ``ref``; bounds (0, 1) map every point to itself."""
    curve = drp_test(make_dataset(truths), dict(enumerate(draws)), policy=PriorDraw(draw=lambda g: ref),
                     weights=weights, bounds=(0.0, 1.0))
    return curve.ranks.f


def hpd_ranks(truths, draws, log_density=lambda theta: theta[:, 0]):
    """HPD ranks through hpd_test: a StoredSampler gives simulation i the 1-D
    draws draws[i], and ``log_density`` scores its truth truths[i] and draws;
    by default each point is its own log density."""
    draws = np.asarray(draws, dtype=float)[..., None]
    sampler = StoredSampler(dict(enumerate(draws)), [log_density] * len(draws))
    ds = make_dataset(np.asarray(truths, dtype=float)[:, None], observations=range(len(draws)))
    return hpd_test(ds, sampler, n_post=draws.shape[1]).ranks.f


def discrete_uniform_ks(fs, n):
    """KS distance of ranks f = k / n from the discrete uniform CDF (k + 1) / (n + 1)."""
    ecdf_x = np.sort(fs)
    cdf = (np.round(ecdf_x * n) + 1) / (n + 1)
    i = np.arange(1, fs.size + 1)
    return max((i / fs.size - cdf).max(), (cdf - (i - 1) / fs.size).max())


class TestDrpRank:
    def test_counting(self):
        # 1-D: reference at origin, samples at distances .1/.5/.9, truth at .4
        f = drp_ranks([[0.4]], [np.array([[0.1], [0.5], [0.9]])], np.array([0.0]))
        assert f[0] == pytest.approx(1 / 3)

    def test_tie_rule(self):
        truth = np.array([0.3, 0.7])
        samples = np.tile(truth, (5, 1))
        assert drp_ranks([truth], [samples], np.array([0.0, 0.0]))[0] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(SimulationError, match=r"simulation 0: draws have shape \(3, 2\), expected \(n, 3\)"):
            drp_ranks([np.ones(3)], [np.ones((3, 2))], np.ones(3))
        with pytest.raises(SimulationError, match="simulation 0: prior draw has dimension 2, expected 3"):
            drp_ranks([np.ones(3)], [np.ones((3, 3))], np.ones(2))

    def test_weighted_metric_changes_order(self):
        # truth beats the sample on axis 0, loses on axis 1
        samples = np.array([[0.5, 0.0]])
        truth = np.array([0.0, 0.5])
        ref = np.zeros(2)
        heavy0 = np.array([100.0, 1.0])
        heavy1 = np.array([1.0, 100.0])
        assert drp_ranks([truth], [samples], ref, heavy0)[0] == 0.0  # sample farther
        assert drp_ranks([truth], [samples], ref, heavy1)[0] == 1.0  # sample closer

    @pytest.mark.parametrize("weights", [[1.0, 0.0], [1.0, -2.0], [1.0, np.inf], [np.nan, 1.0], []])
    def test_weights_must_be_positive_and_finite(self, weights):
        with pytest.raises(ValueError, match="positive and finite"):
            NormalizationMap(offset=np.zeros(2), scale=np.ones(2), weights=np.array(weights))

    def test_rank_quantization(self):
        g = SeededRng(3).generator()
        samples = g.standard_normal((17, 2))
        f = drp_ranks([g.standard_normal(2)], [samples], g.standard_normal(2))[0]
        assert (f * 17) == pytest.approx(round(f * 17), abs=1e-12)

    def test_non_finite_distance_names_the_simulation(self):
        with pytest.raises(SimulationError, match="^simulation 0: drp test gave non-finite scores$"):
            drp_ranks([[0.4]], [np.array([[0.1]])], np.array([np.inf]))

    def test_uniform_for_exchangeable_draws(self):
        # truth and samples i.i.d. from the same distribution: rank uniform on
        # {0, 1/n, ..., 1}; KS against the discrete CDF (k+1)/(n+1)
        g = SeededRng(21).generator()
        n, trials = 100, 10_000
        draws = g.standard_normal((trials, n + 1))
        fs = drp_ranks(draws[:, :1], draws[:, 1:, None], np.array([2.0]))
        assert discrete_uniform_ks(fs, n) < RANK_KS_THRESHOLD


class TestHpdRank:
    def test_counting(self):
        assert hpd_ranks([0.25], [[0.1, 0.3, 0.2]])[0] == pytest.approx(2 / 3)

    def test_log_scale_allows_negatives(self):
        assert hpd_ranks([-5.0], [[-10.0, -1.0]])[0] == 0.5

    def test_tie_rule(self):
        assert hpd_ranks([-1.0], [[-1.0, -1.0, -2.0]])[0] == pytest.approx(1 / 3)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_densities_must_be_finite(self, bad):
        with pytest.raises(SimulationError, match="^simulation 1: hpd test gave non-finite scores$"):
            hpd_ranks([0.0, 0.0], [[1.0, 2.0], [1.0, 3.0]],
                      log_density=lambda theta: np.where(theta[:, 0] == 3.0, bad, theta[:, 0]))

    def test_one_log_density_per_row(self):
        with pytest.raises(SimulationError, match="^simulation 0: hpd test gave 1 scores, expected 3$"):
            hpd_ranks([0.0], [[1.0, 2.0]], log_density=lambda theta: theta[:1, 0])

    def test_uniform_for_matched_estimator(self):
        g = SeededRng(33).generator()
        n, trials = 100, 10_000
        draws = g.standard_normal((trials, n + 1))
        fs = hpd_ranks(draws[:, 0], draws[:, 1:], log_density=lambda theta: -0.5 * theta[:, 0] ** 2)
        assert discrete_uniform_ks(fs, n) < RANK_KS_THRESHOLD


def ranks_from(k, n):
    """An HPD-style table of counts k out of n draws, one simulation per count."""
    k = np.asarray(k, dtype=np.int64)
    return RankTable(sim_id=np.arange(k.size), k=k, n=np.full(k.size, n, dtype=np.int64))


class TestEcpCurve:
    def test_counting(self):
        curve = ecp_curve(ranks_from([2, 6, 9], 10), levels=[0.5])
        assert curve.ecp[0] == pytest.approx(1 / 3)

    def test_full_level_counts_everything_below_one(self):
        curve = ecp_curve(ranks_from([2, 6, 9], 10), levels=[1.0])
        assert curve.ecp[0] == 1.0

    def test_zero_level(self):
        curve = ecp_curve(ranks_from([0, 5], 10), levels=[0.0])
        assert curve.ecp[0] == 0.0

    def test_monotone_nondecreasing(self):
        g = SeededRng(8).generator()
        for _ in range(20):
            curve = ecp_curve(ranks_from(g.uniform(size=37) * 2**53, 2**53))
            assert np.all(np.diff(curve.ecp) >= 0)

    def test_uniform_ranks_hug_diagonal(self):
        g = SeededRng(4).generator()
        curve = ecp_curve(ranks_from(g.uniform(size=500) * 2**53, 2**53))
        assert curve.in_band_fraction() >= 0.99

    def test_ranks_regenerate_ecp(self):
        g = SeededRng(9).generator()
        curve = ecp_curve(ranks_from(g.uniform(size=64) * 2**53, 2**53))
        f = np.sort(curve.ranks.f)
        regen = np.searchsorted(f, curve.levels, side="left") / f.size
        assert np.array_equal(regen, curve.ecp)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ecp_curve(ranks_from([], 10))

    @pytest.mark.parametrize("fields, message", [
        (dict(sim_id=[0], k=[5], n=[2]), "row 0 has k 5 of n 2, expected n >= 1 and 0 <= k <= n"),
        (dict(sim_id=[0, 1], k=[0, -1], n=[3, 3]), "row 1 has k -1 of n 3"),
        (dict(sim_id=[0, 1], k=[0, 0], n=[3, 0]), "row 1 has k 0 of n 0"),
        (dict(sim_id=[0, 1], k=[1], n=[2]), "sim_id (2,), k (1,) int64, n (1,) int64 and theta_r ()"),
        (dict(sim_id=[0], k=[1], n=[2, 2]), "n (2,) int64"),
        (dict(sim_id=[0], k=[1.0], n=[2]), "k (1,) float64"),
        (dict(sim_id=[0], k=[1], n=[True]), "n (1,) bool"),
        (dict(sim_id=[[0]], k=[[1]], n=[[2]]), "k (1, 1) int64"),
        (dict(sim_id=0, k=1, n=2), "k () int64"),
        (dict(sim_id=np.arange(0), k=np.arange(0), n=np.arange(0)), "k (0,) int64"),
        (dict(sim_id=[0], k=[1], n=[2], theta_r=np.zeros((2, 3))), "theta_r (2, 3) are not one row per rank"),
    ])
    def test_tables_no_engine_makes_are_refused(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RankTable(**fields)

    def test_default_grid(self):
        levels = default_levels()
        assert levels.size == 101
        assert levels[0] == 0.0 and levels[-1] == 1.0
        assert np.array_equal(levels, np.arange(101) / 100.0)

    @pytest.mark.parametrize("levels", [[2.0], [], [np.nan, 0.5]])
    def test_bad_levels_refused(self, levels):
        with pytest.raises(ValueError, match="levels must be a nonempty grid within"):
            ecp_curve(ranks_from([2, 6, 9], 10), levels=levels)

    @pytest.mark.parametrize("test", ["drp_test", "hpd_test", "coverage_tests"])
    def test_engine_curves_are_on_the_default_grid(self, test):
        # the engine takes no levels; ecp_curve(curve.ranks, levels) regrids its curve
        ds, sampler = optimal_gaussian_setup(12, seed=8), GaussianSampler()
        run = {"drp_test": lambda **kw: drp_test(ds, sampler, n_post=9, seed=3, **kw),
               "hpd_test": lambda **kw: hpd_test(ds, sampler, n_post=9, seed=3, **kw),
               "coverage_tests": lambda **kw: coverage_tests(ds, sampler, [HpdSpec()], n_post=9, seed=3, **kw)[0]}[test]
        with pytest.raises(TypeError, match="levels"):
            run(levels=[0.5])
        curve = run()
        assert np.array_equal(curve.levels, default_levels())
        regrid = ecp_curve(curve.ranks, [0.25, 0.5, 0.9])
        assert np.array_equal(regrid.ecp, curve.ecp[[25, 50, 90]])
        assert (regrid.n_sims, regrid.n_post, regrid.method) == (curve.n_sims, curve.n_post, curve.method)

    def test_exact_fractions(self):
        g = SeededRng(10).generator()
        f = g.uniform(size=100_000)
        assert np.array_equal(ranks_from(f * 2**53, 2**53).f, f)

    def test_list_fields_are_kept_as_the_arrays_checked(self):
        lists = RankTable(sim_id=[1, 0, 1], k=[1, 2, 3], n=[5, 5, 6])
        arrays = RankTable(sim_id=np.array([1, 0, 1]), k=np.array([1, 2, 3]), n=np.array([5, 5, 6]))
        assert all(isinstance(getattr(lists, name), np.ndarray) for name in ("sim_id", "k", "n"))
        assert np.array_equal(lists.f, arrays.f)
        a, b = ecp_curve(lists), ecp_curve(arrays)
        assert np.array_equal(a.ecp, b.ecp) and np.array_equal(a.band, b.band)
        assert (a.n_sims, a.n_post, a.method) == (b.n_sims, b.n_post, b.method)

    def test_table_gives_n_sims_n_post_and_method(self):
        hpd = ecp_curve(ranks_from([2, 6, 9], 10))
        assert (hpd.n_sims, hpd.n_post, hpd.method) == (3, 10, "hpd")
        drp = ecp_curve(RankTable(sim_id=np.array([1, 0, 1, 0]), k=np.array([1, 2, 3, 4]),
                                  n=np.array([5, 5, 6, 6]), theta_r=np.zeros((4, 1))))
        assert (drp.n_sims, drp.n_post, drp.method) == (2, 0, "drp")
        assert np.array_equal(drp.band, binomial_band(drp.levels, 2))

    def test_max_sigma_deviation(self):
        levels = np.array([0.0, 0.5, 1.0])
        ranks = ranks_from([1] * 64, 10)  # ecp jumps to 1 above 0.1
        curve = ecp_curve(ranks, levels=levels)
        sigma = np.sqrt(0.25 / 64)
        assert curve.max_sigma_deviation() == pytest.approx(0.5 / sigma)


def optimal_gaussian_setup(n_sims, seed):
    """1-D pairs (truth, x) where x is the posterior mean and the posterior is
    N(x, 1): truth = x + z with z standard normal."""
    g = SeededRng(seed).generator()
    means = g.uniform(-3, 3, n_sims)
    truths = means + g.standard_normal(n_sims)
    return make_dataset(truths[:, None], observations=tuple(means))


class TestDrpTest:
    def test_reference_points_are_drawn_once_per_simulation(self, tmp_path, monkeypatch):
        # a chunk of 40 characters splits each simulation's rows into several runs
        ds, n_post, repeats = optimal_gaussian_setup(6, seed=5), 9, 2
        calls = []

        def prior(g):
            calls.append(1)
            return g.normal(size=1)

        spec = DrpSpec(PriorDraw(draw=prior), bounds=(-5.0, 5.0), repeats=repeats)
        with fileio.posterior_writer(tmp_path / "post.csv") as write:
            sampled = coverage_tests(ds, GaussianSampler(), [spec], n_post=n_post, seed=3, on_draws=write)[0]
        monkeypatch.setattr(fileio, "_CHUNK_CHARS", 40)
        runs = list(fileio.read_posterior_runs(tmp_path / "post.csv"))
        assert len(runs) > 2 * ds.n_sims
        calls.clear()
        read = coverage_tests(ds, iter(runs), [spec], seed=3)[0]
        assert len(calls) == ds.n_sims * repeats
        assert np.array_equal(read.ranks.theta_r, sampled.ranks.theta_r)
        assert np.array_equal(read.ranks.k, sampled.ranks.k)

    def test_point_mass_estimator(self):
        truths = np.linspace(-1, 1, 20)[:, None]
        ds = make_dataset(truths, observations=tuple(truths))
        curve = drp_test(ds, PointMassSampler(), n_post=10, seed=3)
        assert curve.ecp[0] == 0.0
        assert np.all(curve.ecp[curve.levels > 0] == 1.0)

    def test_optimal_estimator_in_band(self):
        ds = optimal_gaussian_setup(400, seed=51)
        curve = drp_test(ds, GaussianSampler(), n_post=300, seed=52)
        assert curve.in_band_fraction() >= 0.99

    def test_full_credibility_endpoint(self):
        # ecp(1) counts ranks strictly below 1; it reaches exactly 1 whenever
        # no simulation has every sample beating the truth, and drops by
        # exactly the saturated-rank fraction otherwise. Simulation i puts
        # on_ref[i] of its 10 draws on the reference and the rest far from it.
        def curve_of(on_ref):
            draws = {i: np.where(np.arange(10) < k, 0.0, 1.0)[:, None] for i, k in enumerate(on_ref)}
            return drp_test(make_dataset(np.full((len(on_ref), 1), 0.5)), draws,
                            policy=PriorDraw(draw=lambda g: np.zeros(1)), bounds=(0.0, 1.0))

        curve = curve_of([0, 3, 9, 5, 1, 7])
        assert curve.ranks.f.max() < 1.0
        assert curve.ecp[-1] == 1.0
        curve = curve_of([10, 0, 10, 4, 7])
        saturated = np.mean(curve.ranks.f == 1.0)
        assert saturated > 0
        assert curve.ecp[-1] == 1.0 - saturated

    def test_deterministic(self):
        ds = optimal_gaussian_setup(50, seed=1)
        a = drp_test(ds, GaussianSampler(), n_post=40, seed=9)
        b = drp_test(ds, GaussianSampler(), n_post=40, seed=9)
        assert np.array_equal(a.ecp, b.ecp)
        assert np.array_equal(a.ranks.f, b.ranks.f)
        assert np.array_equal(a.ranks.theta_r, b.ranks.theta_r)

    def test_order_independence(self):
        ds = optimal_gaussian_setup(50, seed=2)
        perm = SeededRng(0).generator().permutation(50)
        a = drp_test(ds, GaussianSampler(), n_post=40, seed=9)
        b = drp_test(ds.permuted(perm), GaussianSampler(), n_post=40, seed=9)
        assert np.array_equal(a.ecp, b.ecp)
        assert np.array_equal(a.ranks.sim_id, b.ranks.sim_id)
        assert np.array_equal(a.ranks.f, b.ranks.f)

    def test_scheduling_invariance(self, monkeypatch):
        # simulations run one after another: a stale DRPKIT_THREADS changes
        # nothing, and every sampler, ranker and on_draws call is on this thread
        calls = []

        class Recording(GaussianSampler):
            def sample(self, x, n, rng):
                calls.append(("sample", threading.get_ident()))
                return super().sample(x, n, rng)

            def log_density(self, theta, x):
                calls.append(("log_density", threading.get_ident()))
                return super().log_density(theta, x)

        def prior(g):
            calls.append(("reference", threading.get_ident()))
            return g.normal(size=1)

        ds = optimal_gaussian_setup(40, seed=3)
        specs = [DrpSpec(), DrpSpec(policy=PriorDraw(draw=prior)), HpdSpec()]

        def run():
            calls.clear()
            return coverage_tests(ds, Recording(), specs, n_post=30, seed=5,
                                  on_draws=lambda sid, draws: calls.append(("on_draws", threading.get_ident())))

        monkeypatch.delenv("DRPKIT_THREADS", raising=False)
        serial = run()
        monkeypatch.setenv("DRPKIT_THREADS", "3")
        stale = run()
        assert {ident for _, ident in calls} == {threading.get_ident()}
        assert sorted(kind for kind, _ in calls) == sorted(["sample", "reference", "log_density", "on_draws"] * 40)
        for a, b in zip(serial, stale):
            assert a.ecp.tobytes() == b.ecp.tobytes()
            assert a.ranks.k.tobytes() == b.ranks.k.tobytes()
            assert (a.ranks.theta_r is None) == (b.ranks.theta_r is None)
            assert a.ranks.theta_r is None or a.ranks.theta_r.tobytes() == b.ranks.theta_r.tobytes()

    def test_metric_invariance_for_optimal(self):
        g = SeededRng(77).generator()
        means = g.uniform(-2, 2, (300, 3))
        truths = means + g.standard_normal((300, 3))

        class Diag3(PosteriorSampler):
            def sample(self, x, n, rng):
                return x + rng.generator().standard_normal((n, 3))

        ds = make_dataset(truths, observations=tuple(means))
        for weights in (None, np.array([1.0, 7.0, 0.3])):
            curve = drp_test(ds, Diag3(), n_post=200, seed=10, weights=weights)
            assert curve.in_band_fraction() >= 0.99

    def test_repeats_pool_ranks(self):
        ds = optimal_gaussian_setup(30, seed=4)
        curve = drp_test(ds, GaussianSampler(), n_post=20, seed=6, repeats=3)
        assert curve.ranks.f.size == 90
        assert curve.n_sims == 30
        f = np.sort(curve.ranks.f)
        assert np.array_equal(curve.ecp, np.searchsorted(f, curve.levels, side="left") / 90)

    @pytest.mark.parametrize("policy, dim", [
        (UnitHypercubeUniform(), 3), (PriorDraw(draw=lambda g: g.normal(size=3)), 3), (DataShift(1, 0.5), 1),
    ])
    def test_each_reference_point_comes_from_its_stream(self, policy, dim):
        # row (sid, r) of theta_r is policy.point on substream ("reference", r, sid), for every repeat
        g = np.random.default_rng(12)
        ds = make_dataset(g.normal(size=(7, dim)), observations=tuple(g.normal(size=(7, 2))))
        ds = ds.permuted([3, 6, 0, 5, 1, 4, 2])
        draws = {sid: g.normal(size=(4, dim)) for sid in range(7)}
        curve = drp_test(ds, draws, policy=policy, seed=9, repeats=3)
        nmap, x = fit_normalization(ds), dict(zip(ds.sim_ids.tolist(), ds.observations))
        truth = dict(zip(ds.sim_ids.tolist(), ds.theta_true))
        for row, (sid, r) in enumerate(np.ndindex(7, 3)):
            expected = policy.point(SeededRng(9).substream("reference", r, sid).generator(), x[sid], nmap)
            assert curve.ranks.sim_id[row] == sid
            assert curve.ranks.theta_r[row].tobytes() == expected.tobytes()
            # and k counts the draws strictly closer than the truth to that repeat's point
            dist = np.linalg.norm(nmap.apply(draws[sid]) - expected, axis=1)
            assert curve.ranks.k[row] == np.sum(dist < np.linalg.norm(nmap.apply(truth[sid]) - expected))

    def test_sampler_error_carries_sim_id(self):
        class Broken(PosteriorSampler):
            def sample(self, x, n, rng):
                raise RuntimeError("boom")

        ds = optimal_gaussian_setup(3, seed=5)
        with pytest.raises(SimulationError, match="simulation 0"):
            drp_test(ds, Broken(), n_post=5, seed=1)

    def test_no_simulation_starts_after_a_failing_one(self):
        asked = []

        class BrokenAtThree(PosteriorSampler):
            def sample(self, x, n, rng):
                asked.append(x)
                if x == 3:
                    raise RuntimeError("boom")
                return np.full((n, 1), float(x))

        ds = make_dataset(np.arange(8.0)[:, None], observations=range(8))  # x is the sim_id
        with pytest.raises(SimulationError, match="^simulation 3: boom$") as err:
            drp_test(ds, BrokenAtThree(), n_post=5)
        assert err.value.sim_id == 3
        assert asked == [0, 1, 2, 3]

    def test_precomputed_matches_live(self):
        ds = optimal_gaussian_setup(25, seed=6)
        sampler = GaussianSampler()
        live = drp_test(ds, sampler, n_post=15, seed=42)
        root = SeededRng(42)
        draws = {int(sid): sampler.sample(ds.observations[i], 15, root.substream("posterior", int(sid)))
                 for i, sid in enumerate(ds.sim_ids)}
        pre = drp_test(ds, draws, seed=42)
        assert np.array_equal(live.ecp, pre.ecp)
        assert pre.n_post == 15

    def test_precomputed_names_the_missing_simulation(self):
        ds = optimal_gaussian_setup(5, seed=6)
        draws = {s: np.zeros((4, 1)) for s in (0, 1, 2, 4)}
        with pytest.raises(SimulationError) as err:
            drp_test(ds, draws, seed=42)
        assert str(err.value) == "simulation 3: no posterior samples"
        assert err.value.sim_id == 3


class TestDrawSources:
    def test_a_generator_of_specs_gives_every_curve(self):
        ds = optimal_gaussian_setup(10, seed=6)
        as_list = coverage_tests(ds, GaussianSampler(), [DrpSpec(), HpdSpec()], n_post=5)
        curves = coverage_tests(ds, GaussianSampler(), (s for s in [DrpSpec(), HpdSpec()]), n_post=5)
        assert [c.method for c in curves] == ["drp", "hpd"]
        assert all(np.array_equal(c.ecp, ref.ecp) for c, ref in zip(curves, as_list))

    def test_draws_from_elsewhere_take_no_n_post(self):
        ds = optimal_gaussian_setup(4, seed=6)
        with pytest.raises(ValueError, match="n_post"):
            drp_test(ds, {s: np.zeros((5, 1)) for s in range(4)}, n_post=5)

    def test_a_sampler_needs_n_post(self):
        ds = optimal_gaussian_setup(4, seed=6)
        with pytest.raises(ValueError, match="n_post"):
            drp_test(ds, GaussianSampler())

    @pytest.mark.parametrize("bad", [np.zeros((5, 2)), np.zeros((0, 1)), np.zeros(5), np.full((5, 1), np.nan)])
    def test_both_sources_check_draws_alike(self, bad):
        draws = {s: np.zeros((5, 1)) for s in range(4)}
        draws[2] = bad
        ds = make_dataset(np.arange(4.0)[:, None], observations=range(4))  # StoredSampler keys by x
        for source, n_post in ((StoredSampler(draws), 5), (draws, None)):
            with pytest.raises(SimulationError, match="simulation 2: draws"):
                drp_test(ds, source, n_post=n_post)

    def test_a_sampler_gives_n_post_draws(self):
        ds = make_dataset(np.arange(4.0)[:, None], observations=range(4))
        with pytest.raises(SimulationError, match=r"simulation 0: draws have shape \(5, 1\), expected \(6, 1\)"):
            drp_test(ds, StoredSampler({s: np.zeros((5, 1)) for s in range(4)}), n_post=6)

    def test_runs_are_pulled_one_at_a_time(self):
        ds = optimal_gaussian_setup(5, seed=6)
        events = []

        def runs():
            for s in range(5):
                events.append(("pull", s))
                yield s, np.zeros((4, 1))

        drp_test(ds, runs(), on_draws=lambda sid, draws: events.append(("draws", sid)))
        assert events == [(event, s) for s in range(5) for event in ("pull", "draws")]

    @pytest.mark.parametrize("key", [0.7, "a", True, None])
    def test_a_key_that_is_not_an_integer_is_refused_when_reached(self, key):
        ds = optimal_gaussian_setup(4, seed=6)
        block, seen = np.zeros((5, 1)), []
        runs = [(0, block), (key, block), *((s, block) for s in range(1, 4))]
        with pytest.raises(ValueError, match=re.escape(f"sim_id must be an integer, got {key!r}")):
            drp_test(ds, runs, on_draws=lambda sid, draws: seen.append(sid))
        assert seen == [0]

    @pytest.mark.parametrize("as_dict", [True, False])
    @pytest.mark.parametrize("sid", [2, 5, -1])
    def test_a_sim_id_outside_the_dataset_is_refused_before_it_is_scored(self, as_dict, sid):
        ds = make_dataset([[0.2], [0.7]])
        runs = [(sid, np.full((3, 1), np.nan)), (0, np.full((3, 1), 0.1)), (1, np.full((3, 1), 0.9))]
        seen = []
        with pytest.raises(SimulationError, match=rf"^simulation {sid}: not in the dataset of 2 simulations$"):
            drp_test(ds, dict(runs) if as_dict else iter(runs), bounds=(0, 1),
                     on_draws=lambda s, draws: seen.append(s))
        assert seen == []

    def test_a_float_key_is_not_added_to_simulation_0(self):
        ds = optimal_gaussian_setup(4, seed=6)
        draws = {s: np.zeros((5, 1)) for s in range(4)}
        with pytest.raises(ValueError, match=r"sim_id must be an integer, got 0\.7"):
            drp_test(ds, {**draws, 0.7: np.zeros((5, 1))})

    def test_numpy_integer_keys_are_sim_ids(self):
        ds = optimal_gaussian_setup(4, seed=6)
        g = SeededRng(6).generator()
        draws = {s: g.normal(size=(5, 1)) for s in range(4)}
        numpy_keyed = drp_test(ds, {np.int64(s): block for s, block in draws.items()}, seed=1)
        ref = drp_test(ds, draws, seed=1)
        assert numpy_keyed.ecp.tobytes() == ref.ecp.tobytes()
        assert numpy_keyed.ranks.theta_r.tobytes() == ref.ranks.theta_r.tobytes()

    def test_hpd_on_draws_fails_before_a_draw_is_read(self):
        ds = optimal_gaussian_setup(4, seed=6)
        read = []

        def runs():
            for s in range(4):
                read.append(s)
                yield s, np.zeros((5, 1))

        with pytest.raises(DensityUnavailableError):
            coverage_tests(ds, runs(), [DrpSpec(), HpdSpec()])
        assert read == []


class TestSpecChecks:
    """A spec that cannot fit the dataset is refused before the first draw."""

    @pytest.mark.parametrize("spec, message", [
        (DrpSpec(weights=np.ones(2)), "metric has 2 weights, parameters have dimension 3"),
        (DrpSpec(weights=np.array([1.0, 0.0, 1.0])), "weights must be positive and finite in every dimension"),
        (DrpSpec(policy=DataShift(coordinate=0, half_width=1.0)), "DataShift requires a scalar parameter space"),
    ])
    def test_refused_before_any_sample(self, spec, message):
        self.assert_refused(ValueError, message, [spec])

    def test_unknown_policy_type_refused_before_any_sample(self):
        self.assert_refused(TypeError, "unknown reference policy str", [DrpSpec(policy="bogus")])

    x = np.array([1.0])

    @pytest.mark.parametrize("payloads, sim_ids, message", [
        ((x, None, x, x), range(4), "simulation 1: DataShift needs a finite observation coordinate 0, got nan"),
        ((None,) * 4, range(4), "simulation 0: DataShift needs a finite observation coordinate 0, got nan"),
        ((x, x, "abc", x), range(4), "simulation 2: DataShift needs a finite observation coordinate 0: "
                                    "could not convert string to float: 'abc'"),
        ((x, None, x, np.array([np.inf])), (3, 2, 0, 1), "simulation 1: .* got inf"),  # sim_id order, not row order
    ])
    def test_datashift_refuses_an_observation_without_a_finite_coordinate(self, payloads, sim_ids, message):
        class Untouchable(PosteriorSampler):
            def sample(self, x, n, rng):
                raise AssertionError("sample called")

        ds = make_dataset(np.arange(4.0)[:, None], observations=payloads, sim_ids=np.array(sim_ids))
        with pytest.raises(SimulationError, match=message):
            drp_test(ds, Untouchable(), n_post=5, policy=DataShift(0, 1.0))

    @staticmethod
    def assert_refused(error, message, specs, **kwargs):
        class Untouchable(PosteriorSampler):
            def sample(self, x, n, rng):
                raise AssertionError("sample called")

            def log_density(self, theta, x):
                raise AssertionError("log_density called")

        ds = make_dataset(np.arange(12.0).reshape(4, 3), observations=tuple(range(4)))
        with pytest.raises(error, match=message) as err:
            coverage_tests(ds, Untouchable(), specs, n_post=5, **kwargs)
        assert "simulation" not in str(err.value)


class TestHpdTest:
    def test_requires_density(self):
        ds = optimal_gaussian_setup(5, seed=7)
        with pytest.raises(DensityUnavailableError):
            hpd_test(ds, PointMassSampler(), n_post=5)

    def test_on_draws_sees_the_draws_drp_test_ranks(self):
        ds = optimal_gaussian_setup(12, seed=8)
        seen = {"drp": {}, "hpd": {}}
        drp_test(ds, GaussianSampler(), n_post=9, seed=3, on_draws=seen["drp"].__setitem__)
        hpd_test(ds, GaussianSampler(), n_post=9, seed=3, on_draws=seen["hpd"].__setitem__)
        assert sorted(seen["hpd"]) == list(range(12))
        assert all(np.array_equal(seen["hpd"][s], seen["drp"][s]) for s in range(12))

    def test_one_log_density_call_per_simulation(self):
        rows = []

        class Counting(GaussianSampler):
            def log_density(self, theta, x):
                rows.append(len(theta))
                return super().log_density(theta, x)

        ds = optimal_gaussian_setup(12, seed=9)
        hpd_test(ds, Counting(), n_post=7, seed=2)
        assert rows == [8] * 12  # the truth and its 7 draws, scored together

    def test_optimal_estimator_in_band(self):
        ds = optimal_gaussian_setup(400, seed=53)
        curve = hpd_test(ds, GaussianSampler(), n_post=300, seed=54)
        assert curve.in_band_fraction() >= 0.99
        assert curve.method == "hpd"


class TestUnderOverconfidentSignatures:
    def test_underconfident_mid_mass(self):
        # estimator twice too wide in std: ranks pile toward 1/2 and the curve
        # sits above the diagonal just past mid-level
        ds = optimal_gaussian_setup(500, seed=61)
        wide = drp_test(ds, GaussianSampler(scale=2.0), n_post=300, seed=62)
        correct = drp_test(ds, GaussianSampler(scale=1.0), n_post=300, seed=62)
        mid = lambda c: np.mean((c.ranks.f >= 0.4) & (c.ranks.f <= 0.6))
        assert mid(wide) > mid(correct)
        at = np.searchsorted(correct.levels, 0.6)
        assert wide.ecp[at] > wide.levels[at]

    def test_overconfident_tail_mass(self):
        ds = optimal_gaussian_setup(500, seed=63)
        narrow = drp_test(ds, GaussianSampler(scale=0.5), n_post=300, seed=64)
        correct = drp_test(ds, GaussianSampler(scale=1.0), n_post=300, seed=64)
        tails = lambda c: np.mean((c.ranks.f <= 0.1) | (c.ranks.f >= 0.9))
        assert tails(narrow) > tails(correct)


class TestRegionMembershipOracle:
    def test_agrees_with_rank_path_drp(self):
        master = SeededRng(1001)
        for trial in range(10):
            g = master.substream("case", trial).generator()
            n_sims = int(g.integers(5, 60))
            n_post = int(g.integers(2, 400))
            ds = optimal_gaussian_setup(n_sims, seed=2000 + trial)
            sampler = GaussianSampler()
            levels = default_levels()
            curve = drp_test(ds, sampler, n_post=n_post, seed=3000 + trial)
            oracle = region_membership_ecp(ds, sampler, method="drp", n_post=n_post,
                                           seed=3000 + trial, levels=levels)
            assert np.max(np.abs(curve.ecp - oracle)) <= 1.0 / n_post + 1e-12

    def test_agrees_with_rank_path_hpd(self):
        master = SeededRng(1002)
        for trial in range(10):
            g = master.substream("case", trial).generator()
            n_sims = int(g.integers(5, 60))
            n_post = int(g.integers(2, 400))
            ds = optimal_gaussian_setup(n_sims, seed=4000 + trial)
            sampler = GaussianSampler()
            levels = default_levels()
            curve = hpd_test(ds, sampler, n_post=n_post, seed=5000 + trial)
            oracle = region_membership_ecp(ds, sampler, method="hpd", n_post=n_post,
                                           seed=5000 + trial, levels=levels)
            assert np.max(np.abs(curve.ecp - oracle)) <= 1.0 / n_post + 1e-12

    def test_single_sample_exact(self):
        ds = optimal_gaussian_setup(40, seed=8)
        sampler = GaussianSampler()
        curve = drp_test(ds, sampler, n_post=1, seed=11)
        oracle = region_membership_ecp(ds, sampler, method="drp", n_post=1, seed=11)
        assert np.array_equal(curve.ecp, oracle)

    def test_three_simulation_two_thirds(self):
        # three 1-D sims built so the truth ranks at f = {0.5, 0.6, 0.9}:
        # coverage at the 68% level is 2/3 by both computations
        n = 10
        draws = {}
        logd = {}
        truths = []
        for sim, f_target in enumerate((0.5, 0.6, 0.9)):
            pts = np.linspace(0.1, 1.0, n)[:, None]  # distances from 0
            draws[sim] = pts
            k = int(f_target * n)
            truths.append(pts[k, 0] - 0.05 if k < n else 1.05)
            logd[sim] = None
        sampler = StoredSampler(draws)
        ds = make_dataset(np.array(truths)[:, None], observations=(0, 1, 2))
        zero_ref = PriorDraw(draw=lambda g: np.zeros(1))
        curve = drp_test(ds, sampler, n_post=n, seed=0, policy=zero_ref, bounds=(0.0, 1.0))
        oracle = region_membership_ecp(ds, sampler, method="drp", n_post=n, seed=0,
                                       policy=zero_ref, bounds=(0.0, 1.0), levels=[0.68])
        assert ecp_curve(curve.ranks, [0.68]).ecp[0] == pytest.approx(2 / 3)
        assert oracle[0] == pytest.approx(2 / 3)

    def test_size_limits(self):
        ds = optimal_gaussian_setup(5, seed=9)
        with pytest.raises(ValueError):
            region_membership_ecp(ds, GaussianSampler(), method="drp", n_post=2000, seed=0)


class TestJointSampleSet:
    def test_validates_sim_ids(self):
        with pytest.raises(ValueError):
            JointSampleSet(theta_true=np.zeros((3, 1)), observations=(None,) * 3,
                           sim_ids=np.array([0, 1, 3]))

    @pytest.mark.parametrize("sim_ids, dtype", [([0.0, 1.0], "float64"), (np.array([True, False]), "bool"),
                                                (np.array([0, 1], dtype=object), "object")])
    def test_sim_ids_must_be_integers(self, sim_ids, dtype):
        with pytest.raises(ValueError) as err:
            JointSampleSet(theta_true=np.zeros((2, 1)), observations=(None,) * 2, sim_ids=sim_ids)
        assert str(err.value) == f"sim_ids must be integers, got {dtype}"

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            make_dataset([[np.nan], [0.0]])

    def test_permuted_round_trip(self):
        ds = optimal_gaussian_setup(10, seed=10)
        perm = np.arange(10)[::-1]
        back = ds.permuted(perm).permuted(perm)
        assert np.array_equal(back.theta_true, ds.theta_true)
        assert np.array_equal(back.sim_ids, ds.sim_ids)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: NormalizationMap(np.zeros(2), np.ones(2), weights=np.ones(2)), id="NormalizationMap"),
    pytest.param(lambda: DrpSpec(weights=np.ones(2)), id="DrpSpec"),
    pytest.param(lambda: ranks_from([1, 2], 4), id="RankTable"),
    pytest.param(lambda: ecp_curve(ranks_from([1, 2], 4)), id="CoverageCurve"),
    pytest.param(lambda: make_dataset([[0.0], [1.0]]), id="JointSampleSet"),
    pytest.param(lambda: ToySimulation(np.zeros(2), np.ones(2), np.zeros(2), np.ones(2)), id="ToySimulation"),
])
def test_array_holding_dataclasses_compare_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert a in [b, a] and a not in [b]
    assert {a: 1, b: 2}[a] == 1  # hashable
