"""Tests for the Gaussian toy model and the conjugate/uninformative benchmark."""

import math

import numpy as np
import pytest
from scipy import stats

from drpkit.benchmarks import (
    TOY_CASES,
    ConjugateConfig,
    ToyConfig,
    UninformativeSampler,
    biased_mean,
    conjugate_datashift_policy,
    conjugate_posterior_params,
    conjugate_prior_policy,
    generate_conjugate,
    generate_toy,
    toy_prior_policy,
)
from drpkit.lensing import build_model, make_dataset
from drpkit.numerics import SeededRng, norm_isf

# Monte-Carlo-calibrated: KS of 5000 |N(0,1)| draws against the half-normal
# CDF has 99.9th percentile ~0.027; 0.03 is the CI threshold.
HALF_NORMAL_KS_THRESHOLD = 0.03


def ks_against(values, cdf):
    v = np.sort(np.asarray(values))
    c = cdf(v)
    i = np.arange(1, v.size + 1)
    return max((i / v.size - c).max(), (c - (i - 1) / v.size).max())


class TestBiasedMean:
    def test_midpoint_is_unbiased(self):
        # 1 - |2.5|/5 = 0.5 and Z(0.5) = 0
        out = biased_mean(np.array([2.5]), np.array([0.1]))
        assert out[0] == 2.5

    def test_unit_z_offset(self):
        # argument chosen so the inverse survival function is 1 (oracle check)
        theta = 5.0 * (1.0 - 0.1586553)
        assert norm_isf(0.1586553) == pytest.approx(1.0, abs=1e-5)
        out = biased_mean(np.array([theta]), np.array([0.1]))
        assert out[0] == pytest.approx(theta - 0.1, abs=1e-5 * 0.1 + 1e-12)

    def test_sign_flip(self):
        theta = -5.0 * (1.0 - 0.1586553)
        out = biased_mean(np.array([theta]), np.array([0.1]))
        assert out[0] == pytest.approx(theta + 0.1, abs=1e-5)

    def test_origin_rule(self):
        out = biased_mean(np.array([0.0]), np.array([0.5]))
        assert out[0] == 0.0
        assert np.isfinite(out[0])

    def test_clamped_near_boundary(self):
        # |theta| -> 5 drives the Z argument to the clamp, not to an infinity
        out = biased_mean(np.array([4.9999999999999]), np.array([1.0]))
        assert np.isfinite(out[0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            biased_mean(np.zeros(3), np.ones(2))


class TestGenerateToy:
    def test_shapes_and_reproducibility(self):
        config = ToyConfig(dim=4, n_sims=20)
        ds1, _ = generate_toy(config, seed=5)
        ds2, _ = generate_toy(config, seed=5)
        assert ds1.theta_true.shape == (20, 4)
        assert np.array_equal(ds1.theta_true, ds2.theta_true)
        sim = ds1.observations[3]
        assert sim.sigma.shape == (4,)
        assert np.all(sim.sigma > 0)

    def test_bounds_respected(self):
        config = ToyConfig(dim=3, n_sims=200)
        ds, _ = generate_toy(config, seed=1)
        assert np.all(np.abs(ds.theta_true) < 5.0)
        sigmas = np.stack([s.sigma for s in ds.observations])
        assert np.all((sigmas > 10.0**-5) & (sigmas < 10.0**-1))

    def test_cases_share_streams(self):
        # equal seeds give identical truths and noise scales in every case,
        # making case comparisons exactly paired
        base, _ = generate_toy(ToyConfig(dim=3, n_sims=15, case="correct"), seed=9)
        for case in ("overconfident", "underconfident", "biased"):
            other, _ = generate_toy(ToyConfig(dim=3, n_sims=15, case=case), seed=9)
            assert np.array_equal(base.theta_true, other.theta_true)
            assert all(np.array_equal(a.sigma, b.sigma)
                       for a, b in zip(base.observations, other.observations))

    def test_width_scalings(self):
        seed = 12
        correct, _ = generate_toy(ToyConfig(dim=2, n_sims=8, case="correct"), seed=seed)
        over, _ = generate_toy(ToyConfig(dim=2, n_sims=8, case="overconfident"), seed=seed)
        under, _ = generate_toy(ToyConfig(dim=2, n_sims=8, case="underconfident"), seed=seed)
        for c, o, u in zip(correct.observations, over.observations, under.observations):
            assert np.allclose(o.estimator_sigma, math.sqrt(0.5) * c.estimator_sigma)
            assert np.allclose(u.estimator_sigma, math.sqrt(2.0) * c.estimator_sigma)
            assert np.array_equal(o.estimator_mean, c.estimator_mean)

    def test_correct_case_residuals_standard_normal(self):
        ds, _ = generate_toy(ToyConfig(dim=10, n_sims=500, case="correct"), seed=3)
        res = np.concatenate([(s.estimator_mean - s.theta_true) / s.sigma
                              for s in ds.observations])
        assert ks_against(res, stats.norm.cdf) < 0.03

    def test_biased_case_half_normal_residuals(self):
        # |standardized residual| half-normal is what blinds the density test
        ds, _ = generate_toy(ToyConfig(dim=10, n_sims=500, case="biased"), seed=3)
        res = np.concatenate([np.abs(s.estimator_mean - s.theta_true) / s.sigma
                              for s in ds.observations])
        half_normal_cdf = lambda v: 2 * stats.norm.cdf(v) - 1
        assert ks_against(res, half_normal_cdf) < HALF_NORMAL_KS_THRESHOLD

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ToyConfig(case="wrong")
        with pytest.raises(ValueError):
            ToyConfig(n_sims=0)

    @pytest.mark.parametrize("field, value, message", [
        ("dim", 2.5, "dim must be an integer, got 2.5"), ("dim", True, "dim must be an integer, got True"),
        ("n_sims", 2.5, "n_sims must be an integer, got 2.5"), ("dim", 0, "dim must be >= 1, got 0"),
    ])
    def test_sizes_must_be_integers(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ToyConfig(**{field: value})
        assert ToyConfig(dim=np.int64(2), n_sims=np.int32(3)).dim == 2


class TestDiagonalGaussianSampler:
    def test_log_density_matches_scipy_up_to_constant(self):
        ds, sampler = generate_toy(ToyConfig(dim=3, n_sims=2), seed=8)
        x = ds.observations[0]
        pts = SeededRng(1).generator().standard_normal((5, 3)) * 1e-3 + x.estimator_mean
        mine = sampler.log_density(pts, x)
        ref = stats.norm.logpdf(pts, loc=x.estimator_mean, scale=x.estimator_sigma).sum(axis=1)
        diffs = mine - ref
        assert np.allclose(diffs, diffs[0], atol=1e-9)  # x-dependent constant only

    def test_sample_moments(self):
        ds, sampler = generate_toy(ToyConfig(dim=2, n_sims=1), seed=2)
        x = ds.observations[0]
        draws = sampler.sample(x, 40_000, SeededRng(7))
        assert np.allclose(draws.mean(axis=0), x.estimator_mean, atol=4 * x.estimator_sigma / 200)
        assert np.allclose(draws.std(axis=0), x.estimator_sigma, rtol=0.05)

    def test_prior_policy_in_box(self):
        policy = toy_prior_policy(ToyConfig(dim=6))
        draw = policy.draw(SeededRng(0).generator())
        assert draw.shape == (6,)
        assert np.all(np.abs(draw) <= 5)


class TestConjugatePosterior:
    def test_derived_arithmetic(self):
        # n_x = 50 observations summing to 5, defaults: variance 1/5001, mean 500/5001
        xs = np.full(50, 0.1)
        m, s = conjugate_posterior_params(xs)
        assert s == pytest.approx(1.0 / 5001.0, rel=1e-12)
        assert m == pytest.approx(500.0 / 5001.0, rel=1e-12)

    def test_prior_recovery_without_data(self):
        config = ConjugateConfig()
        m, s = conjugate_posterior_params(np.array([]))
        assert m == config.mu0
        assert s == config.sigma0**2

    def test_one_observation_known_answer(self):
        # mu0 = 0, sigma0 = 1, sigma_x = 0.1: variance 1/(1 + 100), mean 300/101
        m, s = conjugate_posterior_params(np.array([3.0]))
        assert s == pytest.approx(1.0 / 101.0, rel=1e-12)
        assert m == pytest.approx(300.0 / 101.0, rel=1e-12)

    def test_generate_shapes(self):
        config = ConjugateConfig(n_sims=30)
        ds, post = generate_conjugate(config, seed=4)
        assert ds.theta_true.shape == (30, 1)
        assert post.shape == (30, 2)
        assert all(obs.shape == (50,) for obs in ds.observations)

    def test_generate_params_match_recompute(self):
        config = ConjugateConfig(n_sims=10)
        ds, post = generate_conjugate(config, seed=4)
        for i in range(10):
            m, s = conjugate_posterior_params(ds.observations[i])
            assert post[i, 0] == m and post[i, 1] == s

    def test_observations_track_truth(self):
        config = ConjugateConfig(n_sims=200)
        ds, _ = generate_conjugate(config, seed=6)
        for i in range(0, 200, 20):
            xbar = ds.observations[i].mean()
            # sigma_x = 0.1 over 50 draws: standard error ~0.0141
            assert abs(xbar - ds.theta_true[i, 0]) < 5 * config.sigma_x / math.sqrt(50)

    @pytest.mark.parametrize("field, value, message", [
        ("n_sims", 2.5, "n_sims must be an integer, got 2.5"), ("n_sims", False, "n_sims must be an integer, got False"),
        ("n_sims", 0, "n_sims must be >= 1, got 0"),
    ])
    def test_sizes_must_be_integers(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ConjugateConfig(**{field: value})
        assert ConjugateConfig(n_sims=np.int64(3)).n_sims == 3


class TestUninformativeSampler:
    def test_prior_moments(self):
        config = ConjugateConfig()
        sampler = UninformativeSampler()
        draws = sampler.sample(np.zeros(50), 100_000, SeededRng(13))
        assert abs(draws.mean() - config.mu0) < 3 * config.sigma0 / math.sqrt(100_000)

    def test_ignores_observation(self):
        sampler = UninformativeSampler()
        a = sampler.sample(np.zeros(50), 10, SeededRng(2))
        b = sampler.sample(np.full(50, 9.9), 10, SeededRng(2))
        assert np.array_equal(a, b)

    def test_log_density_is_prior(self):
        config = ConjugateConfig()
        sampler = UninformativeSampler()
        pts = np.array([[-1.0], [0.0], [2.0]])
        mine = sampler.log_density(pts, None)
        ref = stats.norm.logpdf(pts[:, 0], loc=config.mu0, scale=config.sigma0)
        diffs = mine - ref
        assert np.allclose(diffs, diffs[0], atol=1e-12)

    def test_policies(self):
        prior = conjugate_prior_policy()
        assert prior.draw(SeededRng(0).generator()).shape == (1,)
        shift = conjugate_datashift_policy()
        assert shift.coordinate == 0 and shift.half_width == 1.0


# --- every synthetic set: simulation i comes from substream (tag, i) of the seed ----

def toy_arrays(case):
    def build(n_sims):
        ds, _ = generate_toy(ToyConfig(dim=3, n_sims=n_sims, case=case), seed=6)
        return ds.theta_true, [np.concatenate([s.theta_true, s.sigma, s.estimator_mean, s.estimator_sigma])
                               for s in ds.observations]
    return build


def conjugate_arrays(n_sims):
    ds, post = generate_conjugate(ConjugateConfig(n_sims=n_sims), seed=6)
    return ds.theta_true, ds.observations, post


def lensing_arrays(n_sims):
    model = build_model(source_side=4, obs_side=8, sigma_n=1.0, kernel_scale=0.35, seed=1)
    ds = make_dataset(model, n_sims, seed=6)
    return ds.theta_true, ds.observations


@pytest.mark.parametrize("build", [*map(toy_arrays, TOY_CASES), conjugate_arrays, lensing_arrays],
                         ids=[*TOY_CASES, "conjugate", "lensing"])
def test_more_simulations_keep_the_earlier_ones(build):
    n = 5
    for small, large in zip(build(n), build(n + 3)):
        assert len(small) == n and len(large) == n + 3
        assert np.asarray(small).tobytes() == np.asarray(large[:n]).tobytes()
