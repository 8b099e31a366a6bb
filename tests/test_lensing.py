"""Tests for the linear-Gaussian benchmark: operator/prior construction, the
noise schedule, the dense reference scores of lensing_oracle against finite
differences of independently built log-densities, the reverse-SDE sampler's law
against the Euler-Maruyama moments of those scores and against the conjugate
oracle."""

import ast
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from drpkit.coverage import drp_test
from drpkit import lensing
from drpkit.lensing import (
    SCORE_KINDS,
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
    make_dataset,
    simulate,
)
from drpkit.numerics import SeededRng, cholesky
from lensing_oracle import likelihood_score, prior_score


def small_model(seed=0, kernel_scale=0.35, sigma_n=1.0):
    return build_model(source_side=4, obs_side=8, sigma_n=sigma_n,
                       kernel_scale=kernel_scale, seed=seed)


# --- independent dense-path log densities for finite differencing ----------------

def dense_prior_logpdf(model, schedule, theta, t):
    cov = model.prior_cov + schedule.sigma(t) ** 2 * np.eye(model.dim_theta)
    return stats.multivariate_normal.logpdf(theta, mean=model.prior_mean, cov=cov)


def dense_likelihood_logpdf(model, schedule, kind, theta, x, t):
    A = model.operator
    s2 = schedule.sigma(t) ** 2
    if kind == "biased":
        mean = A @ theta
        cov = model.sigma_n**2 * np.eye(model.dim_x) + s2 * (A @ A.T)
    else:
        prior_prec = np.linalg.inv(model.prior_cov)
        sig_c = np.linalg.inv(prior_prec + np.eye(model.dim_theta) / s2)
        mean = A @ (sig_c @ (theta / s2 + prior_prec @ model.prior_mean))
        cov = model.sigma_n**2 * np.eye(model.dim_x) + A @ sig_c @ A.T
    return stats.multivariate_normal.logpdf(x, mean=mean, cov=cov)


def central_difference(fn, theta, h=1e-5):
    grad = np.empty_like(theta)
    for d in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[d] += h
        dn[d] -= h
        grad[d] = (fn(up) - fn(dn)) / (2 * h)
    return grad


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class ScriptedNormals:
    """Generator stand-in: returns the given first block, then zero blocks."""

    def __init__(self, first):
        self.first = first

    def standard_normal(self, size):
        block, self.first = self.first, None
        return np.zeros(size) if block is None else block


def sampled_law(model, schedule, kind, x):
    """Mean and covariance of the sampler's draws, read off by feeding it
    a zero normal row (the mean) and the identity rows (the covariance's root)."""
    d = model.dim_theta
    sampler = DiffusionPosteriorSampler(model, schedule, kind)
    mean = sampler.sample(x, 1, ScriptedNormals(np.zeros((1, d))))[0]
    spread = sampler.sample(x, d, ScriptedNormals(np.eye(d))) - mean
    return mean, spread.T @ spread


def reference_step(model, schedule, kind, x, t, h, mean, cov):
    """One Euler-Maruyama step of the moments, built only from the reference
    scores: the drift is affine in theta, drift(0) + theta J, so the mean moves
    by h drift(mean) and the covariance becomes (I + hJ)^T C (I + hJ) + h I."""
    def drift(theta):
        return prior_score(model, schedule, theta, t) + likelihood_score(model, schedule, kind, theta, x, t)

    eye = np.eye(model.dim_theta)
    jump = eye + h * (drift(eye) - drift(np.zeros(model.dim_theta)))
    return mean + h * drift(mean), jump.T @ cov @ jump + h * eye


def reference_law(model, schedule, kind, x):
    """Moments of the chain from N(mu_0, Sigma_0 + sigma_max^2 I) down the
    uniform reverse grid t_k = 1 - k dt with h = dt g^2(t_k)."""
    mean = model.prior_mean
    cov = model.prior_cov + schedule.sigma_max**2 * np.eye(model.dim_theta)
    dt = 1.0 / schedule.steps
    for k in range(schedule.steps):
        t = 1.0 - k * dt
        mean, cov = reference_step(model, schedule, kind, x, t, dt * schedule.g_squared(t), mean, cov)
    return mean, cov


def pixelwise_operator(dim_theta, dim_x, seed):
    """build_operator's matrix, before its rank check, from a per-pixel numpy
    loop: the reference the float-only warp must equal bit for bit."""
    def boundary_distance(center, direction):
        # distance from center to the unit-box boundary along a unit direction
        tb = math.inf
        for c, d in zip(center, direction):
            if d > 0:
                tb = min(tb, (1.0 - c) / d)
            elif d < 0:
                tb = min(tb, c / -d)
        return tb

    s_side, o_side = math.isqrt(dim_theta), math.isqrt(dim_x)
    g = SeededRng(seed).substream(lensing._OPERATOR_TAG).generator()
    center = np.asarray(lensing._WARP_CENTER) + g.uniform(-lensing._WARP_CENTER_JITTER,
                                                          lensing._WARP_CENTER_JITTER, 2)
    A = np.zeros((dim_x, dim_theta))
    for oi in range(o_side):
        for oj in range(o_side):
            u = np.array([oi / (o_side - 1), oj / (o_side - 1)])
            w = u - center
            r = math.hypot(w[0], w[1])
            if r == 0.0:
                src = center.copy()
            else:
                direction = w / r
                tb = boundary_distance(center, direction)
                rho = min(r / tb, 1.0)
                src = center + direction * tb * rho**lensing._WARP_POWER
            src = np.clip(src, 0.0, 1.0) * (s_side - 1)
            i0 = min(int(src[0]), s_side - 2)
            j0 = min(int(src[1]), s_side - 2)
            fi, fj = src[0] - i0, src[1] - j0
            row = oi * o_side + oj
            for di, wi in ((0, 1 - fi), (1, fi)):
                for dj, wj in ((0, 1 - fj), (1, fj)):
                    A[row, (i0 + di) * s_side + j0 + dj] += wi * wj
    return A


def stepwise_chain_law(model, schedule, kind):
    """_chain_law's (offset, gain, scale) from the plain recursion: five D x D
    products per biased step, and every moment checked after every step."""
    dt = 1.0 / schedule.steps
    ratio = schedule.sigma_max / schedule.sigma_min
    s2 = ((schedule.sigma_min * ratio ** (1.0 - dt * np.arange(schedule.steps))) ** 2)[:, None]
    h = dt * (2.0 * s2 * math.log(ratio))
    lam, mu0, dim = model._lam, model._mu0_eig, model.dim_theta
    init = lam + schedule.sigma_max**2

    def check(k, *moments):
        if not all(np.isfinite(m).all() for m in moments):
            raise DivergenceError(f"{kind} reverse SDE diverged at step {k}", step=k)

    if kind == "exact":
        V, post_var = model._V, model._post_var
        keep = 1.0 - h / (post_var + s2)
        p, q = np.ones(dim), np.zeros(dim)
        for k in range(schedule.steps):
            p, q = p * keep[k], keep[k] ** 2 * q + h[k]
            check(k, p * p * init.max() + q)
        cov = (p[:, None] * (V.T * init) @ V) * p + np.diag(q)
        offset = p * (mu0 @ V) + (1.0 - p) * model._posterior_mean_v(np.zeros(model.dim_x))
        gain, basis = V * ((1.0 - p) * post_var / model.sigma_n**2), model._UV
    else:
        W, gam = model._gram_v, model._gram_l
        keep = 1.0 - h / (lam + s2)
        rate = h / (model.sigma_n**2 + s2 * gam)
        cov, gain, offset = np.diag(init), np.zeros((dim, dim)), np.zeros(dim)
        for k in range(schedule.steps):
            M = (W * (-gam * rate[k])) @ W.T + np.diag(keep[k])
            cov = M @ cov @ M + h[k] * np.eye(dim)
            gain = gain @ M + (W * rate[k]) @ W.T
            offset = offset @ M - (rate[k] * gam * (mu0 @ W)) @ W.T
            check(k, cov, gain, offset)
        offset, basis = offset + mu0, model._U
    L = cholesky(0.5 * (cov + cov.T))
    return offset @ basis.T, model._B @ gain @ basis.T, basis @ L


def assert_law_matches_stepwise(model, schedule, kind):
    # the exact law repeats the recursion's arithmetic; the biased law is
    # carried in the Gram eigenbasis, so it agrees to rounding
    offset, gain, scale = lensing._chain_law(model, schedule, kind)
    ref_offset, ref_gain, ref_scale = stepwise_chain_law(model, schedule, kind)
    if kind == "exact":
        assert offset.tobytes() == ref_offset.tobytes()
        assert scale.tobytes() == ref_scale.tobytes()
        assert gain.tobytes() == ref_gain.tobytes()
    else:
        assert np.abs(offset - ref_offset).max() <= 1e-11 * np.abs(ref_offset).max()
        assert np.abs(scale - ref_scale).max() <= 1e-11 * np.abs(ref_scale).max()
        assert np.abs(gain - ref_gain).max() <= 1e-12 * np.abs(ref_gain).max()


def divergence_step(law, model, schedule, kind):
    """The step a DivergenceError names, checked against its message, or None."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            law(model, schedule, kind)
    except DivergenceError as err:
        assert str(err) == f"{kind} reverse SDE diverged at step {err.step}"
        return err.step
    return None


class TestVeSchedule:
    def test_endpoints(self):
        sched = VeSchedule()
        assert sched.sigma(0.0) == 0.01
        assert sched.sigma(1.0) == pytest.approx(100.0, rel=1e-12)

    def test_geometric_midpoint(self):
        assert VeSchedule().sigma(0.5) == pytest.approx(1.0, rel=1e-12)

    def test_monotone(self):
        sched = VeSchedule()
        vals = [sched.sigma(t) for t in np.linspace(0, 1, 101)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            VeSchedule().sigma(1.5)
        with pytest.raises(ValueError):
            VeSchedule().sigma(-0.1)
        with pytest.raises(ValueError):
            VeSchedule().sigma(math.nan)

    def test_arrays_match_scalar_calls(self):
        sched = VeSchedule(sigma_min=0.003, sigma_max=70.0)
        t = np.linspace(0.0, 1.0, 37)
        for method in (sched.sigma, sched.g_squared):
            assert method(t).shape == t.shape
            assert method(t) == pytest.approx([method(float(v)) for v in t], rel=1e-14)

    @pytest.mark.parametrize("bad", [1.5, -0.1, math.nan])
    @pytest.mark.parametrize("method", ["sigma", "g_squared"])
    def test_arrays_outside_the_domain_are_refused(self, method, bad):
        with pytest.raises(ValueError, match=r"t must be in \[0, 1\]"):
            getattr(VeSchedule(), method)(np.array([0.0, 0.5, bad]))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            VeSchedule(sigma_min=1.0, sigma_max=0.5)
        with pytest.raises(ValueError):
            VeSchedule(steps=0)

    def test_steps_must_be_an_integer(self):
        for steps in (1.5, 3.0, True):
            with pytest.raises(ValueError, match=f"steps must be an integer, got {steps!r}"):
                VeSchedule(steps=steps)
        assert VeSchedule(steps=np.int64(3)).steps == 3

    def test_sigma_max_must_be_finite(self):
        with pytest.raises(ValueError, match=r"sigma_max < inf, got \(0.01, inf\)"):
            VeSchedule(sigma_max=math.inf)

    def test_g_squared_is_variance_rate(self):
        # finite-difference oracle on sigma_t^2
        sched = VeSchedule()
        h = 1e-7
        for t in (0.2, 0.5, 0.8):
            fd = (sched.sigma(t + h) ** 2 - sched.sigma(t - h) ** 2) / (2 * h)
            assert sched.g_squared(t) == pytest.approx(fd, rel=1e-5)


class TestBuildOperator:
    def test_row_sums_are_one(self):
        A = build_operator(64, 256, seed=0)
        assert np.allclose(A.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(A >= 0)
        assert np.all((A > 0).sum(axis=1) <= 4)

    def test_full_rank_and_conditioning(self):
        A = build_operator(64, 256, seed=0)
        sv = np.linalg.svd(A, compute_uv=False)
        assert sv[-1] > 0
        assert sv[0] / sv[-1] < 1e4

    def test_deterministic_per_seed(self):
        assert np.array_equal(build_operator(16, 64, seed=3), build_operator(16, 64, seed=3))
        assert not np.array_equal(build_operator(16, 64, seed=3), build_operator(16, 64, seed=4))

    @pytest.mark.parametrize("dims", [(16, 64), (64, 256), (256, 1024), (64, 100)])
    def test_matches_pixelwise_reference(self, dims):
        for seed in range(8):
            assert build_operator(*dims, seed=seed).tobytes() == pixelwise_operator(*dims, seed).tobytes()

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            build_operator(64, 16)
        with pytest.raises(ValueError):
            build_operator(60, 240)


class TestBuildPrior:
    def test_symmetric(self):
        _, cov = build_prior(64, kernel_scale=0.3, seed=0)
        assert np.array_equal(cov, cov.T)

    def test_tiny_scale_is_near_identity(self):
        _, cov = build_prior(16, kernel_scale=1e-6, seed=0)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() < 1e-8
        assert np.allclose(np.diag(cov), 1.0 + 1e-4, atol=1e-12)

    def test_large_grid_positive_definite(self):
        mu0, cov = build_prior(256, kernel_scale=0.3, seed=0)
        LensingModel(np.eye(256), 1.0, mu0, cov)  # construction runs Cholesky

    def test_model_raises_its_cholesky_failure_as_prior_error(self):
        with pytest.raises(PriorError, match="prior covariance is not positive definite"):
            LensingModel(np.eye(2), 1.0, np.zeros(2), [[1.0, 2.0], [2.0, 1.0]])

    def test_build_model_factors_the_prior_once(self, monkeypatch):
        factored = []
        monkeypatch.setattr(lensing, "cholesky", lambda m: factored.append(m) or cholesky(m))
        model = build_model(source_side=4, obs_side=8)
        assert len(factored) == 1 and model.prior_chol.tobytes() == cholesky(model.prior_cov).tobytes()

    def test_mean_is_smooth_bump(self):
        mu0, _ = build_prior(64, kernel_scale=0.3, seed=0)
        assert mu0.max() > 1.0
        assert np.all(mu0 >= 0)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            build_prior(64, kernel_scale=0.0)
        for scale in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"kernel_scale must be finite and positive, got {scale}"):
                build_prior(64, kernel_scale=scale)


class TestSimulate:
    def test_residual_noise_scale(self):
        model = small_model(seed=2)
        root = SeededRng(17)
        resid = []
        for i in range(10_000):
            theta, x = simulate(model, root.substream("sim", i))
            resid.append(x - model.operator @ theta)
        stds = np.stack(resid).std(axis=0)
        assert np.all(np.abs(stds - model.sigma_n) < 0.03 * model.sigma_n)

    def test_prior_covariance_recovered(self):
        model = small_model(seed=2)
        root = SeededRng(23)
        thetas = np.stack([simulate(model, root.substream("sim", i))[0] for i in range(10_000)])
        emp = np.cov(thetas.T)
        assert rel_err(emp, model.prior_cov) < 0.10

    def test_make_dataset(self):
        model = small_model()
        ds = make_dataset(model, 12, seed=3)
        assert ds.n_sims == 12 and ds.dim_theta == 16
        ds2 = make_dataset(model, 12, seed=3)
        assert np.array_equal(ds.theta_true, ds2.theta_true)

    def test_make_dataset_needs_an_integer_count(self):
        model = small_model()
        for n_sims in (2.5, True):
            with pytest.raises(ValueError, match=f"n_sims must be an integer, got {n_sims!r}"):
                make_dataset(model, n_sims)
        assert make_dataset(model, np.int64(2)).n_sims == 2

    @pytest.mark.parametrize("sigma_n", [math.nan, math.inf, -1.0, 0.0])
    def test_non_finite_or_negative_noise_is_refused(self, sigma_n):
        # the law and the conjugate posterior divide by sigma_n, so a noiseless model is refused
        with pytest.raises(ValueError, match=f"sigma_n must be finite and positive, got {sigma_n}"):
            small_model(sigma_n=sigma_n)


def test_dense_oracle_uses_no_private_name():
    # the reference scores must stay independent of the eigenbases they check
    # (_U, _V, _gram_v, _posterior_mean_v, ...): no attribute or imported name
    # of lensing_oracle.py may start with an underscore
    path = os.path.join(os.path.dirname(__file__), "lensing_oracle.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    private = [f"{node.lineno}: .{node.attr}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr.startswith("_")]
    private += [f"{node.lineno}: import {alias.name}" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_region_oracle_uses_no_engine_path():
    # criterion 08 and TestRegionMembershipOracle check the engine's normalization,
    # distances and ranks, so region_oracle.py may not import or reach them
    engine = {"distances", "fit_normalization", "coverage_tests", "drp_test", "hpd_test", "ecp_curve"}
    path = os.path.join(os.path.dirname(__file__), "region_oracle.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    used = [f"{node.lineno}: import {alias.name}" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name in engine or alias.name.startswith("_")]
    used += [f"{node.lineno}: .{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in engine]
    assert used == []


class TestPriorScore:
    def test_zero_at_mean(self):
        model = small_model()
        out = prior_score(model, VeSchedule(), model.prior_mean, 0.5)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        model = small_model(seed=4)
        sched = VeSchedule()
        g = SeededRng(31).generator()
        for t in (0.0, 0.5, 1.0):
            theta = model.prior_mean + g.standard_normal(model.dim_theta)
            fd = central_difference(lambda v: dense_prior_logpdf(model, sched, v, t), theta)
            assert rel_err(prior_score(model, sched, theta, t), fd) < 1e-5

    def test_dominant_noise_limit(self):
        # the first-order correction to the pure-noise score is bounded by
        # lam_max(Sigma_0)/sigma_max^2; with sigma_max = 1e4 that is
        # lam_max * 1e-8 (the prior diagonal is 1 + 1e-4, so lam_max >= 1)
        model = small_model()
        sched = VeSchedule(sigma_max=1e4)
        g = SeededRng(37).generator()
        lam_max = np.linalg.eigvalsh(model.prior_cov).max()
        theta = model.prior_mean + g.standard_normal(model.dim_theta)
        expect = -(theta - model.prior_mean) / sched.sigma(1.0) ** 2
        assert rel_err(prior_score(model, sched, theta, 1.0), expect) < lam_max * 1e-8
        # at sigma_max = 1e5 the stated 1e-8 holds outright
        wider = VeSchedule(sigma_max=1e5)
        expect = -(theta - model.prior_mean) / wider.sigma(1.0) ** 2
        assert rel_err(prior_score(model, wider, theta, 1.0), expect) < 1e-8

    def test_batched_matches_single(self):
        model = small_model()
        sched = VeSchedule()
        g = SeededRng(41).generator()
        thetas = g.standard_normal((3, model.dim_theta))
        batch = prior_score(model, sched, thetas, 0.3)
        for i in range(3):
            assert np.allclose(batch[i], prior_score(model, sched, thetas[i], 0.3))


class TestLikelihoodScore:
    def test_zero_time_limit_shared(self):
        model = small_model(seed=5)
        sched = VeSchedule()
        g = SeededRng(43).generator()
        theta = g.standard_normal(model.dim_theta)
        x = g.standard_normal(model.dim_x)
        exact = likelihood_score(model, sched, "exact", theta, x, 0.0)
        biased = likelihood_score(model, sched, "biased", theta, x, 0.0)
        expect = model.operator.T @ (x - model.operator @ theta) / model.sigma_n**2
        assert np.array_equal(exact, biased)
        assert np.allclose(exact, expect, rtol=1e-12)

    def test_small_noise_agreement(self):
        # sigma_t(1e-4) must be far below the prior's smallest eigenvalue for
        # the convolution-free approximation to collapse onto the exact form
        model = small_model(seed=5)
        sched = VeSchedule(sigma_min=1e-6)
        g = SeededRng(47).generator()
        theta = model.prior_mean + g.standard_normal(model.dim_theta)
        x = g.standard_normal(model.dim_x)
        exact = likelihood_score(model, sched, "exact", theta, x, 1e-4)
        biased = likelihood_score(model, sched, "biased", theta, x, 1e-4)
        assert rel_err(exact, biased) < 1e-6

    def test_kinds_differ_at_mid_time(self):
        model = small_model(seed=5)
        sched = VeSchedule()
        g = SeededRng(53).generator()
        theta = model.prior_mean + g.standard_normal(model.dim_theta)
        x = g.standard_normal(model.dim_x)
        exact = likelihood_score(model, sched, "exact", theta, x, 0.5)
        biased = likelihood_score(model, sched, "biased", theta, x, 0.5)
        assert rel_err(biased, exact) > 1e-3

    @pytest.mark.parametrize("kind", ["exact", "biased"])
    def test_matches_finite_differences(self, kind):
        model = small_model(seed=6)
        sched = VeSchedule()
        g = SeededRng(59).generator()
        for t in (0.2, 0.5, 0.9):
            theta = model.prior_mean + g.standard_normal(model.dim_theta)
            x = model.operator @ theta + g.standard_normal(model.dim_x)
            fd = central_difference(
                lambda v: dense_likelihood_logpdf(model, sched, kind, v, x, t), theta)
            mine = likelihood_score(model, sched, kind, theta, x, t)
            assert rel_err(mine, fd) < 1e-5

    def test_reduces_to_zero_mean_form_when_prior_centered(self):
        # with mu_0 = 0 the exact score equals the convolution formula without
        # any prior-mean term: sigma_t^-2 Sigma_c A^T C^-1 (x - A theta_c)
        _, cov = build_prior(16, kernel_scale=0.35, seed=7)
        A = build_operator(16, 64, seed=7)
        model = LensingModel(A, 1.0, np.zeros(16), cov)
        sched = VeSchedule()
        g = SeededRng(61).generator()
        theta = g.standard_normal(16)
        x = g.standard_normal(64)
        t = 0.4
        s2 = sched.sigma(t) ** 2
        sig_c = np.linalg.inv(np.linalg.inv(cov) + np.eye(16) / s2)
        theta_c = sig_c @ theta / s2
        C = np.eye(64) + A @ sig_c @ A.T
        expect = (sig_c / s2) @ A.T @ np.linalg.solve(C, x - A @ theta_c)
        mine = likelihood_score(model, sched, "exact", theta, x, t)
        assert rel_err(mine, expect) < 1e-10

    def test_posterior_score_consistency_at_zero_time(self):
        # prior + exact likelihood at t -> 0 equals the gradient of the
        # un-noised log posterior; needs sigma_min small so the prior-score
        # inflation Sigma_0 + sigma_min^2 I is negligible
        model = small_model(seed=8)
        sched = VeSchedule(sigma_min=1e-8)
        g = SeededRng(67).generator()
        theta = model.prior_mean + g.standard_normal(model.dim_theta)
        x = model.operator @ theta + g.standard_normal(model.dim_x)
        mine = prior_score(model, sched, theta, 0.0) + likelihood_score(model, sched, "exact", theta, x, 0.0)
        expect = (-np.linalg.solve(model.prior_cov, theta - model.prior_mean)
                  + model.operator.T @ (x - model.operator @ theta) / model.sigma_n**2)
        assert rel_err(mine, expect) < 1e-5

    def test_validation(self):
        model = small_model()
        sched = VeSchedule()
        with pytest.raises(ValueError):
            likelihood_score(model, sched, "wrong", np.zeros(16), np.zeros(64), 0.5)
        with pytest.raises(ValueError):
            likelihood_score(model, sched, "exact", np.zeros(15), np.zeros(64), 0.5)


class TestConjugatePosterior:
    def test_identity_model(self):
        model = LensingModel(np.eye(4), 1.0, np.zeros(4), np.eye(4))
        x = np.array([1.0, -2.0, 0.5, 3.0])
        mean, cov = conjugate_posterior(model, x)
        assert np.allclose(cov, 0.5 * np.eye(4), atol=1e-12)
        assert np.allclose(mean, x / 2, atol=1e-12)

    def test_prior_recovery_at_huge_noise(self):
        model = small_model(sigma_n=1e6)
        x = np.zeros(model.dim_x)
        mean, cov = conjugate_posterior(model, x)
        assert rel_err(cov, model.prior_cov) < 1e-6
        assert np.allclose(mean, model.prior_mean, atol=1e-4)

    def test_gradient_vanishes_at_mean(self):
        model = small_model(seed=9)
        g = SeededRng(71).generator()
        theta, x = simulate(model, SeededRng(72))
        mean, _ = conjugate_posterior(model, x)
        grad = (-np.linalg.solve(model.prior_cov, mean - model.prior_mean)
                + model.operator.T @ (x - model.operator @ mean) / model.sigma_n**2)
        assert np.linalg.norm(grad) < 1e-8 * (1 + np.linalg.norm(x))

    @pytest.mark.parametrize("side", [8, 16])
    def test_matches_dense_solve(self, side):
        model = build_model(source_side=side, obs_side=2 * side, seed=side)
        x = simulate(model, SeededRng(75))[1]
        precision = (np.linalg.inv(model.prior_cov)
                     + model.operator.T @ model.operator / model.sigma_n**2)
        rhs = (np.linalg.solve(model.prior_cov, model.prior_mean)
               + model.operator.T @ x / model.sigma_n**2)
        mean, cov = conjugate_posterior(model, x)
        assert rel_err(mean, np.linalg.solve(precision, rhs)) < 1e-10
        assert rel_err(cov, np.linalg.solve(precision, np.eye(model.dim_theta))) < 1e-10
        assert np.array_equal(cov, cov.T)


class TestRsdeSampler:
    def test_shapes_and_determinism(self):
        model = small_model(seed=10)
        sched = VeSchedule(steps=40)
        x = simulate(model, SeededRng(3))[1]
        sampler = DiffusionPosteriorSampler(model, sched, "exact")
        a = sampler.sample(x, 5, SeededRng(4))
        b = sampler.sample(x, 5, SeededRng(4))
        assert a.shape == (5, model.dim_theta)
        assert np.array_equal(a, b)
        single = sampler.sample(x, 1, SeededRng(4))
        assert single.shape == (1, model.dim_theta)

    def test_uninformative_likelihood_limit(self):
        # huge observation noise: the posterior collapses to the prior
        model = small_model(seed=11, sigma_n=1e6)
        sched = VeSchedule()
        x = np.zeros(model.dim_x)
        draws = DiffusionPosteriorSampler(model, sched, "exact").sample(x, 2000, SeededRng(5))
        se = draws.std(axis=0) / math.sqrt(2000)
        assert np.all(np.abs(draws.mean(axis=0) - model.prior_mean) < 3.5 * se)

    def test_exact_matches_conjugate_oracle(self):
        model = small_model(seed=12)
        sched = VeSchedule()
        theta, x = simulate(model, SeededRng(6))
        mean, cov = conjugate_posterior(model, x)
        draws = DiffusionPosteriorSampler(model, sched, "exact").sample(x, 1500, SeededRng(7))
        se = np.sqrt(np.diag(cov) / 1500)
        assert np.max(np.abs(draws.mean(axis=0) - mean) / se) < 4.0
        assert rel_err(np.cov(draws.T), cov) < 0.2

    def test_biased_kind_is_detectably_off(self):
        model = small_model(seed=12)
        sched = VeSchedule()
        theta, x = simulate(model, SeededRng(6))
        mean, cov = conjugate_posterior(model, x)
        draws = DiffusionPosteriorSampler(model, sched, "biased").sample(x, 800, SeededRng(8))
        delta = draws.mean(axis=0) - mean
        t2 = delta @ np.linalg.solve(cov / 800, delta)
        assert t2 > stats.chi2.ppf(0.99, model.dim_theta)

    def test_step_doubling_within_monte_carlo_error(self):
        # the exact kind's discretisation error: doubling the steps moves the
        # law's mean by far less than a posterior sd
        model = small_model(seed=13)
        x = simulate(model, SeededRng(9))[1]
        sd = np.sqrt(np.diag(conjugate_posterior(model, x)[1]))
        a, cov_a = sampled_law(model, VeSchedule(steps=300), "exact", x)
        b, cov_b = sampled_law(model, VeSchedule(steps=600), "exact", x)
        assert np.max(np.abs(a - b) / sd) < 1e-4
        assert rel_err(cov_a, cov_b) < 1e-3

    def test_law_against_conjugate_oracle(self):
        # D=64: the exact law sits on the conjugate posterior up to the
        # discretisation, while the biased law's mean is off by over half a sd
        model = build_model(source_side=8, obs_side=16, kernel_scale=0.3, seed=0)
        schedule = VeSchedule(steps=300)
        for x in make_dataset(model, 5, seed=0).observations:
            mean, cov = conjugate_posterior(model, x)
            sd = np.sqrt(np.diag(cov))
            exact_mean, exact_cov = sampled_law(model, schedule, "exact", x)
            assert np.max(np.abs(exact_mean - mean) / sd) < 1e-3
            assert rel_err(exact_cov, cov) < 1e-2
            biased_mean, _ = sampled_law(model, schedule, "biased", x)
            assert np.max(np.abs(biased_mean - mean) / sd) > 0.5

    def test_divergence_reports_step(self):
        # sigma_max large enough that the first step size dt * g^2 overflows,
        # taking the state to inf inside the integrator (but small enough that
        # sigma_max^2 itself stays representable)
        model = small_model(seed=14)
        sched = VeSchedule(sigma_max=1e153, steps=10)
        x = np.zeros(model.dim_x)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as err:
                DiffusionPosteriorSampler(model, sched, "biased").sample(x, 2, SeededRng(12))
        assert err.value.step is not None
        assert "step" in str(err.value)

    def test_divergence_names_the_kind_and_fails_at_construction(self):
        model = small_model(seed=14)
        sched = VeSchedule(sigma_max=1e153, steps=10)
        for kind in SCORE_KINDS:
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(DivergenceError) as err:
                    DiffusionPosteriorSampler(model, sched, kind)
            assert err.value.step == 0
            assert str(err.value) == f"{kind} reverse SDE diverged at step 0"

    @pytest.mark.parametrize("kind", SCORE_KINDS)
    def test_divergence_names_the_stepwise_step(self, kind):
        # scanning sigma_max moves the first non-finite moment of the stepwise
        # recursion through steps 9..0; the law fails, or not, at the same step
        model = small_model(seed=14)
        named = set()
        for exponent in range(120, 155):
            sched = VeSchedule(sigma_max=10.0**exponent, steps=10)
            expect = divergence_step(stepwise_chain_law, model, sched, kind)
            assert divergence_step(lensing._chain_law, model, sched, kind) == expect
            named.add(expect)
        assert set(range(10)) <= named

    @pytest.mark.parametrize("kind", SCORE_KINDS)
    def test_law_matches_stepwise_recursion_at_d64(self, kind):
        model = build_model(source_side=8, obs_side=16, kernel_scale=0.3, seed=1)
        assert_law_matches_stepwise(model, VeSchedule(steps=300), kind)

    @pytest.mark.parametrize("kind", SCORE_KINDS)
    def test_fused_step_drift_equals_public_scores(self, kind):
        # a one-step schedule whose sigma_max is sigma_t of the base schedule
        # has the law of one step with h = g^2 at that noise level, driven by
        # the reference scores at time t of the base schedule
        model = small_model(seed=17)
        base = VeSchedule()
        x = simulate(model, SeededRng(74))[1]
        for t in (0.1, 0.4, 0.7, 1.0):
            one = VeSchedule(sigma_min=base.sigma_min, sigma_max=base.sigma(t), steps=1)
            start = model.prior_cov + one.sigma_max**2 * np.eye(model.dim_theta)
            expect = reference_step(model, base, kind, x, t, one.g_squared(1.0), model.prior_mean, start)
            mean, cov = sampled_law(model, one, kind, x)
            assert rel_err(mean, expect[0]) < 1e-9
            assert rel_err(cov, expect[1]) < 1e-9

    @pytest.mark.parametrize("kind", SCORE_KINDS)
    def test_matches_reference_euler_maruyama(self, kind):
        # the Euler-Maruyama moments built only from the reference scores: a
        # zero-noise run gives the mean, the propagated covariance the rest
        model = small_model(seed=18)
        x = simulate(model, SeededRng(19))[1]
        for steps in (20, 300):
            sched = VeSchedule(steps=steps)
            mean, cov = sampled_law(model, sched, kind, x)
            ref_mean, ref_cov = reference_law(model, sched, kind, x)
            assert rel_err(mean, ref_mean) < 1e-9
            assert rel_err(cov, ref_cov) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), dim=st.integers(1, 4), extra=st.integers(0, 3),
           sigma_n=st.floats(0.2, 3.0), steps=st.integers(1, 20), kind=st.sampled_from(SCORE_KINDS))
    def test_law_matches_reference_on_random_models(self, seed, dim, extra, sigma_n, steps, kind):
        g = SeededRng(seed).generator()
        root = g.standard_normal((dim, dim))
        model = LensingModel(g.standard_normal((dim + extra, dim)), sigma_n, g.standard_normal(dim),
                             root @ root.T + 0.1 * np.eye(dim))
        sched = VeSchedule(sigma_max=float(g.uniform(1.0, 100.0)), steps=steps)
        x = g.standard_normal(model.dim_x)
        mean, cov = sampled_law(model, sched, kind, x)
        ref_mean, ref_cov = reference_law(model, sched, kind, x)
        assert rel_err(mean, ref_mean) < 1e-9
        assert rel_err(cov, ref_cov) < 1e-9
        assert_law_matches_stepwise(model, sched, kind)

    def test_drp_runs_leave_the_model_unchanged(self):
        # one model shared by samplers of both kinds holds no per-schedule state
        model = small_model(seed=16)
        fields = dict(vars(model))
        dataset = make_dataset(model, 8, seed=2)
        policy = lensing_prior_policy(model)
        for kind in SCORE_KINDS:
            sampler = DiffusionPosteriorSampler(model, VeSchedule(steps=30), kind)
            first = drp_test(dataset, sampler, n_post=20, seed=5, policy=policy)
            again = drp_test(dataset, sampler, n_post=20, seed=5, policy=policy)
            assert np.array_equal(first.ranks.f, again.ranks.f)
            assert np.array_equal(first.ecp, again.ecp)
        assert vars(model).keys() == fields.keys()
        assert all(vars(model)[k] is v for k, v in fields.items())

    def test_sampler_facade(self):
        model = small_model(seed=15)
        sampler = DiffusionPosteriorSampler(model, VeSchedule(steps=30), "exact")
        x = simulate(model, SeededRng(13))[1]
        draws = sampler.sample(x, 7, SeededRng(14))
        assert draws.shape == (7, model.dim_theta)

    def test_prior_policy_draw(self):
        model = small_model()
        policy = lensing_prior_policy(model)
        draw = policy.draw(SeededRng(15).generator())
        assert draw.shape == (model.dim_theta,)

    def test_sample_count_must_be_an_integer(self):
        model = small_model()
        sampler = DiffusionPosteriorSampler(model, VeSchedule(steps=5), "exact")
        for n in (2.5, 2.0, True):
            with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
                sampler.sample(np.zeros(model.dim_x), n, SeededRng(1))
        assert sampler.sample(np.zeros(model.dim_x), np.int64(2), SeededRng(1)).shape == (2, model.dim_theta)


class TestOperatorErrors:
    def test_operator_error_type(self):
        assert issubclass(OperatorError, ValueError)
