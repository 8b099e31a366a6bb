"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion runs at its stated tolerance with a frozen seed (all package
randomness is bit-deterministic given the seed; the seeds were verified to be
typical, not cherry-picked against the trend, by scouting several). Run with
`pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math

import numpy as np
from scipy import stats

from drpkit import cli
from drpkit.benchmarks import (
    ConjugateConfig,
    ToyConfig,
    UninformativeSampler,
    conjugate_datashift_policy,
    conjugate_prior_policy,
    generate_conjugate,
    generate_toy,
    toy_prior_policy,
)
from drpkit.coverage import default_levels, drp_test, hpd_test
from drpkit.lensing import (
    VeSchedule,
    DiffusionPosteriorSampler,
    build_model,
    conjugate_posterior,
    lensing_prior_policy,
    make_dataset,
    simulate,
)
from drpkit.numerics import (
    SeededRng,
    binomial_band,
    cholesky,
    ks_uniform_statistic,
    norm_cdf,
    norm_isf,
)
from lensing_oracle import likelihood_score, prior_score


def report(number, name, ok, detail):
    print(f"\n[criterion {number:2d}] {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return ok


def test_criterion_01_correct_case_diagonal():
    """Correct-case toy model: DRP (hypercube, prior) and HPD on the diagonal
    for D in {1, 10, 100} at N=500 sims x n=500 draws."""
    seed = 0
    details = []
    ok = True
    for dim in (1, 10, 100):
        config = ToyConfig(dim=dim, n_sims=500, case="correct")
        dataset, sampler = generate_toy(config, seed=seed)
        fractions = {}
        fractions["drp-hypercube"] = drp_test(
            dataset, sampler, n_post=500, seed=seed, bounds=config.theta_bounds
        ).in_band_fraction()
        fractions["drp-prior"] = drp_test(
            dataset, sampler, n_post=500, seed=seed, bounds=config.theta_bounds,
            policy=toy_prior_policy(config),
        ).in_band_fraction()
        fractions["hpd"] = hpd_test(dataset, sampler, n_post=500, seed=seed).in_band_fraction()
        ok &= all(f >= 0.99 for f in fractions.values())
        details.append(f"D={dim}: " + " ".join(f"{k}={v:.3f}" for k, v in fractions.items()))
    assert report(1, "correct-case diagonal", ok, "; ".join(details))


def test_criterion_02_biased_case_split():
    """Biased toy case at D=10: HPD stays diagonal while the DRP curve leaves
    the band by more than 5 one-sigma binomial half-widths."""
    seed = 0
    config = ToyConfig(dim=10, n_sims=500, case="biased")
    dataset, sampler = generate_toy(config, seed=seed)
    hpd = hpd_test(dataset, sampler, n_post=500, seed=seed)
    drp = drp_test(dataset, sampler, n_post=500, seed=seed, bounds=config.theta_bounds,
                   policy=toy_prior_policy(config))
    ok = hpd.in_band_fraction() >= 0.99 and drp.max_sigma_deviation() > 5.0
    assert report(2, "biased-case blindness split", ok,
                  f"hpd in-band {hpd.in_band_fraction():.3f} (>=0.99), "
                  f"drp deviation {drp.max_sigma_deviation():.1f} sigma (>5)")


def test_criterion_03_over_under_signatures():
    """Rank-mass signatures: underconfident piles mass near 1/2, overconfident
    near the ends, each beating the correct case by > 3 binomial SE."""
    seed = 0
    ranks = {}
    for case in ("correct", "overconfident", "underconfident"):
        config = ToyConfig(dim=10, n_sims=500, case=case)
        dataset, sampler = generate_toy(config, seed=seed)
        curve = drp_test(dataset, sampler, n_post=500, seed=seed,
                         bounds=config.theta_bounds, policy=toy_prior_policy(config))
        ranks[case] = curve.ranks.f
    mid = lambda f: float(np.mean((f >= 0.4) & (f <= 0.6)))
    tails = lambda f: float(np.mean((f <= 0.1) | (f >= 0.9)))
    se = lambda p: math.sqrt(p * (1 - p) / 500)
    mid_diff = mid(ranks["underconfident"]) - mid(ranks["correct"])
    mid_need = 3 * se(mid(ranks["correct"]))
    tail_diff = tails(ranks["overconfident"]) - tails(ranks["correct"])
    tail_need = 3 * se(tails(ranks["correct"]))
    ok = mid_diff > mid_need and tail_diff > tail_need
    assert report(3, "over/under-confident signatures", ok,
                  f"mid mass diff {mid_diff:.3f} > {mid_need:.3f}; "
                  f"tail mass diff {tail_diff:.3f} > {tail_need:.3f}")


def test_criterion_04_uninformative_triple():
    """Prior-as-posterior estimator: HPD and DRP-prior diagonal, DRP with the
    x-dependent reference (x_0 + U(-1,1)) out of band by > 5 sigma."""
    seed = 1
    config = ConjugateConfig(n_sims=500)
    dataset, _ = generate_conjugate(config, seed=seed)
    sampler = UninformativeSampler()
    hpd = hpd_test(dataset, sampler, n_post=500, seed=seed)
    prior = drp_test(dataset, sampler, n_post=500, seed=seed,
                     policy=conjugate_prior_policy())
    shift = drp_test(dataset, sampler, n_post=500, seed=seed,
                     policy=conjugate_datashift_policy())
    ok = (hpd.in_band_fraction() >= 0.99 and prior.in_band_fraction() >= 0.99
          and shift.max_sigma_deviation() > 5.0)
    assert report(4, "uninformative-estimator triple", ok,
                  f"hpd {hpd.in_band_fraction():.3f}, drp-prior {prior.in_band_fraction():.3f} "
                  f"(both >=0.99), drp-datashift deviation {shift.max_sigma_deviation():.1f} sigma (>5)")


def test_criterion_05_lensing_coverage():
    """Desk-scale source reconstruction (D=64, 100 sims x 200 draws, 300 steps):
    the exact sampler's DRP curve is in band at >= 95% of levels; the biased
    sampler leaves the band by > 5 sigma."""
    seed = 0
    model = build_model(source_side=8, obs_side=16, kernel_scale=0.3, seed=seed)
    schedule = VeSchedule(steps=300)
    dataset = make_dataset(model, 100, seed=seed)
    policy = lensing_prior_policy(model)
    curves = {}
    for kind in ("exact", "biased"):
        sampler = DiffusionPosteriorSampler(model, schedule, kind)
        curves[kind] = drp_test(dataset, sampler, n_post=200, seed=seed, policy=policy)
    ok = (curves["exact"].in_band_fraction() >= 0.95
          and curves["biased"].max_sigma_deviation() > 5.0)
    assert report(5, "lensing exact/biased coverage", ok,
                  f"exact in-band {curves['exact'].in_band_fraction():.3f} (>=0.95), "
                  f"biased deviation {curves['biased'].max_sigma_deviation():.1f} sigma (>5)")


def test_criterion_06_exact_sampler_oracle():
    """Exact reverse-SDE sampler against the conjugate posterior: 5 fixed
    observations, 2000 draws each; per-coordinate mean within 3 SE and sample
    covariance within 10% relative Frobenius. The sampler's law itself: mean
    within 1e-3 posterior sd and covariance within 1% relative Frobenius."""
    from test_lensing import sampled_law

    seed = 0
    model = build_model(source_side=8, obs_side=16, kernel_scale=0.45, seed=seed)
    schedule = VeSchedule(steps=300)
    root = SeededRng(seed)
    worst_z = worst_cov = worst_law_z = worst_law_cov = 0.0
    for j in range(5):
        _, x = simulate(model, root.substream("acceptance-obs", j))
        mean, cov = conjugate_posterior(model, x)
        draws = DiffusionPosteriorSampler(model, schedule, "exact").sample(
            x, 2000, root.substream("acceptance-draws", j))
        se = np.sqrt(np.diag(cov) / 2000)
        worst_z = max(worst_z, float(np.max(np.abs(draws.mean(axis=0) - mean) / se)))
        worst_cov = max(worst_cov, float(np.linalg.norm(np.cov(draws.T) - cov)
                                         / np.linalg.norm(cov)))
        law_mean, law_cov = sampled_law(model, schedule, "exact", x)
        worst_law_z = max(worst_law_z, float(np.max(np.abs(law_mean - mean) / np.sqrt(np.diag(cov)))))
        worst_law_cov = max(worst_law_cov, float(np.linalg.norm(law_cov - cov) / np.linalg.norm(cov)))
    ok = worst_z <= 3.0 and worst_cov <= 0.10 and worst_law_z <= 1e-3 and worst_law_cov <= 1e-2
    assert report(6, "exact-sampler oracle equivalence", ok,
                  f"worst |mean z| {worst_z:.2f} (<=3), worst cov relF {worst_cov:.3f} (<=0.10); "
                  f"law mean shift {worst_law_z:.1e} sd (<=1e-3), law cov relF {worst_law_cov:.1e} (<=1e-2)")


def test_criterion_07_score_finite_differences():
    """Prior, biased-likelihood, and exact-likelihood scores match central
    finite differences of independently built log-densities within 1e-5
    relative at 20 random (theta, x, t) triples."""
    model = build_model(source_side=4, obs_side=8, kernel_scale=0.35, seed=2)
    schedule = VeSchedule()
    prior_prec = np.linalg.inv(model.prior_cov)

    def dense_prior_logpdf(theta, t):
        cov = model.prior_cov + schedule.sigma(t) ** 2 * np.eye(model.dim_theta)
        return stats.multivariate_normal.logpdf(theta, mean=model.prior_mean, cov=cov)

    def dense_lik_logpdf(kind, theta, x, t):
        A = model.operator
        s2 = schedule.sigma(t) ** 2
        if kind == "biased":
            mean = A @ theta
            cov = model.sigma_n**2 * np.eye(model.dim_x) + s2 * (A @ A.T)
        else:
            sig_c = np.linalg.inv(prior_prec + np.eye(model.dim_theta) / s2)
            mean = A @ (sig_c @ (theta / s2 + prior_prec @ model.prior_mean))
            cov = model.sigma_n**2 * np.eye(model.dim_x) + A @ sig_c @ A.T
        return stats.multivariate_normal.logpdf(x, mean=mean, cov=cov)

    def central_diff(fn, theta, h=1e-5):
        grad = np.empty_like(theta)
        for d in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[d] += h
            dn[d] -= h
            grad[d] = (fn(up) - fn(dn)) / (2 * h)
        return grad

    g = SeededRng(123).generator()
    worst = 0.0
    for _ in range(20):
        theta = model.prior_mean + g.standard_normal(model.dim_theta)
        x = model.operator @ theta + g.standard_normal(model.dim_x)
        t = float(g.uniform(0.05, 1.0))
        trips = [
            (prior_score(model, schedule, theta, t),
             central_diff(lambda v: dense_prior_logpdf(v, t), theta)),
            (likelihood_score(model, schedule, "biased", theta, x, t),
             central_diff(lambda v: dense_lik_logpdf("biased", v, x, t), theta)),
            (likelihood_score(model, schedule, "exact", theta, x, t),
             central_diff(lambda v: dense_lik_logpdf("exact", v, x, t), theta)),
        ]
        for mine, fd in trips:
            worst = max(worst, float(np.linalg.norm(mine - fd) / np.linalg.norm(fd)))
    ok = worst < 1e-5
    assert report(7, "score finite-difference check", ok,
                  f"worst relative error {worst:.2e} (<1e-5) over 20 triples x 3 scores")


def test_criterion_08_region_rank_equivalence():
    """Rank-path ECP equals explicit-region ECP within 1/n at every level, for
    20 random small instances, both DRP and HPD."""
    from region_oracle import region_membership_ecp
    from test_coverage import GaussianSampler, optimal_gaussian_setup

    master = SeededRng(2024)
    worst = 0.0
    levels = default_levels()
    for trial in range(20):
        g = master.substream("size", trial).generator()
        n_sims = int(g.integers(5, 100))
        n_post = int(g.integers(2, 1000))
        dataset = optimal_gaussian_setup(n_sims, seed=7000 + trial)
        sampler = GaussianSampler()
        for method, runner in (("drp", drp_test), ("hpd", hpd_test)):
            curve = runner(dataset, sampler, n_post=n_post, seed=8000 + trial)
            oracle = region_membership_ecp(dataset, sampler, method=method, n_post=n_post,
                                           seed=8000 + trial, levels=levels)
            gap = float(np.max(np.abs(curve.ecp - oracle)) * n_post)
            worst = max(worst, gap)
    ok = worst <= 1.0 + 1e-9
    assert report(8, "rank/region two-path equivalence", ok,
                  f"worst |gap| = {worst:.3f}/n across 20 instances x 2 methods (<=1/n)")


def test_criterion_09_determinism_and_order(tmp_path):
    """Equal seeds give bit-identical CSVs; permuting the simulations leaves
    every curve unchanged."""
    args = ["toy", "--case", "correct", "--dim", "3", "--n-sims", "40",
            "--n-post", "50", "--seed", "17"]
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
    same_bytes = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        for f in ("drp.csv", "hpd.csv")
    )

    config = ToyConfig(dim=3, n_sims=60)
    dataset, sampler = generate_toy(config, seed=3)
    perm = SeededRng(4).generator().permutation(60)
    base = drp_test(dataset, sampler, n_post=50, seed=3, bounds=config.theta_bounds)
    shuffled = drp_test(dataset.permuted(perm), sampler, n_post=50, seed=3,
                        bounds=config.theta_bounds)
    order_free = bool(
        np.array_equal(base.ecp, shuffled.ecp)
        and np.array_equal(base.ranks.sim_id, shuffled.ranks.sim_id)
        and np.array_equal(base.ranks.f, shuffled.ranks.f)
    )
    ok = same_bytes and order_free
    assert report(9, "determinism and order-independence", ok,
                  f"identical CSV bytes: {same_bytes}; permutation-invariant: {order_free}")


def test_criterion_10_numerics_suite():
    """Normal round trips at 1e-8, Cholesky round trip at 1e-8 relative, KS and
    binomial-band arithmetic examples at their exact values."""
    z_err = max(abs(norm_isf(1.0 - norm_cdf(z)) - z) for z in np.linspace(-6, 6, 1201))
    p_err = max(abs(norm_cdf(norm_isf(p)) - (1.0 - p))
                for p in np.linspace(1e-6, 1 - 1e-6, 999))

    g = SeededRng(55).generator()
    chol_err = 0.0
    for n in (3, 16, 64):
        b = g.standard_normal((n, n))
        m = b @ b.T + n * np.eye(n)
        L = cholesky(m)
        chol_err = max(chol_err, np.linalg.norm(L @ L.T - m) / np.linalg.norm(m))

    ks_ok = (ks_uniform_statistic([0.5]) == 0.5
             and ks_uniform_statistic([0.0, 0.0, 0.0, 0.0]) == 1.0
             and abs(ks_uniform_statistic([0.25, 0.5, 0.75]) - 0.25) < 1e-15)
    band_ok = (binomial_band([0.5], 100, z=1.0)[0] == 0.05
               and binomial_band([0.0], 100, z=3.0)[0] == 0.0
               and abs(binomial_band([0.9], 500, z=3.0)[0]
                       - 3.0 * math.sqrt(0.09 / 500)) < 1e-15)
    ok = z_err <= 1e-8 and p_err <= 1e-10 and chol_err < 1e-8 and ks_ok and band_ok
    assert report(10, "numerics suite", ok,
                  f"isf(1-cdf) max err {z_err:.2e} (<=1e-8), cdf(isf) max err {p_err:.2e} "
                  f"(<=1e-10), cholesky relF {chol_err:.2e} (<1e-8), "
                  f"ks examples exact: {ks_ok}, band examples exact: {band_ok}")
