"""Property tests: the per-simulation engine shared by drp_test,
drp_test_precomputed and hpd_test, over random small validation sets."""

import os
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from drpkit.coverage import (
    JointSampleSet,
    PosteriorSampler,
    PriorDraw,
    UnitHypercubeUniform,
    drp_test,
    drp_test_precomputed,
    hpd_test,
)
from drpkit.numerics import SeededRng


class ShiftedGaussian(PosteriorSampler):
    """N(x + shift, scale^2 I) per simulation; calibrated only at shift 0, scale 1."""

    def __init__(self, shift, scale):
        self.shift, self.scale = shift, scale

    def sample(self, x, n, rng):
        return x + self.shift + self.scale * rng.generator().standard_normal((n, x.size))

    def log_density(self, theta, x):
        return -0.5 * (((np.atleast_2d(theta) - x - self.shift) / self.scale) ** 2).sum(axis=1)


@st.composite
def cases(draw):
    """(dataset, sampler, DRP keyword arguments) with sim_ids in random order."""
    n_sims = draw(st.integers(1, 10))
    dim = draw(st.integers(1, 3))
    g = SeededRng(draw(st.integers(0, 2 ** 32))).generator()
    obs = g.normal(size=(n_sims, dim))
    dataset = JointSampleSet(theta_true=obs + g.normal(size=(n_sims, dim)), observations=tuple(obs),
                             sim_ids=np.array(draw(st.permutations(range(n_sims)))))
    sampler = ShiftedGaussian(draw(st.sampled_from([0.0, 0.7])), draw(st.sampled_from([0.5, 1.0, 2.0])))
    policy = draw(st.sampled_from([UnitHypercubeUniform(), PriorDraw(draw=lambda g: g.normal(size=dim))]))
    # empirical bounds need two distinct truths per dimension
    bounds = (-6.0, 6.0) if n_sims == 1 else draw(st.sampled_from([None, (-6.0, 6.0)]))
    kw = dict(n_post=draw(st.integers(1, 30)), seed=draw(st.integers(0, 2 ** 32)),
              repeats=draw(st.integers(1, 3)), policy=policy, bounds=bounds)
    return dataset, sampler, kw


def hpd_kw(kw):
    return {k: kw[k] for k in ("n_post", "seed")}


def same_table(a, b):
    """Rank tables equal bit for bit."""
    return (a.sim_id.tobytes() == b.sim_id.tobytes() and a.f.tobytes() == b.f.tobytes()
            and (a.theta_r is None) == (b.theta_r is None)
            and (a.theta_r is None or a.theta_r.tobytes() == b.theta_r.tobytes()))


def threads(value):
    env = {k: v for k, v in os.environ.items() if k != "DRPKIT_THREADS"}
    if value is not None:
        env["DRPKIT_THREADS"] = value
    return mock.patch.dict(os.environ, env, clear=True)


PROPS = settings(max_examples=40, deadline=None)


@PROPS
@given(cases(), st.data())
def test_tables_ignore_simulation_order_and_threads(case, data):
    dataset, sampler, kw = case
    shuffled = dataset.permuted(data.draw(st.permutations(range(dataset.n_sims))))
    with threads(None):
        drp = drp_test(dataset, sampler, **kw).ranks
        hpd = hpd_test(dataset, sampler, **hpd_kw(kw)).ranks
    for ds, cap in ((shuffled, None), (dataset, "3"), (shuffled, "3")):
        with threads(cap):
            assert same_table(drp_test(ds, sampler, **kw).ranks, drp)
            assert same_table(hpd_test(ds, sampler, **hpd_kw(kw)).ranks, hpd)


@PROPS
@given(cases(), st.integers(2, 3))
def test_precomputed_on_dumped_draws_equals_the_sampler_path(case, repeats):
    dataset, sampler, kw = case
    kw["repeats"] = repeats
    draws = {}
    live = drp_test(dataset, sampler, on_draws=draws.__setitem__, **kw)
    n_post = kw.pop("n_post")
    pre = drp_test_precomputed(dataset, draws, **kw)
    assert same_table(pre.ranks, live.ranks)
    assert np.array_equal(pre.ecp, live.ecp)
    assert (pre.n_post, pre.n_sims) == (n_post, live.n_sims)


@PROPS
@given(cases())
def test_ranks_are_fractions_in_sim_id_order(case):
    dataset, sampler, kw = case
    n, d, n_post, repeats = dataset.n_sims, dataset.dim_theta, kw["n_post"], kw["repeats"]
    draws = {}
    drp = drp_test(dataset, sampler, **kw).ranks
    hpd = hpd_test(dataset, sampler, on_draws=draws.__setitem__, **hpd_kw(kw)).ranks
    assert np.array_equal(drp.sim_id, np.repeat(np.arange(n), repeats))
    assert np.array_equal(hpd.sim_id, np.arange(n))
    for i, s in enumerate(dataset.sim_ids):  # row s holds simulation s's rank
        x = dataset.observations[i]
        truth = sampler.log_density(dataset.theta_true[i], x)[0]
        assert hpd.f[s] == np.mean(sampler.log_density(draws[s], x) < truth)
    assert drp.theta_r.shape == (n * repeats, d) and hpd.theta_r is None
    for table in (drp, hpd):
        assert np.all((table.f >= 0) & (table.f <= 1))
        k = table.f * n_post  # each f counts draws out of n_post
        assert np.allclose(k, np.round(k), rtol=0, atol=1e-9)


@PROPS
@given(cases(), st.sampled_from([None, "3"]))
def test_hpd_and_drp_hand_on_the_same_draws(case, cap):
    dataset, sampler, kw = case
    seen = {"drp": {}, "hpd": {}}
    with threads(cap):
        drp_test(dataset, sampler, on_draws=seen["drp"].__setitem__, **kw)
        hpd_test(dataset, sampler, on_draws=seen["hpd"].__setitem__, **hpd_kw(kw))
    assert sorted(seen["drp"]) == sorted(seen["hpd"]) == list(range(dataset.n_sims))
    assert all(seen["drp"][s].tobytes() == seen["hpd"][s].tobytes() for s in seen["drp"])
    assert all(seen["drp"][s].shape == (kw["n_post"], dataset.dim_theta) for s in seen["drp"])
