"""Property tests: the per-simulation engine shared by coverage_tests,
drp_test and hpd_test, on a sampler or on draws made elsewhere, over random
small validation sets."""

import itertools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drpkit.benchmarks import DiagonalGaussianSampler, ToySimulation, UninformativeSampler
from drpkit.coverage import (
    DensityUnavailableError,
    DrpSpec,
    HpdSpec,
    JointSampleSet,
    NormalizationError,
    PosteriorSampler,
    PriorDraw,
    SimulationError,
    UnitHypercubeUniform,
    coverage_tests,
    drp_test,
    hpd_test,
)
from drpkit.numerics import SeededRng
from test_coverage import StoredSampler


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
            and a.k.tobytes() == b.k.tobytes() and a.n.tobytes() == b.n.tobytes()
            and (a.theta_r is None) == (b.theta_r is None)
            and (a.theta_r is None or a.theta_r.tobytes() == b.theta_r.tobytes()))


PROPS = settings(max_examples=40, deadline=None)


@PROPS
@given(cases(), st.data())
def test_tables_ignore_simulation_order(case, data):
    dataset, sampler, kw = case
    shuffled = dataset.permuted(data.draw(st.permutations(range(dataset.n_sims))))
    drp = drp_test(dataset, sampler, **kw).ranks
    hpd = hpd_test(dataset, sampler, **hpd_kw(kw)).ranks
    assert same_table(drp_test(shuffled, sampler, **kw).ranks, drp)
    assert same_table(hpd_test(shuffled, sampler, **hpd_kw(kw)).ranks, hpd)


@PROPS
@given(cases(), st.integers(2, 3))
def test_precomputed_on_dumped_draws_equals_the_sampler_path(case, repeats):
    dataset, sampler, kw = case
    kw["repeats"] = repeats
    draws = {}
    live = drp_test(dataset, sampler, on_draws=draws.__setitem__, **kw)
    n_post = kw.pop("n_post")
    pre = drp_test(dataset, draws, **kw)
    assert same_table(pre.ranks, live.ranks)
    assert np.array_equal(pre.ecp, live.ecp)
    assert (pre.n_post, pre.n_sims) == (n_post, live.n_sims)


@PROPS
@given(cases(), st.data())
def test_runs_in_any_order_rank_as_their_joined_blocks(case, data):
    dataset, sampler, kw = case
    kw.pop("n_post")
    root = SeededRng(kw["seed"])
    counts = data.draw(st.lists(st.integers(1, 8), min_size=dataset.n_sims, max_size=dataset.n_sims))
    draws = {int(sid): sampler.sample(x, n, root.substream("posterior", int(sid)))
             for sid, x, n in zip(dataset.sim_ids, dataset.observations, counts)}
    runs = []
    for sid, block in draws.items():  # cut each block after a random subset of its rows
        cuts = data.draw(st.lists(st.booleans(), min_size=len(block) - 1, max_size=len(block) - 1))
        runs += [(sid, part) for part in np.split(block, [j + 1 for j, cut in enumerate(cuts) if cut])]
    runs = data.draw(st.permutations(runs))
    whole = drp_test(dataset, draws, **kw)
    streamed = drp_test(dataset, iter(runs), **kw)
    assert same_table(streamed.ranks, whole.ranks)
    assert streamed.ecp.tobytes() == whole.ecp.tobytes()
    assert (streamed.n_post, streamed.n_sims) == (whole.n_post, whole.n_sims)
    ranks = whole.ranks
    assert ranks.k.dtype == ranks.n.dtype == np.int64
    assert np.array_equal(ranks.n, np.repeat([len(draws[s]) for s in range(dataset.n_sims)], kw["repeats"]))
    assert ranks.f.tobytes() == (ranks.k / ranks.n).tobytes()


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
@given(cases())
def test_hpd_and_drp_hand_on_the_same_draws(case):
    dataset, sampler, kw = case
    seen = {"drp": {}, "hpd": {}}
    drp_test(dataset, sampler, on_draws=seen["drp"].__setitem__, **kw)
    hpd_test(dataset, sampler, on_draws=seen["hpd"].__setitem__, **hpd_kw(kw))
    assert sorted(seen["drp"]) == sorted(seen["hpd"]) == list(range(dataset.n_sims))
    assert all(seen["drp"][s].tobytes() == seen["hpd"][s].tobytes() for s in seen["drp"])
    assert all(seen["drp"][s].shape == (kw["n_post"], dataset.dim_theta) for s in seen["drp"])


@st.composite
def spec_lists(draw, dataset):
    """1-3 DRP specs with their own policy, weights, bounds and repeats, and
    maybe an HPD spec, in any order."""
    dim = dataset.dim_theta
    drp = st.builds(
        DrpSpec,
        policy=st.sampled_from([UnitHypercubeUniform(), PriorDraw(draw=lambda g: g.normal(size=dim))]),
        weights=st.sampled_from([None, np.arange(1.0, dim + 1)]),
        bounds=st.sampled_from([(-6.0, 6.0)] if dataset.n_sims == 1 else [None, (-6.0, 6.0)]),
        repeats=st.integers(1, 3))
    specs = draw(st.lists(drp, min_size=1, max_size=3))
    if draw(st.booleans()):
        specs.insert(draw(st.integers(0, len(specs))), HpdSpec())
    return specs


def alone(dataset, sampler, spec, n_post, seed):
    """The curve the spec's own test gives."""
    if isinstance(spec, HpdSpec):
        return hpd_test(dataset, sampler, n_post=n_post, seed=seed)
    return drp_test(dataset, sampler, n_post=n_post, seed=seed, policy=spec.policy,
                    weights=spec.weights, bounds=spec.bounds, repeats=spec.repeats)


@PROPS
@given(cases(), st.data())
def test_one_pass_gives_each_test_its_own_curve(case, data):
    dataset, sampler, kw = case
    specs = data.draw(spec_lists(dataset))
    seen = []
    curves = coverage_tests(dataset, sampler, specs, n_post=kw["n_post"], seed=kw["seed"],
                            on_draws=lambda sid, draws: seen.append((sid, threading.get_ident())))
    assert seen == [(sid, threading.get_ident()) for sid in range(dataset.n_sims)]  # calling thread, sim_id order
    assert len(curves) == len(specs)
    for spec, curve in zip(specs, curves):
        ref = alone(dataset, sampler, spec, kw["n_post"], kw["seed"])
        assert same_table(curve.ranks, ref.ranks)
        assert curve.ecp.tobytes() == ref.ecp.tobytes()
        assert (curve.n_post, curve.n_sims, curve.method) == (ref.n_post, ref.n_sims, ref.method)


class NoDensity(ShiftedGaussian):
    """A sampler without log_density that counts its sample calls."""

    log_density = None

    def __init__(self):
        super().__init__(0.0, 1.0)
        self.calls = 0

    def sample(self, x, n, rng):
        self.calls += 1
        return super().sample(x, n, rng)


@PROPS
@given(cases(), st.data(),
       st.sampled_from(["density", "repeats", "bounds", "n_post", "repeats_type", "n_post_type"]))
def test_every_argument_is_checked_before_the_first_draw(case, data, fault):
    dataset, _, kw = case
    sampler = NoDensity()
    specs = data.draw(spec_lists(dataset))
    if fault == "density" and not any(isinstance(s, HpdSpec) for s in specs):
        specs.insert(data.draw(st.integers(0, len(specs))), HpdSpec())
    elif fault != "density":
        specs = [s for s in specs if not isinstance(s, HpdSpec)]
    if fault in ("repeats", "bounds"):
        bad = DrpSpec(repeats=0) if fault == "repeats" else DrpSpec(bounds=(1.0, 1.0))
        specs.insert(data.draw(st.integers(0, len(specs))), bad)
    if fault == "repeats_type":
        specs.insert(data.draw(st.integers(0, len(specs))), DrpSpec(repeats=data.draw(st.sampled_from([1.5, True]))))
    n_post = 0 if fault == "n_post" else kw["n_post"]
    if fault == "n_post_type":
        n_post = data.draw(st.sampled_from([2.5, True, "5"]))
    error = {"density": DensityUnavailableError, "repeats": ValueError,
             "bounds": NormalizationError, "n_post": ValueError,
             "repeats_type": ValueError, "n_post_type": ValueError}[fault]
    with pytest.raises(error):
        coverage_tests(dataset, sampler, specs, n_post=n_post, seed=kw["seed"])
    assert sampler.calls == 0


@PROPS
@pytest.mark.parametrize("test", ["drp", "drp-weighted", "hpd-toy", "hpd-uninformative"])
@given(seed=st.integers(0, 2 ** 32), dim=st.integers(8, 12), n_draws=st.integers(9, 30),
       n_copies=st.integers(1, 4))
def test_copies_of_the_truth_never_count(test, seed, dim, n_draws, n_copies):
    """Copies of the truth at random positions among random draws leave each
    rank as the draws' own: every row is scored alone, and a tie with the truth
    is not below it."""
    g = SeededRng(seed).generator()
    truths = g.uniform(-4.0, 4.0, (3, dim))
    sigma = 10.0 ** g.uniform(-2.0, 0.0, (3, dim))
    draws = {s: truths[s] + sigma[s] * g.normal(size=(n_draws, dim)) for s in range(3)}
    copied = {s: np.insert(block, g.integers(0, n_draws + 1, n_copies), truths[s], axis=0)
              for s, block in draws.items()}
    toys = [ToySimulation(t, sd, t + sd * g.normal(size=dim), sd) for t, sd in zip(truths, sigma)]
    dataset = JointSampleSet(theta_true=truths, observations=(0, 1, 2), sim_ids=np.arange(3))
    if test.startswith("drp"):
        weights = g.uniform(0.1, 10.0, dim) if test == "drp-weighted" else None
        k = [drp_test(dataset, blocks, seed=seed, weights=weights, repeats=2).ranks.k for blocks in (draws, copied)]
    else:
        model = DiagonalGaussianSampler() if test == "hpd-toy" else UninformativeSampler()
        scores = [lambda theta, toy=toy: model.log_density(theta, toy) for toy in toys]
        k = [hpd_test(dataset, StoredSampler(blocks, scores), n_post=len(blocks[0]), seed=seed).ranks.k
             for blocks in (draws, copied)]
    assert np.array_equal(k[0], k[1])


class FaultyDensity(ShiftedGaussian):
    """Calibrated draws whose log_density, at the observation ``bad_x`` only, is
    one value short or long, or non-finite at the block's row ``row``."""

    def __init__(self, fault, bad_x, row):
        super().__init__(0.0, 1.0)
        self.fault, self.bad_x, self.row = fault, bad_x, row

    def log_density(self, theta, x):
        out = super().log_density(theta, x)
        if x is not self.bad_x or self.fault == "prior-inf":
            return out
        if self.fault in ("short", "long"):
            return out[:-1] if self.fault == "short" else np.append(out, 0.0)
        out[self.row] = float(self.fault)
        return out


@PROPS
@given(cases(), st.data(), st.sampled_from([1, 3]), st.sampled_from(["short", "long", "nan", "inf", "-inf", "prior-inf"]))
def test_a_bad_score_fails_its_simulation_before_on_draws(case, data, repeats, fault):
    """A log density of the wrong count or non-finite at a drawn row, or an
    infinite reference point, fails the simulation it hits, by one rule for
    every test, before on_draws sees that simulation."""
    dataset, _, kw = case
    n, dim, bad = kw["n_post"], dataset.dim_theta, data.draw(st.integers(0, dataset.n_sims - 1))
    hit = bad * repeats + data.draw(st.integers(0, repeats - 1)) if fault == "prior-inf" else -1
    refs = itertools.count()  # the sampler path draws reference points in sim_id order, repeats in order
    policy = PriorDraw(draw=lambda g: np.full(dim, np.inf) if next(refs) == hit else g.uniform(-6.0, 6.0, dim))
    sampler = FaultyDensity(fault, dataset.observations[int(np.flatnonzero(dataset.sim_ids == bad)[0])],
                            data.draw(st.integers(1, n)))
    specs = data.draw(st.permutations([DrpSpec(policy, bounds=(-6.0, 6.0), repeats=repeats), HpdSpec()]))
    seen = []
    with pytest.raises(SimulationError) as err:
        coverage_tests(dataset, sampler, specs, n_post=n, seed=kw["seed"], on_draws=lambda sid, _: seen.append(sid))
    gave = {"prior-inf": "drp test gave non-finite scores", "short": f"hpd test gave {n} scores, expected {n + 1}",
            "long": f"hpd test gave {n + 2} scores, expected {n + 1}"}.get(fault, "hpd test gave non-finite scores")
    assert str(err.value) == f"simulation {bad}: {gave}"
    assert err.value.sim_id == bad and seen == list(range(bad))


class ColumnDensity(ShiftedGaussian):
    """ShiftedGaussian with its log densities as a (rows, 1) column."""

    def log_density(self, theta, x):
        return super().log_density(theta, x)[:, None]


@PROPS
@given(cases())
def test_a_log_density_column_ranks_as_its_vector(case):
    dataset, sampler, kw = case
    column = ColumnDensity(sampler.shift, sampler.scale)
    assert same_table(hpd_test(dataset, column, **hpd_kw(kw)).ranks, hpd_test(dataset, sampler, **hpd_kw(kw)).ranks)
