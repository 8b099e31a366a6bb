"""Tests for random streams, normal special functions, and stat utilities."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf

from drpkit.numerics import (
    DecompositionError,
    SeededRng,
    binomial_band,
    cholesky,
    ks_uniform_statistic,
    norm_cdf,
    norm_isf,
    parallel_map,
    thread_cap,
)


def phi_quadrature(z, n=200_001):
    """Independent oracle: trapezoidal quadrature of the standard normal pdf."""
    lo = -12.0
    xs = np.linspace(lo, z, n)
    pdf = np.exp(-0.5 * xs * xs) / np.sqrt(2 * np.pi)
    return float(np.trapezoid(pdf, xs))


def isf_bisection(p, iters=200):
    """Independent oracle: plain bisection of norm_cdf for the ISF."""
    lo, hi = -40.0, 40.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if norm_cdf(mid) < 1.0 - p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestNormCdf:
    def test_symmetry_point(self):
        assert norm_cdf(0.0) == 0.5

    def test_against_quadrature(self):
        # frozen from the quadrature oracle (and re-checked against it here)
        assert norm_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)
        assert norm_cdf(-2.0) == pytest.approx(0.022750131948179195, abs=1e-12)
        assert norm_cdf(1.0) == pytest.approx(phi_quadrature(1.0), abs=1e-9)
        assert norm_cdf(-2.0) == pytest.approx(phi_quadrature(-2.0), abs=1e-9)

    def test_complement_identity(self):
        for z in np.linspace(-8, 8, 321):
            assert abs(norm_cdf(z) + norm_cdf(-z) - 1.0) <= 1e-12

    def test_monotone(self):
        vals = [norm_cdf(z) for z in np.linspace(-10, 10, 401)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            norm_cdf(float("nan"))


class TestNormIsf:
    def test_median(self):
        assert norm_isf(0.5) == 0.0

    def test_against_bisection_oracle(self):
        assert norm_isf(0.1586553) == pytest.approx(1.0, abs=1e-5)
        assert norm_isf(0.0227501) == pytest.approx(2.0, abs=1e-5)
        for p in (0.1586553, 0.0227501, 0.42, 0.9, 1e-6):
            assert norm_isf(p) == pytest.approx(isf_bisection(p), abs=1e-9)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.25, 1.5])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            norm_isf(p)

    def test_strictly_decreasing(self):
        vals = [norm_isf(p) for p in np.linspace(0.001, 0.999, 499)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_cdf_round_trip(self):
        for p in np.linspace(1e-9, 1 - 1e-9, 501):
            assert abs(norm_cdf(norm_isf(p)) - (1.0 - p)) <= 1e-10

    def test_identity_on_z_range(self):
        # norm_isf(1 - norm_cdf(z)) recovers z on [-6, 6] within 1e-8
        for z in np.linspace(-6.0, 6.0, 601):
            assert abs(norm_isf(1.0 - norm_cdf(z)) - z) <= 1e-8


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_two_by_two(self):
        # L = [[2, 0], [1, sqrt(2)]] by hand multiplication of L L^T
        L = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        expect = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        assert np.allclose(L, expect, atol=1e-14)

    def test_indefinite_names_pivot(self):
        with pytest.raises(DecompositionError) as err:
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert err.value.pivot == 1
        assert "pivot 1" in str(err.value)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 48), st.data())
    def test_pivot_matches_lapack_info(self, n, data):
        # A = L diag(d) L^T with L unit lower-triangular has the running products
        # of d as leading minors: the first negative d_k makes the order k + 1
        # block the smallest one that is not positive definite
        k = data.draw(st.integers(0, n - 1))
        g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        L = np.eye(n) + np.tril(g.uniform(-1.0, 1.0, (n, n)), -1) / np.sqrt(n)
        d = g.uniform(0.5, 2.0, n) * np.where(np.arange(n) < k, 1.0, g.choice([-1.0, 1.0], n))
        d[k] = -abs(d[k])
        a = (L * d) @ L.T
        a = (a + a.T) / 2
        with pytest.raises(DecompositionError) as err:
            cholesky(a)
        info = dpotrf(a, lower=1)[1]  # LAPACK's 1-based order of the failing minor
        assert err.value.pivot == info - 1 == k
        assert f"pivot {k}" in str(err.value)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            cholesky(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_round_trip_random_spd(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 8, 17, 33, 64):
            for _ in range(4):
                B = rng.standard_normal((n, n))
                m = B @ B.T + n * np.eye(n)
                L = cholesky(m)
                assert np.all(np.tril(L) == L)
                rel = np.linalg.norm(L @ L.T - m) / np.linalg.norm(m)
                assert rel < 1e-8
                # dual route against LAPACK
                assert np.allclose(L, np.linalg.cholesky(m), rtol=1e-10, atol=1e-10)


class TestKsUniformStatistic:
    def test_single_point(self):
        assert ks_uniform_statistic([0.5]) == 0.5

    def test_degenerate_mass_at_zero(self):
        assert ks_uniform_statistic([0.0, 0.0, 0.0, 0.0]) == 1.0

    def test_three_even_points(self):
        # sup over the 3-step empirical CDF: attained approaching 0.25 from the
        # left and at 0.75, both giving 1/4 (checked by the dense-grid oracle)
        v = [0.25, 0.5, 0.75]
        assert ks_uniform_statistic(v) == pytest.approx(0.25, abs=1e-15)
        grid = np.linspace(0, 1, 100_001)
        ecdf = np.searchsorted(np.sort(v), grid, side="right") / 3
        assert ks_uniform_statistic(v) == pytest.approx(np.abs(ecdf - grid).max(), abs=1e-4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_uniform_statistic([])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ks_uniform_statistic([0.2, 1.2])

    def test_uniform_draws_small_statistic(self):
        # null p99.9 over 3000 Monte-Carlo trials is ~0.0195; 0.025 is the
        # calibrated CI threshold
        g = SeededRng(123).generator()
        assert ks_uniform_statistic(g.uniform(size=10_000)) < 0.025


class TestBinomialBand:
    def test_arithmetic(self):
        band = binomial_band([0.5], 100, z=1.0)
        assert band[0] == pytest.approx(0.05, abs=1e-15)

    def test_endpoint_zero(self):
        band = binomial_band([0.0], 100, z=3.0)
        assert band[0] == 0.0

    def test_derived_value(self):
        band = binomial_band([0.9], 500, z=3.0)
        assert band[0] == pytest.approx(3.0 * np.sqrt(0.09 / 500), abs=1e-15)
        assert band[0] == pytest.approx(0.04025, abs=1e-5)

    def test_width_shrinks_with_n(self):
        wide = binomial_band([0.5], 100)[0]
        narrow = binomial_band([0.5], 10_000)[0]
        assert narrow < wide

    def test_rejects_zero_sims(self):
        with pytest.raises(ValueError):
            binomial_band([0.5], 0)


class TestSeededRng:
    def test_reproducible_draws(self):
        a = SeededRng(99, 5).generator().standard_normal(10_000)
        b = SeededRng(99, 5).generator().standard_normal(10_000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = SeededRng(99, 5).generator().standard_normal(100)
        b = SeededRng(99, 6).generator().standard_normal(100)
        assert not np.array_equal(a, b)

    def test_substream_deterministic(self):
        s1 = SeededRng(3).substream("posterior", 17)
        s2 = SeededRng(3).substream("posterior", 17)
        assert s1 == s2
        assert s1 != SeededRng(3).substream("posterior", 18)
        assert s1 != SeededRng(3).substream("reference", 17)

    @pytest.mark.xfail(strict=True, reason="Philox(key=[seed, stream]) rounds streams >= 2**63 "
                       "through float64; the exact uint64 key is a ROADMAP item")
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
    @pytest.mark.parametrize("a, b", [(2**63 + 4096, 2**63 + 4097), (2**64 - 1, 0)])
    def test_streams_past_2_63_are_distinct(self, a, b):
        x = SeededRng(0, a).generator().standard_normal(8)
        y = SeededRng(0, b).generator().standard_normal(8)
        assert not np.array_equal(x, y)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([2**63 - 1, 2**63, 2**63 + 4097, 2**64 - 1])),
           st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 2**63, 2**63 + 4096, 2**64 - 1])))
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
    def test_generator_draws_the_stream_numpy_keys_from_the_pair(self, seed, stream):
        g = SeededRng(seed, stream).generator()
        expected = np.random.Generator(np.random.Philox(key=[seed, stream]))
        assert np.array_equal(g.integers(0, 2**64, 4, dtype=np.uint64),
                              expected.integers(0, 2**64, 4, dtype=np.uint64))
        assert np.array_equal(g.standard_normal(3), expected.standard_normal(3))
        seq = g.bit_generator.seed_seq  # the key itself, not an entropy-drawn SeedSequence
        assert not isinstance(seq, np.random.SeedSequence)
        assert np.array_equal(seq.generate_state(2, np.uint64), expected.bit_generator.state["state"]["key"])

    def test_generator_pickles(self):
        g = SeededRng(7, 2**63 + 5).generator()
        g.random(3)
        h = pickle.loads(pickle.dumps(g))
        assert np.array_equal(h.random(5), g.random(5))

    def test_substream_key_types(self):
        with pytest.raises(TypeError):
            SeededRng(3).substream(1.5)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            SeededRng(-1)
        with pytest.raises(ValueError):
            SeededRng(1 << 64)


class TestParallelMap:
    def test_serial_default(self, monkeypatch):
        monkeypatch.delenv("DRPKIT_THREADS", raising=False)
        assert thread_cap() == 1
        assert list(parallel_map(lambda v: v * v, range(10))) == [v * v for v in range(10)]

    def test_threaded_matches_serial(self, monkeypatch):
        def work(i):
            g = SeededRng(5).substream("task", i).generator()
            return g.standard_normal(100).sum()

        monkeypatch.delenv("DRPKIT_THREADS", raising=False)
        serial = list(parallel_map(work, range(32)))
        monkeypatch.setenv("DRPKIT_THREADS", "4")
        assert thread_cap() == 4
        threaded = list(parallel_map(work, range(32)))
        assert serial == threaded

    @pytest.mark.parametrize("cap", ["1", "3"])
    def test_results_are_yielded_with_few_tasks_in_flight(self, monkeypatch, cap):
        monkeypatch.setenv("DRPKIT_THREADS", cap)
        started = []

        def work(i):
            started.append(i)
            if i == 20:
                raise RuntimeError("task 20")
            return i

        results = parallel_map(work, range(40))
        for i in range(20):
            assert next(results) == i
            assert len(started) <= i + 1 + 2 * int(cap)  # at most two tasks per thread ahead
        with pytest.raises(RuntimeError, match="task 20"):
            next(results)
        assert len(started) <= 21 + 2 * int(cap)  # no task starts after the failure

    def test_auto_cap(self, monkeypatch):
        monkeypatch.setenv("DRPKIT_THREADS", "0")
        assert thread_cap() >= 1

    @pytest.mark.parametrize("cap", ["1", "3"])
    def test_items_are_pulled_only_as_tasks_start(self, monkeypatch, cap):
        monkeypatch.setenv("DRPKIT_THREADS", cap)
        pulled = []

        def source():
            for i in range(40):
                pulled.append(i)
                yield i

        results = parallel_map(lambda v: -v, source())
        assert not pulled  # nothing is pulled before the first result is asked for
        for i in range(40):
            assert next(results) == -i
            assert len(pulled) <= i + 2 * int(cap) + 1
        assert next(results, None) is None

    @pytest.mark.parametrize("raw", ["many", "-1"])
    def test_invalid_cap(self, monkeypatch, raw):
        monkeypatch.setenv("DRPKIT_THREADS", raw)
        with pytest.raises(ValueError, match="non-negative integer"):
            thread_cap()
