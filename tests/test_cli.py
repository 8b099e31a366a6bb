"""End-to-end CLI tests: subcommands, exit codes, file contracts, round trips."""

import inspect
import os
import subprocess
import sys
import tracemalloc
from xml.etree import ElementTree

import numpy as np
import pytest

import drpkit
from drpkit import benchmarks, cli
from drpkit.coverage import coverage_tests, drp_test, ecp_curve, hpd_test
from drpkit.fileio import (format_float, read_coverage_csv, write_coverage_csv, write_joint_file,
                           write_observation_file, write_posterior_file)
from drpkit.numerics import SeededRng


def run(*argv):
    return cli.main(list(argv))


def count_sample_calls(monkeypatch, sampler_cls):
    """Record the rng of every ``sampler_cls.sample`` call."""
    calls = []
    sample = sampler_cls.sample

    def counting_sample(self, x, n, rng):
        calls.append(rng)
        return sample(self, x, n, rng)

    monkeypatch.setattr(sampler_cls, "sample", counting_sample)
    return calls


def toy_args(out, case="correct", dim=2, n_sims=25, n_post=30, seed=7, extra=()):
    return ["toy", "--case", case, "--dim", str(dim), "--n-sims", str(n_sims),
            "--n-post", str(n_post), "--seed", str(seed), "--out", str(out), *extra]


class TestToyCommand:
    def test_writes_both_methods(self, tmp_path):
        assert run(*toy_args(tmp_path / "o")) == 0
        for name in ("drp.csv", "hpd.csv", "resolved_config.txt"):
            assert (tmp_path / "o" / name).exists()

    def test_config_echo_has_defaults(self, tmp_path):
        run(*toy_args(tmp_path / "o"))
        text = (tmp_path / "o" / "resolved_config.txt").read_text()
        assert "ref_policy=hypercube" in text
        assert "seed=7" in text

    def test_usage_error_on_zero_sims(self, tmp_path):
        code = run(*toy_args(tmp_path / "o", n_sims=0))
        assert code == 2

    def test_usage_error_on_bad_method(self, tmp_path):
        assert run(*toy_args(tmp_path / "o", extra=("--methods", "drp,nope"))) == 2

    def test_usage_error_on_missing_out(self):
        assert run("toy", "--case", "correct") == 2

    def test_deterministic_output_bytes(self, tmp_path):
        run(*toy_args(tmp_path / "a"))
        run(*toy_args(tmp_path / "b"))
        assert (tmp_path / "a" / "drp.csv").read_bytes() == (tmp_path / "b" / "drp.csv").read_bytes()
        assert (tmp_path / "a" / "hpd.csv").read_bytes() == (tmp_path / "b" / "hpd.csv").read_bytes()

    def test_csv_grid_and_alpha_contract(self, tmp_path):
        run(*toy_args(tmp_path / "o"))
        levels, alpha, ecp, lo, hi, meta = read_coverage_csv(tmp_path / "o" / "drp.csv")
        assert np.array_equal(levels, np.arange(101) / 100.0)
        assert np.all(levels + alpha == 1.0)
        assert np.all(np.diff(ecp) >= 0)
        assert meta["policy"] == "hypercube"

    def test_svg_written(self, tmp_path):
        run(*toy_args(tmp_path / "o", extra=("--svg",)))
        svg = (tmp_path / "o" / "coverage.svg").read_text()
        assert svg.count("<polyline") == 2  # one curve per method
        assert "stroke-dasharray" in svg    # the diagonal reference

    def test_svg_draws_a_repeated_method_once(self, tmp_path):
        run(*toy_args(tmp_path / "o", extra=("--methods", "drp,drp,hpd", "--svg")))
        svg = (tmp_path / "o" / "coverage.svg").read_text()
        assert svg.count("<polyline") == 2

    def test_prior_policy_runs(self, tmp_path):
        assert run(*toy_args(tmp_path / "o", extra=("--ref-policy", "prior"))) == 0

    @pytest.mark.parametrize("methods", ["drp", "hpd", "drp,hpd"])
    def test_dump_samples_does_not_sample_again(self, tmp_path, monkeypatch, methods):
        sample = benchmarks.DiagonalGaussianSampler.sample
        calls = count_sample_calls(monkeypatch, benchmarks.DiagonalGaussianSampler)
        out = tmp_path / "o"
        assert run(*toy_args(out, dim=3, n_sims=9, n_post=7, seed=4,
                             extra=("--methods", methods, "--dump-samples"))) == 0
        assert len(calls) == 9

        # the dump equals the file a second sampling pass and a per-value writer make
        dataset, sampler = benchmarks.generate_toy(benchmarks.ToyConfig(dim=3, n_sims=9), seed=4)
        lines = ["sim_id,sample_id,theta_0,theta_1,theta_2"]
        for i, sid in enumerate(dataset.sim_ids):
            draws = sample(sampler, dataset.observations[i], 7, SeededRng(4).substream("posterior", int(sid)))
            lines += [",".join([str(int(sid)), str(j)] + [format_float(v) for v in row])
                      for j, row in enumerate(draws)]
        assert (out / "toy_posterior.csv").read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_both_methods_sample_each_simulation_once(self, tmp_path, monkeypatch):
        calls = count_sample_calls(monkeypatch, benchmarks.DiagonalGaussianSampler)
        assert run(*toy_args(tmp_path / "o", dim=3, n_sims=9, n_post=7, seed=4,
                             extra=("--methods", "drp,hpd"))) == 0
        assert len(calls) == 9
        assert set(calls) == {SeededRng(4).substream("posterior", s) for s in range(9)}

    def test_dump_holds_one_simulation_at_a_time(self, tmp_path):
        draws_bytes = 200 * 500 * 10 * 8  # all the draws the dump writes: 8 MB
        tracemalloc.start()
        try:
            assert run(*toy_args(tmp_path / "o", dim=10, n_sims=200, n_post=500,
                                 extra=("--methods", "drp", "--dump-samples"))) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < draws_bytes / 3, peak


class TestRoundTrip:
    def test_coverage_holds_one_chunk_and_one_simulation(self, tmp_path):
        # a 20 MB posterior file, about 80 chunks of text, holding 8 MB of draws
        toy = tmp_path / "toy"
        assert run(*toy_args(toy, dim=10, n_sims=200, n_post=500,
                             extra=("--methods", "drp", "--dump-samples"))) == 0
        draws_bytes = 200 * 500 * 10 * 8
        argv = ["coverage", "--joint", str(toy / "toy_joint.csv"), "--posterior", str(toy / "toy_posterior.csv"),
                "--bounds=-5:5", "--seed", "7"]
        assert run(*argv, "--out", str(tmp_path / "untraced")) == 0  # also imports what a run needs
        assert (tmp_path / "untraced" / "drp.csv").read_bytes() == (toy / "drp.csv").read_bytes()
        tracemalloc.start()
        try:
            assert run(*argv, "--out", str(tmp_path / "traced")) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < draws_bytes / 3, peak
        assert (tmp_path / "traced" / "drp.csv").read_bytes() == (toy / "drp.csv").read_bytes()

    def test_coverage_reproduces_toy_drp_bit_exact(self, tmp_path):
        out = tmp_path / "toy"
        assert run(*toy_args(out, dim=3, n_sims=20, n_post=15, seed=11,
                             extra=("--dump-samples",))) == 0
        cov_out = tmp_path / "cov"
        code = run("coverage", "--joint", str(out / "toy_joint.csv"),
                   "--posterior", str(out / "toy_posterior.csv"),
                   "--bounds=-5:5", "--ref-policy", "hypercube",
                   "--seed", "11", "--out", str(cov_out))
        assert code == 0
        assert (out / "drp.csv").read_bytes() == (cov_out / "drp.csv").read_bytes()


class TestUninformativeCommand:
    def test_writes_three_curves(self, tmp_path):
        out = tmp_path / "u"
        assert run("uninformative", "--n-sims", "30", "--n-post", "25",
                   "--seed", "3", "--out", str(out)) == 0
        for name in ("hpd.csv", "drp-prior.csv", "drp-datashift.csv"):
            assert (out / name).exists()

    def test_three_curves_from_one_sampling_pass(self, tmp_path, monkeypatch):
        calls = count_sample_calls(monkeypatch, benchmarks.UninformativeSampler)
        out = tmp_path / "u"
        assert run("uninformative", "--n-sims", "30", "--n-post", "25",
                   "--seed", "3", "--out", str(out)) == 0
        assert len(calls) == 30
        # each curve is the one its own test call gives
        config = benchmarks.ConjugateConfig(n_sims=30)
        dataset, _ = benchmarks.generate_conjugate(config, seed=3)
        sampler = benchmarks.UninformativeSampler(config)
        expected = {
            "hpd.csv": (hpd_test(dataset, sampler, n_post=25, seed=3), "", ""),
            "drp-prior.csv": (drp_test(dataset, sampler, n_post=25, seed=3,
                                       policy=benchmarks.conjugate_prior_policy(config)),
                              "prior", "euclidean"),
            "drp-datashift.csv": (drp_test(dataset, sampler, n_post=25, seed=3,
                                           policy=benchmarks.conjugate_datashift_policy()),
                                  "datashift:0,1", "euclidean"),
        }
        for name, (curve, policy, metric) in expected.items():
            write_coverage_csv(tmp_path / name, curve, seed=3, policy=policy, metric=metric)
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_single_posterior_sample_quantized(self, tmp_path):
        out = tmp_path / "u1"
        assert run("uninformative", "--n-sims", "30", "--n-post", "1",
                   "--seed", "3", "--out", str(out)) == 0
        levels, _, ecp, *_ = read_coverage_csv(out / "drp-prior.csv")
        # with one draw each rank is 0 or 1: the curve has a single jump
        interior = ecp[(levels > 0) & (levels <= 1)]
        assert np.all(interior == interior[0])

    def test_missing_out_is_usage_error(self):
        assert run("uninformative", "--n-sims", "10") == 2


class TestLensingCommand:
    def test_runs_and_writes_grids(self, tmp_path):
        out = tmp_path / "l"
        code = run("lensing", "--estimator", "exact", "--source-size", "8",
                   "--n-sims", "4", "--n-post", "10", "--steps", "40",
                   "--seed", "1", "--out", str(out))
        assert code == 0
        assert (out / "exact.csv").exists()
        grids = (out / "sim000_grids.csv").read_text().splitlines()
        assert grids[0] == "row,col,truth,post_mean,post_std,residual"
        assert len(grids) == 1 + 64

    def test_grids_come_from_the_test_draws(self, tmp_path, monkeypatch):
        from drpkit import lensing as lensing_mod

        calls = []
        sample = lensing_mod.DiffusionPosteriorSampler.sample

        def counting_sample(self, x, n, rng):
            calls.append(rng)
            return sample(self, x, n, rng)

        monkeypatch.setattr(lensing_mod.DiffusionPosteriorSampler, "sample", counting_sample)
        out = tmp_path / "l"
        assert run("lensing", "--estimator", "biased", "--n-sims", "5", "--n-post", "12",
                   "--steps", "30", "--seed", "3", "--dump-grids", "2", "--out", str(out)) == 0
        assert len(calls) == 5
        assert sorted(p.name for p in out.glob("*_grids.csv")) == ["sim000_grids.csv", "sim001_grids.csv"]

        model = lensing_mod.build_model(source_side=8, obs_side=16, sigma_n=1.0,
                                        kernel_scale=0.3, seed=3)
        dataset = lensing_mod.make_dataset(model, 5, seed=3)
        sampler = lensing_mod.DiffusionPosteriorSampler(model, lensing_mod.VeSchedule(steps=30), "biased")
        draws = sampler.sample(dataset.observations[0], 12, SeededRng(3).substream("posterior", 0))
        cli._grid_csv(tmp_path / "expect.csv", 8, dataset.theta_true[0],
                      draws.mean(axis=0), draws.std(axis=0))
        assert (out / "sim000_grids.csv").read_bytes() == (tmp_path / "expect.csv").read_bytes()

    def test_zero_steps_usage_error(self, tmp_path):
        assert run("lensing", "--estimator", "exact", "--steps", "0",
                   "--out", str(tmp_path / "l")) == 2

    def test_divergence_exits_one_with_context(self, tmp_path, monkeypatch, capsys):
        from drpkit import lensing as lensing_mod

        def blow_up(model, schedule, kind):
            raise lensing_mod.DivergenceError(f"{kind} reverse SDE diverged at step 5", step=5)

        monkeypatch.setattr(lensing_mod, "_chain_law", blow_up)
        code = run("lensing", "--estimator", "biased", "--n-sims", "3",
                   "--n-post", "5", "--steps", "20", "--seed", "1",
                   "--out", str(tmp_path / "l"))
        assert code == 1
        err = capsys.readouterr().err
        assert "step 5" in err and "biased" in err


class TestCoverageCommand:
    def make_files(self, tmp_path, n_sims=12, n_post=10, dim=2, seed=5):
        g = SeededRng(seed).generator()
        truths = g.uniform(-1, 1, (n_sims, dim))
        joint = tmp_path / "joint.csv"
        write_joint_file(joint, np.arange(n_sims), truths)
        draws = {i: truths[i] + 0.5 * g.standard_normal((n_post, dim)) for i in range(n_sims)}
        post = tmp_path / "post.csv"
        write_posterior_file(post, draws)
        return joint, post

    def test_self_consistent_files_in_band(self, tmp_path):
        # truths and samples i.i.d. from the same per-sim distribution
        n_sims, n_post = 120, 80
        g = SeededRng(9).generator()
        centers = g.uniform(-2, 2, (n_sims, 2))
        pool = centers[:, None, :] + g.standard_normal((n_sims, n_post + 1, 2))
        truths = pool[:, 0, :]
        draws = {i: pool[i, 1:, :] for i in range(n_sims)}
        joint = tmp_path / "joint.csv"
        post = tmp_path / "post.csv"
        write_joint_file(joint, np.arange(n_sims), truths)
        write_posterior_file(post, draws)
        out = tmp_path / "out"
        assert run("coverage", "--joint", str(joint), "--posterior", str(post),
                   "--seed", "3", "--out", str(out)) == 0
        levels, _, ecp, *_ = read_coverage_csv(out / "drp.csv")
        hw = 3 * np.sqrt(levels * (1 - levels) / n_sims)
        assert np.mean(np.abs(ecp - levels) <= hw) >= 0.97

    def test_weight_count_is_checked_before_any_simulation(self, tmp_path, capsys):
        joint, post = self.make_files(tmp_path)
        weights = tmp_path / "w.txt"
        weights.write_text("1\n2\n3\n")
        assert run("coverage", "--joint", str(joint), "--posterior", str(post),
                   "--metric", f"weighted:{weights}", "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err == "error: metric has 3 weights, parameters have dimension 2\n"
        assert not (tmp_path / "o").exists()

    def test_missing_posterior_sim_exits_one(self, tmp_path, capsys):
        joint, post = self.make_files(tmp_path)
        lines = post.read_text().splitlines()
        kept = [ln for ln in lines if not ln.startswith("3,")]
        post.write_text("\n".join(kept) + "\n")
        code = run("coverage", "--joint", str(joint), "--posterior", str(post),
                   "--out", str(tmp_path / "o"))
        assert code == 1
        assert "sim_id 3" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["token", "outside", "missing"])
    def test_late_posterior_faults_name_their_line_and_write_nothing(self, tmp_path, capsys, fault):
        joint, post = self.make_files(tmp_path, n_sims=60, n_post=200)  # about 3 chunks of text
        lines = post.read_text().splitlines()
        if fault == "token":  # a value of the last row
            lines[-1] = lines[-1].rsplit(",", 1)[0] + ",oops"
            message = f"{post}:{len(lines)}: non-numeric value"
        elif fault == "outside":  # the last row's sim_id
            lines[-1] = "60," + lines[-1].split(",", 1)[1]
            message = f"{post}:{len(lines)}: sim_id 60 not present in the joint file"
        else:
            lines = [ln for ln in lines if not ln.startswith("41,")]
            message = f"{post}:1: no posterior samples for sim_id 41 (every sim needs >= 1 sample)"
        post.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert run("coverage", "--joint", str(joint), "--posterior", str(post), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_usage_errors_come_before_the_posterior_is_read(self, tmp_path, capsys):
        joint, _ = self.make_files(tmp_path)
        out = tmp_path / "o"
        assert run("coverage", "--joint", str(joint), "--posterior", str(tmp_path / "missing.csv"),
                   "--metric", "bogus", "--out", str(out)) == 2
        assert "unknown --metric 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_row_order_does_not_change_the_curve(self, tmp_path):
        joint, post = self.make_files(tmp_path, n_sims=30, n_post=40)
        header, *rows = post.read_text().splitlines()
        shuffled = tmp_path / "shuffled.csv"
        order = SeededRng(3).generator().permutation(len(rows))
        shuffled.write_text("\n".join([header] + [rows[i] for i in order]) + "\n")
        for name, path in (("sorted", post), ("shuffled", shuffled)):
            assert run("coverage", "--joint", str(joint), "--posterior", str(path),
                       "--out", str(tmp_path / name)) == 0
        assert (tmp_path / "sorted" / "drp.csv").read_bytes() == (tmp_path / "shuffled" / "drp.csv").read_bytes()

    def test_weighted_metric_zero_weight_usage_error(self, tmp_path):
        joint, post = self.make_files(tmp_path)
        wfile = tmp_path / "w.txt"
        wfile.write_text("1.0\n0.0\n")
        code = run("coverage", "--joint", str(joint), "--posterior", str(post),
                   "--metric", f"weighted:{wfile}", "--out", str(tmp_path / "o"))
        assert code == 2

    def test_weighted_metric_runs(self, tmp_path):
        joint, post = self.make_files(tmp_path)
        wfile = tmp_path / "w.txt"
        wfile.write_text("1.0\n2.5\n")
        assert run("coverage", "--joint", str(joint), "--posterior", str(post),
                   "--metric", f"weighted:{wfile}", "--out", str(tmp_path / "o")) == 0

    def test_datashift_requires_obs(self, tmp_path):
        joint, post = self.make_files(tmp_path)
        assert run("coverage", "--joint", str(joint), "--posterior", str(post),
                   "--ref-policy", "datashift:0,1.0", "--out", str(tmp_path / "o")) == 2

    def test_datashift_with_obs(self, tmp_path):
        g = SeededRng(4).generator()
        truths = g.uniform(-1, 1, (8, 1))
        joint = tmp_path / "joint.csv"
        write_joint_file(joint, np.arange(8), truths)
        write_posterior_file(tmp_path / "post.csv",
                             {i: truths[i] + g.standard_normal((6, 1)) for i in range(8)})
        from drpkit.fileio import write_observation_file
        write_observation_file(tmp_path / "obs.csv", np.arange(8),
                               g.standard_normal((8, 3)))
        assert run("coverage", "--joint", str(joint),
                   "--posterior", str(tmp_path / "post.csv"),
                   "--obs", str(tmp_path / "obs.csv"),
                   "--ref-policy", "datashift:0,1.0",
                   "--out", str(tmp_path / "o")) == 0

    def test_prior_file_policy(self, tmp_path):
        joint, post = self.make_files(tmp_path)
        pfile = tmp_path / "prior.csv"
        pfile.write_text("0.0,0.0\n1.0,-1.0\n0.5,0.5\n")
        assert run("coverage", "--joint", str(joint), "--posterior", str(post),
                   "--ref-policy", f"prior-file:{pfile}", "--out", str(tmp_path / "o")) == 0

    @pytest.mark.parametrize("text, where", [
        ("0.0,0.0\n\n1.0,abc\n", ":3: non-numeric value"),  # blank lines are numbered
        ("0.0,0.0\n1.0,inf\n", ":2: non-finite value"),
        ("0.0\n", ":1: expected 2 columns, got 1"),
        ("\n  \n", ":1: empty prior-draw file"),
    ])
    def test_prior_file_errors_name_the_line(self, tmp_path, capsys, text, where):
        joint, post = self.make_files(tmp_path)
        pfile = tmp_path / "prior.csv"
        pfile.write_text(text)
        assert run("coverage", "--joint", str(joint), "--posterior", str(post),
                   "--ref-policy", f"prior-file:{pfile}", "--out", str(tmp_path / "o")) == 1
        assert f"{pfile}{where}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--bounds=0:inf"],
        ["--bounds=-inf:inf"],
        ["--ref-policy", "datashift:0,nan"],
        ["--ref-policy", "datashift:0,inf"],
        ["--ref-policy", "datashift:-1,1"],
        ["--metric", "weighted:{weights}"],
    ])
    def test_non_finite_or_negative_inputs_are_usage_errors(self, tmp_path, flags):
        g = SeededRng(8).generator()
        truths = g.uniform(-1, 1, (50, 1))
        write_joint_file(tmp_path / "joint.csv", np.arange(50), truths)
        write_posterior_file(tmp_path / "post.csv", {i: truths[i] + g.standard_normal((10, 1)) for i in range(50)})
        write_observation_file(tmp_path / "obs.csv", np.arange(50), g.standard_normal((50, 2)))
        (tmp_path / "w.txt").write_text("inf\n")
        out = tmp_path / "o"
        assert run("coverage", "--joint", str(tmp_path / "joint.csv"), "--posterior", str(tmp_path / "post.csv"),
                   "--obs", str(tmp_path / "obs.csv"), "--out", str(out),
                   *[f.format(weights=tmp_path / "w.txt") for f in flags]) == 2
        assert not out.exists()

    def test_overflowing_bounds_print_only_the_usage_error(self, tmp_path):
        joint, post = self.make_files(tmp_path)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(drpkit.__file__)))
        proc = subprocess.run([sys.executable, "-W", "default", "-m", "drpkit.cli", "coverage",
                               "--joint", str(joint), "--posterior", str(post), "--bounds=-1e308:1e308",
                               "--out", str(tmp_path / "o")], env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        usage, error = proc.stderr.splitlines()
        assert usage.startswith("usage: drpkit ")
        assert error.startswith("drpkit: error: --bounds -1e308:1e308: offset and scale must be finite")
        assert not (tmp_path / "o").exists()

    def test_bounds_file(self, tmp_path):
        joint, post = self.make_files(tmp_path)
        bfile = tmp_path / "bounds.csv"
        bfile.write_text("-3,3\n-3,3\n")
        assert run("coverage", "--joint", str(joint), "--posterior", str(post),
                   "--bounds", f"file:{bfile}", "--out", str(tmp_path / "o")) == 0

    def test_varying_sample_counts_allowed(self, tmp_path):
        g = SeededRng(6).generator()
        truths = g.uniform(-1, 1, (4, 1))
        joint = tmp_path / "joint.csv"
        write_joint_file(joint, np.arange(4), truths)
        draws = {i: g.standard_normal((3 + i, 1)) for i in range(4)}
        write_posterior_file(tmp_path / "post.csv", draws)
        out = tmp_path / "o"
        assert run("coverage", "--joint", str(joint),
                   "--posterior", str(tmp_path / "post.csv"), "--out", str(out)) == 0
        *_, meta = read_coverage_csv(out / "drp.csv")
        assert meta["n_post"] == "0"  # mixed counts


class TestPlotCommand:
    def test_single_curve(self, tmp_path):
        out = tmp_path / "t"
        run(*toy_args(out, extra=("--methods", "drp")))
        svg_path = tmp_path / "one.svg"
        assert run("plot", "--in", str(out / "drp.csv"), "--out", str(svg_path)) == 0
        svg = svg_path.read_text()
        assert svg.count("<polyline") == 1
        assert svg.count("stroke-dasharray") == 1

    def test_three_curves_three_legend_entries(self, tmp_path):
        out = tmp_path / "u"
        run("uninformative", "--n-sims", "15", "--n-post", "10", "--seed", "1",
            "--out", str(out))
        svg_path = tmp_path / "three.svg"
        files = ",".join(str(out / n) for n in ("hpd.csv", "drp-prior.csv", "drp-datashift.csv"))
        assert run("plot", "--in", files, "--out", str(svg_path)) == 0
        svg = svg_path.read_text()
        assert svg.count("<polyline") == 3
        assert svg.count("<polygon") == 3

    def test_legend_escapes_a_policy_path(self, tmp_path):
        joint, post = TestCoverageCommand().make_files(tmp_path)
        pfile = tmp_path / "a&b<1>.csv"
        pfile.write_text("0.5,0.5\n-0.5,0.25\n")
        out = tmp_path / "o"
        assert run("coverage", "--joint", str(joint), "--posterior", str(post),
                   "--ref-policy", f"prior-file:{pfile}", "--out", str(out)) == 0
        assert run("plot", "--in", str(out / "drp.csv"), "--out", str(tmp_path / "p.svg")) == 0
        texts = [t.text for t in ElementTree.parse(tmp_path / "p.svg").iter("{http://www.w3.org/2000/svg}text")]
        assert f"drp prior-file:{pfile}" in texts

    def test_header_only_csv_errors(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("credibility,alpha,ecp,band_lo,band_hi\n")
        assert run("plot", "--in", str(bad), "--out", str(tmp_path / "x.svg")) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_the_line_and_writes_no_svg(self, tmp_path, capsys, value):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"credibility,alpha,ecp,band_lo,band_hi\n0,1,0,0,0\n0.5,0.5,{value},0.4,0.6\n")
        assert run("plot", "--in", str(bad), "--out", str(tmp_path / "x.svg")) == 1
        assert f"{bad}:3: non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert run("frobnicate") == 2

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    @pytest.mark.parametrize("command", ["toy", "uninformative", "lensing", "coverage"])
    def test_out_of_range_seed_is_a_usage_error_that_writes_nothing(self, tmp_path, capsys, command, seed):
        flags = {"toy": ["--case", "correct"], "uninformative": [], "lensing": ["--estimator", "exact"],
                 "coverage": ["--joint", str(tmp_path / "joint.csv"), "--posterior", str(tmp_path / "post.csv")]}
        out = tmp_path / "o"
        assert run(command, *flags[command], "--seed", str(seed), "--out", str(out)) == 2
        assert "argument --seed" in capsys.readouterr().err
        assert not out.exists()

    def test_version_flag(self, capsys):
        code = run("--version")
        assert code == 0


def test_cli_import_loads_no_scipy():
    code = "import sys, drpkit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(drpkit.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_numpy_random():
    code = "import sys, drpkit.cli; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(drpkit.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_coverage_run_loads_no_numpy_ma(tmp_path):
    joint, post = TestCoverageCommand().make_files(tmp_path)
    code = ("import sys; from drpkit import cli; "
            f"assert cli.main(['coverage', '--joint', {str(joint)!r}, '--posterior', {str(post)!r}, "
            f"'--out', {str(tmp_path / 'o')!r}]) == 0; print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(drpkit.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_public_names_are_pinned():
    assert sorted(drpkit.__all__) == [
        "ConjugateConfig", "CoverageCurve", "DataShift", "DecompositionError",
        "DensityUnavailableError", "DiagonalGaussianSampler", "DiffusionPosteriorSampler", "DistanceMetric",
        "DivergenceError", "DrpSpec", "Euclidean", "HpdSpec", "JointSampleSet", "LensingModel",
        "NormalizationError", "NormalizationMap", "OperatorError", "PosteriorSampler", "PriorDraw", "PriorError",
        "RankTable", "ReferencePolicy", "SeededRng", "SimulationError", "ToyConfig", "ToySimulation",
        "UninformativeSampler", "UnitHypercubeUniform", "VeSchedule", "WeightedEuclidean",
        "biased_mean", "binomial_band", "build_model", "build_operator", "build_prior", "cholesky",
        "conjugate_datashift_policy", "conjugate_posterior", "conjugate_posterior_params",
        "conjugate_prior_policy", "coverage_tests", "default_levels", "drp_test",
        "ecp_curve", "fit_normalization", "generate_conjugate", "generate_toy", "hpd_test",
        "ks_uniform_statistic", "lensing_prior_policy", "likelihood_score", "make_dataset",
        "norm_cdf", "norm_isf", "prior_score", "sample_reference", "simulate", "toy_prior_policy",
    ]


@pytest.mark.parametrize("fn, params", [
    (coverage_tests, ["dataset", "source", "tests", "n_post", "levels", "seed", "on_draws"]),
    (drp_test, ["dataset", "source", "n_post", "policy", "metric", "levels", "seed", "bounds", "repeats",
                "on_draws"]),
    (hpd_test, ["dataset", "sampler", "n_post", "levels", "seed", "on_draws"]),
    (ecp_curve, ["ranks", "levels"]),
])
def test_engine_parameters_are_pinned(fn, params):
    assert list(inspect.signature(fn).parameters) == params
