"""Round-trip and schema tests for the CSV interchange formats."""

import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from drpkit.coverage import RankTable, default_levels, ecp_curve
from drpkit.fileio import (
    SchemaError,
    posterior_writer,
    read_coverage_csv,
    read_joint_file,
    read_observation_file,
    read_posterior_runs,
    write_coverage_csv,
    write_joint_file,
    write_observation_file,
    write_posterior_file,
    write_resolved_config,
)
from drpkit.numerics import SeededRng


def sample_curve(n=40, seed=5):
    g = SeededRng(seed).generator()
    ranks = RankTable(sim_id=np.arange(n), k=g.integers(0, 26, size=n), n=np.full(n, 25),
                      theta_r=g.uniform(size=(n, 1)))
    return ecp_curve(ranks)


class TestCoverageCsv:
    def test_round_trip(self, tmp_path):
        curve = sample_curve()
        path = tmp_path / "c.csv"
        write_coverage_csv(path, curve, seed=7, policy="hypercube", metric="euclidean")
        levels, alpha, ecp, lo, hi, meta = read_coverage_csv(path)
        assert np.array_equal(levels, curve.levels)
        assert np.array_equal(ecp, curve.ecp)
        assert meta == {"method": "drp", "n_sims": "40", "n_post": "25",
                        "seed": "7", "policy": "hypercube", "metric": "euclidean"}

    def test_credibility_plus_alpha_is_one(self, tmp_path):
        path = tmp_path / "c.csv"
        write_coverage_csv(path, sample_curve(), seed=0)
        levels, alpha, *_ = read_coverage_csv(path)
        assert np.all(levels + alpha == 1.0)

    def test_default_grid_exact(self, tmp_path):
        path = tmp_path / "c.csv"
        write_coverage_csv(path, sample_curve(), seed=0)
        levels, *_ = read_coverage_csv(path)
        assert np.array_equal(levels, default_levels())

    def test_band_columns_bracket_estimate(self, tmp_path):
        path = tmp_path / "c.csv"
        write_coverage_csv(path, sample_curve(), seed=0)
        _, _, ecp, lo, hi, _ = read_coverage_csv(path)
        assert np.all((lo <= ecp) & (ecp <= hi))
        assert np.all((lo >= 0) & (hi <= 1))

    def test_rows_sorted(self, tmp_path):
        path = tmp_path / "c.csv"
        write_coverage_csv(path, sample_curve(), seed=0)
        levels, *_ = read_coverage_csv(path)
        assert np.all(np.diff(levels) > 0)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2,3,4,5\n")
        with pytest.raises(SchemaError):
            read_coverage_csv(path)

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("credibility,alpha,ecp,band_lo,band_hi\n")
        with pytest.raises(SchemaError):
            read_coverage_csv(path)


class TestSampleFiles:
    def test_joint_round_trip_lossless(self, tmp_path):
        g = SeededRng(2).generator()
        thetas = g.standard_normal((6, 3)) * np.pi
        path = tmp_path / "joint.csv"
        write_joint_file(path, np.arange(6), thetas)
        ids, back = read_joint_file(path)
        assert np.array_equal(back, thetas)
        assert np.array_equal(ids, np.arange(6))

    def test_posterior_round_trip(self, tmp_path):
        g = SeededRng(3).generator()
        draws = {i: g.standard_normal((4, 2)) for i in range(3)}
        path = tmp_path / "post.csv"
        write_posterior_file(path, draws)
        back = list(read_posterior_runs(path, n_sims=3))
        assert [(sid, line) for sid, line, _ in back] == [(0, 2), (1, 6), (2, 10)]
        for i, (_, _, rows) in enumerate(back):
            assert np.array_equal(rows, draws[i])

    def test_observation_round_trip(self, tmp_path):
        g = SeededRng(4).generator()
        xs = g.standard_normal((5, 7))
        path = tmp_path / "obs.csv"
        write_observation_file(path, np.arange(5), xs)
        ids, back = read_observation_file(path, n_sims=5)
        assert np.array_equal(back, xs)

    def test_missing_sim_id_dense_check(self, tmp_path):
        path = tmp_path / "joint.csv"
        path.write_text("sim_id,theta_0\n0,1.0\n2,2.0\n")
        with pytest.raises(SchemaError) as err:
            read_joint_file(path)
        assert str(err.value) == f"{path}:3: sim_ids must be dense in [0, N); missing or duplicated near [1]"

    def test_write_posterior_file_needs_a_simulation(self, tmp_path):
        with pytest.raises(ValueError, match="no simulations to write"):
            write_posterior_file(tmp_path / "post.csv", {})
        assert list(tmp_path.iterdir()) == []

    def test_write_posterior_file_rejects_mixed_dimensions(self, tmp_path):
        path = tmp_path / "post.csv"
        mixed = {0: np.zeros((1, 2)), 1: np.ones((1, 3))}
        with pytest.raises(ValueError) as err:
            write_posterior_file(path, mixed)
        assert str(err.value) == "samples for sim_id 1 have dimension 3, sim_id 0 has 2"
        assert list(tmp_path.iterdir()) == []
        # an existing file is left as it was
        write_posterior_file(path, {0: np.zeros((1, 2))})
        before = path.read_bytes()
        with pytest.raises(ValueError, match="sim_id 1 have dimension 3"):
            write_posterior_file(path, mixed)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("block", [np.zeros(3), np.zeros((1, 2, 2)), np.float64(1.0)])
    def test_write_posterior_file_rejects_blocks_that_are_not_2d(self, tmp_path, block):
        path = tmp_path / "post.csv"
        with pytest.raises(ValueError) as err:
            write_posterior_file(path, {0: np.zeros((1, 2)), 4: block})
        assert str(err.value) == f"samples for sim_id 4 have shape {np.shape(block)}, expected (n, D)"
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_stream_writes_nothing(self, tmp_path):
        def failed_stream(path):
            with pytest.raises(RuntimeError, match="sampler failed"):
                with posterior_writer(path) as write:
                    for sid in range(3):  # past the write buffer, so rows reach the temp file
                        write(sid, np.zeros((1000, 3)))
                    raise RuntimeError("sampler failed")

        path = tmp_path / "post.csv"
        failed_stream(path)
        assert list(tmp_path.iterdir()) == []
        write_posterior_file(path, {0: np.ones((2, 3))})
        before = path.read_bytes()
        failed_stream(path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_posterior_missing_sim(self, tmp_path):
        g = SeededRng(5).generator()
        path = tmp_path / "post.csv"
        write_posterior_file(path, {0: g.standard_normal((2, 1))})
        with pytest.raises(SchemaError) as err:
            list(read_posterior_runs(path, n_sims=2))
        assert "sim_id 1" in str(err.value)

    def test_non_finite_named_line(self, tmp_path):
        path = tmp_path / "joint.csv"
        path.write_text("sim_id,theta_0\n0,1.0\n1,inf\n")
        with pytest.raises(SchemaError) as err:
            read_joint_file(path)
        assert ":3:" in str(err.value)

    def test_non_numeric_named_line(self, tmp_path):
        path = tmp_path / "joint.csv"
        path.write_text("sim_id,theta_0\n0,abc\n")
        with pytest.raises(SchemaError) as err:
            read_joint_file(path)
        assert ":2:" in str(err.value)

    def test_duplicate_sim_id(self, tmp_path):
        path = tmp_path / "joint.csv"
        path.write_text("sim_id,theta_0\n0,1.0\n0,2.0\n")
        with pytest.raises(SchemaError):
            read_joint_file(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "joint.csv"
        path.write_text("sim,theta_0\n0,1.0\n")
        with pytest.raises(SchemaError):
            read_joint_file(path)


class TestMisc:
    def test_atomic_write_leaves_no_temp(self, tmp_path):
        write_joint_file(tmp_path / "j.csv", [0], np.zeros((1, 1)))
        assert sorted(os.listdir(tmp_path)) == ["j.csv"]

    @pytest.mark.skipif(os.name != "posix", reason="umask is POSIX")
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["022", "027"])
    def test_written_files_follow_the_umask(self, tmp_path, umask, mode):
        # the module reads the umask once, at import, so each case runs in a
        # fresh interpreter started under that umask
        import drpkit

        src = os.path.dirname(os.path.dirname(drpkit.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        target = tmp_path / "j.csv"
        script = "import sys; from drpkit.fileio import write_joint_file; write_joint_file(sys.argv[1], [0], [[1.0]])"
        subprocess.run([sys.executable, "-c", script, str(target)], env=env, umask=umask, check=True)
        assert stat.S_IMODE(target.stat().st_mode) == mode

    def test_resolved_config_sorted(self, tmp_path):
        write_resolved_config(tmp_path, {"zeta": 1, "alpha": "x"})
        lines = (tmp_path / "resolved_config.txt").read_text().splitlines()
        assert lines == ["alpha=x", "zeta=1"]

    def test_resolved_config_round_trip(self, tmp_path):
        from drpkit.fileio import read_resolved_config

        write_resolved_config(tmp_path, {"seed": 7, "out": "dir/sub", "case": "biased"})
        back = read_resolved_config(tmp_path / "resolved_config.txt")
        assert back == {"seed": "7", "out": "dir/sub", "case": "biased"}
