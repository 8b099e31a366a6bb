"""Round-trip and schema tests for the CSV interchange formats."""

import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from drpkit import cli, fileio
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
from test_fileio_properties import ref_format


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

    @pytest.mark.parametrize("row, message", [("0.5,0.5,abc,0,1", "non-numeric value"),
                                              ("0.5,0.5,nan,0,1", "non-finite value")])
    def test_bad_values_read_as_in_the_sample_files(self, tmp_path, row, message):
        path = tmp_path / "c.csv"
        path.write_text(f"credibility,alpha,ecp,band_lo,band_hi\n0,1,0,0,0\n{row}\n")
        with pytest.raises(SchemaError, match=f"^{path}:3: {message}$"):
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
        assert [sid for sid, _ in back] == [0, 1, 2]  # a file of one chunk: one run per simulation
        for i, (_, rows) in enumerate(back):
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

    @pytest.mark.parametrize("sim_ids, values", [
        ([0], np.zeros((3, 2))),             # fewer ids than rows
        ([0, 1, 2], np.zeros((2, 4))),       # more ids than rows
        ([0, 1, 2], np.zeros(3)),            # 1-D values
        ([], np.zeros((0, 2))),              # no simulation
    ], ids=["fewer-ids", "more-ids", "1d-values", "zero-rows"])
    @pytest.mark.parametrize("writer", [write_joint_file, write_observation_file])
    def test_id_writers_refuse_shapes_the_readers_refuse(self, tmp_path, writer, sim_ids, values):
        with pytest.raises(ValueError) as err:
            writer(tmp_path / "out.csv", sim_ids, values)
        assert str(err.value) == (f"sim_ids {np.shape(sim_ids)} and values {values.shape} "
                                  f"are not (N,) and (N, D), N, D >= 1")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("block", [np.zeros(3), np.zeros((1, 2, 2)), np.float64(1.0),
                                       np.zeros((0, 2)), np.zeros((3, 0))])
    def test_write_posterior_file_rejects_blocks_that_are_not_2d(self, tmp_path, block):
        # an empty block would write a file that read_posterior_runs refuses, or drop a simulation
        path = tmp_path / "post.csv"

        def streamed(path, blocks):
            with posterior_writer(path) as write:
                for sid, draws in blocks.items():
                    write(sid, draws)

        for writer in (write_posterior_file, streamed):
            with pytest.raises(ValueError) as err:
                writer(path, {0: np.zeros((1, 2)), 4: block})
            assert str(err.value) == f"samples for sim_id 4 have shape {np.shape(block)}, expected (n, D), n, D >= 1"
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("block", [np.zeros((0, 2)), np.zeros((3, 0))], ids=["no-rows", "no-columns"])
    @pytest.mark.parametrize("streamed", [False, True], ids=["write_posterior_file", "posterior_writer"])
    def test_an_empty_first_block_is_refused(self, tmp_path, streamed, block):
        # a first block with no rows used to write only the header, and the next
        # simulation's rows then followed it, so the file lost simulation 0
        path = tmp_path / "post.csv"
        with pytest.raises(ValueError, match=r"^samples for sim_id 0 have shape \(\d, \d\), expected"):
            if streamed:
                with posterior_writer(path) as write:
                    write(0, block)
                    write(1, np.ones((2, 2)))
            else:
                write_posterior_file(path, {0: block, 1: np.ones((2, 2))})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sim_id, value, message", [
        (0.7, 1.0, "sim_id must be an integer, got 0.7"), (True, 1.0, "sim_id must be an integer, got True"),
        (0, np.nan, "values for sim_id 0 are not finite"), (0, np.inf, "values for sim_id 0 are not finite"),
    ])
    @pytest.mark.parametrize("writer", ["joint", "observation", "posterior", "posterior_writer"])
    def test_writers_refuse_what_the_readers_refuse(self, tmp_path, writer, sim_id, value, message):
        path, block = tmp_path / "out.csv", np.array([[value, 2.0]])
        with pytest.raises(ValueError, match=message):
            if writer == "joint":
                write_joint_file(path, [sim_id], block)
            elif writer == "observation":
                write_observation_file(path, [sim_id], block)
            elif writer == "posterior":
                write_posterior_file(path, {sim_id: block})
            else:
                with posterior_writer(path) as write:
                    write(sim_id, block)
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

    @pytest.mark.parametrize("rows, line, message", [
        ("0,1\n0,2\n2,abc", 4, "non-numeric value"),  # ids are checked once every row parsed
        ("5,1\n0,2\n0,3", 4, "duplicate sim_id 0"),  # a repeat before an id outside [0, N)
        ("0,1\n2,2\n3,3\n2,4\n0,5", 5, "duplicate sim_id 2"),  # the first row that repeats
    ])
    def test_id_faults_are_reported_after_the_parse(self, tmp_path, rows, line, message):
        path = tmp_path / "joint.csv"
        path.write_text(f"sim_id,theta_0\n{rows}\n")
        with pytest.raises(SchemaError) as err:
            read_joint_file(path)
        assert str(err.value) == f"{path}:{line}: {message}"

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
        # each case runs in a fresh interpreter started under that umask, so
        # this process keeps its own
        import drpkit

        src = os.path.dirname(os.path.dirname(drpkit.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        target = tmp_path / "j.csv"
        script = "import sys; from drpkit.fileio import write_joint_file; write_joint_file(sys.argv[1], [0], [[1.0]])"
        subprocess.run([sys.executable, "-c", script, str(target)], env=env, umask=umask, check=True)
        assert stat.S_IMODE(target.stat().st_mode) == mode

    @pytest.mark.skipif(os.name != "posix", reason="umask is POSIX")
    def test_a_umask_set_after_import_is_followed(self, tmp_path):
        import drpkit

        src = os.path.dirname(os.path.dirname(drpkit.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        target = tmp_path / "j.csv"
        script = ("import os, sys; from drpkit.fileio import write_joint_file; os.umask(0o077); "
                  "write_joint_file(sys.argv[1], [0], [[1.0]])")
        subprocess.run([sys.executable, "-c", script, str(target)], env=env, umask=0o022, check=True)
        assert stat.S_IMODE(target.stat().st_mode) == 0o600

    def test_resolved_config_sorted(self, tmp_path):
        write_resolved_config(tmp_path, {"zeta": 1, "alpha": "x"})
        lines = (tmp_path / "resolved_config.txt").read_text().splitlines()
        assert lines == ["alpha=x", "zeta=1"]

    def test_resolved_config_round_trip(self, tmp_path):
        from drpkit.fileio import read_resolved_config

        write_resolved_config(tmp_path, {"seed": 7, "out": "dir/sub", "case": "biased"})
        back = read_resolved_config(tmp_path / "resolved_config.txt")
        assert back == {"seed": "7", "out": "dir/sub", "case": "biased"}


class TestOneFormatterCallPerTable:
    """The formatter's cost is mostly per call at a few rows, so a table goes to it whole."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls, rows = [], fileio._rows

        def counting(block, lead=None):
            calls.append(np.shape(block))
            return rows(block, lead)

        monkeypatch.setattr(fileio, "_rows", counting)
        return calls

    @pytest.mark.parametrize("writer", [write_joint_file, write_observation_file])
    def test_id_files(self, tmp_path, calls, writer):
        writer(tmp_path / "f.csv", np.arange(50), SeededRng(1).generator().standard_normal((50, 3)))
        assert calls == [(50, 3)]

    def test_coverage_csv(self, tmp_path, calls):
        write_coverage_csv(tmp_path / "c.csv", sample_curve(), seed=0)
        assert calls == [(101, 5)]

    def test_grid_csv(self, tmp_path, calls):
        g = SeededRng(2).generator()
        cli._grid_csv(tmp_path / "g.csv", 8, *g.standard_normal((3, 64)))
        assert calls == [(64, 5)]

    def test_posterior_writer_calls_once_per_simulation(self, tmp_path, calls):
        write_posterior_file(tmp_path / "p.csv", {sid: np.ones((sid + 2, 2)) for sid in range(4)})
        assert calls == [(2, 3), (3, 3), (4, 3), (5, 3)]


def test_grid_csv_prints_each_value_as_the_reference(tmp_path):
    g = SeededRng(3).generator()
    side = 6
    truth, mean, std = g.standard_normal((3, side * side)) * np.array([[1.0], [1e-5], [1e17]])
    cli._grid_csv(tmp_path / "g.csv", side, truth, mean, std)
    lines = ["row,col,truth,post_mean,post_std,residual"]
    for p in range(side * side):
        values = [p % side, truth[p], mean[p], std[p], truth[p] - mean[p]]
        lines.append(",".join([str(p // side)] + [ref_format(v) for v in values]))
    assert (tmp_path / "g.csv").read_text() == "\n".join(lines) + "\n"
