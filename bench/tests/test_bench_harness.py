"""Tests for the benchmark's own code: statistics, spans, wrappers and the verdict loop.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

import itertools
import json

import numpy as np
import pytest

import drpkit
import drpkit.cli
import drpkit.lensing
import drpkit.numerics
import harness
import layers
import run
from tracing import Tracer, busy_time, self_times
from workloads import Workload


def test_percentile_interpolates_between_ranks():
    assert harness.percentile([4, 1, 3, 2], 50) == 2.5
    assert harness.percentile([1, 2, 3, 4, 5], 25) == 2
    assert harness.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert harness.tail_percentile(list(range(39))) is None
    assert harness.tail_percentile(list(range(40)))[0] == 75
    assert harness.tail_percentile(list(range(100)))[0] == 90
    assert harness.tail_percentile(list(range(1000)))[0] == 99


def test_self_time_subtracts_children_including_nested():
    # name, start, end, parent, label
    spans = [["a", 0.0, 10.0, -1, None],
             ["b", 1.0, 4.0, 0, None],
             ["c", 2.0, 3.0, 1, None],
             ["d", 5.0, 6.0, 0, None]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert busy_time(spans, {"b", "c"}) == 3.0
    assert busy_time(spans, {"b", "d"}) == 4.0


def test_tracer_records_parent_links_through_wrappers():
    tracer = Tracer(clock=itertools.count().__next__)
    inner = tracer.wrap("m.inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("m.outer", body)()
    spans = tracer.take()
    assert [(r[0], r[3]) for r in spans] == [("m.outer", -1), ("m.inner", 0), ("m.inner", 0)]
    # outer spans ticks 0..5, each inner covers one tick
    assert self_times(spans) == [3, 1, 1]
    assert tracer.take() == []


def test_wrappers_attach_in_every_namespace_and_restore():
    original = drpkit.numerics.cholesky
    original_substream = vars(drpkit.numerics.SeededRng)["substream"]
    tracer = Tracer()
    absent = tracer.install({
        "numerics.cholesky": ("drpkit.numerics.cholesky", None),
        "numerics.SeededRng.substream": ("drpkit.numerics.SeededRng.substream", None),
    })
    try:
        assert absent == []
        wrapped = drpkit.numerics.cholesky
        assert wrapped is not original
        assert drpkit.lensing.cholesky is wrapped and drpkit.cholesky is wrapped
        drpkit.lensing.cholesky(np.eye(2))
        drpkit.numerics.SeededRng(1).substream("k")
        assert [r[0] for r in tracer.take()] == ["numerics.cholesky", "numerics.SeededRng.substream"]
    finally:
        tracer.restore()
    assert drpkit.numerics.cholesky is original
    assert drpkit.lensing.cholesky is original and drpkit.cholesky is original
    assert vars(drpkit.numerics.SeededRng)["substream"] is original_substream


def test_missing_names_are_reported_absent_without_raising():
    tracer = Tracer()
    absent = tracer.install({
        "lensing.gone": ("drpkit.lensing.no_such_function", None),
        "lensing.LensingModel.gone": ("drpkit.lensing.LensingModel.no_such_method", None),
        "nowhere.f": ("drpkit.no_such_module.f", None),
    })
    tracer.restore()
    assert absent == ["lensing.gone", "lensing.LensingModel.gone", "nowhere.f"]
    assert "lensing.step_solvers_s" in layers.absent_metrics(["lensing.LensingModel.step_solvers"])
    assert "lensing.rsde_s" not in layers.absent_metrics(["lensing.LensingModel.step_solvers"])


BAD_SEED, BAD_CHECK_SEED = 13, 17


def _tiny_commands(out, seed):
    if seed == BAD_SEED:
        return [["toy", "--case", "no-such-case", "--out", out]]
    return [["toy", "--case", "correct", "--dim", "2", "--n-sims", "20", "--n-post", "20",
             "--seed", str(seed), "--methods", "drp", "--out", out]]


def _tiny_check(out, seed):
    return ["deliberately failed check"] if seed == BAD_CHECK_SEED else []


TINY = Workload("tiny", _tiny_commands, _tiny_check, sim_estimator_pairs=20)


def test_failed_verdicts_count_and_are_left_out_of_timings(tmp_path):
    verdicts = [harness.run_verdict(TINY, s, str(tmp_path)) for s in (1, BAD_SEED, 2, BAD_CHECK_SEED)]
    assert [v.ok for v in verdicts] == [True, False, True, False]
    assert "exit code 2" in verdicts[1].problems[0]
    e2e = harness.end_to_end(verdicts)
    assert (e2e["attempted"], e2e["failed"], e2e["failed_frac"]) == (4, 2, 0.5)
    assert e2e["timed_verdicts"] == 2
    assert e2e["verdict_p50_s"] == pytest.approx((verdicts[0].seconds + verdicts[2].seconds) / 2)
    assert e2e["sims_per_s"] == pytest.approx((20 / verdicts[0].seconds + 20 / verdicts[2].seconds) / 2)
    assert list(tmp_path.iterdir()) == []


def test_traced_verdict_reports_layers_and_restores(tmp_path):
    main = drpkit.cli.main
    v = harness.run_verdict(TINY, 3, str(tmp_path), trace=True)
    assert v.ok and drpkit.cli.main is main
    assert v.layer["cli.sample_calls_per_sim"] == 1.0
    assert v.layer["coverage.test_calls"] == 1
    assert v.layer["absent"] == []
    assert v.layer["cli.self_s"] > 0


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m[:3]) for m in layers.METRICS + layers.TRACE_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
