"""Which drpkit functions the traced run wraps, and the per-layer metrics derived
from their spans.

Span names are ``<module>.<function>`` with the ``drpkit.`` prefix dropped, so
every span belongs to the layer named by its first component. A metric whose
spans all failed to resolve is absent; it reads 0 and is listed as absent.
"""

from __future__ import annotations

import os
import statistics

from tracing import NAME, START, END, LABEL, busy_time, self_times


def _path(args):
    return os.fspath(args["path"])


def _rsde_label(args):
    return args["kind"], args["schedule"].steps


def _targets():
    plain = [
        "cli.main",
        "numerics.SeededRng.substream", "numerics.SeededRng.generator",
        "numerics.norm_isf", "numerics.cholesky",
        "benchmarks.generate_toy", "benchmarks.generate_conjugate",
        "benchmarks.DiagonalGaussianSampler.sample", "benchmarks.DiagonalGaussianSampler.log_density",
        "benchmarks.UninformativeSampler.sample", "benchmarks.UninformativeSampler.log_density",
        "coverage.drp_test", "coverage.hpd_test", "coverage.drp_test_precomputed",
        "coverage.drp_rank", "coverage.hpd_rank", "coverage.sample_reference", "coverage.ecp_curve",
        "lensing.build_model", "lensing.make_dataset", "lensing.LensingModel.step_solvers",
        "lensing.DiffusionPosteriorSampler.sample",
        "fileio.write_coverage_csv",
        "svgplot.render_coverage_svg",
    ]
    out = {name: ("drpkit." + name, None) for name in plain}
    out["lensing.rsde_sample_batch"] = ("drpkit.lensing.rsde_sample_batch", _rsde_label)
    out["fileio.write_posterior_file"] = ("drpkit.fileio.write_posterior_file", _path)
    out["fileio.read_posterior_file"] = ("drpkit.fileio.read_posterior_file", _path)
    return out


TARGETS = _targets()
MODULES = ("cli", "numerics", "benchmarks", "coverage", "lensing", "fileio", "svgplot")

SUBSTREAM = ("numerics.SeededRng.substream", "numerics.SeededRng.generator")
TOY_SAMPLE = ("benchmarks.DiagonalGaussianSampler.sample", "benchmarks.UninformativeSampler.sample")
LOG_DENSITY = ("benchmarks.DiagonalGaussianSampler.log_density",
               "benchmarks.UninformativeSampler.log_density")
ALL_SAMPLE = TOY_SAMPLE + ("lensing.DiffusionPosteriorSampler.sample",)
TESTS = ("coverage.drp_test", "coverage.hpd_test", "coverage.drp_test_precomputed")
RANKS = ("coverage.drp_rank", "coverage.hpd_rank")
RSDE = ("lensing.rsde_sample_batch",)
WRITE_POST = ("fileio.write_posterior_file",)
READ_POST = ("fileio.read_posterior_file",)


class VerdictSpans:
    """One verdict's spans with the lookups the metrics need."""

    def __init__(self, spans, sim_estimator_pairs):
        self.spans = spans
        self.self_s = self_times(spans)
        self.pairs = sim_estimator_pairs
        # file sizes are read now, while the verdict's output files still exist
        self.bytes = {}
        for rec in spans:
            if rec[NAME] in WRITE_POST + READ_POST and rec[LABEL] and os.path.exists(rec[LABEL]):
                self.bytes[rec[NAME]] = self.bytes.get(rec[NAME], 0) + os.path.getsize(rec[LABEL])

    def calls(self, names):
        return sum(1 for r in self.spans if r[NAME] in names)

    def busy(self, names):
        return busy_time(self.spans, names)

    def self_time(self, names):
        return sum(s for r, s in zip(self.spans, self.self_s) if r[NAME] in names)

    def step_ms(self, kind):
        per_step = [(r[END] - r[START]) / r[LABEL][1] * 1e3 for r in self.spans
                    if r[NAME] in RSDE and r[LABEL] and r[LABEL][0] == kind]
        return statistics.median(per_step) if per_step else 0.0

    def mb_per_s(self, names):
        t = self.busy(names)
        return self.bytes.get(names[0], 0) / t / 1e6 if t > 0 else 0.0


def _module_spans(module):
    return tuple(n for n in TARGETS if n.split(".")[0] == module)


def _calls(name, *spans):
    return name, "count", "lower", spans, lambda v: v.calls(spans)


def _busy(name, *spans):
    return name, "s", "lower", spans, lambda v: v.busy(spans)


# (metric name, unit, better, span names it is computed from, value of one verdict)
METRICS = [
    _calls("numerics.substream_calls", *SUBSTREAM),
    _busy("numerics.substream_s", *SUBSTREAM),
    _calls("numerics.norm_isf_calls", "numerics.norm_isf"),
    _busy("numerics.norm_isf_s", "numerics.norm_isf"),
    _calls("numerics.cholesky_calls", "numerics.cholesky"),
    _busy("numerics.cholesky_s", "numerics.cholesky"),
    _busy("benchmarks.generate_s", "benchmarks.generate_toy", "benchmarks.generate_conjugate"),
    _calls("benchmarks.sample_calls", *TOY_SAMPLE),
    _busy("benchmarks.sample_s", *TOY_SAMPLE),
    _busy("benchmarks.log_density_s", *LOG_DENSITY),
    _calls("coverage.test_calls", *TESTS),
    _busy("coverage.test_s", *TESTS),
    ("coverage.test_self_s", "s", "lower", TESTS, lambda v: v.self_time(TESTS)),
    _calls("coverage.rank_calls", *RANKS),
    _busy("coverage.rank_s", *RANKS),
    _busy("coverage.reference_s", "coverage.sample_reference"),
    _busy("coverage.ecp_curve_s", "coverage.ecp_curve"),
    _busy("lensing.build_model_s", "lensing.build_model"),
    _busy("lensing.make_dataset_s", "lensing.make_dataset"),
    _busy("lensing.step_solvers_s", "lensing.LensingModel.step_solvers"),
    _calls("lensing.rsde_calls", *RSDE),
    _busy("lensing.rsde_s", *RSDE),
    ("lensing.exact_step_ms", "ms", "lower", RSDE, lambda v: v.step_ms("exact")),
    ("lensing.biased_step_ms", "ms", "lower", RSDE, lambda v: v.step_ms("biased")),
    _busy("fileio.write_posterior_s", *WRITE_POST),
    _busy("fileio.read_posterior_s", *READ_POST),
    ("fileio.posterior_bytes", "B", "lower", WRITE_POST, lambda v: v.bytes.get(WRITE_POST[0], 0)),
    ("fileio.write_mb_per_s", "MB/s", "higher", WRITE_POST, lambda v: v.mb_per_s(WRITE_POST)),
    ("fileio.read_mb_per_s", "MB/s", "higher", READ_POST, lambda v: v.mb_per_s(READ_POST)),
    _busy("fileio.write_coverage_s", "fileio.write_coverage_csv"),
    _busy("svgplot.render_s", "svgplot.render_coverage_svg"),
    ("cli.sample_calls_per_sim", "ratio", "lower", ALL_SAMPLE, lambda v: v.calls(ALL_SAMPLE) / v.pairs),
]
# time in each layer outside any deeper wrapped call; cli.self_s is verdict time
# not covered by a child span
METRICS += [(f"{m}.self_s", "s", "lower", _module_spans(m),
             lambda v, names=_module_spans(m): v.self_time(names)) for m in MODULES]


# measured by the harness from whole verdicts, not from spans
TRACE_METRICS = [("bench.traced_verdict_p50_s", "s", "lower"), ("bench.trace_overhead_frac", "ratio", "lower")]


def verdict_values(spans, sim_estimator_pairs) -> dict:
    """Every per-layer metric of one traced verdict."""
    view = VerdictSpans(spans, sim_estimator_pairs)
    return {name: float(fn(view)) for name, _, _, _, fn in METRICS}


def absent_metrics(absent_spans) -> list:
    """Metrics none of whose spans could be attached."""
    return [name for name, _, _, names, _ in METRICS if all(n in absent_spans for n in names)]
