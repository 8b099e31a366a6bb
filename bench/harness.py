"""Closed-loop verdict runner: one client, one verdict after another, in this process.

Each verdict calls ``drpkit.cli.main(argv)`` for every command of its workload,
writing into a fresh temporary directory that is removed afterwards. A verdict
fails on an exception, a non-zero exit code or a failed output check; failed
verdicts count against ``failed_frac`` and are left out of every timing. The
first verdict of a run is a warm-up: checked and counted, not timed.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy
import scipy

import drpkit
import drpkit.cli
import layers
from tracing import Tracer
from workloads import check_coverage_csvs

SETUP_REPEATS = 7


@dataclass
class Verdict:
    seed: int
    seconds: float
    timed: bool
    traced: bool
    problems: list = field(default_factory=list)
    sims: int = 0            # simulations summed over the verdict's coverage curves
    layer: dict = None       # per-layer metrics of a traced verdict

    @property
    def ok(self) -> bool:
        return not self.problems


def percentile(values, q: float) -> float:
    """q-th percentile (0..100), linear between the closest ranks."""
    v = sorted(values)
    if not v:
        raise ValueError("percentile of no values")
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail_percentile(values):
    """(q, value) for the highest of p99/p95/p90/p75 with at least ten samples
    above it, or None when there are too few samples."""
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) >= 1000:
            return q, percentile(values, q)
    return None


def verdict_seeds(seed: int):
    """Per-verdict seeds, all derived from the run's seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def run_verdict(workload, seed: int, tmp_root: str, *, timed=True, trace=False) -> Verdict:
    """Run one verdict in a fresh directory under ``tmp_root``, then check it.

    Only the CLI calls are timed. With ``trace`` the layer wrappers are
    attached for the CLI calls alone, and the spans become ``Verdict.layer``.
    """
    out = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=tmp_root)
    tracer = Tracer() if trace else None
    try:
        if tracer is not None:
            absent = tracer.install(layers.TARGETS)
        problems = []
        t0 = time.perf_counter()
        try:
            for argv in workload.commands(out, seed):
                code = drpkit.cli.main(argv)
                if code != 0:
                    problems.append(f"exit code {code}: drpkit {' '.join(argv)}")
                    break
        except Exception:
            problems.append(traceback.format_exc())
        seconds = time.perf_counter() - t0
        v = Verdict(seed, seconds, timed, trace, problems)
        if tracer is not None:
            tracer.restore()
            v.layer = layers.verdict_values(tracer.take(), workload.sim_estimator_pairs)
            v.layer["absent"] = layers.absent_metrics(absent)
        if v.ok:
            try:
                found, v.sims = check_coverage_csvs(out)
                v.problems += found + workload.check(out, seed)
            except Exception:
                v.problems.append(traceback.format_exc())
        return v
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(out, ignore_errors=True)


def run_loop(workload, seed: int, seconds: float, tmp_root: str, trace: bool) -> list:
    """A warm-up verdict, then verdicts until ``seconds`` have passed.

    With ``trace`` every untraced verdict is followed by a traced one at the
    same seed, so the pair's difference is the tracing overhead.
    """
    seeds = verdict_seeds(seed)
    verdicts = [run_verdict(workload, next(seeds), tmp_root, timed=False)]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        s = next(seeds)
        verdicts.append(run_verdict(workload, s, tmp_root))
        if trace:
            verdicts.append(run_verdict(workload, s, tmp_root, trace=True))
    return verdicts


def measure_setup(root: str, repeats: int = SETUP_REPEATS) -> list:
    """Wall seconds from a fresh interpreter to ``import drpkit.cli`` done, per repeat.

    One unmeasured import first writes the bytecode cache that users' runs
    find in place.
    """
    cmd = [sys.executable, "-c", "import drpkit.cli"]
    subprocess.run(cmd, cwd=root, check=True, timeout=120)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=root, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(verdicts: list) -> dict:
    """Untraced end-to-end figures over the successful timed verdicts."""
    good = [v for v in verdicts if v.timed and not v.traced and v.ok]
    times = [v.seconds for v in good]
    failed = sum(1 for v in verdicts if not v.ok)
    out = {"attempted": len(verdicts), "failed": failed,
           "failed_frac": failed / len(verdicts), "timed_verdicts": len(times)}
    if times:
        out.update(verdict_p50_s=statistics.median(times),
                   verdict_p25_s=percentile(times, 25), verdict_p75_s=percentile(times, 75),
                   verdict_tail=tail_percentile(times),
                   sims_per_s=statistics.median(v.sims / v.seconds for v in good))
    return out


def per_layer(verdicts: list) -> dict:
    """Medians over the traced verdicts of each per-layer metric, plus the
    tracing overhead against the untraced verdicts of the same run."""
    traced = [v for v in verdicts if v.traced and v.ok]
    plain = [v.seconds for v in verdicts if v.timed and not v.traced and v.ok]
    if not traced or not plain:
        return {}
    out = {name: statistics.median(v.layer[name] for v in traced)
           for name, *_ in layers.METRICS}
    traced_p50 = statistics.median(v.seconds for v in traced)
    out["bench.traced_verdict_p50_s"] = traced_p50
    out["bench.trace_overhead_frac"] = traced_p50 / statistics.median(plain) - 1.0
    out["absent"] = sorted({name for v in traced for name in v.layer["absent"]})
    out["traced_verdicts"] = len(traced)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(drpkit_threads_at_start) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "drpkit": drpkit.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "drpkit_threads": os.environ.get("DRPKIT_THREADS"),
        "drpkit_threads_at_start": drpkit_threads_at_start,
        "threadpoolctl_importable": importlib.util.find_spec("threadpoolctl") is not None,
    }
