"""drpkit benchmark: time to a coverage verdict through the drpkit CLI.

Run from anywhere inside a drpkit checkout (the package is imported from the
checkout's ``src``, not from an installed copy):

    python3 bench/run.py --workload toy --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. ``--workload all`` runs every workload in its own
process and prints one table. The last line of a single-workload run is a JSON
object with the keys correct, attempted, failed and metrics. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
# drpkit documents single-thread BLAS for its loops, but enforces it through
# threadpoolctl, which may be missing; the environment pins it either way and
# must be set before numpy loads
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("toy", "lensing", "roundtrip")
END_TO_END = (("verdict_p50_s", "s"), ("sims_per_s", "1/s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def prepare_environment():
    """Pin BLAS, run drpkit serially and import it from the checkout's src.

    Returns the DRPKIT_THREADS value found at start (None when unset).
    """
    if not (SRC / "drpkit" / "cli.py").is_file():
        raise FileNotFoundError(f"no drpkit sources at {SRC}: run from a drpkit checkout")
    os.environ.update(BLAS_ENV)
    threads_at_start = os.environ.pop("DRPKIT_THREADS", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    return threads_at_start


def run_one(args, threads_at_start) -> int:
    import drpkit
    import harness
    import layers
    from workloads import WORKLOADS

    if not Path(drpkit.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"drpkit imported from {drpkit.__file__}, not from {SRC}")
    workload = WORKLOADS[args.workload]
    setup = [] if args.trace else harness.measure_setup(str(ROOT))
    TMP_ROOT.mkdir(exist_ok=True)
    try:
        verdicts = harness.run_loop(workload, args.seed, args.seconds, str(TMP_ROOT), bool(args.trace))
    finally:
        try:
            TMP_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass
    for v in verdicts:
        if not v.ok:
            print(f"failed verdict (seed {v.seed}):\n  " + "\n  ".join(v.problems), file=sys.stderr)

    e2e = harness.end_to_end(verdicts)
    print(f"workload {workload.name}")
    print(f"verdicts attempted {e2e['attempted']} (1 warm-up), failed {e2e['failed']}, "
          f"failed_frac {e2e['failed_frac']:.4g} ratio")
    if "verdict_p50_s" not in e2e:
        print("error: no verdict succeeded", file=sys.stderr)
        return 1

    if args.trace:
        layer = harness.per_layer(verdicts)
        if not layer:
            print("error: no traced verdict succeeded", file=sys.stderr)
            return 1
        units = {name: unit for name, unit, *_ in layers.METRICS + layers.TRACE_METRICS}
        print(f"traced verdicts {layer['traced_verdicts']}; absent: {', '.join(layer['absent']) or 'none'}")
        for name, unit in units.items():
            print(f"  {name:32s} {layer[name]:14.6g} {unit}{'  (absent)' if name in layer['absent'] else ''}")
        selfs = {m: layer[f"{m}.self_s"] for m in layers.MODULES}
        print("largest self time: " + max(selfs, key=selfs.get))
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in units.items()}
    else:
        values = {"verdict_p50_s": e2e["verdict_p50_s"], "sims_per_s": e2e["sims_per_s"],
                  "peak_rss_mb": harness.peak_rss_mb(), "setup_s": statistics.median(setup)}
        tail = e2e["verdict_tail"]
        print(f"  verdict_p50_s {values['verdict_p50_s']:.6g} s over {e2e['timed_verdicts']} verdicts "
              f"(p25 {e2e['verdict_p25_s']:.6g}, p75 {e2e['verdict_p75_s']:.6g}"
              + (f", p{tail[0]} {tail[1]:.6g})" if tail else "; too few for a tail percentile)"))
        print(f"  sims_per_s    {values['sims_per_s']:.6g} 1/s")
        print(f"  peak_rss_mb   {values['peak_rss_mb']:.6g} MB")
        print(f"  setup_s       {values['setup_s']:.6g} s, median of {len(setup)}: "
              + " ".join(f"{t:.4f}" for t in setup))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print("provenance " + json.dumps(harness.provenance(threads_at_start), sort_keys=True))
    print(json.dumps({"correct": e2e["failed"] == 0, "attempted": e2e["attempted"],
                      "failed": e2e["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process of its own, then one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results["toy"]["metrics"])
    units = {n: results["toy"]["metrics"][n]["unit"] for n in names}
    print(f"{'metric':34s}" + "".join(f"{w:>14s}" for w in results) + "  unit")
    for n in names:
        print(f"{n:34s}" + "".join(f"{r['metrics'][n]['value']:14.6g}" for r in results.values())
              + f"  {units[n]}")
    print(f"{'failed_frac':34s}" + "".join(f"{r['failed'] / r['attempted']:14.6g}"
                                           for r in results.values()) + "  ratio")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        threads_at_start = prepare_environment()
        if args.workload == "all":
            return run_all(args)
        return run_one(args, threads_at_start)
    except (OSError, ImportError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
