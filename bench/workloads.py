"""The benchmark's workloads: the drpkit CLI calls that make one verdict, and the
checks that its outputs are correct.

A verdict is the set of CLI calls that answers one "is it calibrated?" question
at a fixed size. Every workload's inputs come from the verdict seed alone.
Checks use only drpkit's public functions and run outside the timed region.
Their tolerances hold at any seed for the code as written, so a failed check
means a program fault, not sampling luck.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from drpkit.fileio import COVERAGE_HEADER, read_coverage_csv
from drpkit.lensing import build_model, conjugate_posterior, make_dataset

# A curve "deviates" when some level is more than this many binomial sigmas off
# the diagonal; the biased toy DRP curve and the uninformative data-shift curve
# sit near 11 and 17 sigma.
DEVIATES_SIGMA = 5.0
# A calibrated curve stays below this many sigmas at every level: with uniform
# ranks, N=500 and 99 interior levels, the maximum passes 5 sigma in about 1 run
# of 3000 and 6 sigma in far fewer.
IN_BAND_SIGMA = 6.0
# Lensing exact sampler vs the conjugate posterior, per pixel of simulation 0
# with n=200 draws: |mean error| in standard errors, and |std ratio - 1|
# (standard error of a sample std is about 0.05 at n=200). Observed maxima over
# 30 seeds: 3.6 and 0.22.
MEAN_Z_TOL = 5.5
STD_RATIO_TOL = 0.35

TOY_SIZE = ["--dim", "10", "--n-sims", "500", "--n-post", "500"]
LENSING_SIZE = ["--source-size", "8", "--n-sims", "10", "--n-post", "200", "--steps", "300"]
ROUNDTRIP_SIZE = ["--dim", "10", "--n-sims", "200", "--n-post", "500"]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[str, int], list]  # (out_dir, seed) -> list of argv lists
    check: Callable[[str, int], list]     # (out_dir, seed) -> list of problems
    # simulations x estimators in one verdict: the denominator of
    # cli.sample_calls_per_sim (1.0 would mean no draw is made twice)
    sim_estimator_pairs: int


def curve_sigma(path) -> float:
    """Largest |ecp - c| of a coverage CSV, in binomial sigmas."""
    levels, _, ecp, _, _, meta = read_coverage_csv(path)
    sigma = np.sqrt(levels * (1.0 - levels) / int(meta["n_sims"]))
    inner = sigma > 0
    return float(np.max(np.abs(ecp - levels)[inner] / sigma[inner]))


def coverage_csvs(out_dir):
    """Every CSV under ``out_dir`` whose first line is the coverage header."""
    out = []
    for d, _, files in os.walk(out_dir):
        for f in files:
            if f.endswith(".csv"):
                with open(os.path.join(d, f)) as fh:
                    if fh.readline().strip() == COVERAGE_HEADER:
                        out.append(os.path.join(d, f))
    return sorted(out)


def check_coverage_csvs(out_dir):
    """Every coverage CSV parses, with ECP non-decreasing and within [0, 1].

    Returns (problems, simulations summed over the curves).
    """
    problems, sims = [], 0
    paths = coverage_csvs(out_dir)
    if not paths:
        problems.append("no coverage CSV written")
    for path in paths:
        rel = os.path.relpath(path, out_dir)
        try:
            levels, _, ecp, _, _, meta = read_coverage_csv(path)
            sims += int(meta["n_sims"])
        except (OSError, ValueError, KeyError) as e:
            problems.append(f"{rel}: {e}")
            continue
        if np.any(np.diff(ecp) < 0):
            problems.append(f"{rel}: ECP decreases")
        if ecp.min() < 0 or ecp.max() > 1:
            problems.append(f"{rel}: ECP outside [0, 1]")
    return problems, sims


def _expect(problems, path, deviates):
    sig = curve_sigma(path)
    if deviates and not sig > DEVIATES_SIGMA:
        problems.append(f"{path}: max deviation {sig:.2f} sigma, expected > {DEVIATES_SIGMA}")
    if not deviates and not sig < IN_BAND_SIGMA:
        problems.append(f"{path}: max deviation {sig:.2f} sigma, expected < {IN_BAND_SIGMA}")


# --- toy -----------------------------------------------------------------------

def toy_commands(out, seed):
    s = str(seed)
    cmds = [["toy", "--case", case, *TOY_SIZE, "--seed", s, "--methods", "drp,hpd",
             "--out", os.path.join(out, case)] for case in ("correct", "over", "under")]
    cmds.append(["toy", "--case", "biased", *TOY_SIZE, "--seed", s, "--methods", "drp,hpd",
                 "--ref-policy", "prior", "--svg", "--out", os.path.join(out, "biased")])
    cmds.append(["uninformative", "--n-sims", "500", "--n-post", "500", "--seed", s,
                 "--out", os.path.join(out, "uninf")])
    return cmds


def toy_check(out, seed):
    problems = []
    _expect(problems, os.path.join(out, "biased", "drp.csv"), deviates=True)
    _expect(problems, os.path.join(out, "biased", "hpd.csv"), deviates=False)
    _expect(problems, os.path.join(out, "uninf", "drp-datashift.csv"), deviates=True)
    svg = os.path.join(out, "biased", "coverage.svg")
    if not (os.path.isfile(svg) and os.path.getsize(svg) > 0):
        problems.append("biased/coverage.svg missing or empty")
    return problems


# --- lensing --------------------------------------------------------------------

def lensing_commands(out, seed):
    return [["lensing", "--estimator", kind, *LENSING_SIZE, "--seed", str(seed),
             "--dump-grids", "1", "--out", os.path.join(out, kind)] for kind in ("exact", "biased")]


def lensing_check(out, seed):
    """The exact kind's dumped grid agrees with the conjugate posterior of simulation 0."""
    model = build_model(source_side=8, obs_side=16, sigma_n=1.0, kernel_scale=0.3, seed=seed)
    dataset = make_dataset(model, 10, seed=seed)
    mean, cov = conjugate_posterior(model, dataset.observations[0])
    std = np.sqrt(np.diag(cov))
    grid = np.loadtxt(os.path.join(out, "exact", "sim000_grids.csv"), delimiter=",", skiprows=1)
    truth, post_mean, post_std = grid[:, 2], grid[:, 3], grid[:, 4]
    n_post = 200
    problems = []
    if not np.array_equal(truth, dataset.theta_true[0]):
        problems.append("exact grid: truth column differs from the rebuilt dataset")
    z = np.max(np.abs(post_mean - mean) / (std / np.sqrt(n_post)))
    if not z < MEAN_Z_TOL:
        problems.append(f"exact grid: posterior mean off by {z:.2f} standard errors")
    r = np.max(np.abs(post_std / std - 1.0))
    if not r < STD_RATIO_TOL:
        problems.append(f"exact grid: posterior std ratio off by {r:.3f}")
    return problems


# --- roundtrip ------------------------------------------------------------------

def roundtrip_commands(out, seed):
    toy = os.path.join(out, "toy")
    return [
        ["toy", "--case", "correct", *ROUNDTRIP_SIZE, "--seed", str(seed), "--methods", "drp",
         "--dump-samples", "--out", toy],
        ["coverage", "--joint", os.path.join(toy, "toy_joint.csv"),
         "--posterior", os.path.join(toy, "toy_posterior.csv"), "--seed", str(seed),
         "--bounds=-5:5", "--out", os.path.join(out, "coverage")],
    ]


def roundtrip_check(out, seed):
    with open(os.path.join(out, "toy", "drp.csv"), "rb") as a, \
            open(os.path.join(out, "coverage", "drp.csv"), "rb") as b:
        same = a.read() == b.read()
    return [] if same else ["coverage drp.csv differs from toy drp.csv"]


WORKLOADS = {
    w.name: w for w in (
        Workload("toy", toy_commands, toy_check, sim_estimator_pairs=4 * 500 + 500),
        Workload("lensing", lensing_commands, lensing_check, sim_estimator_pairs=2 * 10),
        Workload("roundtrip", roundtrip_commands, roundtrip_check, sim_estimator_pairs=200),
    )
}
