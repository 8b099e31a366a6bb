"""Command-line front end.

Subcommands: ``toy`` and ``uninformative`` and ``lensing`` run the built-in
benchmark experiments end to end; ``coverage`` runs a DRP test on user-supplied
sample files; ``plot`` renders coverage CSVs to a single SVG. Every run echoes
its fully resolved configuration into the output directory, so any curve can be
regenerated from the output alone.

Exit codes: 0 success, 1 runtime or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

import numpy as np

from . import __version__
from .benchmarks import (
    ConjugateConfig,
    ToyConfig,
    UninformativeSampler,
    conjugate_datashift_policy,
    conjugate_prior_policy,
    generate_conjugate,
    generate_toy,
    toy_prior_policy,
)
from .coverage import (
    DataShift,
    DrpSpec,
    Euclidean,
    HpdSpec,
    JointSampleSet,
    PriorDraw,
    UnitHypercubeUniform,
    WeightedEuclidean,
    coverage_tests,
    drp_test,
    fit_normalization,
)
from .fileio import (
    posterior_writer,
    read_joint_file,
    read_observation_file,
    read_posterior_runs,
    read_prior_file,
    write_coverage_csv,
    write_joint_file,
    write_resolved_config,
    atomic_write_text,
    format_float,
)
from .lensing import (
    DiffusionPosteriorSampler,
    VeSchedule,
    build_model,
    lensing_prior_policy,
    make_dataset,
)
from .numerics import SeededRng
from .svgplot import render_coverage_svg

_TOY_CASE_FLAGS = {"correct": "correct", "over": "overconfident",
                   "under": "underconfident", "biased": "biased"}


def _seed(text):
    """argparse type of --seed: an integer that SeededRng accepts."""
    try:
        return SeededRng(int(text)).seed
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="drpkit",
                                description="Sample-based expected-coverage testing for posterior estimators")
    p.add_argument("--version", action="version", version=f"drpkit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    toy = sub.add_parser("toy", help="Gaussian toy-model experiment")
    toy.add_argument("--case", choices=sorted(_TOY_CASE_FLAGS), required=True)
    toy.add_argument("--dim", type=int, default=10)
    toy.add_argument("--n-sims", type=int, default=500)
    toy.add_argument("--n-post", type=int, default=500)
    toy.add_argument("--seed", type=_seed, default=0)
    toy.add_argument("--methods", default="drp,hpd", help="comma list from {drp,hpd}")
    toy.add_argument("--ref-policy", choices=["hypercube", "prior"], default="hypercube")
    toy.add_argument("--repeats", type=int, default=1)
    toy.add_argument("--out", required=True)
    toy.add_argument("--svg", action="store_true", help="also render coverage.svg")
    toy.add_argument("--dump-samples", action="store_true",
                     help="write the joint set and posterior draws as sample files")
    toy.set_defaults(func=_run_toy)

    uni = sub.add_parser("uninformative", help="prior-as-posterior conjugate experiment")
    uni.add_argument("--n-sims", type=int, default=500)
    uni.add_argument("--n-post", type=int, default=500)
    uni.add_argument("--seed", type=_seed, default=0)
    uni.add_argument("--out", required=True)
    uni.set_defaults(func=_run_uninformative)

    lens = sub.add_parser("lensing", help="linear-Gaussian reverse-SDE experiment")
    lens.add_argument("--estimator", choices=["exact", "biased"], required=True)
    lens.add_argument("--source-size", type=int, choices=[8, 16], default=8)
    lens.add_argument("--n-sims", type=int, default=100)
    lens.add_argument("--n-post", type=int, default=200)
    lens.add_argument("--steps", type=int, default=300)
    lens.add_argument("--seed", type=_seed, default=0)
    lens.add_argument("--kernel-scale", type=float, default=0.3)
    lens.add_argument("--dump-grids", type=int, default=1,
                      help="write truth/mean/std/residual grids for the first K sims")
    lens.add_argument("--out", required=True)
    lens.set_defaults(func=_run_lensing)

    cov = sub.add_parser("coverage", help="generic DRP test from sample files")
    cov.add_argument("--joint", required=True)
    cov.add_argument("--posterior", required=True)
    cov.add_argument("--obs", default=None)
    cov.add_argument("--ref-policy", default="hypercube",
                     help="hypercube | prior-file:FILE | datashift:K,U")
    cov.add_argument("--metric", default="euclidean", help="euclidean | weighted:FILE")
    cov.add_argument("--bounds", default="auto", help="auto | LO:HI | file:PATH")
    cov.add_argument("--seed", type=_seed, default=0)
    cov.add_argument("--out", required=True)
    cov.set_defaults(func=_run_coverage)

    plot = sub.add_parser("plot", help="render coverage CSVs to one SVG")
    plot.add_argument("--in", dest="infiles", required=True, help="CSV[,CSV...]")
    plot.add_argument("--out", required=True)
    plot.set_defaults(func=_run_plot)
    return p


def _require_positive(parser, args, *names):
    for name in names:
        if getattr(args, name.replace("-", "_")) < 1:
            parser.error(f"--{name} must be >= 1")


def _prepare_out(args, extra=None):
    os.makedirs(args.out, exist_ok=True)
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg["version"] = __version__
    if extra:
        cfg.update(extra)
    write_resolved_config(args.out, cfg)


def _run_toy(args, parser) -> int:
    _require_positive(parser, args, "dim", "n-sims", "n-post", "repeats")
    methods = list(dict.fromkeys(m.strip() for m in args.methods.split(",") if m.strip()))
    if not methods or any(m not in ("drp", "hpd") for m in methods):
        parser.error("--methods must be a comma list from {drp,hpd}")
    config = ToyConfig(dim=args.dim, n_sims=args.n_sims, case=_TOY_CASE_FLAGS[args.case])
    _prepare_out(args, {"case_internal": config.case, "theta_bounds": config.theta_bounds})
    dataset, sampler = generate_toy(config, seed=args.seed)
    policy = UnitHypercubeUniform() if args.ref_policy == "hypercube" else toy_prior_policy(config)
    specs = {"drp": DrpSpec(policy, bounds=config.theta_bounds, repeats=args.repeats), "hpd": HpdSpec()}
    labels = {"drp": {"policy": args.ref_policy, "metric": "euclidean"}, "hpd": {}}
    names = [m for m in specs if m in methods]
    # one sampling pass feeds every test, and the dump streams the draws they rank
    dump = (posterior_writer(os.path.join(args.out, "toy_posterior.csv")) if args.dump_samples
            else contextlib.nullcontext())
    with dump as on_draws:
        curves = coverage_tests(dataset, sampler, [specs[m] for m in names], n_post=args.n_post,
                                seed=args.seed, on_draws=on_draws)
    for name, curve in zip(names, curves):
        write_coverage_csv(os.path.join(args.out, f"{name}.csv"), curve, seed=args.seed, **labels[name])

    if args.dump_samples:
        write_joint_file(os.path.join(args.out, "toy_joint.csv"),
                         dataset.sim_ids, dataset.theta_true)
    if args.svg:
        csvs = [os.path.join(args.out, f"{m}.csv") for m in methods]
        render_coverage_svg(csvs, os.path.join(args.out, "coverage.svg"))
    return 0


def _run_uninformative(args, parser) -> int:
    _require_positive(parser, args, "n-sims", "n-post")
    config = ConjugateConfig(n_sims=args.n_sims)
    _prepare_out(args, {"n_obs": config.n_obs, "mu0": config.mu0,
                        "sigma0": config.sigma0, "sigma_x": config.sigma_x})
    dataset, _ = generate_conjugate(config, seed=args.seed)
    sampler = UninformativeSampler(config)

    # file: (test, policy label, metric label); one sampling pass feeds all three
    outputs = {"hpd.csv": (HpdSpec(), "", ""),
               "drp-prior.csv": (DrpSpec(conjugate_prior_policy(config)), "prior", "euclidean"),
               "drp-datashift.csv": (DrpSpec(conjugate_datashift_policy()), "datashift:0,1", "euclidean")}
    curves = coverage_tests(dataset, sampler, [spec for spec, _, _ in outputs.values()],
                            n_post=args.n_post, seed=args.seed)
    for (name, (_, policy, metric)), curve in zip(outputs.items(), curves):
        write_coverage_csv(os.path.join(args.out, name), curve, seed=args.seed, policy=policy, metric=metric)
    return 0


def _grid_csv(path, side, truth, mean, std):
    lines = ["row,col,truth,post_mean,post_std,residual"]
    for r in range(side):
        for c in range(side):
            i = r * side + c
            vals = (truth[i], mean[i], std[i], truth[i] - mean[i])
            lines.append(f"{r},{c}," + ",".join(format_float(v) for v in vals))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _run_lensing(args, parser) -> int:
    _require_positive(parser, args, "n-sims", "n-post", "steps")
    if not 0 < args.kernel_scale < math.inf:
        parser.error(f"--kernel-scale must be finite and positive, got {args.kernel_scale}")
    if args.dump_grids < 0:
        parser.error("--dump-grids must be >= 0")
    _prepare_out(args, {"obs_size": 2 * args.source_size, "sigma_n": 1.0})
    model = build_model(source_side=args.source_size, obs_side=2 * args.source_size,
                        sigma_n=1.0, kernel_scale=args.kernel_scale, seed=args.seed)
    schedule = VeSchedule(steps=args.steps)
    dataset = make_dataset(model, args.n_sims, seed=args.seed)
    sampler = DiffusionPosteriorSampler(model, schedule, args.estimator)
    # the grids summarise the draws the test ranks, so nothing is sampled twice
    moments = {}

    def keep_moments(sid, draws):
        if sid < args.dump_grids:  # sim_ids are 0..N-1
            moments[sid] = (draws.mean(axis=0), draws.std(axis=0))

    curve = drp_test(dataset, sampler, n_post=args.n_post, policy=lensing_prior_policy(model),
                     seed=args.seed, on_draws=keep_moments)
    write_coverage_csv(os.path.join(args.out, f"{args.estimator}.csv"), curve,
                       seed=args.seed, policy="prior", metric="euclidean")
    for i, sid in enumerate(dataset.sim_ids[:args.dump_grids]):
        _grid_csv(os.path.join(args.out, f"sim{sid:03d}_grids.csv"), args.source_size,
                  dataset.theta_true[i], *moments[int(sid)])
    return 0


def _parse_ref_policy(parser, spec, dim, have_obs):
    if spec == "hypercube":
        return UnitHypercubeUniform()
    if spec.startswith("prior-file:"):
        path = spec.split(":", 1)[1]
        rows = read_prior_file(path, dim)
        return PriorDraw(draw=lambda g: rows[g.integers(rows.shape[0])])
    if spec.startswith("datashift:"):
        parts = spec.split(":", 1)[1].split(",")
        if len(parts) != 2:
            parser.error("--ref-policy datashift takes K,U (coordinate and half-width)")
        try:
            policy = DataShift(coordinate=int(parts[0]), half_width=float(parts[1]))
        except ValueError as e:
            parser.error(f"--ref-policy {spec}: {e}")
        if not have_obs:
            parser.error("--ref-policy datashift requires --obs")
        return policy
    parser.error(f"unknown --ref-policy {spec!r}")


def _parse_metric(parser, spec):
    if spec == "euclidean":
        return Euclidean()
    if spec.startswith("weighted:"):
        try:
            with open(spec.split(":", 1)[1]) as fh:
                return WeightedEuclidean(weights=np.array([float(ln) for ln in fh.read().split()]))
        except (OSError, ValueError) as e:
            parser.error(f"--metric {spec}: {e}")
    parser.error(f"unknown --metric {spec!r}")


def _parse_bounds(parser, spec, dataset):
    if spec == "auto":
        return None
    try:
        if spec.startswith("file:"):
            bounds = np.loadtxt(spec.split(":", 1)[1], delimiter=",", ndmin=2)
        elif ":" in spec:
            bounds = tuple(map(float, spec.split(":", 1)))
        else:
            raise ValueError("must be auto, LO:HI, or file:PATH")
        fit_normalization(dataset, bounds)
    except (OSError, ValueError) as e:
        parser.error(f"--bounds {spec}: {e}")
    return bounds


def _run_coverage(args, parser) -> int:
    sim_ids, thetas = read_joint_file(args.joint)
    n_sims, dim = thetas.shape
    if args.obs is not None:
        _, xs = read_observation_file(args.obs, n_sims=n_sims)
        observations = tuple(xs)
    else:
        observations = tuple([None] * n_sims)
    dataset = JointSampleSet(theta_true=thetas, observations=observations, sim_ids=sim_ids)
    policy = _parse_ref_policy(parser, args.ref_policy, dim, have_obs=args.obs is not None)
    metric = _parse_metric(parser, args.metric)
    bounds = _parse_bounds(parser, args.bounds, dataset)

    # each run of the posterior file is ranked as it is parsed, then dropped
    runs = ((sid, block) for sid, _, block in read_posterior_runs(args.posterior, n_sims=n_sims))
    curve = drp_test(dataset, runs, policy=policy, metric=metric, seed=args.seed, bounds=bounds)
    _prepare_out(args)
    write_coverage_csv(os.path.join(args.out, "drp.csv"), curve, seed=args.seed,
                       policy=args.ref_policy, metric=args.metric)
    return 0


def _run_plot(args, parser) -> int:
    paths = [p.strip() for p in args.infiles.split(",") if p.strip()]
    if not paths:
        parser.error("--in requires at least one CSV path")
    render_coverage_svg(paths, args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, parser)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else 2
    except (OSError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
