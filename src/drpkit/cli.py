"""Command-line front end.

Subcommands: ``toy`` and ``uninformative`` and ``lensing`` run the built-in
benchmark experiments end to end; ``coverage`` runs a DRP test on user-supplied
sample files; ``plot`` renders coverage CSVs to a single SVG. Every run echoes
its fully resolved configuration into the output directory: every flag, and
the SHA-256 digest of every settings file ``coverage`` reads.

Exit codes: 0 success, 1 runtime or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
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
    HpdSpec,
    JointSampleSet,
    NormalizationMap,
    PriorDraw,
    UnitHypercubeUniform,
    coverage_tests,
    fit_normalization,
)
from .fileio import (
    _write_table,
    posterior_writer,
    read_headerless_file,
    read_joint_file,
    read_observation_file,
    read_posterior_runs,
    write_coverage_csv,
    write_joint_file,
    write_resolved_config,
)
from .lensing import (
    DiffusionPosteriorSampler,
    VeSchedule,
    build_model,
    lensing_prior_policy,
    make_dataset,
)
from .numerics import SeededRng, _check_int, _check_positive
from .svgplot import render_coverage_svg

_TOY_CASE_FLAGS = {"correct": "correct", "over": "overconfident",
                   "under": "underconfident", "biased": "biased"}


def _flag_type(parse):
    """An argparse type: ``parse(text)``, whose ValueError is a usage error."""
    def flag_type(text):
        try:
            return parse(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from e
    return flag_type


def _count(name, minimum=1):
    """argparse type of an integer flag: numerics' integer check, with its ``minimum``."""
    return _flag_type(lambda text: _check_int(int(text), name, minimum))


_seed = _flag_type(lambda text: SeededRng(int(text)).seed)  # an integer that SeededRng accepts
_kernel_scale = _flag_type(lambda text: _check_positive(float(text), "kernel_scale"))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="drpkit",
                                description="Sample-based expected-coverage testing for posterior estimators")
    p.add_argument("--version", action="version", version=f"drpkit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    toy = sub.add_parser("toy", help="Gaussian toy-model experiment")
    toy.add_argument("--case", choices=sorted(_TOY_CASE_FLAGS), required=True)
    toy.add_argument("--dim", type=_count("dim"), default=10)
    toy.add_argument("--n-sims", type=_count("n_sims"), default=500)
    toy.add_argument("--n-post", type=_count("n_post"), default=500)
    toy.add_argument("--seed", type=_seed, default=0)
    toy.add_argument("--methods", default="drp,hpd", help="comma list from {drp,hpd}")
    toy.add_argument("--ref-policy", choices=["hypercube", "prior"], default="hypercube")
    toy.add_argument("--repeats", type=_count("repeats"), default=1)
    toy.add_argument("--out", required=True)
    toy.add_argument("--svg", action="store_true", help="also render coverage.svg")
    toy.add_argument("--dump-samples", action="store_true",
                     help="write the joint set and posterior draws as sample files")
    toy.set_defaults(func=_run_toy)

    uni = sub.add_parser("uninformative", help="prior-as-posterior conjugate experiment")
    uni.add_argument("--n-sims", type=_count("n_sims"), default=500)
    uni.add_argument("--n-post", type=_count("n_post"), default=500)
    uni.add_argument("--seed", type=_seed, default=0)
    uni.add_argument("--out", required=True)
    uni.set_defaults(func=_run_uninformative)

    lens = sub.add_parser("lensing", help="linear-Gaussian reverse-SDE experiment")
    lens.add_argument("--estimator", choices=["exact", "biased"], required=True)
    lens.add_argument("--source-size", type=int, choices=[8, 16], default=8)
    lens.add_argument("--n-sims", type=_count("n_sims"), default=100)
    lens.add_argument("--n-post", type=_count("n_post"), default=200)
    lens.add_argument("--steps", type=_count("steps"), default=300)
    lens.add_argument("--seed", type=_seed, default=0)
    lens.add_argument("--kernel-scale", type=_kernel_scale, default=0.3)
    lens.add_argument("--dump-grids", type=_count("dump_grids", 0), default=1,
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


def _write_curves(args, dataset, source, outputs, config=None, **kwargs):
    """Rank ``source``'s draws once, by coverage_tests with ``kwargs``, for every
    row of ``outputs``: {CSV name: (test spec, policy label, metric label)}.
    Only then is --out written: the resolved config, with the ``config``
    entries, and each curve's CSV."""
    curves = coverage_tests(dataset, source, [spec for spec, _, _ in outputs.values()], seed=args.seed, **kwargs)
    os.makedirs(args.out, exist_ok=True)
    write_resolved_config(args.out, {**{k: v for k, v in vars(args).items() if k != "func"},
                                     "version": __version__, **(config or {})})
    for (name, (_, policy, metric)), curve in zip(outputs.items(), curves):
        write_coverage_csv(os.path.join(args.out, name), curve, seed=args.seed, policy=policy, metric=metric)


def _run_toy(args, parser) -> int:
    methods = list(dict.fromkeys(m.strip() for m in args.methods.split(",") if m.strip()))
    if not methods or any(m not in ("drp", "hpd") for m in methods):
        parser.error("--methods must be a comma list from {drp,hpd}")
    config = ToyConfig(dim=args.dim, n_sims=args.n_sims, case=_TOY_CASE_FLAGS[args.case])
    dataset, sampler = generate_toy(config, seed=args.seed)
    policy = UnitHypercubeUniform() if args.ref_policy == "hypercube" else toy_prior_policy(config)
    tests = {"drp": (DrpSpec(policy, bounds=config.theta_bounds, repeats=args.repeats), args.ref_policy, "euclidean"),
             "hpd": (HpdSpec(), "", "")}
    dump = contextlib.nullcontext()
    if args.dump_samples:  # streams the draws the tests rank, so --out is made before the curves
        os.makedirs(args.out, exist_ok=True)
        dump = posterior_writer(os.path.join(args.out, "toy_posterior.csv"))
    with dump as on_draws:
        _write_curves(args, dataset, sampler, {f"{m}.csv": tests[m] for m in tests if m in methods},
                      {"case_internal": config.case, "theta_bounds": config.theta_bounds},
                      n_post=args.n_post, on_draws=on_draws)
    if args.dump_samples:
        write_joint_file(os.path.join(args.out, "toy_joint.csv"),
                         dataset.sim_ids, dataset.theta_true)
    if args.svg:
        csvs = [os.path.join(args.out, f"{m}.csv") for m in methods]
        render_coverage_svg(csvs, os.path.join(args.out, "coverage.svg"))
    return 0


def _run_uninformative(args, parser) -> int:
    config = ConjugateConfig(n_sims=args.n_sims)
    dataset, _ = generate_conjugate(config, seed=args.seed)
    outputs = {"hpd.csv": (HpdSpec(), "", ""),
               "drp-prior.csv": (DrpSpec(conjugate_prior_policy()), "prior", "euclidean"),
               "drp-datashift.csv": (DrpSpec(conjugate_datashift_policy()), "datashift:0,1", "euclidean")}
    _write_curves(args, dataset, UninformativeSampler(), outputs,
                  {"n_obs": config.n_obs, "mu0": config.mu0, "sigma0": config.sigma0, "sigma_x": config.sigma_x},
                  n_post=args.n_post)
    return 0


def _grid_csv(path, side, truth, mean, std):
    """Per pixel, its row and column, then truth, posterior mean and std, and residual."""
    cols = np.column_stack([np.tile(np.arange(side), side), truth, mean, std, truth - mean])
    _write_table(path, ["row", "col", "truth", "post_mean", "post_std", "residual"],
                 enumerate(cols.reshape(side, side, 5)))


def _run_lensing(args, parser) -> int:
    model = build_model(source_side=args.source_size, obs_side=2 * args.source_size,
                        sigma_n=1.0, kernel_scale=args.kernel_scale, seed=args.seed)
    dataset = make_dataset(model, args.n_sims, seed=args.seed)
    sampler = DiffusionPosteriorSampler(model, VeSchedule(steps=args.steps), args.estimator)
    # the grids summarise the draws the test ranks, so nothing is sampled twice
    moments = {}

    def keep_moments(sid, draws):
        if sid < args.dump_grids:  # sim_ids are 0..N-1
            moments[sid] = (draws.mean(axis=0), draws.std(axis=0))

    _write_curves(args, dataset, sampler,
                  {f"{args.estimator}.csv": (DrpSpec(lensing_prior_policy(model)), "prior", "euclidean")},
                  {"obs_size": 2 * args.source_size, "sigma_n": 1.0}, n_post=args.n_post, on_draws=keep_moments)
    for i, sid in enumerate(dataset.sim_ids[:args.dump_grids]):
        _grid_csv(os.path.join(args.out, f"sim{sid:03d}_grids.csv"), args.source_size,
                  dataset.theta_true[i], *moments[int(sid)])
    return 0


@contextlib.contextmanager
def _usage_errors(parser, flag, spec):
    """An OSError or ValueError in the block, as from a file ``spec`` names, is a usage error naming both."""
    try:
        yield
    except (OSError, ValueError) as e:
        parser.error(f"{flag} {spec}: {e}")


def _parse_ref_policy(parser, spec, dim, have_obs):
    if spec == "hypercube":
        return UnitHypercubeUniform()
    if spec.startswith("prior-file:"):
        rows = read_headerless_file(spec.split(":", 1)[1], dim, "prior-draw")
        return PriorDraw(draw=lambda g: rows[g.integers(rows.shape[0])])
    if spec.startswith("datashift:"):
        parts = spec.split(":", 1)[1].split(",")
        if len(parts) != 2:
            parser.error("--ref-policy datashift takes K,U (coordinate and half-width)")
        if not have_obs:
            parser.error("--ref-policy datashift requires --obs")
        return DataShift(coordinate=int(parts[0]), half_width=float(parts[1]))
    parser.error(f"unknown --ref-policy {spec!r}")


def _parse_metric(parser, spec, dim):
    """The distance weights (None: unweighted), judged by the map's own check on a
    unit map of ``dim`` dimensions, so no normalization is fitted here."""
    if spec == "euclidean":
        return None
    if spec.startswith("weighted:"):
        weights = read_headerless_file(spec.split(":", 1)[1], 1, "weights")
        return NormalizationMap(offset=np.zeros(dim), scale=np.ones(dim), weights=weights).weights
    parser.error(f"unknown --metric {spec!r}")


def _parse_bounds(parser, spec, dataset):
    if spec == "auto":
        return None
    if spec.startswith("file:"):
        bounds = read_headerless_file(spec.split(":", 1)[1], 2, "bounds")
    elif ":" in spec:
        bounds = tuple(map(float, spec.split(":", 1)))
    else:
        raise ValueError("must be auto, LO:HI, or file:PATH")
    fit_normalization(dataset, bounds)
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
    with _usage_errors(parser, "--ref-policy", args.ref_policy):
        policy = _parse_ref_policy(parser, args.ref_policy, dim, have_obs=args.obs is not None)
    with _usage_errors(parser, "--metric", args.metric):
        weights = _parse_metric(parser, args.metric, dim)
    with _usage_errors(parser, "--bounds", args.bounds):
        bounds = _parse_bounds(parser, args.bounds, dataset)
    import hashlib  # loaded already, by numerics
    for flag, prefix in (("ref_policy", "prior-file:"), ("metric", "weighted:"), ("bounds", "file:")):
        if getattr(args, flag).startswith(prefix):  # a settings file: its bytes are echoed by their digest
            with open(getattr(args, flag)[len(prefix):], "rb") as fh:
                setattr(args, f"{flag}_sha256", hashlib.sha256(fh.read()).hexdigest())

    # each run of the posterior file is ranked as it is parsed, then dropped
    runs = ((sid, block) for sid, _, block in read_posterior_runs(args.posterior, n_sims=n_sims, dim=dim))
    _write_curves(args, dataset, runs, {"drp.csv": (DrpSpec(policy, weights, bounds), args.ref_policy, args.metric)})
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
