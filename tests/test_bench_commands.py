"""The benchmark's CLI calls parse and run with today's CLI, and their outputs
pass the workload's own check, so a CLI change that would break the benchmark
fails here first. Only reads ``bench/workloads.py``."""

import importlib.util
import sys
from pathlib import Path

import pytest

from drpkit.cli import build_parser, main

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("seed", [1, 41])
def test_every_bench_command_parses(seed, tmp_path):
    commands = [argv for w in bench_workloads().values() for argv in w.commands(str(tmp_path), seed)]
    assert commands
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)  # argparse exits on a flag or value it does not take
        assert args.command == argv[0] and callable(args.func)


@pytest.mark.parametrize("name", sorted(bench_workloads()))
def test_every_bench_workload_runs_and_passes_its_check(name, tmp_path):
    workload = bench_workloads()[name]
    for argv in workload.commands(str(tmp_path), 1):
        assert main(argv) == 0, argv
    assert workload.check(str(tmp_path), 1) == []
