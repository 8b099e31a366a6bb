"""The benchmark's CLI calls parse and run with today's CLI, and their outputs
pass the workload's own check, so a CLI change that would break the benchmark
fails here first. Only reads ``bench/workloads.py``."""

import hashlib
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


# SHA-256 of every file the workloads write at seed 1, but resolved_config.txt,
# which holds paths. lensing is left out: its matrix products go through BLAS,
# whose last bits may differ between builds. A change that alters an output
# by design updates these digests and says so.
SEED_1_DIGESTS = {
    "toy": {
        "biased/coverage.svg": "b2e9ea34daf82ddb6a809ad154f92cae351361116e9c18fd70c7ce5ae06d6fe1",
        "biased/drp.csv": "f8e5651d17a8ec41d60f937af55a8ebe4147e443da6e8e315592610e4316eb19",
        "biased/hpd.csv": "36c54981166f53f6cf1bfeaea1a3dfab88f4914ed9e2179ae31785fafaefd735",
        "correct/drp.csv": "8375751a139a9433cfb808efb86e08b0013cab3a5b9d14c10cd7f185d9256a81",
        "correct/hpd.csv": "25d34d94259f2dc67da4d0c42eda5f1b79e6f5e9c27101f9f7f7f2e539cf490c",
        "over/drp.csv": "f4d93a046d6b8f4cde32c645deb14071e1586b4820b3751792456b659652326f",
        "over/hpd.csv": "84cbbada9e15dc9a9e9b6bff1e9b374d1c6f4a01fdd606a3972daf808afb9f93",
        "under/drp.csv": "61fb9269627db7e919e4bf90ceac1fd72daa59700a2c366fd48faf4c50e56c61",
        "under/hpd.csv": "a0886071b6846c73b230f5801ebd6cc60760b693c2b52c99c6dd0b4ccce9b57d",
        "uninf/drp-datashift.csv": "e3ec0020f10b4de5434997fe0417fb014216463727340076621a5e3910c2703d",
        "uninf/drp-prior.csv": "8e877d2cbd87e33a753aa4d4bba20cda32e1d743745ef94e58295e2f9865a6bf",
        "uninf/hpd.csv": "fbcc993674205fea344aa98483fafa5899102de517d3ae7ef29def09e1bc7db2",
    },
    "roundtrip": {
        "coverage/drp.csv": "e8e4244c2a92c9b03568fe4da20207bb8c4bc0f156af1b84e456927a965dcefc",
        "toy/drp.csv": "e8e4244c2a92c9b03568fe4da20207bb8c4bc0f156af1b84e456927a965dcefc",
        "toy/toy_joint.csv": "6e01b6ca7782ea27d55c1d767b0026c9db0262cb9ca119e8d2359debc1376c68",
        "toy/toy_posterior.csv": "5bbba1ce72af85379d9a4bf919f931dee44222ad52832cbac48cb2c8581bea3d",
    },
}


@pytest.mark.parametrize("name", sorted(bench_workloads()))
def test_every_bench_workload_runs_and_passes_its_check(name, tmp_path):
    workload = bench_workloads()[name]
    for argv in workload.commands(str(tmp_path), 1):
        assert main(argv) == 0, argv
    assert workload.check(str(tmp_path), 1) == []
    if name in SEED_1_DIGESTS:
        written = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(tmp_path.rglob("*")) if p.is_file() and p.name != "resolved_config.txt"}
        assert written == SEED_1_DIGESTS[name]
