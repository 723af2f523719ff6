"""The traced benchmark's contract with the program.

bench/layers.Tracer finds every layer in sys.modules and reads some
functions' parameters by name (load_mdp's text, write_csv's and write_svg's
path, run_cem's config, run_policy_gradient's entropy_coeff and
run_suite's suite_name). Only a traced benchmark run uses them otherwise,
so this test runs every command and algorithm under the tracer, and a
rename on either side fails here.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from vfpolytope import cli

LAYERS_PATH = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_runs_every_command(layers, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    mdp = ["--mdp", "dyn2.json"]
    argvs = [
        ["fixtures", "dump", "dyn2", "--out", "dyn2.json"],
        ["sample", *mdp, "--n", "20", "--out", "cloud.csv", "--svg", "cloud.svg"],
        ["line", *mdp, "--state", "0", "--grid", "5", "--out", "line.csv"],
        *(["dynamics", *mdp, "--algo", algo, "--iters", "2", "--out", f"{algo}.csv"]
          for algo in cli.ALGORITHMS),
        ["verify", *mdp, "--suite", "all", "--trials", "1", "--report", "report.json"],
    ]
    tracer = layers.Tracer()
    tracer.install()
    try:
        codes = [tracer.run(cli.main, argv) for argv in argvs]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(argvs)
    counters = tracer.counters
    assert all(counters[f"dynamics.{algo}_iters"] > 0 for algo in cli.ALGORITHMS)
    assert counters["evaluation.lapack_solves"] > 0
    assert counters["verification.instances"] == 5
    assert counters["mdp.load_bytes"] > 0 and counters["output.bytes_written"] > 0
