"""The benchmark's four workloads: the `vfp` invocations and their inputs.

Every workload is a closed loop: one caller runs its invocations one after
another, each waiting for the previous one to exit. The workload seed goes
to every `--seed` and generates the wide MDP; the program receives only the
generated files and argv.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# The paper's Fig. 2 MDP, which the package ships as the `dyn2` fixture. The
# checks solve it here, independently of the package.
DYN2 = {
    "n_states": 2,
    "n_actions": 2,
    "gamma": 0.9,
    "rewards": [-0.45, -0.1, 0.5, 0.5],
    "transitions": [[0.7, 0.3], [0.99, 0.01], [0.2, 0.8], [0.99, 0.01]],
}

WIDE_STATES = 128
WIDE_ACTIONS = 4
WIDE_GAMMA = 0.95
WIDE_FILE = "wide.json"

LEARNING_ALGOS = ("vi", "pi", "pg", "entpg", "npg")

NAMES = ("planar-cloud", "wide-mdp", "learning-paths", "verify-suites")


@dataclass(frozen=True)
class Invocation:
    """One `vfp` run: its argv, its primary output and the check it gets.

    check is one of "sample", "line", "vi", "pi", "trajectory", "verify".
    """

    argv: tuple[str, ...]
    out: str
    check: str


@dataclass(frozen=True)
class Workload:
    """A named workload: its invocations, generated input files and MDP."""

    name: str
    invocations: tuple[Invocation, ...]
    inputs: dict[str, bytes]
    mdp: dict | None


def wide_mdp_document(seed: int) -> dict:
    """Random MDP in the package's JSON document format, from numpy alone.

    Rewards are uniform on [-1, 1] and every transition row is a flat
    Dirichlet draw over the 128 states.
    """
    rng = np.random.default_rng([seed, WIDE_STATES, WIDE_ACTIONS])
    n_sa = WIDE_STATES * WIDE_ACTIONS
    return {
        "n_states": WIDE_STATES,
        "n_actions": WIDE_ACTIONS,
        "gamma": WIDE_GAMMA,
        "rewards": rng.uniform(-1.0, 1.0, size=n_sa).tolist(),
        "transitions": rng.dirichlet(np.ones(WIDE_STATES), size=n_sa).tolist(),
    }


def _dynamics(mdp: str, algo: str, seed: str, *extra: str) -> Invocation:
    out = f"{algo}.csv"
    check = algo if algo in ("vi", "pi") else "trajectory"
    argv = ("dynamics", "--mdp", mdp, "--algo", algo, *extra, "--seed", seed, "--out", out)
    return Invocation(argv, out, check)


def _line(mdp: str, seed: str) -> Invocation:
    argv = ("line", "--mdp", mdp, "--state", "0", "--grid", "1001", "--seed", seed,
            "--out", "line.csv")
    return Invocation(argv, "line.csv", "line")


def build(name: str, seed: int) -> Workload:
    """The invocations and input files of one workload for one seed."""
    s = str(seed)
    # Per-policy RNG streams, CEM's per-member streams and CSV/SVG output do
    # almost all the work; the solve is about 1%. Also the 2-state guard for
    # changes to the collapse and to single-policy evaluation.
    if name == "planar-cloud":
        invocations = (
            Invocation(("sample", "--mdp", "dyn2", "--n", "50000", "--seed", s,
                        "--out", "cloud.csv", "--svg", "cloud.svg"), "cloud.csv", "sample"),
            _line("dyn2", s),
            _dynamics("dyn2", "cemcn", s, "--iters", "100", "--svg", "cemcn.svg"),
        )
        return Workload(name, invocations, {}, DYN2)
    # Batch and single solves, the P_pi collapse, optimal_value and load_mdp
    # do almost all the work; peak memory is large and RNG is about 5%.
    if name == "wide-mdp":
        doc = wide_mdp_document(seed)
        invocations = (
            Invocation(("sample", "--mdp", WIDE_FILE, "--n", "2000", "--seed", s,
                        "--out", "cloud.csv"), "cloud.csv", "sample"),
            _line(WIDE_FILE, s),
            _dynamics(WIDE_FILE, "pi", s, "--init", "vertex"),
        )
        return Workload(name, invocations, {WIDE_FILE: json.dumps(doc).encode("ascii")}, doc)
    # Thousands of tiny single-policy solves in Python loops plus one process
    # start per algorithm, at the CLI's default iteration counts; no RNG.
    if name == "learning-paths":
        invocations = tuple(
            _dynamics("dyn2", algo, s, "--init", "boundary") for algo in LEARNING_ALGOS
        )
        return Workload(name, invocations, {}, DYN2)
    # The release gate, and the only workload dominated by verification. The
    # suites check the given dyn2 rather than their random instances: over the
    # random 2-state family the boundary suite fails on about one seed in
    # twenty (its angular sweep misses the 5e-3 floor on sliver-shaped
    # instances, e.g. 7.8e-3 on seed 1276057434), a program defect that a
    # benchmark run must not trip on. On dyn2 its deviation stayed below
    # 4.4e-4 of its 1e-3 tolerance over 160 seeds.
    if name == "verify-suites":
        argv = ("verify", "--suite", "all", "--trials", "10", "--mdp", "dyn2",
                "--seed", s, "--report", "report.json")
        return Workload(name, (Invocation(argv, "report.json", "verify"),), {}, DYN2)
    raise KeyError(name)
