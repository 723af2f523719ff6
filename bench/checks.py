"""Checks of `vfp` outputs made with numpy alone, independent of the package.

Each check returns a list of problems; an empty list means the output passed.
"""
from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

HULL_TOL = 1e-9
LINE_TOL = 1e-9
BELLMAN_TOL = 1e-8


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest_digests(workdir: Path, out: str) -> tuple[dict[str, str], list[str]]:
    """Digests of the manifest next to `out` and of every output it lists.

    A listed output whose digest differs from the manifest is a problem.
    """
    manifest = workdir / f"{out}.manifest.json"
    digests = {manifest.name: sha256(manifest)}
    problems = []
    for entry in json.loads(manifest.read_text())["outputs"]:
        actual = sha256(workdir / entry["path"])
        if actual != entry["sha256"]:
            problems.append(f"{entry['path']}: digest differs from its manifest")
        digests[entry["path"]] = actual
    return digests, problems


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _model(doc: dict) -> tuple[np.ndarray, np.ndarray, float]:
    n_s, n_a = doc["n_states"], doc["n_actions"]
    rewards = np.asarray(doc["rewards"], dtype=float).reshape(n_s, n_a)
    transitions = np.asarray(doc["transitions"], dtype=float).reshape(n_s, n_a, n_s)
    return rewards, transitions, float(doc["gamma"])


def _value_bound(doc: dict) -> float:
    rewards, _, gamma = _model(doc)
    return float(np.max(np.abs(rewards))) / (1.0 - gamma)


def _bounded(values: np.ndarray, doc: dict) -> list[str]:
    if not np.all(np.isfinite(values)):
        return ["non-finite value"]
    worst = float(np.max(np.abs(values)))
    bound = _value_bound(doc)
    if worst > bound * (1.0 + 1e-12):
        return [f"value {worst!r} exceeds max|r|/(1-gamma) = {bound!r}"]
    return []


def _bellman_residual(v: np.ndarray, doc: dict) -> float:
    rewards, transitions, gamma = _model(doc)
    return float(np.max(np.abs((rewards + gamma * transitions @ v).max(axis=1) - v)))


def _deterministic_values(doc: dict) -> np.ndarray:
    rewards, transitions, gamma = _model(doc)
    n_s, n_a = rewards.shape
    states = np.arange(n_s)
    values = []
    for actions in itertools.product(range(n_a), repeat=n_s):
        p_pi = transitions[states, actions]
        values.append(np.linalg.solve(np.eye(n_s) - gamma * p_pi, rewards[states, actions]))
    return np.array(values)


def _hull_2d(points: np.ndarray) -> np.ndarray:
    """Counterclockwise hull of planar points (monotone chain)."""
    pts = sorted(map(tuple, np.unique(points, axis=0)))

    def half(seq):
        chain: list[tuple[float, float]] = []
        for p in seq:
            while len(chain) >= 2 and (
                (chain[-1][0] - chain[-2][0]) * (p[1] - chain[-2][1])
                - (chain[-1][1] - chain[-2][1]) * (p[0] - chain[-2][0])
            ) <= 0.0:
                chain.pop()
            chain.append(p)
        return chain[:-1]

    return np.array(half(pts) + half(pts[::-1]))


def check_sample(path: Path, doc: dict) -> list[str]:
    """Sampled values are bounded and, for 2 states, inside the vertex hull."""
    values = _read_csv(path)
    problems = _bounded(values, doc)
    if doc["n_states"] == 2 and not problems:
        hull = _hull_2d(_deterministic_values(doc))
        for a, b in zip(hull, np.roll(hull, -1, axis=0)):
            edge = b - a
            cross = edge[0] * (values[:, 1] - a[1]) - edge[1] * (values[:, 0] - a[0])
            escape = float(np.max(-cross)) / float(np.linalg.norm(edge))
            if escape > HULL_TOL:
                problems.append(f"a sample lies {escape:.3e} outside the hull")
                break
    return problems


def check_line(path: Path, doc: dict) -> list[str]:
    """Line rows lie on the segment between the endpoint rows, rho monotone."""
    data = _read_csv(path)
    mus, rhos, values, flags = data[:, 0], data[:, 1], data[:, 2:-1], data[:, -1]
    problems = _bounded(values, doc)
    if flags[0] != 1 or flags[-1] != 1 or np.any(flags[1:-1] != 0):
        problems.append("endpoint flags are not exactly the first and last rows")
    if np.any(np.diff(mus) <= 0):
        problems.append("mu is not increasing")
    if np.any(np.diff(rhos) < 0) or rhos[0] != 0.0 or abs(rhos[-1] - 1.0) > LINE_TOL:
        problems.append("rho is not monotone from 0 to 1")
    low, high = values[0], values[-1]
    ab = high - low
    length = float(np.linalg.norm(ab))
    t = np.clip((values - low) @ ab / max(length**2, 1e-300), 0.0, 1.0)
    off = float(np.max(np.linalg.norm(values - (low + t[:, None] * ab), axis=1)))
    if off > LINE_TOL * length + 1e-12 * _value_bound(doc):
        problems.append(f"a row lies {off:.3e} off the segment of length {length:.3e}")
    return problems


def check_trajectory(path: Path, doc: dict, algo: str) -> list[str]:
    """Trajectory values are bounded; vi and pi end near the optimum.

    pi must end at a Bellman-optimality residual of at most 1e-8 of the
    value scale max|r|/(1-gamma). vi is held to its contraction guarantee
    ||T v_k - v_k|| <= gamma^k ||T v_0 - v_0||, since at the CLI's default
    100 iterations and gamma 0.9 it is still ~1e-6 away by design.
    """
    data = _read_csv(path)
    values = data[:, 1 : 1 + doc["n_states"]]
    problems = _bounded(values, doc)
    if problems or algo not in ("vi", "pi"):
        return problems
    scale = _value_bound(doc)
    residual = _bellman_residual(values[-1], doc)
    if algo == "pi":
        limit = BELLMAN_TOL * scale
    else:
        limit = float(doc["gamma"]) ** data[-1, 0] * _bellman_residual(values[0], doc)
        limit = limit * (1.0 + 1e-9) + 1e-12 * scale
    if residual > limit:
        problems.append(f"final Bellman residual {residual:.3e} exceeds {limit:.3e}")
    return problems


def check_verify(path: Path) -> list[str]:
    report = json.loads(path.read_text())
    failed = [r["check_name"] for r in report["reports"] if not r["passed"]]
    if report["all_passed"] is not True or failed:
        return [f"verify report has failing suites {failed}"]
    return []


def check_outputs(workdir: Path, check: str, out: str, doc: dict | None) -> list[str]:
    """Run the named check on an invocation's primary output."""
    path = workdir / out
    if check == "sample":
        return check_sample(path, doc)
    if check == "line":
        return check_line(path, doc)
    if check == "verify":
        return check_verify(path)
    return check_trajectory(path, doc, check)
