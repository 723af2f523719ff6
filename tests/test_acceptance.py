"""Release gate: thirteen acceptance criteria with pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to get one pass/fail line
per criterion on stdout (pytest -v also names each criterion).
"""
import json
from pathlib import Path

import numpy as np
import pytest

from vfpolytope.cli import main as cli_main
from vfpolytope.dynamics import (
    CemConfig,
    resolve_init,
    run_cem,
    run_policy_gradient,
    run_policy_iteration,
    run_value_iteration,
)
from vfpolytope.evaluation import optimal_value, value_function
from vfpolytope.geometry import (
    AgreementSet,
    affine_slice,
    polytope_vertices_det,
    sample_values,
    slice_rank,
)
from vfpolytope.mdp import (
    FIXTURE_NAMES,
    Policy,
    builtin_fixture,
    example1_mdp,
    random_mdp,
    random_policy,
)
from vfpolytope.verification import run_suite

from oracles import (
    hull_2d,
    mc_value_oracle,
    mix_policies,
    neumann_tail_bound,
    neumann_value_oracle,
    points_in_hull,
    policy_gradient,
    softmax_policy,
)

DYN2 = builtin_fixture("dyn2")
V_STAR, _ = optimal_value(DYN2)
TWO_STATE_FIXTURES = FIXTURE_NAMES  # every built-in has two states


def report(number: int, description: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {description}")


def test_criterion_01_example_closed_form():
    mdp = example1_mdp(gamma=0.9)
    stay = Policy(np.array([[1.0, 0.0], [1.0, 0.0]]))
    quit_ = Policy(np.array([[0.0, 1.0], [1.0, 0.0]]))
    for mu in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = value_function(mdp, mix_policies(stay, quit_, mu))
        expected = np.array([mu / (1.0 - 0.9 * (1.0 - mu)), 0.0])
        assert np.max(np.abs(v - expected)) < 1e-12, (mu, v, expected)
    report(1, "two-state closed form matches exact evaluation within 1e-12")


def test_criterion_02_line_theorem_suite():
    result = run_suite("line", trials=100, seed=2024)
    assert result.passed, result.failures
    assert result.max_deviation < 1e-9
    report(
        2,
        f"100 random MDPs: 21-point mixtures collinear/bracketed "
        f"(max deviation {result.max_deviation:.2e} < 1e-9)",
    )


def test_criterion_03_interpolation_ratio_closed_form():
    result = run_suite("line", trials=50, seed=77)
    assert result.passed, result.failures
    assert result.max_deviation < 1e-8
    report(
        3,
        f"closed-form mixing ratio matches direct evaluation on 50 instances "
        f"(max deviation {result.max_deviation:.2e} < 1e-8), strictly monotone",
    )


def test_criterion_04_affine_slice_and_rank():
    for name in ("dyn2", "fig2c"):
        mdp = builtin_fixture(name)
        for k in range(mdp.n_states + 1):
            fixed = tuple(range(k))
            base = random_policy(mdp, 1000 + k)
            agreement = AgreementSet(base=base, fixed_states=fixed)
            sl = affine_slice(mdp, agreement)
            values = sample_values(mdp, 500, np.random.SeedSequence((9, k)), agreement)
            residual = max(sl.projection_residual(v) for v in values)
            assert residual < 1e-9, (name, k, residual)
            assert slice_rank(values) == mdp.n_states - k, (name, k)
    report(4, "fixing k states: slice residual < 1e-9 and rank = |S|-k on dyn2/fig2c")


def test_criterion_05_hull_inclusion_50k():
    worst = 0.0
    for name in TWO_STATE_FIXTURES:
        mdp = builtin_fixture(name)
        vertices = polytope_vertices_det(mdp)
        hull = hull_2d(vertices)
        cloud = sample_values(mdp, 50_000, 7)
        inside = points_in_hull(cloud, hull)
        assert inside.all(), f"{name}: {np.sum(~inside)} samples escaped"
    report(5, "50,000 samples per two-state fixture inside deterministic hull (1e-9)")


def test_criterion_06_boundary_semideterministic():
    result = run_suite("boundary", seed=1, mdp=DYN2)
    assert result.passed, result.failures
    assert result.max_deviation < 1e-3
    report(
        6,
        f"dyn2 ray-exit boundary points within {result.max_deviation:.2e} (< 1e-3) "
        f"of their semi-deterministic policies' values and the one-state-pinned "
        f"families",
    )


def test_criterion_07_value_triangulation():
    uniform = Policy.uniform(2, 2)
    exact = value_function(DYN2, uniform)

    series = neumann_value_oracle(DYN2, uniform, terms=200)
    bound = neumann_tail_bound(DYN2, 200)
    assert bound == pytest.approx(0.9**200 * 0.5 / 0.1)
    series_dev = float(np.max(np.abs(exact - series)))
    assert series_dev <= bound, (series_dev, bound)

    mc = mc_value_oracle(DYN2, uniform, horizon=300, episodes=100_000, seed=0)
    mc_dev = np.abs(exact - mc.value)
    assert np.all(mc_dev <= 3.0 * mc.stderr + mc.truncation_bound)
    report(
        7,
        f"exact vs series dev {series_dev:.2e} <= tail bound {bound:.2e}; "
        f"exact vs Monte Carlo within 3 sigma + truncation",
    )


def test_criterion_08_value_iteration_contraction_and_hull_exit():
    for name in FIXTURE_NAMES:
        mdp = builtin_fixture(name)
        v_star, _ = optimal_value(mdp)
        v0 = value_function(mdp, Policy.uniform(mdp.n_states, mdp.n_actions))
        trajectory = run_value_iteration(mdp, v0, 80)
        gaps = np.max(np.abs(trajectory.points - v_star[None, :]), axis=1)
        assert np.all(gaps[1:] <= mdp.gamma * gaps[:-1] + 1e-12), name
    # configured dyn2 run: start near the lowest-value vertex; iterates leave
    # the hull of deterministic-policy values
    worst_vertex = Policy.deterministic([0, 1], 2)
    start = Policy(0.99 * worst_vertex.probs + 0.01 / 2)
    trajectory = run_value_iteration(DYN2, value_function(DYN2, start), 100)
    hull = hull_2d(polytope_vertices_det(DYN2))
    inside = points_in_hull(trajectory.points, hull)
    assert not inside.all(), "expected at least one iterate outside the hull"
    report(
        8,
        f"contraction factor <= gamma on all fixtures; {np.sum(~inside)} "
        f"iterates exit the deterministic hull on the configured dyn2 run",
    )


def test_criterion_09_policy_iteration():
    det_values = {
        name: polytope_vertices_det(builtin_fixture(name))
        for name in FIXTURE_NAMES
    }
    for name in FIXTURE_NAMES:
        mdp = builtin_fixture(name)
        v_star, _ = optimal_value(mdp)
        inits = [Policy.uniform(mdp.n_states, mdp.n_actions)]
        if name == "dyn2":
            inits += [
                resolve_init(mdp, k) for k in ("vertex", "boundary")
            ]
        for policy in inits:
            trajectory = run_policy_iteration(mdp, value_function(mdp, policy))
            assert len(trajectory) - 1 <= mdp.n_actions**mdp.n_states
            steps = trajectory.points[1:] - trajectory.points[:-1]
            assert np.all(steps >= -1e-9), name
            assert np.max(np.abs(trajectory.points[-1] - v_star)) < 1e-8, name
            for point in trajectory.points[1:]:
                nearest = np.min(
                    np.max(np.abs(det_values[name] - point[None, :]), axis=1)
                )
                assert nearest < 1e-10, name
    report(9, "policy iteration monotone, <= |A|^|S| steps, ends at V*, visits vertices")


def test_criterion_10_policy_gradient_exactness():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        mdp = random_mdp(
            int(rng.integers(2, 5)),
            int(rng.integers(2, 4)),
            float(rng.uniform(0.3, 0.95)),
            seed=seed + 4_000,
        )
        theta = rng.normal(size=(mdp.n_states, mdp.n_actions))
        grad = policy_gradient(mdp, theta)
        h = 1e-5
        fd = np.zeros_like(theta)
        for s in range(mdp.n_states):
            for a in range(mdp.n_actions):
                plus, minus = theta.copy(), theta.copy()
                plus[s, a] += h
                minus[s, a] -= h
                fd[s, a] = (
                    value_function(mdp, softmax_policy(plus)).mean()
                    - value_function(mdp, softmax_policy(minus)).mean()
                ) / (2 * h)
        worst = max(worst, np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12))
    assert worst < 1e-4
    saturated = np.array([[30.0, 0.0], [0.0, 30.0]])
    sat_norm = float(np.max(np.abs(policy_gradient(DYN2, saturated))))
    assert sat_norm < 1e-8
    report(
        10,
        f"gradient vs central differences rel err {worst:.2e} < 1e-4; "
        f"saturated gradient {sat_norm:.2e} < 1e-8",
    )


def test_criterion_11_entropy_regularization_interior():
    eta, iterations, coeff = 0.05, 1000, 0.1
    trajectory = run_policy_gradient(
        DYN2, resolve_init(DYN2, "interior"), eta=eta, iterations=iterations,
        entropy_coeff=coeff,
    )
    theta = np.log(resolve_init(DYN2, "interior").probs)
    for _ in range(iterations):
        theta = theta + eta * policy_gradient(DYN2, theta, coeff)
    final_policy = softmax_policy(theta)
    min_prob = float(final_policy.probs.min())
    gap = float(np.max(np.abs(trajectory.points[-1] - V_STAR)))
    assert min_prob > 1e-3, min_prob
    assert gap > 1e-3, gap
    report(
        11,
        f"entropy-regularized run stays interior (min prob {min_prob:.2e} > 1e-3) "
        f"and suboptimal (gap {gap:.2e} > 1e-3)",
    )


def test_criterion_12_cem_collapse_and_noisy_convergence():
    near_vertex = resolve_init(DYN2, "vertex")
    plain = CemConfig(noise_scale=0.0, iterations=100, seed=0)
    collapse = run_cem(DYN2, near_vertex, plain)
    trace = collapse.columns["cov_trace"][-1]
    assert trace < 1e-3, trace

    gaps = []
    for kind in ("vertex", "boundary", "interior"):
        init = resolve_init(DYN2, kind)
        noisy = CemConfig(noise_scale=0.05, iterations=100, seed=0)
        trajectory = run_cem(DYN2, init, noisy)
        gaps.append(float(np.max(np.abs(trajectory.points[-1] - V_STAR))))
    assert max(gaps) < 0.05, gaps

    again = run_cem(DYN2, near_vertex, plain)
    assert np.array_equal(collapse.points, again.points)
    report(
        12,
        f"noise-free covariance trace {trace:.2e} < 1e-3; noisy variant ends "
        f"within {max(gaps):.2e} (< 0.05) of V* from all inits; runs bitwise stable",
    )


def test_criterion_13_cli_reproducibility(tmp_path, monkeypatch):
    import hashlib

    monkeypatch.chdir(tmp_path)
    commands = [
        ["fixtures", "dump", "dyn2", "--out", "m.json"],
        ["sample", "--mdp", "dyn2", "--n", "500", "--seed", "11",
         "--out", "s.csv", "--svg", "s.svg"],
        ["line", "--mdp", "fig2c", "--state", "1", "--seed", "11",
         "--grid", "21", "--out", "l.csv"],
        ["dynamics", "--mdp", "dyn2", "--algo", "cemcn", "--init", "boundary",
         "--iters", "15", "--seed", "11", "--out", "d.csv", "--svg", "d.svg"],
        ["verify", "--suite", "slice", "--trials", "10", "--seed", "11",
         "--report", "v.json"],
    ]
    for argv in commands:
        assert cli_main(argv) == 0
        primary = next(
            argv[i + 1] for i, a in enumerate(argv) if a in ("--out", "--report")
        )
        manifest = json.loads(Path(primary + ".manifest.json").read_text())
        recorded = {o["path"]: o["sha256"] for o in manifest["outputs"]}
        assert cli_main(manifest["argv"]) == 0
        for path, digest in recorded.items():
            actual = hashlib.sha256(Path(path).read_bytes()).hexdigest()
            assert actual == digest, (argv[0], path)
    report(13, "every CLI command re-run from its manifest is byte-identical")
