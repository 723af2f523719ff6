import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from vfpolytope import dynamics, evaluation
from vfpolytope.dynamics import (
    CemConfig,
    Trajectory,
    _softmax_probs,
    resolve_init,
    run_cem,
    run_npg,
    run_policy_gradient,
    run_policy_iteration,
    run_value_iteration,
)
from vfpolytope.errors import IterationCap, NonFiniteLogits, ShapeMismatch
from vfpolytope.evaluation import optimal_value, value_function
from vfpolytope.geometry import polytope_vertices_det
from vfpolytope.mdp import (
    Mdp,
    Policy,
    builtin_fixture,
    random_mdp,
    random_policy,
)

from oracles import (
    cem_covariance,
    damped_natural_gradient,
    discounted_distribution,
    fisher_matrix,
    hull_2d,
    points_in_hull,
    policy_gradient,
    softmax_policy,
    three_solve_gradient,
)

DYN2 = builtin_fixture("dyn2")
V_STAR, _ = optimal_value(DYN2)
ASCENT_RUNS = {
    "pg": partial(run_policy_gradient, entropy_coeff=0.0),
    "entpg": partial(run_policy_gradient, entropy_coeff=0.1),
    "npg": run_npg,
}


class TestSoftmax:
    def test_zero_logits_uniform(self):
        probs = dynamics._softmax_probs(np.zeros((3, 4)))
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)

    def test_large_gap_saturates(self):
        probs = dynamics._softmax_probs(np.array([[10.0, -10.0]]))
        assert abs(probs[0, 0] - 1.0) < 1e-8
        assert probs[0, 1] < 1e-8

    @given(
        npst.arrays(
            np.float64,
            (2, 3),
            elements=st.floats(min_value=-50, max_value=50),
        ),
        st.floats(min_value=-30, max_value=30),
    )
    def test_row_shift_invariance(self, theta, shift):
        shifted = theta.copy()
        shifted[0] += shift
        a = dynamics._softmax_probs(theta)
        b = dynamics._softmax_probs(shifted)
        # arbitrary shifts pick up one rounding step in theta + c
        assert np.max(np.abs(a - b)) <= 1e-14

    @pytest.mark.parametrize("shift", [1.0, -4.0, 16.0, -0.5])
    def test_exact_shift_invariance(self, shift):
        # shifts and logits chosen so theta + shift is exact in binary
        theta = np.array([[0.25, -1.5, 3.0], [2.0, 0.0, -7.75]])
        shifted = theta.copy()
        shifted[1] += shift
        a = dynamics._softmax_probs(theta)
        b = dynamics._softmax_probs(shifted)
        assert np.max(np.abs(a - b)) <= 1e-15


class TestInits:
    def test_interior_uniform(self):
        p = resolve_init(DYN2, "interior")
        np.testing.assert_array_equal(p.probs, 0.5)

    def test_near_vertex_close_to_one_hot(self):
        p = resolve_init(DYN2, "vertex")
        assert np.all(p.probs.max(axis=1) >= 0.99)

    def test_near_vertex_tracks_optimal_policy(self):
        _, greedy = optimal_value(DYN2)
        p = resolve_init(DYN2, "vertex")
        np.testing.assert_array_equal(
            np.argmax(p.probs, axis=1), np.argmax(greedy.probs, axis=1)
        )

    def test_near_boundary_shape(self):
        p = resolve_init(DYN2, "boundary")
        assert p.probs[0].max() >= 0.99
        np.testing.assert_array_equal(p.probs[1], 0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            resolve_init(DYN2, "weird")


class TestValueIteration:
    def test_fixed_point_stops_immediately(self):
        traj = run_value_iteration(DYN2, V_STAR, 50)
        assert len(traj) == 2
        np.testing.assert_allclose(traj.points[1], V_STAR, atol=1e-12)

    def test_contraction_every_step(self):
        for kind in ("vertex", "boundary", "interior"):
            v0 = value_function(DYN2, resolve_init(DYN2, kind))
            traj = run_value_iteration(DYN2, v0, 80)
            gaps = np.max(np.abs(traj.points - V_STAR[None, :]), axis=1)
            assert np.all(gaps[1:] <= DYN2.gamma * gaps[:-1] + 1e-12)

    def test_contraction_on_random_mdps(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            mdp = random_mdp(
                int(rng.integers(2, 5)), int(rng.integers(2, 4)),
                float(rng.uniform(0.2, 0.95)), seed=seed,
            )
            v_star, _ = optimal_value(mdp)
            v0 = value_function(mdp, random_policy(mdp, seed + 1))
            traj = run_value_iteration(mdp, v0, 30)
            gaps = np.max(np.abs(traj.points - v_star[None, :]), axis=1)
            nonzero = gaps[:-1] > 1e-12
            assert np.all(
                gaps[1:][nonzero] <= mdp.gamma * gaps[:-1][nonzero] + 1e-12
            )

    def test_example1_reaches_target_in_one_step(self):
        from vfpolytope.mdp import example1_mdp

        m = example1_mdp()
        traj = run_value_iteration(m, np.zeros(2), 50)
        np.testing.assert_array_equal(traj.points[1], [1.0, 0.0])
        assert len(traj) == 3  # one productive step, one stationary step

    def test_iterates_can_leave_deterministic_hull(self):
        # start near the lowest-value vertex: the first few backups overshoot
        worst = Policy.deterministic([0, 1], 2)
        probs = 0.99 * worst.probs + 0.01 / 2
        v0 = value_function(DYN2, Policy(probs))
        traj = run_value_iteration(DYN2, v0, 100)
        hull = hull_2d(polytope_vertices_det(DYN2))
        inside = points_in_hull(traj.points, hull)
        assert not inside.all()


class TestPolicyIteration:
    def test_from_v_star_stops_after_one_evaluation(self):
        traj = run_policy_iteration(DYN2, V_STAR)
        assert len(traj) == 2
        np.testing.assert_allclose(traj.points[1], V_STAR, atol=1e-10)

    def test_monotone_and_terminates(self):
        for kind in ("vertex", "boundary", "interior"):
            v0 = value_function(DYN2, resolve_init(DYN2, kind))
            traj = run_policy_iteration(DYN2, v0)
            assert len(traj) <= 2**2 + 1
            diffs = traj.points[1:] - traj.points[:-1]
            assert np.all(diffs >= -1e-9)
            np.testing.assert_allclose(traj.points[-1], V_STAR, atol=1e-8)

    def test_iteration_cap_raises(self, monkeypatch):
        # From the uniform policy's value the first greedy policy on dyn2 is
        # not optimal, so one evaluation cannot settle.
        monkeypatch.setattr(evaluation, "_MAX_IMPROVEMENTS", 1)
        with pytest.raises(IterationCap):
            run_policy_iteration(DYN2, value_function(DYN2, Policy.uniform(2, 2)))

    def test_intermediate_points_are_deterministic_values(self):
        det_values = polytope_vertices_det(DYN2)
        v0 = value_function(DYN2, Policy.uniform(2, 2))
        traj = run_policy_iteration(DYN2, v0)
        for point in traj.points[1:]:
            assert np.min(np.max(np.abs(det_values - point[None, :]), axis=1)) < 1e-10


class TestDiscountedDistribution:
    def test_gamma_zero_returns_start(self):
        m = random_mdp(3, 2, 0.0, seed=1)
        np.testing.assert_allclose(
            discounted_distribution(m, random_policy(m, 0)), 1.0 / 3.0, atol=1e-14
        )

    def test_absorbing_state(self):
        m = Mdp(
            n_states=2,
            n_actions=1,
            rewards=np.zeros(2),
            transitions=np.array([[1.0, 0.0], [1.0, 0.0]]),
            gamma=0.9,
        )
        # From the uniform start: (1 - gamma) * 0.5 stays at state 1.
        d = discounted_distribution(m, Policy(np.ones((2, 1))))
        np.testing.assert_allclose(d, [0.95, 0.05], atol=1e-12)

    def test_matches_truncated_sum(self):
        policy = Policy.uniform(2, 2)
        from vfpolytope.evaluation import _collapse

        p_pi, _ = _collapse(DYN2, policy.probs)
        rho0 = np.full(2, 0.5)
        total = np.zeros(2)
        weight = rho0.copy()
        for _ in range(300):
            total += weight
            weight = DYN2.gamma * p_pi.T @ weight
        expected = (1 - DYN2.gamma) * total
        d = discounted_distribution(DYN2, policy)
        assert np.max(np.abs(d - expected)) < 1e-10

    def test_is_probability_vector(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            mdp = random_mdp(
                int(rng.integers(2, 5)), int(rng.integers(2, 4)),
                float(rng.uniform(0.0, 0.95)), seed=seed,
            )
            d = discounted_distribution(mdp, random_policy(mdp, seed))
            assert np.all(d >= -1e-12)
            assert abs(d.sum() - 1.0) < 1e-10

    def test_rejects_a_policy_of_the_wrong_shape(self):
        with pytest.raises(ShapeMismatch, match=r"policy shape \(3, 2\)"):
            discounted_distribution(DYN2, Policy.uniform(3, 2))


class TestPolicyGradient:
    def test_matches_finite_differences(self):
        worst = 0.0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            mdp = random_mdp(
                int(rng.integers(2, 5)), int(rng.integers(2, 4)),
                float(rng.uniform(0.3, 0.95)), seed=seed + 1000,
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
            scale = max(np.max(np.abs(fd)), 1e-12)
            worst = max(worst, np.max(np.abs(grad - fd)) / scale)
        assert worst < 1e-4

    def test_vanishes_at_saturation(self):
        theta = np.array([[30.0, 0.0], [0.0, 30.0]])
        assert np.max(np.abs(policy_gradient(DYN2, theta))) < 1e-8

    def test_zero_on_symmetric_actions(self):
        m = Mdp(
            n_states=2,
            n_actions=2,
            rewards=np.array([0.3, 0.3, -0.2, -0.2]),
            transitions=np.array(
                [[0.6, 0.4], [0.6, 0.4], [0.1, 0.9], [0.1, 0.9]]
            ),
            gamma=0.9,
        )
        grad = policy_gradient(m, np.zeros((2, 2)))
        assert np.max(np.abs(grad)) < 1e-14

    def test_run_converges_on_dyn2(self):
        traj = run_policy_gradient(
            DYN2, resolve_init(DYN2, "interior"), eta=0.1, iterations=10_000
        )
        assert np.max(np.abs(traj.points[-1] - V_STAR)) < 1e-2

    def test_ascent_at_small_step(self):
        traj = run_policy_gradient(
            DYN2, resolve_init(DYN2, "interior"), eta=1e-3, iterations=300
        )
        objective = traj.points.mean(axis=1)
        assert np.all(np.diff(objective) >= -1e-9)

    def test_entropy_regularized_interior_suboptimum(self):
        traj = run_policy_gradient(
            DYN2,
            resolve_init(DYN2, "interior"),
            eta=0.05,
            iterations=1000,
            entropy_coeff=0.1,
        )
        theta = np.log(resolve_init(DYN2, "interior").probs)
        for _ in range(1000):
            theta = theta + 0.05 * policy_gradient(DYN2, theta, 0.1)
        probs = softmax_policy(theta).probs
        assert probs.min() > 1e-3
        assert np.max(np.abs(traj.points[-1] - V_STAR)) > 1e-3


class TestNaturalGradient:
    def test_fisher_block_diagonal(self):
        uniform = Policy.uniform(2, 2)
        fisher = fisher_matrix(uniform.probs, discounted_distribution(DYN2, uniform))
        assert np.max(np.abs(fisher[:2, 2:])) == 0.0
        assert np.max(np.abs(fisher[2:, :2])) == 0.0

    def test_fisher_matches_monte_carlo(self):
        theta = np.array([[0.4, -0.3], [0.1, 0.8]])
        policy = softmax_policy(theta)
        d = discounted_distribution(DYN2, policy)
        fisher = fisher_matrix(policy.probs, d)
        rng = np.random.default_rng(0)
        n = 100_000
        states = rng.choice(2, size=n, p=d)
        actions = np.array(
            [rng.choice(2, p=policy.probs[s]) for s in states]
        )
        outer_sum = np.zeros((4, 4))
        sq_sum = np.zeros((4, 4))
        for s, a in zip(states, actions):
            g = np.zeros((2, 2))
            g[s] = -policy.probs[s]
            g[s, a] += 1.0
            flat = g.reshape(-1)
            outer = np.outer(flat, flat)
            outer_sum += outer
            sq_sum += outer**2
        estimate = outer_sum / n
        variance = sq_sum / n - estimate**2
        stderr = np.sqrt(np.maximum(variance, 0.0) / n)
        assert np.all(np.abs(fisher - estimate) <= 3 * stderr + 1e-12)

    def test_large_damping_recovers_vanilla_direction(self):
        theta = np.array([[0.5, -0.5], [0.2, 0.0]])
        vanilla = policy_gradient(DYN2, theta)
        natural = damped_natural_gradient(DYN2, theta, damping=1e6)
        cosine = np.sum(vanilla * natural) / (
            np.linalg.norm(vanilla) * np.linalg.norm(natural)
        )
        assert cosine > 1 - 1e-6

    @pytest.mark.parametrize(
        "mdp", [DYN2, random_mdp(8, 3, 0.9, seed=2)], ids=["dyn2", "random8"]
    )
    def test_damped_direction_tends_to_closed_form(self, mdp):
        # The gap to run_npg's closed-form direction shrinks with the damping.
        theta = np.random.default_rng(0).normal(size=(mdp.n_states, mdp.n_actions))
        v = value_function(mdp, softmax_policy(theta))
        closed = dynamics._natural_direction(mdp, v)
        gaps = [
            np.max(np.abs(damped_natural_gradient(mdp, theta, damping) - closed))
            for damping in (1e-4, 1e-6, 1e-8)
        ]
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 80.0 < coarse / fine < 125.0

    @pytest.mark.parametrize(
        "kind",
        ["vertex", "boundary", "interior"],
        ids=["near_vertex", "near_boundary", "interior"],
    )
    def test_npg_reaches_optimal_value(self, kind):
        traj = run_npg(DYN2, resolve_init(DYN2, kind), eta=0.05, iterations=500)
        assert np.max(np.abs(traj.points[-1] - V_STAR)) < 1e-10

    def test_npg_faster_than_pg_on_dyn2(self):
        def first_hit(traj):
            gaps = np.max(np.abs(traj.points - V_STAR[None, :]), axis=1)
            hits = np.flatnonzero(gaps < 1e-2)
            return hits[0] if hits.size else np.inf

        for kind in ("vertex", "boundary", "interior"):
            pg = run_policy_gradient(
                DYN2, resolve_init(DYN2, kind), eta=0.05, iterations=3000
            )
            npg = run_npg(DYN2, resolve_init(DYN2, kind), eta=0.05, iterations=500)
            assert first_hit(npg) < first_hit(pg)

    def test_zero_rewards_stationary(self):
        m = Mdp(
            n_states=2,
            n_actions=2,
            rewards=np.zeros(4),
            transitions=DYN2.transitions,
            gamma=0.9,
        )
        traj = run_npg(m, resolve_init(m, "interior"), eta=0.1, iterations=20)
        assert np.max(np.abs(traj.points)) < 1e-12

    def test_stationary_at_optimal_vertex(self):
        traj = run_npg(
            DYN2,
            Policy((1.0 - 1e-7) * optimal_value(DYN2)[1].probs + 1e-7 / 2),
            eta=0.05,
            iterations=200,
        )
        assert np.max(np.abs(traj.points - V_STAR[None, :])) < 1e-6


class TestOneEvaluationPerStep:
    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = np.linalg.solve

        def counted(a, b):
            calls.append(np.shape(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        return calls

    @pytest.fixture
    def built(self, monkeypatch):
        policies = []
        post_init = Policy.__post_init__

        def counted(policy):
            policies.append(policy)
            post_init(policy)

        monkeypatch.setattr(Policy, "__post_init__", counted)
        return policies

    @pytest.mark.parametrize(
        "run",
        [
            partial(run_policy_gradient, entropy_coeff=0.0),
            partial(run_policy_gradient, entropy_coeff=0.1),
            run_npg,
        ],
        ids=["0.0", "0.1", "npg"],
    )
    def test_policy_gradient_run_solves_once_per_step(self, solves, run):
        run(DYN2, resolve_init(DYN2, "boundary"), 0.05, 9)
        assert len(solves) == 9 + 1

    @pytest.mark.parametrize("n_states", [2, 3])
    def test_npg_step_solves_the_value_system_alone(self, solves, n_states):
        mdp = DYN2 if n_states == 2 else random_mdp(3, 2, 0.9, seed=0)
        run_policy_gradient(mdp, resolve_init(mdp, "boundary"), 0.05, 9)
        assert solves == [(2, n_states, n_states)] * 10
        solves.clear()
        run_npg(mdp, resolve_init(mdp, "boundary"), 0.05, 9)
        assert solves == [(1, n_states, n_states)] * 10

    @pytest.mark.parametrize("n_states", [2, 3, 64])
    def test_step_matches_separate_solves(self, n_states):
        # Every recorded point is value_function of the softmax of that step's
        # logits, which a loop of separate solves rebuilds from log(init).
        mdp = random_mdp(n_states, 3, 0.9, seed=n_states)
        rng = np.random.default_rng(n_states)
        init = softmax_policy(rng.normal(size=(n_states, 3)))
        for algo, run in ASCENT_RUNS.items():
            traj = run(mdp, init, 0.05, 5)
            theta = np.log(init.probs)
            for point in traj.points:
                v = value_function(mdp, softmax_policy(theta))
                assert np.array_equal(point, v), algo
                if algo == "npg":
                    step = dynamics._natural_direction(mdp, v)
                else:
                    step = three_solve_gradient(mdp, theta, 0.1 if algo == "entpg" else 0.0)
                theta = theta + 0.05 * step

    @pytest.mark.parametrize("run", list(ASCENT_RUNS.values()), ids=list(ASCENT_RUNS))
    def test_policies_built_do_not_grow_with_iterations(self, built, run):
        # A step evaluates arrays; no Policy is validated and frozen per step.
        init = resolve_init(DYN2, "boundary")
        built.clear()
        run(DYN2, init, 0.05, 10)
        short = len(built)
        built.clear()
        run(DYN2, init, 0.05, 2000)
        assert len(built) == short

    def test_cem_and_policy_iteration_build_no_policy_per_step(self, built):
        init = resolve_init(DYN2, "boundary")
        built.clear()
        run_policy_iteration(DYN2, np.zeros(2))
        assert built == []
        run_cem(DYN2, init, CemConfig(iterations=1))
        short = len(built)
        built.clear()
        run_cem(DYN2, init, CemConfig(iterations=4))
        assert len(built) == short

    @pytest.mark.parametrize("n_states", [2, 3, 64])
    @pytest.mark.parametrize("entropy_coeff", [0.0, 0.1])
    def test_gradient_matches_three_solve_form(self, n_states, entropy_coeff):
        mdp = random_mdp(n_states, 3, 0.9, seed=n_states + 1)
        theta = np.random.default_rng(n_states).normal(size=(n_states, 3))
        assert np.array_equal(
            policy_gradient(mdp, theta, entropy_coeff),
            three_solve_gradient(mdp, theta, entropy_coeff),
        )


class TestCem:
    def test_covariance_collapses_without_noise(self):
        init = resolve_init(DYN2, "vertex")
        config = CemConfig(noise_scale=0.0, iterations=100, seed=0)
        traj = run_cem(DYN2, init, config)
        assert traj.columns["cov_trace"][-1] < 1e-3

    def test_noisy_variant_reaches_optimum_from_all_inits(self):
        for kind in ("vertex", "boundary", "interior"):
            init = resolve_init(DYN2, kind)
            config = CemConfig(noise_scale=0.05, iterations=100, seed=0)
            traj = run_cem(DYN2, init, config)
            assert np.max(np.abs(traj.points[-1] - V_STAR)) < 0.05

    def test_noise_floor_on_covariance_trace(self):
        init = resolve_init(DYN2, "interior")
        config = CemConfig(noise_scale=0.05, iterations=20, seed=3)
        traj = run_cem(DYN2, init, config)
        floor = 0.05 * DYN2.n_states * DYN2.n_actions - 1e-12
        assert all(traj.columns["cov_trace"][1:] >= floor)

    def test_bitwise_deterministic(self):
        init = resolve_init(DYN2, "interior")
        config = CemConfig(noise_scale=0.05, iterations=15, seed=11)
        a = run_cem(DYN2, init, config)
        b = run_cem(DYN2, init, config)
        assert np.array_equal(a.points, b.points)
        assert a.columns.keys() == b.columns.keys()
        assert all(np.array_equal(a.columns[k], b.columns[k]) for k in a.columns)
        other = CemConfig(noise_scale=0.05, iterations=15, seed=12)
        c = run_cem(DYN2, init, other)
        assert not np.array_equal(a.points[1:], c.points[1:])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CemConfig(iterations=0)

    @pytest.mark.parametrize("noise_scale", [float("nan"), float("inf"), -1.0])
    def test_noise_scale_must_be_finite_and_non_negative(self, noise_scale):
        with pytest.raises(ValueError, match="^bad CEM configuration$"):
            CemConfig(noise_scale, 5, 0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("iterations", [1, 5])
    def test_overflowing_covariance_is_one_error(self, iterations):
        # At 1.7e308 the first trace overflows, and the second covariance.
        init = resolve_init(DYN2, "interior")
        with pytest.raises(
            NonFiniteLogits, match="^CEM covariance contains NaN or infinity$"
        ):
            run_cem(DYN2, init, CemConfig(1.7e308, iterations, 0))


def record_populations(monkeypatch) -> list[np.ndarray]:
    """Make run_cem append each iteration's (population, dim) samples to a list."""
    populations = []

    def recording(theta):
        if theta.ndim == 3:
            populations.append(theta.reshape(len(theta), -1).copy())
        return _softmax_probs(theta)

    monkeypatch.setattr(dynamics, "_softmax_probs", recording)
    return populations


def elites_of(mdp: Mdp, population: np.ndarray) -> np.ndarray:
    """The top CEM_ELITES of a population by uniform-start value, best first."""
    logits = population.reshape(len(population), mdp.n_states, mdp.n_actions)
    scores = evaluation.value_function_batch(mdp, _softmax_probs(logits))
    order = np.argsort(-scores.mean(axis=1), kind="stable")
    return population[order[: dynamics.CEM_ELITES]]


class TestCemFactor:
    """run_cem's factor form against the dense covariance it stands for."""

    @pytest.mark.parametrize("noise_scale", [0.0, 0.05], ids=["cem", "cemcn"])
    @pytest.mark.parametrize(
        "mdp", [DYN2, random_mdp(8, 4, 0.9, 3)], ids=["dyn2", "random-8x4"]
    )
    def test_trace_column_is_the_dense_trace(self, mdp, noise_scale, monkeypatch):
        populations = record_populations(monkeypatch)
        config = CemConfig(noise_scale, 30, 0)
        traj = run_cem(mdp, resolve_init(mdp, "interior"), config)
        dim = mdp.n_states * mdp.n_actions
        dense = [dynamics.CEM_INIT_COV * np.eye(dim)] + [
            cem_covariance(elites_of(mdp, population), noise_scale)
            for population in populations
        ]
        assert len(dense) == len(traj)
        np.testing.assert_allclose(
            traj.columns["cov_trace"], [np.trace(c) for c in dense], rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize("noise_scale", [0.0, 0.05], ids=["spread-0", "spread-0.05"])
    def test_population_moments_match_the_dense_covariance(self, noise_scale, monkeypatch):
        # With n = 100,000 draws the sample mean's entry i has standard error
        # sqrt(C_ii / n) and the sample covariance's entry (i, j) about
        # sqrt((C_ii C_jj + C_ij^2) / n). Every entry must lie within 5
        # standard errors, which a correct sampler misses in one of these 40
        # entries with odds below 1e-4.
        n = 100_000
        monkeypatch.setattr(dynamics, "CEM_POPULATION", n)
        populations = record_populations(monkeypatch)
        init = resolve_init(DYN2, "interior")
        run_cem(DYN2, init, CemConfig(noise_scale, 2, 0))
        dim = DYN2.n_states * DYN2.n_actions
        first_elites = elites_of(DYN2, populations[0])
        cases = [
            (np.log(init.probs).reshape(-1), dynamics.CEM_INIT_COV * np.eye(dim)),
            (first_elites.mean(axis=0), cem_covariance(first_elites, noise_scale)),
        ]
        for population, (mean, cov) in zip(populations, cases, strict=True):
            assert population.shape == (n, dim)
            variance = np.diag(cov)
            mean_error = np.abs(population.mean(axis=0) - mean)
            assert np.all(mean_error <= 5 * np.sqrt(variance / n))
            cov_error = np.abs(np.cov(population, rowvar=False) - cov)
            cov_se = np.sqrt((np.outer(variance, variance) + cov**2) / n)
            assert np.all(cov_error <= 5 * cov_se)

    def test_noise_free_population_spans_the_elites(self, monkeypatch):
        # Past the first iteration a noise-free population is the mean plus
        # combinations of the centered elites, which span at most 49
        # dimensions of the 64 (de Boer et al. 2005).
        mdp = random_mdp(1, 64, 0.9, 3)
        populations = record_populations(monkeypatch)
        run_cem(mdp, resolve_init(mdp, "interior"), CemConfig(0.0, 2, 0))
        elites = elites_of(mdp, populations[0])
        assert np.linalg.matrix_rank(populations[1] - elites.mean(axis=0)) == 49

    @pytest.mark.parametrize("noise_scale", [0.0, 0.05], ids=["cem", "cemcn"])
    def test_no_dense_covariance_is_held(self, noise_scale):
        # A dense (2,048)^2 covariance alone would be 32 MiB, and a symmetric
        # eigendecomposition of it needs several more; the factor form holds
        # a few (500, 2,048) population arrays of 8 MiB at a time.
        mdp = random_mdp(1, 2048, 0.9, 3)
        init = resolve_init(mdp, "interior")
        tracemalloc.start()
        try:
            run_cem(mdp, init, CemConfig(noise_scale, 2, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20, peak


class TestTrajectoryShape:
    def test_first_point_is_initialization(self):
        v0 = value_function(DYN2, Policy.uniform(2, 2))
        traj = run_value_iteration(DYN2, v0, 5)
        np.testing.assert_array_equal(traj.points[0], v0)
        assert traj.columns["step_norm"][0] == 0.0

    def test_meta_aligned_with_points(self):
        traj = run_policy_gradient(
            DYN2, resolve_init(DYN2, "interior"), eta=0.05, iterations=7
        )
        assert sorted(traj.columns) == ["entropy", "grad_norm", "step_norm"]
        assert all(len(c) == len(traj.points) == 8 for c in traj.columns.values())

    def test_wrong_length_column_raises(self):
        with pytest.raises(ValueError, match="column 'x'"):
            Trajectory(points=np.zeros((3, 2)), columns={"x": np.zeros(2)})

    @pytest.mark.parametrize(
        "run",
        [
            lambda init: run_value_iteration(DYN2, value_function(DYN2, init), 30),
            lambda init: run_policy_iteration(DYN2, value_function(DYN2, init)),
            lambda init: run_policy_gradient(DYN2, init, 0.5, 30),
            lambda init: run_policy_gradient(DYN2, init, 0.5, 30, entropy_coeff=0.1),
            lambda init: run_npg(DYN2, init, 0.5, 30),
            lambda init: run_cem(DYN2, init, CemConfig(iterations=10)),
        ],
        ids=["vi", "pi", "pg", "entpg", "npg", "cem"],
    )
    def test_step_norm_is_sup_norm_of_each_step(self, run):
        traj = run(resolve_init(DYN2, "boundary"))
        points = traj.points
        expected = [0.0] + [
            float(np.max(np.abs(b - a))) for a, b in zip(points, points[1:])
        ]
        assert len(points) > 1
        assert traj.columns["step_norm"].tolist() == expected
