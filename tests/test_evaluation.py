import ast
import signal
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vfpolytope import dynamics, evaluation
from vfpolytope.errors import IllConditioned, IterationCap, ShapeMismatch
from vfpolytope.evaluation import (
    optimal_value,
    optimality_bellman_apply,
    q_values,
    value_function,
    value_function_batch,
)
from vfpolytope.geometry import AgreementSet, affine_slice, polytope_vertices_det
from vfpolytope.mdp import (
    FIXTURE_NAMES,
    Mdp,
    Policy,
    builtin_fixture,
    deterministic_policies,
    example1_mdp,
    random_mdp,
    random_policy,
)

from oracles import (
    bellman_apply,
    discounted_distribution,
    sample_policy_probs,
    softmax_policy,
    value_derivative,
)

SIGNED_ZEROS = Mdp(
    3,
    2,
    rewards=[0.0, -0.0, -0.0, -0.0, 1.0, -0.5],
    transitions=[[1, 0, 0], [0, 0.5, 0.5], [0, 1, 0], [0.25, 0, 0.75],
                 [0, 0, 1], [1, 0, 0]],
    gamma=0.9,
)
# Every fixture, the signed-zero MDP and random MDPs up to 8 x 5.
PI_MDPS = (
    [builtin_fixture(name) for name in FIXTURE_NAMES]
    + [SIGNED_ZEROS]
    + [random_mdp(n_states, n_actions, 0.9, seed=10 * n_states + n_actions)
       for n_states in range(1, 9) for n_actions in range(1, 6)]
)
STAY = Policy(np.array([[1.0, 0.0], [1.0, 0.0]]))
QUIT = Policy(np.array([[0.0, 1.0], [1.0, 0.0]]))


def assert_batch_is_stacked_singles(mdp: Mdp, probs: np.ndarray) -> None:
    singles = np.stack([value_function(mdp, Policy(p)) for p in probs])
    batch = value_function_batch(mdp, probs)
    assert np.array_equal(batch, singles)
    assert np.array_equal(np.signbit(batch), np.signbit(singles))


def batch_peak_bytes() -> int:
    """tracemalloc peak of evaluating 2000 sampled policies at |S|=64."""
    mdp = random_mdp(64, 3, 0.9, seed=0)
    probs = sample_policy_probs(mdp, 2000, 0)
    tracemalloc.start()
    try:
        value_function_batch(mdp, probs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_pair(seed: int) -> tuple[Mdp, Policy]:
    rng = np.random.default_rng(seed)
    mdp = random_mdp(
        int(rng.integers(2, 6)),
        int(rng.integers(2, 5)),
        float(rng.uniform(0.2, 0.95)),
        seed=seed + 1,
    )
    return mdp, random_policy(mdp, seed + 2)


def resolve(mdp: Mdp, probs: np.ndarray, states):
    """(v, R[:, states]) of one policy, from one evaluation._solve call."""
    solved = evaluation._solve(mdp, probs[None], states)[0]
    return solved[:, 0], solved[:, 1:]


def assert_solve_rows_are_single_calls(mdp: Mdp, n: int) -> None:
    """_solve's rows on n stacked policies, with two resolvent columns, are
    bit for bit those of one call per policy."""
    probs = np.random.default_rng(5).dirichlet(np.ones(mdp.n_actions), size=(n, mdp.n_states))
    stacked = evaluation._solve(mdp, probs, [3, 1])
    assert stacked.shape == (n, mdp.n_states, 3)
    for i in range(n):
        assert np.array_equal(stacked[i], evaluation._solve(mdp, probs[i][None], [3, 1])[0])


class TestInduce:
    """The chain a policy induces: P_pi and r_pi (_collapse) and resolvent
    columns (_solve's columns after the value)."""

    def test_example1_stay_policy(self):
        m = example1_mdp()
        p_pi, r_pi = evaluation._collapse(m, STAY.probs)
        np.testing.assert_array_equal(p_pi[0], [1.0, 0.0])
        assert r_pi[0] == 0.0

    def test_gamma_zero_resolvent_is_identity(self):
        m = example1_mdp(gamma=0.0)
        _, resolvent = resolve(m, QUIT.probs, [0, 1])
        np.testing.assert_allclose(resolvent, np.eye(2), atol=1e-14)

    def test_resolvent_against_truncated_series(self):
        m = builtin_fixture("dyn2")
        probs = Policy.uniform(2, 2).probs
        p_pi, _ = evaluation._collapse(m, probs)
        _, resolvent = resolve(m, probs, [0, 1])
        partial = np.zeros((2, 2))
        term = np.eye(2)
        for _ in range(50):
            partial += term
            term = m.gamma * p_pi @ term
        tail = m.gamma**50 / (1.0 - m.gamma)
        assert np.max(np.abs(resolvent - partial)) <= tail + 1e-12

    def test_resolvent_inverts(self):
        for seed in range(20):
            mdp, policy = random_pair(seed)
            states = list(range(mdp.n_states))
            p_pi, _ = evaluation._collapse(mdp, policy.probs)
            _, resolvent = resolve(mdp, policy.probs, states)
            eye = resolvent @ (np.eye(mdp.n_states) - mdp.gamma * p_pi)
            assert np.max(np.abs(eye - np.eye(mdp.n_states))) < 1e-8
            assert np.min(resolvent) > -1e-10

    def test_columns_follow_the_given_states(self):
        # Any subset, in any order, gives those columns of the whole
        # resolvent, and the value of the same solve.
        mdp, policy = random_pair(4)
        n = mdp.n_states
        v, whole = resolve(mdp, policy.probs, list(range(n)))
        states = [n - 1, 0]
        v_some, some = resolve(mdp, policy.probs, states)
        np.testing.assert_allclose(some, whole[:, states], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(v_some, v, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(v, value_function(mdp, policy), rtol=1e-12, atol=1e-12)
        _, none = resolve(mdp, policy.probs, [])
        assert none.shape == (n, 0)
        # A tuple of states, as AgreementSet.free_states gives, works alike.
        assert np.array_equal(resolve(mdp, policy.probs, tuple(states))[1], some)

    def test_stack_rows_have_the_bits_of_single_calls(self):
        assert_solve_rows_are_single_calls(random_mdp(5, 3, 0.99, seed=5), 2)

    def test_rows_of_a_second_block_have_the_bits_of_single_calls(self):
        # At |S|=64 a block holds 128 policies, so the last row is solved
        # in a second block.
        assert_solve_rows_are_single_calls(random_mdp(64, 3, 0.99, seed=5), 129)

    def test_shape_mismatch(self):
        agreement = AgreementSet(base=Policy.uniform(2, 2), fixed_states=())
        with pytest.raises(ShapeMismatch):
            affine_slice(builtin_fixture("fig2c"), agreement)

    def test_every_solve_gets_the_same_system(self, monkeypatch):
        # value_function, _solve with resolvent columns,
        # discounted_distribution, the first step of a policy-gradient run
        # (stacked) and of a natural-gradient run (value only) and the switch
        # kernel all hand LAPACK the matrix
        # I - gamma P_pi, bit for bit; the visitation solve gets its
        # transpose. The vertex enumeration hands it, per deterministic
        # policy, the matrix value_function builds for the one-hot policy.
        mdp = random_mdp(64, 3, 0.9, seed=1)
        init = softmax_policy(np.random.default_rng(1).normal(size=(64, 3)))
        # A run's first logits are the log of its start policy.
        policy = softmax_policy(np.log(init.probs))
        seen = []
        solve = np.linalg.solve

        def record(a, b):
            seen.append(np.array(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", record)
        value_function(mdp, policy)
        evaluation._solve(mdp, policy.probs[None], [0, 5])
        discounted_distribution(mdp, policy)
        dynamics.run_policy_gradient(mdp, init, 0.05, 1)
        dynamics.run_npg(mdp, init, 0.05, 1)
        evaluation._switch(mdp, policy.probs, 5, np.eye(3))
        assert len(seen) == 8
        systems = [seen[0][0], seen[1][0], seen[2].T, seen[3][0], seen[3][1].T, seen[5][0],
                   seen[7][0]]
        for system in systems[1:]:
            assert np.array_equal(system, systems[0])

        small = random_mdp(4, 3, 0.9, seed=1)
        seen.clear()
        polytope_vertices_det(small)
        (vertex_systems,) = seen
        actions = deterministic_policies(small)
        for system, row in zip(vertex_systems, actions):
            seen.clear()
            value_function(small, Policy.deterministic(row, 3))
            assert np.array_equal(system, seen[0][0])


def linalg_solve_uses(path: Path) -> list[tuple[str, str | None]]:
    """(file, enclosing function) of each reference to numpy.linalg's solve."""
    uses = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "solve"
            and ast.unparse(node.value).endswith("linalg")
        ) or (
            isinstance(node, ast.ImportFrom)
            and (node.module or "").endswith("linalg")
            and any(alias.name == "solve" for alias in node.names)
        ):
            uses.append((path.name, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), None)
    return uses


def test_every_package_solve_goes_through_lapack_solve():
    # One call site keeps IllConditioned's translation, and any solve
    # counter, in one place.
    package = Path(evaluation.__file__).parent
    uses = [use for path in sorted(package.glob("*.py")) for use in linalg_solve_uses(path)]
    assert uses == [("evaluation.py", "_lapack_solve")]


def lapack_solve_uses(path: Path) -> list[tuple[str, str | None]]:
    """(file, enclosing function) of each reference to _lapack_solve by name
    or attribute, past its definition and imports."""
    uses = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if (isinstance(node, ast.Name) and node.id == "_lapack_solve") or (
            isinstance(node, ast.Attribute) and node.attr == "_lapack_solve"
        ):
            uses.append((path.name, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), None)
    return uses


def test_lapack_solve_has_two_callers():
    # _solve makes every policy evaluation's solve; only _ascend, which also
    # solves the transposed system, keeps its own.
    package = Path(evaluation.__file__).parent
    uses = [use for path in sorted(package.glob("*.py")) for use in lapack_solve_uses(path)]
    assert uses == [("dynamics.py", "_ascend"), ("evaluation.py", "_solve")]


class TestValueFunction:
    def test_example1_half_mixture(self):
        m = example1_mdp()
        half = Policy(np.array([[0.5, 0.5], [1.0, 0.0]]))
        v = value_function(m, half)
        np.testing.assert_allclose(v, [0.5 / 0.55, 0.0], atol=1e-12)

    def test_zero_rewards_zero_value(self):
        m = Mdp(
            n_states=2,
            n_actions=2,
            rewards=np.zeros(4),
            transitions=builtin_fixture("dyn2").transitions,
            gamma=0.9,
        )
        np.testing.assert_array_equal(value_function(m, Policy.uniform(2, 2)), [0, 0])

    def test_fixed_point_residual(self):
        for seed in range(200):
            mdp, policy = random_pair(seed)
            v = value_function(mdp, policy)
            residual = v - bellman_apply(mdp, policy, v)
            assert np.max(np.abs(residual)) < 1e-9

    def test_norm_bound(self):
        for seed in range(50):
            mdp, policy = random_pair(seed)
            v = value_function(mdp, policy)
            assert np.max(np.abs(v)) <= mdp.value_bound() + 1e-8

    def test_batch_matches_single(self):
        mdp = builtin_fixture("fig2c")
        policies = [random_policy(mdp, s) for s in range(8)]
        batch = value_function_batch(mdp, np.stack([p.probs for p in policies]))
        for p, row in zip(policies, batch):
            np.testing.assert_allclose(row, value_function(mdp, p), atol=1e-12)

    @pytest.mark.parametrize("n", [127, 128, 129, 257])
    def test_blocked_batch_equals_single_solves_bitwise(self, n):
        # At |S|=64 a block holds 128 policies, so these n end on, just
        # before and just after block boundaries.
        mdp = random_mdp(64, 3, 0.9, seed=n)
        assert_batch_is_stacked_singles(mdp, sample_policy_probs(mdp, n, n))

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 70])
    def test_blocked_batch_at_128_states_equals_single_solves_bitwise(self, n):
        # At |S|=128 a block holds 32 policies; n=70 ends on a block of 6.
        mdp = random_mdp(128, 4, 0.95, seed=n)
        assert_batch_is_stacked_singles(mdp, sample_policy_probs(mdp, n, n))

    def test_batch_keeps_the_signed_zeros_of_single_solves(self):
        # Zero transition entries and +-0.0 rewards give values of both signs
        # of zero; the systems are built as I - gamma * P_pi in both paths.
        mdp = SIGNED_ZEROS
        det = np.eye(2)[deterministic_policies(mdp)]
        assert len(det) == 8
        probs = np.concatenate([det, sample_policy_probs(mdp, 500, 0)])
        assert_batch_is_stacked_singles(mdp, probs)

    def test_batch_peak_memory_is_bounded_by_a_block(self):
        # An unblocked solve of 2000 policies at |S|=64 holds three
        # 2000 x 64 x 64 float64 stacks, about 197 MB at once.
        assert batch_peak_bytes() < 32 * 2**20

    def test_batch_builds_every_block_in_one_workspace(self):
        # Two blocks of P_pi at |S|=64 are 8 MiB. Buffers reused across the
        # blocks peak near 5 MiB; three fresh 4 MiB stacks per block, near 13.
        assert batch_peak_bytes() < 8 * 2**20


def derivative_cases(gamma):
    """(mdp, interior policy, mean-zero direction of max-norm 0.5) cases.

    gamma None gives the six fixtures at their own gammas; a gamma gives 50
    random MDPs with |S| 2-6 and |A| 2-4. Every row of the policy is at least
    0.05 / (1 + 0.05 |A|), so a step of 1e-5 along the direction stays a policy.
    """
    if gamma is None:
        instances = (
            (builtin_fixture(name), np.random.default_rng([i]))
            for i, name in enumerate(FIXTURE_NAMES)
        )
    else:
        rngs = (np.random.default_rng([i, round(gamma * 1000)]) for i in range(50))
        instances = (
            (random_mdp(int(rng.integers(2, 7)), int(rng.integers(2, 5)), gamma, rng), rng)
            for rng in rngs
        )
    for mdp, rng in instances:
        probs = rng.dirichlet(np.ones(mdp.n_actions), size=mdp.n_states)
        probs = (probs + 0.05) / (1.0 + 0.05 * mdp.n_actions)
        direction = rng.normal(size=probs.shape)
        direction -= direction.mean(axis=1, keepdims=True)
        direction *= 0.5 / np.abs(direction).max()
        yield mdp, probs, direction


class TestValueDerivative:
    """Both numerical derivatives of the policy-to-value map match the closed form.

    MEASURED holds the worst relative errors max|d - exact| / max|exact| of
    the complex step and the central difference on each group of cases;
    each must hold within 10 times its measured value.
    """

    MEASURED = {
        None: (9.5e-16, 1.7e-10),
        0.5: (8.7e-16, 2.6e-10),
        0.9: (4.1e-15, 3.2e-10),
        0.999: (4.7e-12, 2.5e-7),
    }

    @pytest.mark.parametrize("gamma", list(MEASURED), ids=["fixtures", "0.5", "0.9", "0.999"])
    def test_complex_step_and_central_difference(self, gamma):
        complex_tol, central_tol = (10.0 * e for e in self.MEASURED[gamma])
        step = 1e-5
        for mdp, probs, direction in derivative_cases(gamma):
            exact = value_derivative(mdp, probs, direction)
            scale = np.abs(exact).max()
            # The package's own solve path on complex probabilities: the
            # imaginary part over h is the derivative, with no cancellation.
            h = 1e-20
            perturbed = (probs + 1j * h * direction)[None]
            complex_step = evaluation._solve(mdp, perturbed)[0, :, 0].imag / h
            central = (
                value_function(mdp, Policy(probs + step * direction))
                - value_function(mdp, Policy(probs - step * direction))
            ) / (2.0 * step)
            assert np.abs(complex_step - exact).max() <= complex_tol * scale
            assert np.abs(central - exact).max() <= central_tol * scale


def switched_values(mdp: Mdp, probs: np.ndarray, state: int, rows: np.ndarray):
    """Values of probs with row `state` replaced by each row, by the kernel."""
    v, r_s, c, _ = evaluation._switch(mdp, probs, state, rows)
    return v + c[:, None] * r_s


class TestSwitch:
    def test_variants_match_direct_solves(self):
        worst = 0.0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            mdp = random_mdp(
                int(rng.integers(2, 7)), int(rng.integers(2, 6)),
                float(rng.choice([0.0, 0.5, 0.9, 0.99, 0.999])), seed=seed,
            )
            probs = random_policy(mdp, seed + 1).probs
            state = int(rng.integers(mdp.n_states))
            rows = np.vstack(
                [np.eye(mdp.n_actions), rng.dirichlet(np.ones(mdp.n_actions), 3)]
            )
            variants = np.repeat(probs[None], len(rows), axis=0)
            variants[:, state] = rows
            direct = value_function_batch(mdp, variants)
            error = np.abs(switched_values(mdp, probs, state, rows) - direct).max()
            worst = max(worst, error / max(1.0, np.abs(direct).max()))
        assert worst < 1e-10

    def test_direction_is_nonnegative_and_denominator_positive(self):
        for seed in range(50):
            mdp, policy = random_pair(seed)
            state = seed % mdp.n_states
            _, r_s, _, omega = evaluation._switch(
                mdp, policy.probs, state, np.eye(mdp.n_actions)
            )
            assert r_s.min() >= 0.0 and r_s[state] >= 1.0
            assert np.all(1.0 - mdp.gamma * omega > 0.0)

    def test_returns_the_value_and_resolvent_column(self):
        mdp, policy = random_pair(3)
        value, resolvent = resolve(mdp, policy.probs, list(range(mdp.n_states)))
        v, r_s, _, _ = evaluation._switch(mdp, policy.probs, 1, np.eye(mdp.n_actions))
        np.testing.assert_allclose(v, value, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(r_s, resolvent[:, 1], rtol=1e-12)
        # The same one-column solve as _solve's with states [1], so the same bits.
        v_one, r_one = resolve(mdp, policy.probs, [1])
        assert np.array_equal(v, v_one) and np.array_equal(r_s, r_one[:, 0])

    @pytest.mark.parametrize("n_states", [1, 2, 5, 33, 128])
    def test_stack_rows_have_the_bits_of_single_calls(self, n_states):
        mdp = random_mdp(n_states, 3, 0.99, seed=n_states)
        rng = np.random.default_rng(n_states)
        probs = rng.dirichlet(np.ones(3), size=(2, 3, n_states))
        state = n_states // 2
        for rows in (np.eye(3), probs[0, 0, state][None]):
            stacked = evaluation._switch(mdp, probs, state, rows)
            for i, j in np.ndindex(2, 3):
                single = evaluation._switch(mdp, probs[i, j], state, rows)
                for whole, one in zip(stacked, single):
                    assert np.array_equal(whole[i, j], one)

    def test_singular_system_is_ill_conditioned(self):
        # One state: the system is 1 - gamma * (p0 + p1). At the largest
        # gamma below 1, a row summing to 1 + 2^-52 rounds it to exactly 0.
        mdp = random_mdp(1, 2, 1 - 2**-53, seed=0)
        policy = Policy(np.array([[0.5, 0.5 + 2**-52]]))
        with pytest.raises(IllConditioned, match="gamma = 0.9999999999999999"):
            evaluation._switch(mdp, policy.probs, 0, np.eye(2))
        with pytest.raises(IllConditioned):
            value_function(mdp, policy)
        with pytest.raises(IllConditioned):
            value_function_batch(mdp, np.stack([policy.probs] * 3))


class TestBellmanOperators:
    def test_value_is_fixed_point(self):
        mdp = builtin_fixture("dyn2")
        policy = random_policy(mdp, 9)
        v = value_function(mdp, policy)
        np.testing.assert_allclose(bellman_apply(mdp, policy, v), v, atol=1e-10)

    def test_gamma_zero_returns_rewards(self):
        m = example1_mdp(gamma=0.0)
        out = bellman_apply(m, QUIT, np.array([123.0, -7.0]))
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_contraction_toward_fixed_point(self):
        mdp = builtin_fixture("dyn2")
        policy = Policy.uniform(2, 2)
        v_star = value_function(mdp, policy)
        v = np.zeros(2)
        for _ in range(100):
            v = bellman_apply(mdp, policy, v)
        bound = mdp.gamma**100 * np.max(np.abs(v_star)) + 1e-10
        assert np.max(np.abs(v - v_star)) <= bound

    def test_monotone(self):
        for seed in range(30):
            mdp, policy = random_pair(seed)
            rng = np.random.default_rng(seed + 100)
            lo = rng.normal(size=mdp.n_states)
            hi = lo + rng.uniform(0.0, 1.0, size=mdp.n_states)
            t_lo = bellman_apply(mdp, policy, lo)
            t_hi = bellman_apply(mdp, policy, hi)
            assert np.all(t_lo <= t_hi + 1e-12)

    def test_optimality_on_example1(self):
        m = example1_mdp()
        v = optimality_bellman_apply(m, np.zeros(2))
        np.testing.assert_array_equal(v, [1.0, 0.0])
        assert np.argmax(q_values(m, np.zeros(2))[0]) == 1

    def test_optimality_single_action_equals_policy_backup(self):
        m = random_mdp(3, 1, 0.8, seed=4)
        v0 = np.array([0.3, -0.2, 0.8])
        tv = optimality_bellman_apply(m, v0)
        np.testing.assert_allclose(
            tv, bellman_apply(m, Policy(np.ones((3, 1))), v0), atol=1e-14
        )

    def test_optimality_keeps_the_sign_of_a_tied_zero(self):
        # Q_v(0, .) = (-0.0, +0.0): the value at the lowest-index argmax is
        # -0.0, where q.max(axis=1) would give +0.0.
        m = Mdp(2, 2, np.array([-0.0, 0.0, -1.0, -1.0]), np.full((4, 2), [0.0, 1.0]), 0.0)
        v = optimality_bellman_apply(m, np.array([0.0, -1.0]))
        assert np.signbit(v).tolist() == [True, True]

    def test_tie_breaks_to_lowest_action(self):
        m = Mdp(
            n_states=1,
            n_actions=3,
            rewards=np.array([1.0, 1.0, 0.5]),
            transitions=np.array([[1.0], [1.0], [1.0]]),
            gamma=0.5,
        )
        _, greedy = optimal_value(m)
        assert np.argmax(greedy.probs[0]) == 0


class TestOptimalValue:
    def test_example1(self):
        v, greedy = optimal_value(example1_mdp())
        np.testing.assert_allclose(v, [1.0, 0.0], atol=1e-12)
        assert np.argmax(greedy.probs[0]) == 1

    def test_zero_rewards(self):
        m = Mdp(
            n_states=2,
            n_actions=2,
            rewards=np.zeros(4),
            transitions=builtin_fixture("dyn2").transitions,
            gamma=0.9,
        )
        v, _ = optimal_value(m)
        np.testing.assert_array_equal(v, [0.0, 0.0])

    def test_matches_enumeration_on_dyn2(self):
        mdp = builtin_fixture("dyn2")
        v_star, _ = optimal_value(mdp)
        values = value_function_batch(mdp, np.eye(2)[deterministic_policies(mdp)])
        np.testing.assert_allclose(v_star, values.max(axis=0), atol=1e-10)

    def test_dominates_random_policies(self):
        for name in ("fig2a", "fig2b", "fig2c", "fig2d", "threeaction", "dyn2"):
            mdp = builtin_fixture(name)
            v_star, _ = optimal_value(mdp)
            for seed in range(100):
                v = value_function(mdp, random_policy(mdp, seed))
                assert np.all(v_star >= v - 1e-8)

    def test_gamma_zero(self):
        m = example1_mdp(gamma=0.0)
        v, _ = optimal_value(m)
        np.testing.assert_array_equal(v, [1.0, 0.0])

    @pytest.mark.parametrize("gamma", [0.999, 0.9999999])
    def test_finishes_near_gamma_one(self, gamma):
        # A Python-level alarm turns a runaway loop into a failure instead of
        # a hung suite.
        def expire(signum, frame):
            raise TimeoutError("optimal_value ran past 5 s")

        mdp = random_mdp(3, 2, gamma, seed=0)
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            start = time.perf_counter()
            v, greedy = optimal_value(mdp)
            elapsed = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert elapsed < 1.0
        backup = optimality_bellman_apply(mdp, v)
        assert np.max(np.abs(backup - v)) <= 1e-8 * max(1.0, np.max(np.abs(v)))
        np.testing.assert_array_equal(v, value_function(mdp, greedy))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_enumeration_on_random_mdps(self, seed):
        rng = np.random.default_rng(seed)
        mdp = random_mdp(
            int(rng.integers(2, 5)), int(rng.integers(2, 4)),
            float(rng.choice([0.0, 0.5, 0.9, 0.99, 0.999])), seed=seed,
        )
        v_star, greedy = optimal_value(mdp)
        values = value_function_batch(
            mdp, np.eye(mdp.n_actions)[deterministic_policies(mdp)]
        )
        scale = max(1.0, np.max(np.abs(values)))
        assert np.max(np.abs(v_star - values.max(axis=0))) <= 1e-9 * scale
        q = q_values(mdp, v_star)
        assert np.array_equal(np.argmax(greedy.probs, axis=1), np.argmax(q, axis=1))

    @pytest.mark.parametrize("mdp", PI_MDPS)
    def test_policy_iteration_values_are_one_hot_values(self, monkeypatch, mdp):
        # Policy iteration and optimal_value evaluate action arrays by
        # _gather, one policy per _solve call; each value has the bits of its
        # one-hot Policy's, down to the sign of a zero.
        seen = []
        solve = evaluation._solve

        def record(mdp, policies, states=()):
            solved = solve(mdp, policies, states)
            assert np.ndim(policies) == 2 and states == ()
            assert solved.shape == (1, mdp.n_states, 1)
            seen.append((np.array(policies[0]), solved))
            return solved

        def returned(v, solved):
            return np.shares_memory(v, solved) and v.tobytes() == solved[0, :, 0].tobytes()

        monkeypatch.setattr(evaluation, "_solve", record)
        # From [0, 1, 0], SIGNED_ZEROS's first value is [-0.0, 6.75, 10.0].
        start = np.arange(mdp.n_states) % mdp.n_actions
        steps = list(evaluation._policy_iteration(mdp, start))
        v_star, greedy = optimal_value(mdp)
        monkeypatch.undo()
        assert len(seen) > len(steps)
        assert all(returned(v, solved) for (v, _), (_, solved) in zip(steps, seen))
        assert returned(v_star, seen[-1][1])
        assert greedy == Policy.deterministic(seen[-1][0], mdp.n_actions)
        for actions, solved in seen:
            one_hot = value_function(mdp, Policy.deterministic(actions, mdp.n_actions))
            assert solved[0, :, 0].tobytes() == one_hot.tobytes()

    def test_iteration_bound_raises(self, monkeypatch):
        # dyn2's reward-greedy policy is not optimal, so one improvement
        # step cannot settle.
        monkeypatch.setattr(evaluation, "_MAX_IMPROVEMENTS", 1)
        with pytest.raises(IterationCap):
            optimal_value(builtin_fixture("dyn2"))


class TestQValues:
    @pytest.mark.parametrize("n_states", [1, 2, 3, 64, 128])
    def test_stack_rows_have_the_bits_of_single_calls(self, n_states):
        mdp = random_mdp(n_states, 3, 0.9, seed=n_states)
        values = np.random.default_rng(n_states).normal(size=(5, n_states))
        stacked = q_values(mdp, values)
        assert stacked.shape == (5, n_states, 3)
        for row, v in zip(stacked, values):
            assert np.array_equal(row, q_values(mdp, v))
        # A leading axis of one is no different from none.
        assert np.array_equal(q_values(mdp, values[:, None])[:, 0], stacked)

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3), (2, 1)])
    def test_wrong_last_axis_is_shape_mismatch(self, shape):
        with pytest.raises(ShapeMismatch, match="length 2"):
            q_values(builtin_fixture("dyn2"), np.zeros(shape))

    def test_gamma_zero_reshapes_rewards(self):
        m = example1_mdp(gamma=0.0)
        np.testing.assert_array_equal(
            q_values(m, np.array([5.0, -3.0])), m.reward_matrix
        )

    def test_policy_contraction_identity(self):
        mdp = builtin_fixture("fig2c")
        policy = random_policy(mdp, 11)
        v = value_function(mdp, policy)
        q = q_values(mdp, v)
        np.testing.assert_allclose((policy.probs * q).sum(axis=1), v, atol=1e-10)

    def test_optimal_q_max_is_v_star(self):
        mdp = builtin_fixture("dyn2")
        v_star, _ = optimal_value(mdp)
        q = q_values(mdp, v_star)
        np.testing.assert_allclose(q.max(axis=1), v_star, atol=1e-8)


class TestAgreementZeros:
    def test_copied_rows_match_bitwise(self):
        for seed in range(20):
            mdp, p1 = random_pair(seed)
            rng = np.random.default_rng(seed + 50)
            k = int(rng.integers(1, mdp.n_states + 1))
            fixed = sorted(rng.choice(mdp.n_states, size=k, replace=False).tolist())
            p2 = p1
            for s in range(mdp.n_states):
                if s not in fixed:
                    p2 = p2.with_row(s, rng.dirichlet(np.ones(mdp.n_actions)))
            (p_pi1, r_pi1), (p_pi2, r_pi2) = (
                evaluation._collapse(mdp, p.probs) for p in (p1, p2)
            )
            assert np.array_equal(r_pi1[fixed], r_pi2[fixed])
            assert np.array_equal(p_pi1[fixed], p_pi2[fixed])

    @pytest.mark.parametrize("mdp", PI_MDPS)
    def test_collapse_rows_at_copied_states_are_equal(self, mdp):
        # Six policies share their rows at the fixed states; collapsed as a
        # stack and one by one, they give equal rows of P_pi and r_pi there.
        rng = np.random.default_rng(mdp.n_states * 10 + mdp.n_actions)
        for k in range(1, mdp.n_states + 1):
            fixed = sorted(rng.choice(mdp.n_states, size=k, replace=False).tolist())
            probs = rng.dirichlet(np.ones(mdp.n_actions), size=(6, mdp.n_states))
            probs[:, fixed] = probs[0, fixed]
            stacked = evaluation._collapse(mdp, probs)
            singles = [evaluation._collapse(mdp, one) for one in probs]
            for p_pi, r_pi in [stacked, *singles]:
                assert (p_pi[..., fixed, :] == stacked[0][0, fixed]).all()
                assert (r_pi[..., fixed] == stacked[1][0, fixed]).all()


@given(st.integers(min_value=0, max_value=500))
def test_value_solves_bellman_property(seed):
    mdp, policy = random_pair(seed)
    v = value_function(mdp, policy)
    assert np.max(np.abs(v - bellman_apply(mdp, policy, v))) < 1e-9
