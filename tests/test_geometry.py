import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vfpolytope import geometry
from vfpolytope.errors import EnumerationTooLarge, NotAgreeing, ShapeMismatch
from vfpolytope.evaluation import value_function, value_function_batch
from vfpolytope.geometry import (
    SAMPLE_BLOCK,
    AgreementSet,
    affine_slice,
    interpolation_curve,
    line_segment,
    membership_gap,
    polytope_vertices_det,
    sample_policy_probs,
    sample_values,
    segment_distances,
    slice_rank,
)
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

from oracles import _cross, bisect_exit, hull_2d, mix_policies, points_in_hull

STAY = Policy(np.array([[1.0, 0.0], [1.0, 0.0]]))
QUIT = Policy(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestMixPolicies:
    def test_endpoints_exact(self):
        p0 = random_policy(builtin_fixture("dyn2"), 0)
        p1 = random_policy(builtin_fixture("dyn2"), 1)
        assert mix_policies(p0, p1, 0.0) == p0
        assert mix_policies(p0, p1, 1.0) == p1

    def test_half_mixture_row(self):
        mixed = mix_policies(STAY, QUIT, 0.5)
        np.testing.assert_array_equal(mixed.probs[0], [0.5, 0.5])

    def test_mu_out_of_range(self):
        with pytest.raises(ValueError):
            mix_policies(STAY, QUIT, 1.5)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_rows_stay_stochastic(self, mu):
        p0 = random_policy(builtin_fixture("fig2c"), 2)
        p1 = random_policy(builtin_fixture("fig2c"), 3)
        mixed = mix_policies(p0, p1, mu)
        assert np.all(np.abs(mixed.probs.sum(axis=1) - 1.0) <= 1e-12)


class TestLineSegment:
    def test_example1_brackets(self):
        m = example1_mdp()
        seg = line_segment(m, random_policy(m, 4), 0)
        np.testing.assert_allclose(seg.v_low, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(seg.v_high, [1.0, 0.0], atol=1e-12)
        assert np.argmax(seg.pi_low.probs[0]) == 0
        assert np.argmax(seg.pi_high.probs[0]) == 1

    def test_single_action_degenerate(self):
        m = random_mdp(2, 1, 0.9, seed=0)
        base = Policy(np.ones((2, 1)))
        seg = line_segment(m, base, 0)
        assert seg.pi_low == seg.pi_high == base

    def test_grid_mixtures_on_segment(self):
        m = builtin_fixture("dyn2")
        seg = line_segment(m, random_policy(m, 8), 0)
        grid = np.stack(
            [
                mix_policies(seg.pi_low, seg.pi_high, mu).probs
                for mu in np.linspace(0, 1, 21)
            ]
        )
        images = value_function_batch(m, grid)
        dists = segment_distances(images, seg.v_low, seg.v_high)
        assert dists.max() < 1e-9

    def test_bracket_ordering(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            m = random_mdp(
                int(rng.integers(2, 5)), int(rng.integers(2, 4)),
                float(rng.uniform(0.3, 0.95)), seed=seed,
            )
            state = int(rng.integers(m.n_states))
            seg = line_segment(m, random_policy(m, seed + 1), state)
            assert np.all(seg.v_low <= seg.v_high + 1e-10)

    @pytest.mark.parametrize("n_actions", [100, 200])
    def test_ends_are_the_extremes_of_direct_solves(self, n_actions):
        # The reference evaluates every one-hot variant directly and picks
        # the lowest-index argmin and argmax of the value totals.
        m = random_mdp(2, n_actions, 0.9, seed=0)
        for seed, state in ((0, 0), (1, 1), (2, 0)):
            policy = random_policy(m, seed)
            variants = np.repeat(policy.probs[None], n_actions, axis=0)
            variants[:, state] = np.eye(n_actions)
            values = value_function_batch(m, variants)
            low, high = np.argmin(values.sum(axis=1)), np.argmax(values.sum(axis=1))
            seg = line_segment(m, policy, state)
            assert seg.pi_low == Policy(variants[low])
            assert seg.pi_high == Policy(variants[high])
            assert np.array_equal(seg.v_low, values[low])
            assert np.array_equal(seg.v_high, values[high])


class TestInterpolationCurve:
    def test_example1_closed_form(self):
        m = example1_mdp()
        curve = interpolation_curve(m, STAY, QUIT, 0, grid_size=101)
        expected = curve.mus / (1.0 - 0.9 * (1.0 - curve.mus))
        np.testing.assert_allclose(curve.rhos, expected, atol=1e-12)
        assert curve.rhos[50] == pytest.approx(0.5 / 0.55, abs=1e-12)

    @pytest.mark.parametrize("state", [-7, -1, 2, 5])
    def test_state_out_of_range(self, state):
        m = builtin_fixture("dyn2")
        u = Policy.uniform(2, 2)
        with pytest.raises(ShapeMismatch, match=f"state {state} out of range for"):
            interpolation_curve(m, u, u, state)

    def test_constant_curve_flagged(self):
        m = builtin_fixture("dyn2")
        base = random_policy(m, 5)
        curve = interpolation_curve(m, base, base, 1, grid_size=11)
        assert curve.constant
        np.testing.assert_array_equal(curve.rhos, np.zeros(11))

    def test_single_action_curve_is_constant_near_gamma_one(self):
        # Rounding in v alone can exceed 1e-12 at gamma = 0.999; the equal
        # rows at the state still flag the curve.
        for seed in range(20):
            n_states = int(np.random.default_rng(seed).integers(2, 9))
            m = random_mdp(n_states, 1, 0.999, seed)
            p = Policy(np.ones((m.n_states, 1)))
            curve = interpolation_curve(m, p, p, seed % m.n_states, grid_size=5)
            assert curve.constant and curve.omega == 0.0
            np.testing.assert_array_equal(curve.rhos, np.zeros(5))

    def test_matches_direct_evaluation(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            m = random_mdp(
                int(rng.integers(2, 5)), int(rng.integers(2, 4)),
                float(rng.uniform(0.3, 0.95)), seed=seed + 1,
            )
            state = int(rng.integers(m.n_states))
            p0 = random_policy(m, seed + 2)
            p1 = p0.with_row(state, rng.dirichlet(np.ones(m.n_actions)))
            curve = interpolation_curve(m, p0, p1, state, grid_size=101)
            images = value_function_batch(
                m,
                np.stack(
                    [mix_policies(p0, p1, mu).probs for mu in curve.mus]
                ),
            )
            v0, v1 = images[0], images[-1]
            scale = np.max(np.abs(v1 - v0))
            if curve.constant:
                assert np.max(np.abs(images - v0[None, :])) < 1e-9
                continue
            predicted = v0[None, :] + curve.rhos[:, None] * (v1 - v0)[None, :]
            assert np.max(np.abs(images - predicted)) < 1e-8 * max(scale, 1.0)
            if scale > 1e-8:
                assert np.all(np.diff(curve.rhos) > 0.0)

    def test_endpoint_values(self):
        m = builtin_fixture("fig2c")
        p0 = random_policy(m, 7)
        p1 = p0.with_row(1, np.array([0.1, 0.2, 0.7]))
        curve = interpolation_curve(m, p0, p1, 1)
        assert curve.rhos[0] == pytest.approx(0.0, abs=1e-10)
        assert curve.rhos[-1] == pytest.approx(1.0, abs=1e-10)

    def test_not_agreeing(self):
        m = builtin_fixture("dyn2")
        with pytest.raises(NotAgreeing):
            interpolation_curve(m, random_policy(m, 1), random_policy(m, 2), 0)

    @pytest.mark.parametrize("n_states, gamma", [(2, 0.9), (3, 0.99999), (64, 0.999)])
    def test_endpoints_exact(self, n_states, gamma):
        m = random_mdp(n_states, 3, gamma, seed=n_states)
        p0 = random_policy(m, 1)
        p1 = p0.with_row(1, np.array([0.2, 0.3, 0.5]))
        curve = interpolation_curve(m, p0, p1, 1, grid_size=7)
        assert curve.rhos[0] == 0.0 and curve.rhos[-1] == 1.0


class TestMembershipGap:
    @pytest.mark.parametrize("n_states", [2, 3, 8, 64])
    def test_sampled_values_are_members(self, n_states):
        m = random_mdp(n_states, 3, 0.9, seed=n_states)
        assert membership_gap(m, sample_values(m, 500, 1)).max() <= 0.0

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_deterministic_values_are_on_the_boundary(self, name):
        m = builtin_fixture(name)
        vertices = polytope_vertices_det(m)
        assert membership_gap(m, vertices).max() <= 1e-12

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_points_past_the_value_bound_are_not_members(self, name):
        m = builtin_fixture(name)
        outside = 1.01 * m.value_bound() * np.eye(m.n_states)
        assert np.all(membership_gap(m, np.vstack([outside, -outside])) > 0.0)

    def test_matches_per_state_loop(self):
        m = random_mdp(3, 4, 0.8, seed=5)
        points = np.random.default_rng(0).normal(scale=3.0, size=(20, 3))
        expected = []
        for v in points:
            worst = -np.inf
            for s in range(3):
                q = [m.reward_matrix[s, a] + m.gamma * m.transition_tensor[s, a] @ v
                     for a in range(4)]
                worst = max(worst, min(q) - v[s], v[s] - max(q))
            expected.append(worst / max(1.0, np.max(np.abs(v))))
        np.testing.assert_allclose(membership_gap(m, points), expected, atol=1e-14)

    @pytest.mark.parametrize("seed", range(12))
    def test_members_mask_is_the_gap_decision(self, seed):
        # The boundary suite takes its points at the ray exits of
        # geometry._ray_exit: every point of a ray short of its exit must
        # be a member by membership_gap <= 0, and the point just past it not.
        m, start, rays = _exit_case(seed)
        t = geometry._ray_exit(m, start, rays)
        assert np.all(t > 0.0)
        fractions = np.array([0.0, 0.5, 0.9, 1.0 - 1e-6, 1.0 + 1e-6])
        for f in fractions:
            gap = membership_gap(m, start + f * t[:, None] * rays)
            assert np.array_equal(gap <= 0.0, np.full(len(rays), f <= 1.0)), f

    def test_rejects_wrong_shape(self):
        m = builtin_fixture("dyn2")
        with pytest.raises(ShapeMismatch):
            membership_gap(m, np.zeros(2))
        with pytest.raises(ShapeMismatch):
            membership_gap(m, np.zeros((4, 3)))


def _unit_rays(rng, n, n_states):
    """n Gaussian directions scaled to max-norm 1."""
    rays = rng.standard_normal((n, n_states))
    return rays / np.abs(rays).max(axis=1, keepdims=True)


def _exit_case(seed):
    """A random MDP with |S| 2-5, the uniform policy's value and 64 unit rays."""
    rng = np.random.default_rng(seed)
    m = random_mdp(
        2 + seed % 4, int(rng.integers(2, 5)), float(rng.uniform(0.3, 0.95)), seed=seed
    )
    start = value_function(m, Policy.uniform(m.n_states, m.n_actions))
    return m, start, _unit_rays(rng, 64, m.n_states)


class TestRayExit:
    """geometry._ray_exit against bisection on membership_gap (oracles.bisect_exit)."""

    def test_never_past_the_bisection_crossing(self):
        # Both round where a ray crosses at a shallow angle: there the exact
        # rational crossing can sit tens of ulps from either. Here t* passes
        # the bisection's first non-member by at most 7.5 ulps of scale.
        worst = -np.inf
        for seed in range(40):
            m, start, rays = _exit_case(seed)
            t = geometry._ray_exit(m, start, rays)
            _, hi = bisect_exit(m, start, rays)
            point = np.abs(start + hi[:, None] * rays).max(axis=1)
            scale = np.maximum(np.maximum(1.0, hi), point)
            worst = max(worst, float(np.max((t - hi) / np.spacing(scale))))
        assert worst <= 16.0

    @pytest.mark.parametrize("name", ["fig2a", "fig2b"])
    def test_convex_value_sets_match_the_crossing(self, name):
        # These value sets are convex, so every ray crosses their boundary once.
        m = builtin_fixture(name)
        start = value_function(m, Policy.uniform(m.n_states, m.n_actions))
        rays = _unit_rays(np.random.default_rng(1), 500, m.n_states)
        t = geometry._ray_exit(m, start, rays)
        lo, _ = bisect_exit(m, start, rays)
        assert np.max(np.abs(t - lo) / np.maximum(1.0, lo)) <= 1e-12

    def test_gap_vanishes_at_the_exit_and_is_positive_past_it(self):
        for seed in range(40):
            m, start, rays = _exit_case(seed)
            t = geometry._ray_exit(m, start, rays)
            assert membership_gap(m, start + t[:, None] * rays).max() <= 1e-12
            past = t + 1e-9 * np.maximum(1.0, t)
            assert membership_gap(m, start + past[:, None] * rays).min() > 0.0

    @pytest.mark.parametrize("n_states", [1, 2, 3, 5])
    def test_one_action_exits_at_zero(self, n_states):
        # One policy, so the value set is the single point start.
        m = random_mdp(n_states, 1, 0.9, n_states)
        start = value_function(m, Policy.uniform(n_states, 1))
        rays = np.random.default_rng(0).standard_normal((64, n_states))
        assert np.all(geometry._ray_exit(m, start, rays) == 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_state(self, seed):
        # The value set of one state is an interval, crossed once each way.
        m = random_mdp(1, 3, 0.9, seed)
        start = value_function(m, Policy.uniform(1, 3))
        rays = np.array([[1.0], [-1.0]])
        t = geometry._ray_exit(m, start, rays)
        lo, _ = bisect_exit(m, start, rays)
        assert np.max(np.abs(t - lo) / np.maximum(1.0, lo)) <= 1e-12
        ends = np.sort(polytope_vertices_det(m)[:, 0])[[-1, 0]]
        np.testing.assert_allclose(start[0] + t * rays[:, 0], ends, rtol=1e-13)

    @pytest.mark.parametrize("seed", range(4))
    def test_a_flat_line_keeps_its_bound(self, seed):
        # Action 0 keeps each state where it is, so along an axis ray the
        # other state's line for it has beta = 0: where its alpha >= 0 that
        # state's upper bound holds at every t, however its other lines fall.
        rewards = np.random.default_rng(seed).uniform(-1.0, 1.0, 4)
        m = Mdp(2, 2, rewards, np.array([[1, 0], [0, 1], [0, 1], [1, 0]], float), 0.9)
        start = value_function(m, Policy.uniform(2, 2))
        rays = np.vstack([np.eye(2), -np.eye(2)])
        t = geometry._ray_exit(m, start, rays)
        assert membership_gap(m, start + t[:, None] * rays).max() <= 1e-12
        past = t + 1e-9 * np.maximum(1.0, t)
        assert membership_gap(m, start + past[:, None] * rays).min() > 0.0

    def test_duplicated_actions(self):
        m = random_mdp(3, 2, 0.9, 4)
        order = [0, 1, 1, 0]
        dup = Mdp(3, 4, m.reward_matrix[:, order].ravel(),
                  m.transition_tensor[:, order].reshape(12, 3), m.gamma)
        start = value_function(m, Policy.uniform(3, 2))
        rays = _unit_rays(np.random.default_rng(2), 64, 3)
        np.testing.assert_allclose(
            geometry._ray_exit(dup, start, rays),
            geometry._ray_exit(m, start, rays),
            rtol=1e-14,
        )


class TestAffineSlice:
    def test_all_states_fixed_is_a_point(self):
        m = builtin_fixture("dyn2")
        base = random_policy(m, 3)
        sl = affine_slice(m, AgreementSet(base=base, fixed_states=(0, 1)))
        assert sl.dimension == 0
        np.testing.assert_allclose(sl.anchor, value_function(m, base), atol=1e-12)

    def test_no_states_fixed_is_full(self):
        m = builtin_fixture("dyn2")
        sl = affine_slice(m, AgreementSet(base=random_policy(m, 3), fixed_states=()))
        assert sl.dimension == 2

    def test_constrained_samples_in_slice(self):
        m = builtin_fixture("dyn2")
        agreement = AgreementSet(base=random_policy(m, 6), fixed_states=(0,))
        sl = affine_slice(m, agreement)
        values = sample_values(m, 500, 11, agreement)
        assert max(sl.projection_residual(v) for v in values) < 1e-9

    @staticmethod
    def _point_residual(sl, point):
        # One-point projection as every earlier version computed it.
        delta = np.asarray(point, dtype=float) - sl.anchor
        if sl.dimension == 0:
            return float(np.max(np.abs(delta)))
        coeffs, *_ = np.linalg.lstsq(sl.basis, delta, rcond=None)
        return float(np.max(np.abs(delta - sl.basis @ coeffs)))

    @pytest.mark.parametrize("seed", range(30))
    def test_stack_is_the_largest_point_residual(self, seed):
        rng = np.random.default_rng(seed)
        m = random_mdp(int(rng.integers(2, 5)), int(rng.integers(2, 4)), 0.9, seed=seed)
        fixed = sorted(rng.choice(m.n_states, size=int(rng.integers(0, m.n_states + 1)),
                                  replace=False).tolist())
        agreement = AgreementSet(base=random_policy(m, seed), fixed_states=fixed)
        sl = affine_slice(m, agreement)
        values = sample_values(m, 200, seed, agreement)
        # Off-slice points too, so the residuals are not all rounding noise.
        values[:100] += rng.normal(scale=1e-3, size=(100, m.n_states))
        points = [sl.projection_residual(v) for v in values]
        assert points == [self._point_residual(sl, v) for v in values]
        stack = sl.projection_residual(values)
        if sl.dimension == 0:
            assert stack == max(points)
        else:
            scale = max(1.0, float(np.max(np.abs(values - sl.anchor))))
            assert abs(stack - max(points)) <= 4 * np.finfo(float).eps * scale

    def test_duplicate_states_rejected(self):
        with pytest.raises(ValueError):
            AgreementSet(base=Policy.uniform(2, 2), fixed_states=(0, 0))

    @pytest.mark.parametrize("shape", [(3,), (4, 3), (2, 4, 2)])
    def test_projection_residual_rejects_a_wrong_shape(self, shape):
        m = builtin_fixture("dyn2")
        sl = affine_slice(m, AgreementSet(base=random_policy(m, 1), fixed_states=(0,)))
        with pytest.raises(ShapeMismatch, match=r"expected a \(2,\) point or an \(n, 2\) stack"):
            sl.projection_residual(np.zeros(shape))


class TestSampleValues:
    def test_deterministic_per_seed(self):
        m = builtin_fixture("fig2b")
        np.testing.assert_array_equal(
            sample_values(m, 64, 9), sample_values(m, 64, 9)
        )

    def test_fully_fixed_agreement_gives_single_point(self):
        m = builtin_fixture("dyn2")
        base = random_policy(m, 2)
        values = sample_values(
            m, 5, 0, AgreementSet(base=base, fixed_states=(0, 1))
        )
        target = value_function(m, base)
        np.testing.assert_allclose(values, np.tile(target, (5, 1)), atol=1e-12)

    def test_mismatched_agreement_base_rejected_before_drawing(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("policies drawn before the base was checked")

        monkeypatch.setattr(geometry, "_policy_blocks", no_draws)
        agreement = AgreementSet(base=Policy.uniform(2, 3), fixed_states=[0])
        with pytest.raises(ShapeMismatch, match="does not match MDP"):
            sample_values(builtin_fixture("dyn2"), 3, 0, agreement)

    def test_bounded_by_reward_scale(self):
        m = builtin_fixture("fig2a")
        values = sample_values(m, 10_000, 20)
        assert np.max(np.abs(values)) <= 0.64 / (1 - 0.9) + 1e-9

    def test_all_in_deterministic_hull(self):
        m = builtin_fixture("dyn2")
        values = sample_values(m, 50_000, 7)
        hull = hull_2d(polytope_vertices_det(m))
        assert points_in_hull(values, hull).all()

    def test_equals_values_of_sampled_policies(self):
        m = builtin_fixture("threeaction")
        n = 2 * SAMPLE_BLOCK + 17
        agreement = AgreementSet(base=random_policy(m, 1), fixed_states=(1,))
        probs = sample_policy_probs(m, n, 5)
        probs[:, 1, :] = agreement.base.probs[1]
        values = sample_values(m, n, 5, agreement)
        assert np.array_equal(values, value_function_batch(m, probs))
        prefix = sample_values(m, SAMPLE_BLOCK + 1, 5, agreement)
        assert np.array_equal(values[: SAMPLE_BLOCK + 1], prefix)

    def test_holds_one_block_of_policies(self):
        # 50,000 policies over 2 x 200 state-actions take 153 MiB at once;
        # one block of 4096 takes 12.5 MiB.
        m = random_mdp(2, 200, 0.9, 0)
        tracemalloc.start()
        try:
            sample_values(m, 50_000, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20, peak

    def test_holds_one_evaluation_block_of_policies(self):
        # At |S| = 128 a sampling block of 4096 policies takes 16 MiB, an
        # evaluation block of 32 takes 128 KiB; the (4096, 128) values and
        # the 32 systems of one evaluation block take 4 MiB each.
        m = random_mdp(128, 4, 0.95, 0)
        tracemalloc.start()
        try:
            sample_values(m, SAMPLE_BLOCK, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, peak


class TestSamplePolicyProbs:
    N = 2 * SAMPLE_BLOCK + 17

    @pytest.mark.parametrize("m", [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, N])
    def test_prefix_equals_shorter_run(self, m):
        mdp = builtin_fixture("threeaction")
        full = sample_policy_probs(mdp, self.N, 4)
        np.testing.assert_array_equal(full[:m], sample_policy_probs(mdp, m, 4))

    def test_rows_on_simplex(self):
        probs = sample_policy_probs(
            builtin_fixture("fig2c"), self.N, np.random.SeedSequence((2, 9))
        )
        assert probs.shape == (self.N, 2, 3)
        assert np.all(probs >= 0.0)
        np.testing.assert_allclose(probs.sum(axis=2), 1.0, rtol=0, atol=1e-12)

    def test_action_marginals_are_flat(self):
        mdp = builtin_fixture("fig2c")
        probs = sample_policy_probs(mdp, self.N, 13)
        a = mdp.n_actions
        # Each coordinate of a flat Dirichlet is Beta(1, |A|-1).
        stderr = np.sqrt((a - 1) / (a * a * (a + 1)) / self.N)
        assert np.max(np.abs(probs.mean(axis=0) - 1.0 / a)) < 5 * stderr

    def test_matches_per_block_dirichlet_reference(self):
        mdp = builtin_fixture("threeaction")
        n = SAMPLE_BLOCK + 300
        reference = np.concatenate(
            [
                np.random.default_rng(
                    np.random.SeedSequence((3, 4), spawn_key=(block,))
                ).dirichlet(
                    np.ones(mdp.n_actions),
                    size=(min(SAMPLE_BLOCK, n - start), mdp.n_states),
                )
                for block, start in enumerate(range(0, n, SAMPLE_BLOCK))
            ]
        )
        np.testing.assert_allclose(
            sample_policy_probs(mdp, n, np.random.SeedSequence((3, 4))),
            reference,
            rtol=0,
            atol=4e-16,
        )

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_first_sample_is_not_the_seed_policy(self, seed):
        # A stream keyed by the bare seed would reproduce random_policy(seed),
        # making sample 0 of `vfp sample --fix` the agreement's base policy.
        mdp = builtin_fixture("dyn2")
        first = sample_policy_probs(mdp, 1, seed)[0]
        assert np.max(np.abs(first - random_policy(mdp, seed).probs)) > 1e-6


class TestHull2d:
    def test_single_point(self):
        hull = hull_2d([[1.0, 2.0]])
        np.testing.assert_array_equal(hull, [[1.0, 2.0]])

    def test_square_with_center(self):
        pts = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]]
        hull = hull_2d(pts)
        assert hull.shape == (4, 2)
        # counterclockwise orientation: positive signed area
        x, y = hull[:, 0], hull[:, 1]
        area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        assert area == pytest.approx(1.0)

    def test_collinear_points_dropped(self):
        hull = hull_2d([[0, 0], [1, 1], [2, 2], [3, 3]])
        np.testing.assert_array_equal(hull, [[0, 0], [3, 3]])

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            hull_2d(np.zeros((4, 3)))

    @staticmethod
    def _unique_hull(points):
        # hull_2d as 0.11.0 wrote it, deduplicating with np.unique.
        uniq = np.unique(np.asarray(points, dtype=float), axis=0)
        if uniq.shape[0] == 1:
            return uniq
        chains = []
        for ordered in (uniq, uniq[::-1]):
            chain = []
            for p in ordered:
                while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0.0:
                    chain.pop()
                chain.append(p)
            chains += chain[:-1]
        return np.array(chains)

    @pytest.mark.parametrize("seed", range(8))
    def test_same_rows_as_unique_version(self, seed):
        rng = np.random.default_rng(seed)
        grid = rng.integers(-2, 3, size=(60, 2)).astype(float)
        clouds = [
            # Exact duplicates on a small lattice, with signed zeros.
            np.where(rng.random(grid.shape) < 0.5, -grid, grid) * 0.5,
            # Collinear runs, repeated, in shuffled order.
            rng.permutation(np.repeat(np.outer(rng.integers(0, 9, 40), [1.0, -2.0]), 2, axis=0)),
            np.vstack([rng.normal(size=(30, 2))] * 3),
        ]
        clouds += [cloud[:1].repeat(5, axis=0) for cloud in clouds]
        for cloud in clouds:
            assert np.array_equal(hull_2d(cloud), self._unique_hull(cloud))

    def test_point_in_hull_vertex_and_centroid(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
        hull = hull_2d(pts)
        inside = points_in_hull([[0.0, 0.0], pts.mean(axis=0), [3.0, 3.0]], hull)
        assert inside.tolist() == [True, True, False]

    def test_point_near_boundary_tolerance(self):
        hull = hull_2d([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        inside = points_in_hull([[0.5, 1.0 + 5e-10], [0.5, 1.0 + 1e-6]], hull)
        assert inside.tolist() == [True, False]


class TestSliceRank:
    def test_identical_points(self):
        assert slice_rank(np.ones((5, 3))) == 0

    def test_one_fixed_state_on_dyn2(self):
        m = builtin_fixture("dyn2")
        agreement = AgreementSet(base=random_policy(m, 4), fixed_states=(0,))
        values = sample_values(m, 500, 8, agreement)
        assert slice_rank(values) == 1

    def test_unconstrained_full_rank_fig2c(self):
        m = builtin_fixture("fig2c")
        values = sample_values(m, 500, 8)
        assert slice_rank(values) == 2


class TestVertices:
    def test_example1_endpoints(self):
        m = example1_mdp()
        values = polytope_vertices_det(m)
        unique = np.unique(np.round(values, 12), axis=0)
        np.testing.assert_allclose(unique, [[0.0, 0.0], [1.0, 0.0]], atol=1e-12)

    def test_counts_and_bound_fig2c(self):
        m = builtin_fixture("fig2c")
        values = polytope_vertices_det(m)
        assert values.shape == (9, 2)
        assert np.max(np.abs(values)) <= 0.93 / (1 - 0.9) + 1e-9

    @pytest.mark.parametrize(
        "m",
        [builtin_fixture(name) for name in FIXTURE_NAMES]
        + [random_mdp(s, a, g, seed=i) for i, (s, a, g) in enumerate(
            [(1, 3, 0.5), (2, 5, 0.9), (3, 3, 0.99), (4, 2, 0.999), (5, 3, 0.0),
             (6, 2, 0.9), (3, 7, 0.95)])]
        + [random_mdp(64, 1, 0.9, seed=0), random_mdp(2, 100, 0.9, seed=0),
           random_mdp(9, 4, 0.9, seed=1),
           # Signed zeros: the one-hot sums turn every -0.0 reward into +0.0.
           Mdp(3, 2, rewards=[0.0, -0.0, -0.0, -0.0, 1.0, -0.5],
               transitions=[[1, 0, 0], [0, 0.5, 0.5], [0, 1, 0], [0.25, 0, 0.75],
                            [0, 0, 1], [1, 0, 0]], gamma=0.9)],
    )
    def test_bit_equal_to_one_hot_batch(self, m):
        # The reference builds the one-hot policy stack and solves it.
        actions = deterministic_policies(m)
        reference = value_function_batch(m, np.eye(m.n_actions)[actions])
        values = polytope_vertices_det(m)
        assert np.array_equal(values, reference)
        assert np.array_equal(np.signbit(values), np.signbit(reference))

    def test_enumeration_cap(self):
        with pytest.raises(EnumerationTooLarge):
            polytope_vertices_det(random_mdp(8, 6, 0.9, seed=0))
