import json
from collections import Counter

import numpy as np
import pytest

from vfpolytope import geometry, verification
from vfpolytope.errors import EnumerationTooLarge, UnknownSuite
from vfpolytope.evaluation import value_function, value_function_batch
from vfpolytope.geometry import (
    LineSegment,
    line_segment,
    polytope_vertices_det,
    sample_policy_probs,
)
from vfpolytope.mdp import FIXTURE_NAMES, Mdp, Policy, builtin_fixture, random_mdp
from vfpolytope.verification import SUITE_NAMES, CheckReport, run_suite

from oracles import (
    bisect_exit,
    hull_2d,
    mc_value_oracle,
    neumann_tail_bound,
    neumann_value_oracle,
    points_in_hull,
)

DYN2 = builtin_fixture("dyn2")
UNIFORM2 = Policy.uniform(2, 2)

FAST = {"episodes": 20_000, "horizon": 200, "seed": 0}


class TestNeumannOracle:
    def test_one_term_is_expected_reward(self):
        out = neumann_value_oracle(DYN2, UNIFORM2, terms=1)
        np.testing.assert_allclose(out, [-0.275, 0.5], atol=1e-15)

    def test_gamma_zero_is_exact(self):
        m = Mdp(
            n_states=2,
            n_actions=2,
            rewards=DYN2.rewards,
            transitions=DYN2.transitions,
            gamma=0.0,
        )
        out = neumann_value_oracle(m, UNIFORM2, terms=1)
        np.testing.assert_allclose(out, value_function(m, UNIFORM2), atol=1e-15)

    def test_within_tail_bound_on_dyn2(self):
        out = neumann_value_oracle(DYN2, UNIFORM2, terms=200)
        exact = value_function(DYN2, UNIFORM2)
        bound = neumann_tail_bound(DYN2, 200)
        assert bound == pytest.approx(0.9**200 * 0.5 / 0.1)
        assert np.max(np.abs(out - exact)) <= bound

    def test_bound_holds_on_random_instances(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            mdp = random_mdp(
                int(rng.integers(2, 5)), int(rng.integers(2, 4)),
                float(rng.uniform(0.2, 0.9)), seed=seed,
            )
            policy = Policy(
                rng.dirichlet(np.ones(mdp.n_actions), size=mdp.n_states)
            )
            for terms in (1, 5, 40):
                dev = np.max(
                    np.abs(
                        neumann_value_oracle(mdp, policy, terms)
                        - value_function(mdp, policy)
                    )
                )
                assert dev <= neumann_tail_bound(mdp, terms) + 1e-14


class TestMonteCarloOracle:
    def test_deterministic_chain_geometric_series(self):
        m = Mdp(
            n_states=1,
            n_actions=1,
            rewards=np.array([1.0]),
            transitions=np.array([[1.0]]),
            gamma=0.9,
        )
        est = mc_value_oracle(
            m, Policy(np.ones((1, 1))), horizon=300, episodes=16, seed=1
        )
        assert abs(est.value[0] - 10.0) <= 1e-10 + est.truncation_bound
        assert est.stderr[0] == 0.0

    def test_zero_rewards(self):
        m = Mdp(
            n_states=2,
            n_actions=2,
            rewards=np.zeros(4),
            transitions=DYN2.transitions,
            gamma=0.9,
        )
        est = mc_value_oracle(m, UNIFORM2, episodes=100, seed=2)
        np.testing.assert_array_equal(est.value, [0.0, 0.0])
        np.testing.assert_array_equal(est.stderr, [0.0, 0.0])

    def test_consistent_with_exact_on_dyn2(self):
        est = mc_value_oracle(DYN2, UNIFORM2, **FAST)
        exact = value_function(DYN2, UNIFORM2)
        assert np.all(
            np.abs(est.value - exact) <= 3 * est.stderr + est.truncation_bound
        )

    def test_seeded_determinism(self):
        a = mc_value_oracle(DYN2, UNIFORM2, episodes=500, seed=5)
        b = mc_value_oracle(DYN2, UNIFORM2, episodes=500, seed=5)
        np.testing.assert_array_equal(a.value, b.value)


def triangulate(mdp, policy):
    """Exact solve vs truncated series vs Monte Carlo; each gap's excess over its bound.

    Exact vs series is held to the series tail bound; a Monte Carlo estimate
    to 3 standard errors plus its truncation bound, plus the tail bound when
    it is compared with the series.
    """
    exact = value_function(mdp, policy)
    series = neumann_value_oracle(mdp, policy)
    series_bound = neumann_tail_bound(mdp, 200)
    mc = mc_value_oracle(mdp, policy, **FAST)
    mc_tol = 3.0 * mc.stderr + mc.truncation_bound + 1e-12
    return (
        np.max(np.abs(exact - series)) - (series_bound + 1e-12),
        np.max(np.abs(exact - mc.value) - mc_tol),
        np.max(np.abs(series - mc.value) - (mc_tol + series_bound)),
    )


class TestCompareOracles:
    def test_dyn2_uniform_triangulates(self):
        assert max(triangulate(DYN2, UNIFORM2)) <= 0.0

    def test_zero_reward_exact_agreement(self):
        m = Mdp(
            n_states=2,
            n_actions=2,
            rewards=np.zeros(4),
            transitions=DYN2.transitions,
            gamma=0.9,
        )
        assert max(triangulate(m, UNIFORM2)) <= 0.0
        exact = value_function(m, UNIFORM2)
        assert np.max(np.abs(exact - neumann_value_oracle(m, UNIFORM2))) == 0.0

    def test_gamma_zero_single_step(self):
        m = Mdp(
            n_states=2,
            n_actions=2,
            rewards=DYN2.rewards,
            transitions=DYN2.transitions,
            gamma=0.0,
        )
        assert max(triangulate(m, UNIFORM2)) <= 0.0


def _count_calls(monkeypatch, calls, name, *modules):
    """Patch `name` in each module with one wrapper counting calls[name]."""
    inner = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return inner(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite("nope")

    def test_hull_suite_rejects_past_the_cap_before_sampling(self, monkeypatch):
        # 2,000 policies of 2^9 vertex leaves each pass the cap of 10^6.
        def reached(*args, **kwargs):
            raise AssertionError("drew or solved before the cap check")

        for name in ("_policy_blocks", "polytope_vertices_det", "value_function_batch"):
            monkeypatch.setattr(verification, name, reached)
        with pytest.raises(
            EnumerationTooLarge,
            match=r"^hull certificate of 2000 policies at \|S\|=9 has 1024000 vertex "
            r"leaves, over the cap of 1000000$",
        ):
            run_suite("hull", trials=1, mdp=random_mdp(9, 2, 0.9, 0))

    @pytest.mark.parametrize("seed", [1, 7, 31337])
    def test_boundary_bisection_decides_as_membership_gap(self, seed, monkeypatch):
        # Boundary points bisected on membership_gap(...) <= 0.0
        # (oracles.bisect_exit) must give the verdict, and deviations of the
        # size, that the closed-form ray exits give.
        def reports():
            return [
                run_suite("boundary", trials=10, seed=seed, mdp=DYN2),
                run_suite("boundary", trials=10, seed=seed),
            ]

        closed = reports()
        monkeypatch.setattr(
            verification, "_ray_exit", lambda mdp, x, rays: bisect_exit(mdp, x, rays)[0]
        )
        for ours, bisected in zip(closed, reports()):
            assert ours.passed and bisected.passed
            assert ours.instances_run == bisected.instances_run == 10
            assert max(ours.max_deviation, bisected.max_deviation) <= 1e-13

    def test_per_mdp_work_runs_once_per_mdp(self, monkeypatch):
        calls = Counter()
        for name in ("polytope_vertices_det", "semidet_family_segments", "value_function"):
            _count_calls(monkeypatch, calls, name, verification)
        run_suite("hull", trials=4, seed=0, mdp=DYN2)
        run_suite("boundary", trials=4, seed=0, mdp=DYN2)
        assert calls == Counter(
            polytope_vertices_det=1, semidet_family_segments=1, value_function=1
        )
        calls.clear()
        run_suite("hull", trials=4, seed=0)
        run_suite("boundary", trials=4, seed=0)
        two_state = sum(verification._random_instance(0, i).n_states == 2 for i in range(4))
        assert calls == Counter(
            polytope_vertices_det=4, semidet_family_segments=two_state, value_function=4
        )

    @pytest.mark.parametrize(
        "mdp", [None, DYN2, random_mdp(4, 3, 0.9, 0)], ids=["random", "dyn2", "4x3"]
    )
    def test_boundary_suite_forms_q_twice_per_trial(self, mdp, monkeypatch):
        # One _q_stack for the rays' exits, one for the policies at them.
        calls = Counter()
        _count_calls(monkeypatch, calls, "_q_stack", geometry, verification)
        for trials in (1, 3, 8):
            calls.clear()
            run_suite("boundary", trials=trials, seed=2, mdp=mdp)
            assert calls["_q_stack"] == 2 * trials

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_random_family_passes(self, name):
        trials = 10 if name in ("boundary", "hull") else 25
        report = run_suite(name, trials=trials, seed=123)
        assert report.passed, report.failures
        assert report.instances_run >= 1

    @pytest.mark.parametrize("fixture", FIXTURE_NAMES)
    def test_fixtures_pass_all_suites(self, fixture):
        mdp = builtin_fixture(fixture)
        for name in SUITE_NAMES:
            trials = 1 if name in ("boundary", "hull") else 5
            report = run_suite(name, trials=trials, seed=9, mdp=mdp)
            assert report.passed, (name, report.failures)

    @pytest.mark.parametrize("n_states", [1, 2, 3])
    def test_one_action_mdps_pass_all_suites(self, n_states):
        # One action admits one policy, so every value set is a single point.
        mdp = random_mdp(n_states, 1, 0.9, n_states)
        for name in SUITE_NAMES:
            report = run_suite(name, trials=3, seed=0, mdp=mdp)
            assert report.passed, (name, report.failures)

    def test_line_suite_tight_deviation(self):
        report = run_suite("line", trials=100, seed=1)
        assert report.passed
        assert report.max_deviation < 1e-9

    def test_line_suite_sees_a_bracket_of_one_end(self, monkeypatch):
        # Both ends pi_low: every mixture is v_low, so only the base policy's
        # own value, off that point, shows the fault.
        def one_end(mdp, policy, state):
            seg = line_segment(mdp, policy, state)
            return LineSegment(seg.pi_low, seg.pi_low, seg.v_low, seg.v_low, state)

        monkeypatch.setattr(verification, "line_segment", one_end)
        for mdp in (None, DYN2):
            report = run_suite("line", trials=10, seed=1, mdp=mdp)
            assert not report.passed
            assert report.max_deviation > 1e-3

    def test_boundary_suite_passes_seeds_0_to_99(self):
        worst = 0.0
        for seed in range(100):
            report = run_suite("boundary", trials=10, seed=seed)
            assert report.passed, (seed, report.failures)
            assert report.instances_run == 10
            worst = max(worst, report.max_deviation)
        assert worst <= 1e-13

    @pytest.mark.parametrize(
        "mdp, bound",
        [(builtin_fixture(name), 1e-14) for name in FIXTURE_NAMES]
        + [(random_mdp(8, 4, 0.99999, 3), 1e-10)],
        ids=[*FIXTURE_NAMES, "8x4-0.99999"],
    )
    def test_boundary_suite_deviation(self, mdp, bound):
        report = run_suite("boundary", trials=10, seed=0, mdp=mdp)
        assert report.passed
        assert report.max_deviation <= bound

    def test_boundary_suite_sees_a_displaced_solve(self, monkeypatch):
        solve = verification.value_function_batch
        monkeypatch.setattr(
            verification, "value_function_batch", lambda m, p: solve(m, p) + 1e-7
        )
        report = run_suite("boundary", trials=2, seed=0)
        assert len(report.failures) == 2
        assert report.max_deviation > 1e-9

    def test_hull_suite_on_dyn2(self):
        report = run_suite("hull", seed=7, mdp=DYN2)
        assert report.passed
        assert report.instances_run == 100

    def test_reports_deterministic(self):
        a = run_suite("rho", trials=10, seed=4)
        b = run_suite("rho", trials=10, seed=4)
        assert a.to_dict() == b.to_dict()

    def test_report_serializes(self):
        report = run_suite("line", trials=5, seed=0)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["check_name"] == "line"
        assert payload["passed"] is True
        assert payload["instances_run"] == 5
        assert isinstance(payload["max_deviation"], float)

    def test_nan_deviation_fails_and_shows(self):
        report = CheckReport(check_name="hull", instances_run=2)
        report.record("instance 0", 1e-15, 1e-9)
        report.record("instance 1", float("nan"), 1e-9)
        report.record("instance 2", 1e-14, 1e-9)
        assert not report.passed
        assert [f["instance"] for f in report.failures] == ["instance 1"]
        assert np.isnan(report.max_deviation)

    def test_failure_recorded_with_descriptor(self):
        report = CheckReport(check_name="dominance", instances_run=1)
        report.record("instance 0", 0.5, 0.1)
        assert not report.passed
        assert report.failures[0]["instance"]
        assert report.failures[0]["deviation"] >= 0.0


def test_stream_tags_are_pinned():
    # A tag keys a suite's streams, so it never changes; the missing tags
    # 2, 6, 9, 10 and 13 were order, zeros, rank, path and bounded.
    tags = {name: entry[0] for name, entry in verification._SUITES.items()}
    assert tags == {"line": 1, "rho": 3, "slice": 4, "span": 5, "hull": 7,
                    "boundary": 8, "dominance": 11, "smooth": 12}
    assert SUITE_NAMES == tuple(tags)


@pytest.mark.parametrize("mdp", [None, DYN2], ids=["random", "dyn2"])
def test_removing_a_suite_moves_no_other_report(mdp, monkeypatch):
    # With tags taken from positions, dropping the first suite re-keyed all.
    def reports():
        return {name: run_suite(name, trials=2, seed=3, mdp=mdp).to_dict()
                for name in verification.SUITE_NAMES}

    before = reports()
    monkeypatch.delitem(verification._SUITES, "line")
    monkeypatch.setattr(verification, "SUITE_NAMES", tuple(verification._SUITES))
    del before["line"]
    assert reports() == before


def _stream_state(seed) -> tuple | None:
    """Seed-sequence state a generator built from `seed` starts from."""
    if isinstance(seed, np.random.Generator):
        return None  # an existing stream, recorded where it was made
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return tuple(seed.generate_state(4).tolist())


def test_suites_draw_from_distinct_streams(tmp_path, monkeypatch):
    """No two suites share a stream, except the shared random instances."""
    from vfpolytope import cli

    default_rng = np.random.default_rng
    random_instance = verification._random_instance
    run = verification.run_suite
    current = {"suite": None, "instance": False}
    users: dict[tuple, set[str]] = {}

    def recording_rng(seed=None):
        state = _stream_state(seed)
        if state is not None and not current["instance"]:
            users.setdefault(state, set()).add(current["suite"])
        return default_rng(seed)

    def instance(*args, **kwargs):
        current["instance"] = True
        try:
            return random_instance(*args, **kwargs)
        finally:
            current["instance"] = False

    def suite(name, *args, **kwargs):
        current["suite"] = name
        return run(name, *args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    monkeypatch.setattr(verification, "_random_instance", instance)
    monkeypatch.setattr(cli, "run_suite", suite)
    argv = ["verify", "--suite", "all", "--trials", "25", "--seed", "1",
            "--report", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    assert set().union(*users.values()) == set(SUITE_NAMES)
    shared = {state: names for state, names in users.items() if len(names) > 1}
    assert not shared, sorted(map(sorted, shared.values()))


def _certify(mdp, probs):
    """Worst hull-certificate error of the policies in probs, 2^12 leaves at a time."""
    vertices = polytope_vertices_det(mdp)
    chunk = max(1, 4096 >> mdp.n_states)
    return max(
        verification._hull_deviation(mdp, vertices, probs[i : i + chunk])
        for i in range(0, len(probs), chunk)
    )


class TestHullCertificate:
    """The line-theorem weights certify hull inclusion in any dimension."""

    def test_random_instances(self):
        worst = 0.0
        for i in range(200):
            mdp = verification._random_instance(5, i)
            worst = max(worst, _certify(mdp, sample_policy_probs(mdp, 2_000, i)))
        assert worst <= 1e-12

    @pytest.mark.parametrize(
        "args, bound",
        [((8, 2, 0.99, 3), 1e-12), ((10, 2, 0.999, 3), 2e-12)],
        ids=["8-states-0.99", "10-states-0.999"],
    )
    def test_near_gamma_one(self, args, bound):
        mdp = random_mdp(*args)
        assert _certify(mdp, sample_policy_probs(mdp, 500, 0)) <= bound

    @pytest.mark.parametrize("n_states", [1, 2, 3, 5])
    def test_one_action(self, n_states):
        mdp = random_mdp(n_states, 1, 0.9, n_states)
        assert _certify(mdp, sample_policy_probs(mdp, 50, 2)) <= 1e-12

    def test_certified_values_are_inside_scipy_hull(self):
        from scipy.spatial import ConvexHull

        checked = 0
        for seed in range(16):
            rng = np.random.default_rng(seed)
            mdp = random_mdp(int(rng.integers(3, 5)), int(rng.integers(2, 4)), 0.9, seed)
            vertices = polytope_vertices_det(mdp)
            spread = np.linalg.svd(vertices - vertices.mean(axis=0), compute_uv=False)
            if spread[-1] <= 1e-8 * spread[0]:
                continue  # the vertices do not span the value space
            probs = sample_policy_probs(mdp, 2_000, seed)
            assert _certify(mdp, probs) <= 1e-12
            # Unit outer facet normals n and offsets b: n . x + b <= 0 inside.
            facets = ConvexHull(vertices).equations
            values = value_function_batch(mdp, probs)
            assert np.max(values @ facets[:, :-1].T + facets[:, -1]) <= 1e-9
            checked += 1
        assert checked >= 12

    @pytest.mark.parametrize(
        "mdp",
        [builtin_fixture(name) for name in FIXTURE_NAMES]
        + [random_mdp(2, n_actions, 0.95, 7) for n_actions in (2, 4)],
        ids=[*FIXTURE_NAMES, "random-2x2", "random-2x4"],
    )
    def test_certified_values_pass_the_planar_oracle(self, mdp):
        probs = sample_policy_probs(mdp, 2_000, 3)
        assert _certify(mdp, probs) <= 1e-12
        hull = hull_2d(polytope_vertices_det(mdp))
        assert points_in_hull(value_function_batch(mdp, probs), hull).all()

    def test_a_target_at_another_gamma_fails(self):
        # The leaves are the independently solved vertices, so a tree built
        # at gamma * 1.01 cannot reproduce them.
        mdp = random_mdp(3, 2, 0.9, 4)
        shifted = Mdp(mdp.n_states, mdp.n_actions, mdp.rewards, mdp.transitions,
                      mdp.gamma * 1.01)
        probs = sample_policy_probs(mdp, 200, 0)
        deviation = verification._hull_deviation(
            shifted, polytope_vertices_det(mdp), probs
        )
        assert deviation > 1e-3
        assert _certify(mdp, probs) <= 1e-12
