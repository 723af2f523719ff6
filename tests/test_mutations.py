"""The verify suites' mutation audit, as a test.

Each row puts one fault into one function of the package. The fault is
applied with monkeypatch wherever a vfpolytope module binds the function's
name, as bench/layers.py wraps functions. Then run_suite(name, trials=10,
seed=1) must fail for at least one suite, on the random family, on dyn2 and
on threeaction, unless NO_OPS shows that the fault changes nothing there.
threeaction's three actions let a split write a value as an affine but not
convex combination, which only the hull certificate's weight terms see
(row 32). Row numbers follow the audit tables in CHANGES.md; rows 26-30 are
faults in the policy-to-value map's local shape, which the retired smooth
suite was meant to see.
"""
from __future__ import annotations

import numpy as np
import pytest

import vfpolytope
from vfpolytope import cli, dynamics, evaluation, geometry, mdp, output, verification
from vfpolytope.errors import VfpError
from vfpolytope.geometry import AffineSlice, InterpolationCurve, LineSegment
from vfpolytope.mdp import Policy, builtin_fixture
from vfpolytope.verification import SUITE_NAMES, run_suite

MODULES = (vfpolytope, cli, dynamics, evaluation, geometry, mdp, output, verification)

DYN2 = builtin_fixture("dyn2")
THREEACTION = builtin_fixture("threeaction")
# The audit's MDPs by case name; None is the random family.
CASES = {"random": None, "dyn2": DYN2, "threeaction": THREEACTION}


def after(transform):
    """A fault that passes the original's result through transform."""
    return lambda original: lambda *args, **kwargs: transform(original(*args, **kwargs))


def reward_greedy_optimum(original):
    def optimal_value(m):
        policy = Policy.deterministic(np.argmax(m.reward_matrix, axis=1), m.n_actions)
        return evaluation.value_function(m, policy), policy

    return optimal_value


def noisy_value(original):
    rng = np.random.default_rng(0)
    return lambda m, policy: original(m, policy) + 1e-6 * rng.standard_normal(m.n_states)


def slice_from_rows(original):
    # The resolvent's rows at the free states in place of its columns.
    def affine_slice(m, agreement):
        p_pi, r_pi = evaluation._collapse(m, agreement.base.probs)
        resolvent = np.linalg.inv(evaluation._system(m, p_pi))
        return AffineSlice(resolvent @ r_pi, resolvent[list(agreement.free_states)].T)

    return affine_slice


def transposed_resolvent(original):
    # The resolvent columns solved from the transposed system: its rows.
    def solve(m, policies, states=()):
        solved = original(m, policies, states)
        if len(states):  # stacks of actions come without states
            p_pi, _ = evaluation._collapse(m, policies)
            system = np.swapaxes(evaluation._system(m, p_pi), -1, -2)
            rhs = np.broadcast_to(np.eye(m.n_states)[:, list(states)], solved[..., 1:].shape)
            solved[..., 1:] = np.linalg.solve(system, rhs)
        return solved

    return solve


def curve_at_gamma_squared(original):
    def curve(m, p0, p1, state, grid_size=101):
        exact = original(m, p0, p1, state, grid_size)
        if exact.constant:
            return exact
        mus, omega, g = exact.mus, exact.omega, m.gamma**2
        rhos = mus + g * mus * (1.0 - mus) * omega / (1.0 - omega * g * (1.0 - mus))
        return InterpolationCurve(mus, rhos, omega, False)

    return curve


def last_row_shifted(values):
    values = values.copy()
    values[-1] += 1e-7
    return values


def blocks_over_states(original):
    def blocks(*args):
        for start, draws in original(*args):
            yield start, draws / draws.sum(axis=1, keepdims=True)

    return blocks


def coarse_split_floor(original):
    # The split's floor at 1e-3: offsets that close are mixed as if equal.
    def split(c):
        ends, weights = original(c)
        flat = np.ptp(c, axis=-1) <= 1e-3 * np.maximum(1.0, np.abs(c).max(axis=-1))
        return ends, np.where(flat[..., None], [1.0, 0.0], weights)

    return split


def second_largest_split(original):
    # The argmin and the second-largest offset: t still mixes the ends to
    # the value, but past the high end, with a negative weight.
    def split(c):
        ends = np.stack([c.argmin(axis=-1), np.argsort(c, axis=-1)[..., -2]], axis=-1)
        low, high = np.moveaxis(np.take_along_axis(c, ends, axis=-1), -1, 0)
        t = np.divide(-low, high - low, out=np.zeros_like(low), where=high != low)
        return ends, np.stack([1.0 - t, t], axis=-1)

    return split


def rounded_collapse(original):
    return lambda m, probs, *out: original(m, np.round(probs, 4), *out)


def squared_collapse(original):
    return lambda m, probs, *out: original(m, np.square(probs), *out)


def kinked_value(original):
    def value_function(m, policy):
        kink = np.abs(policy.probs - 1.0 / m.n_actions).max()
        return original(m, policy) + 1e-6 * kink

    return value_function


def shrunk_value(original):
    def value_function(m, policy):
        mixed = 0.999 * policy.probs + 0.001 / m.n_actions
        return original(m, Policy(mixed))

    return value_function


# (row, owner, name, fault): fault maps the original function to its mutant.
ROWS = [
    (1, evaluation, "_switch", after(lambda r: (r[0], r[1], r[2] * 1.001, r[3]))),
    (2, evaluation, "_switch", after(lambda r: (r[0], r[1], r[2], -r[3]))),
    (3, evaluation, "q_values", lambda original: lambda m, v: original(m, v)
        + 0.001 * m.gamma * evaluation._expected(m, np.asarray(v, dtype=float))),
    (4, geometry, "slice_rank", after(lambda rank: rank - 1)),
    (5, evaluation, "optimal_value", reward_greedy_optimum),
    (6, evaluation, "value_function", noisy_value),
    (7, evaluation, "_collapse", after(lambda r: (r[0], r[1] * 2.0))),
    (8, evaluation, "_collapse", after(lambda r: (r[0], np.roll(r[1], 1, axis=-1)))),
    (9, geometry, "line_segment",
        after(lambda s: LineSegment(s.pi_low, s.pi_low, s.v_low, s.v_low))),
    (10, geometry, "line_segment",
        after(lambda s: LineSegment(s.pi_high, s.pi_low, s.v_high, s.v_low))),
    (11, evaluation, "_gather", lambda original: lambda m, actions, *out: original(
        m, (np.asarray(actions) + 1) % m.n_actions, *out)),
    (12, evaluation, "_system",
        lambda original: lambda m, p_pi, out=None: original(m, p_pi * 1.001, out)),
    (13, evaluation, "_lapack_solve", after(lambda x: x + 1e-7)),
    (14, evaluation, "_solve", after(lambda v: np.roll(v, 1, axis=0))),
    (15, geometry, "sample_values",
        lambda original: lambda m, n, seed, agreement=None: original(m, n, seed)),
    (16, geometry, "affine_slice", slice_from_rows),
    (17, evaluation, "_solve", transposed_resolvent),
    (19, geometry, "interpolation_curve", curve_at_gamma_squared),
    (20, geometry, "_ray_exit", after(lambda t: t * 0.99)),
    (21, evaluation, "value_function_batch", after(last_row_shifted)),
    (22, geometry, "_policy_blocks", blocks_over_states),
    (24, Policy, "with_row", lambda original: lambda self, state, row: original(
        self, (state + 1) % self.n_states, row)),
    (25, geometry, "interpolation_curve", after(lambda c: c if c.constant else
        InterpolationCurve(c.mus, c.rhos**1.001, c.omega, False))),
    (26, evaluation, "_collapse", rounded_collapse),
    (27, evaluation, "_collapse", squared_collapse),
    (28, evaluation, "value_function", kinked_value),
    (29, evaluation, "value_function", after(lambda v: np.round(v, 8))),
    (30, evaluation, "value_function", shrunk_value),
    (31, verification, "_split", coarse_split_floor),
    (32, verification, "_split", second_largest_split),
]


def threeaction_optimum():
    v_star, policy = evaluation.optimal_value(THREEACTION)
    return v_star, policy.probs


def threeaction_reports():
    return [run_suite(suite, trials=10, seed=1, mdp=THREEACTION).to_dict()
            for suite in SUITE_NAMES]


# (row, case) -> a call whose result the row's fault leaves unchanged on that
# case, so that no suite can fail there. threeaction's reward-greedy policy
# is optimal, and its hull offsets never come within 1e-3 of each other
# (their least scaled width is 0.33), so rows 5 and 31 are no-ops there.
NO_OPS = {
    (5, "threeaction"): threeaction_optimum,
    (31, "threeaction"): threeaction_reports,
}


def apply_fault(monkeypatch, owner, name, fault) -> None:
    """Bind the mutant wherever the package binds the original."""
    original = getattr(owner, name)
    mutant = fault(original)
    monkeypatch.setattr(owner, name, mutant)
    for module in MODULES:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, mutant)


def suite_fails(suite: str, mdp_case) -> bool:
    """Whether the suite's report fails; a raise (IterationCap, say) is not a failure."""
    try:
        return not run_suite(suite, trials=10, seed=1, mdp=mdp_case).passed
    except VfpError:
        return False


@pytest.mark.parametrize("case", CASES)
def test_no_suite_fails_without_a_fault(case):
    # The control: each row below fails only through its fault.
    assert not any(suite_fails(suite, CASES[case]) for suite in SUITE_NAMES)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("row, owner, name, fault", ROWS, ids=[f"row{row[0]}" for row in ROWS])
def test_some_suite_fails_under_each_fault(row, owner, name, fault, case, monkeypatch):
    probe = NO_OPS.get((row, case))
    before = probe() if probe else ()
    apply_fault(monkeypatch, owner, name, fault)
    if probe:
        np.testing.assert_equal(probe(), before)
        return
    assert any(suite_fails(suite, CASES[case]) for suite in SUITE_NAMES)
