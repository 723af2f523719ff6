"""The line theorem and the float kernels against exact rational values.

Every model and policy here has entries that are multiples of 1/16, so its
rows sum to 1 exactly in floating point and the Fraction copy that
oracles.exact_value reads is the very model the float kernels solve. The
float kernels are held to

    C * eps * (1 + gamma) / (1 - gamma) * scale,

where (1 + gamma) / (1 - gamma) bounds the condition number of every
I - gamma P_pi in the max-norm. The scale is the value bound
max|r| / (1 - gamma) for values and 1 for the mixing ratio rho. Over 300
random instances per gamma (0.5, 0.9, 0.999) the worst errors measured, as
multiples of eps * (1 + gamma) / (1 - gamma) * scale, were 0.27 for
value_function, 0.44 for _switch's variants and 0.10 for rho; C = 2 leaves
a margin of four or more.
"""
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from vfpolytope.evaluation import _switch, value_function
from vfpolytope.geometry import interpolation_curve
from vfpolytope.mdp import Mdp, Policy

from oracles import exact_value

C = 2.0
EPS = np.finfo(float).eps
GAMMAS = (0.5, 0.9, 0.999)


def dyadic_rows(rng, n_rows: int, width: int) -> np.ndarray:
    """n_rows random probability rows whose entries are multiples of 1/16."""
    cuts = np.sort(rng.integers(0, 17, size=(n_rows, width - 1)), axis=1)
    edges = np.hstack(
        [np.zeros((n_rows, 1), int), cuts, np.full((n_rows, 1), 16)]
    )
    return np.diff(edges, axis=1) / 16.0


def dyadic_instance(seed: int, gamma: float):
    """(mdp, p0, p1, state): 2-4 states, 2-3 actions; p1 redraws p0 at state."""
    rng = np.random.default_rng(seed)
    n_states, n_actions = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    mdp = Mdp(
        n_states,
        n_actions,
        rng.integers(-16, 17, size=n_states * n_actions) / 16.0,
        dyadic_rows(rng, n_states * n_actions, n_states),
        gamma,
    )
    p0 = dyadic_rows(rng, n_states, n_actions)
    state = int(rng.integers(n_states))
    p1 = p0.copy()
    p1[state] = dyadic_rows(rng, 1, n_actions)[0]
    return mdp, p0, p1, state


def one_hot_variant(probs: np.ndarray, state: int, action: int) -> np.ndarray:
    variant = probs.copy()
    variant[state] = np.eye(probs.shape[1])[action]
    return variant


def tolerance(mdp: Mdp, scale: float) -> float:
    return C * EPS * (1.0 + mdp.gamma) / (1.0 - mdp.gamma) * scale


def as_floats(values) -> np.ndarray:
    return np.array([float(x) for x in values])


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("seed", range(5))
def test_one_hot_variants_are_exactly_collinear_with_v(gamma, seed):
    mdp, probs, _, state = dyadic_instance(seed, gamma)
    v = exact_value(mdp, probs)
    diffs = [
        [x - y for x, y in zip(exact_value(mdp, one_hot_variant(probs, state, a)), v)]
        for a in range(mdp.n_actions)
    ]
    assert any(x != 0 for row in diffs for x in row)
    for a, b in combinations(diffs, 2):
        for i, j in combinations(range(mdp.n_states), 2):
            assert a[i] * b[j] - a[j] * b[i] == 0


@pytest.mark.parametrize("gamma", GAMMAS)
def test_switch_and_value_function_match_exact_values(gamma):
    for seed in range(25):
        mdp, probs, _, state = dyadic_instance(seed, gamma)
        tol = tolerance(mdp, mdp.value_bound())
        exact = as_floats(exact_value(mdp, probs))
        assert np.max(np.abs(value_function(mdp, Policy(probs)) - exact)) <= tol
        v, r_s, c, _ = _switch(mdp, probs, state, np.eye(mdp.n_actions))
        assert np.max(np.abs(v - exact)) <= tol
        for a in range(mdp.n_actions):
            variant = v + r_s * c[a]
            exact_a = as_floats(exact_value(mdp, one_hot_variant(probs, state, a)))
            assert np.max(np.abs(variant - exact_a)) <= tol, (seed, a)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_interpolation_ratio_matches_exact_mixtures(gamma):
    curves = 0
    for seed in range(10):
        mdp, p0, p1, state = dyadic_instance(seed, gamma)
        curve = interpolation_curve(mdp, Policy(p0), Policy(p1), state, grid_size=11)
        if curve.constant:
            continue
        curves += 1
        v0, v1 = exact_value(mdp, p0), exact_value(mdp, p1)
        k = max(range(mdp.n_states), key=lambda i: abs(v1[i] - v0[i]))
        tol = Fraction(tolerance(mdp, 1.0))
        for mu, rho in zip(curve.mus, curve.rhos):
            m = Fraction(mu)
            mixture = [
                [m * Fraction(b) + (1 - m) * Fraction(a) for a, b in zip(r0, r1)]
                for r0, r1 in zip(p0.tolist(), p1.tolist())
            ]
            exact_rho = (exact_value(mdp, mixture)[k] - v0[k]) / (v1[k] - v0[k])
            assert abs(Fraction(rho) - exact_rho) <= tol, (seed, float(mu))
    assert curves >= 5
