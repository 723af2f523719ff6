"""Exact policy evaluation and Bellman operators.

Everything here is model-based and exact: value functions come from dense
linear solves of (I - gamma * P_pi) v = r_pi, never from iteration. The
matrix is invertible for gamma < 1, because the spectral radius of
gamma * P_pi is at most gamma, but within a few ulps of gamma = 1 it can be
singular in floating point; _lapack_solve then raises IllConditioned.
Each concept has one kernel: _solve gives a stack of policies' values and
any of their resolvent columns (I - gamma * P_pi)^{-1} e_s, a block of
policies per solve, and q_values forms Q_v for one value or a stack of them.
"""
from __future__ import annotations

import numpy as np

from .errors import IllConditioned, IterationCap, ShapeMismatch
from .mdp import Mdp, Policy

# _solve solves at most this many float64 entries of P_pi
# (4 MiB) at a time, in one buffer it allocates per call, so its peak memory
# grows with n only through the (n, |S|, |A|) input and the (n, |S|, 1 + k)
# output.
_BLOCK_ENTRIES = 1 << 19

# optimal_value's policy iteration gives up after this many improvements.
# Strict improvement makes it finite; it settles in a handful in practice.
_MAX_IMPROVEMENTS = 1000


def _check_policy_shape(mdp: Mdp, policy: Policy) -> None:
    if policy.probs.shape != (mdp.n_states, mdp.n_actions):
        raise ShapeMismatch(
            f"policy shape {policy.probs.shape} does not match MDP "
            f"({mdp.n_states}, {mdp.n_actions})"
        )


def _check_value_shape(mdp: Mdp, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape != (mdp.n_states,):
        raise ShapeMismatch(f"value vector must have length {mdp.n_states}")
    return v


def _collapse(
    mdp: Mdp, probs: np.ndarray, p_out=None, r_out=None
) -> tuple[np.ndarray, np.ndarray]:
    """P_pi and r_pi of one (|S|, |A|) policy or of a stack (..., |S|, |A|).

    They are written into the arrays p_out and r_out when those are given.
    """
    p_pi = np.einsum("...sa,sat->...st", probs, mdp.transition_tensor, out=p_out)
    r_pi = np.einsum("...sa,sa->...s", probs, mdp.reward_matrix, out=r_out)
    return p_pi, r_pi


def _gather(mdp: Mdp, actions, p_out=None, r_out=None) -> tuple[np.ndarray, np.ndarray]:
    """_collapse of the one-hot policies given as (..., |S|) actions, bit for bit."""
    rows = actions + mdp.n_actions * np.arange(mdp.n_states)
    p_pi = np.take(mdp.transitions, rows, axis=0, out=p_out)
    # The one-hot sums start from +0.0, so they turn a -0.0 reward into +0.0,
    # as + 0.0 does. A -0.0 in P_pi leaves _system's matrix unchanged.
    return p_pi, np.add(np.take(mdp.rewards, rows), 0.0, out=r_out)


def _system(mdp: Mdp, p_pi: np.ndarray, out=None, eye=None) -> np.ndarray:
    """I - gamma * P_pi of one P_pi or a stack, in out if given; all solves use it.

    eye, if given, is np.eye(|S|), which a caller building many systems makes once.
    """
    system = np.multiply(p_pi, mdp.gamma, out=out)
    return np.subtract(np.eye(mdp.n_states) if eye is None else eye, system, out=system)


def _lapack_solve(mdp: Mdp, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve, looked up at each call; IllConditioned if a is singular."""
    # Every solve of the package goes through here, so a patched
    # np.linalg.solve sees each one.
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        raise IllConditioned(
            f"linear system is singular to working precision at gamma = {mdp.gamma!r}"
        ) from None


def _solve(mdp: Mdp, policies, states=()) -> np.ndarray:
    """(n, |S|, 1 + len(states)) columns of (I - gamma P_pi)^{-1} [r_pi, e_states].

    policies is an (n, |S|, |A|) stack of probabilities, or (n, |S|) actions,
    which _gather reads. Column 0 is the value, column 1 + j R[:, states[j]].
    Blocks of max(1, _BLOCK_ENTRIES // |S|**2) policies are solved in buffers
    allocated once per call, so row i has the bits of a call on policy i alone.
    """
    collapse = _gather if np.ndim(policies) == 2 else _collapse
    n, n_states, k = len(policies), mdp.n_states, len(states)
    block = max(1, _BLOCK_ENTRIES // n_states**2)
    # Complex probabilities, as a complex step takes, keep their dtype.
    dtype = np.result_type(policies, 1.0)
    systems = np.empty((min(n, block), n_states, n_states), dtype)
    rewards = np.empty((min(n, block), n_states), dtype)
    rhs = np.zeros((min(n, block), n_states, 1 + k), dtype)
    rhs[..., 1:] = np.eye(n_states)[:, list(states)]
    solved = np.empty((n, n_states, 1 + k), dtype)
    for start in range(0, n, block):
        chunk = policies[start : start + block]
        m = len(chunk)
        # Read the arrays collapse returns: they are the buffers unless it
        # made its own.
        p_pi, r_pi = collapse(mdp, chunk, systems[:m], rewards[:m])
        rhs[:m, :, 0] = r_pi
        solved[start : start + m] = _lapack_solve(mdp, _system(mdp, p_pi, out=p_pi), rhs[:m])
    return solved


def _switch(mdp: Mdp, probs: np.ndarray, state: int, rows: np.ndarray):
    """The line theorem in one solve: (v, R_s, c, omega) for replacement rows.

    Row q at `state` gives the value v + c * R_s, with R_s = (I - gamma
    P_pi)^{-1} e_s, c = (q . Q_v(s, .) - v(s)) / (1 - gamma * omega) and
    omega = (q . P(s, ., .) - P_pi(s, .)) . R_s, one entry per row of rows.
    probs is one (|S|, |A|) policy or a (..., |S|, |A|) stack; every output
    gains its leading axes, and each policy of a stack gets the bits of its
    own call.
    """
    # R_s >= 0 and the denominator is positive (the determinant lemma on two
    # nonsingular M-matrices), so the variants are ordered by the scalar.
    flat = probs.reshape((-1,) + probs.shape[-2:])
    solved = _solve(mdp, flat, [state]).reshape(probs.shape[:-1] + (2,))
    v, r_s = solved[..., 0], solved[..., 1]
    q = q_values(mdp, v)[..., state, :]
    num = (rows @ q[..., None])[..., 0] - v[..., state, None]
    # One einsum for P_pi's row at state and the replacement rows, so one
    # row's omega has the bits of the same product from two whole collapses.
    transitions = mdp.transition_tensor[state]
    p_row = np.einsum("...a,at->...t", probs[..., state, :], transitions)
    step = np.einsum("ra,at->rt", rows, transitions) - p_row[..., None, :]
    omega = (step @ r_s[..., None])[..., 0]
    return v, r_s, num / (1.0 - mdp.gamma * omega), omega


def value_function(mdp: Mdp, policy: Policy) -> np.ndarray:
    """Exact value of a policy via a dense linear solve."""
    _check_policy_shape(mdp, policy)
    return _solve(mdp, policy.probs[None])[0, :, 0]


def value_function_batch(mdp: Mdp, probs: np.ndarray) -> np.ndarray:
    """(n, |S|) exact values of an (n, |S|, |A|) policy stack, by _solve.

    Rows are trusted, not re-validated.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 3 or probs.shape[1:] != (mdp.n_states, mdp.n_actions):
        raise ShapeMismatch(
            f"expected (n, {mdp.n_states}, {mdp.n_actions}) policies, got {probs.shape}"
        )
    return _solve(mdp, probs)[..., 0]


def _expected(mdp: Mdp, v: np.ndarray) -> np.ndarray:
    """E[v(s')] under each P(s, a, .): (..., |S|, |A|) for a (..., |S|) v."""
    return (mdp.transition_tensor @ v[..., None, :, None])[..., 0]


def q_values(mdp: Mdp, v: np.ndarray) -> np.ndarray:
    """State-action values r(s,a) + gamma * E[v(s')], (..., |S|, |A|) for (..., |S|) v.

    One value gives an |S| x |A| matrix and a stack one matrix per value,
    each with the bits of its own call. This is the package's only Q kernel.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (mdp.n_states,):
        raise ShapeMismatch(f"value vector must have length {mdp.n_states}")
    return mdp.reward_matrix + mdp.gamma * _expected(mdp, v)


def optimality_bellman_apply(mdp: Mdp, v: np.ndarray) -> np.ndarray:
    """One application of the optimality operator: max_a Q_v(s, a) per state."""
    # Q_v at the lowest-index argmax, not q.max: where -0.0 ties +0.0 the
    # two differ in the sign of the zero.
    q = q_values(mdp, _check_value_shape(mdp, v))
    return q[np.arange(mdp.n_states), np.argmax(q, axis=1)]


def _policy_iteration(mdp: Mdp, actions):
    """Policy iteration with exact evaluation (Puterman 1994, sec. 6.4).

    Starts from the deterministic policy taking actions[s] in state s and
    yields (v, Q_v) for each policy it evaluates. A state switches to its
    greedy action only when that gains more than 1e-10 * max(1, |v|_inf)
    over the current action, so rounding noise does not make it cycle and
    its cost does not grow as gamma nears 1. Stops after the first policy at
    which no state switches.

    Raises:
        IterationCap: no settled policy after _MAX_IMPROVEMENTS evaluations.
    """
    states = np.arange(mdp.n_states)
    for _ in range(_MAX_IMPROVEMENTS):
        v = _solve(mdp, actions[None])[0, :, 0]
        q = q_values(mdp, v)
        yield v, q
        best = np.argmax(q, axis=1)
        gain = q[states, best] - q[states, actions]
        switch = gain > 1e-10 * max(1.0, float(np.max(np.abs(v))))
        if not switch.any():
            return
        actions = np.where(switch, best, actions)
    raise IterationCap(
        f"policy iteration did not settle in {_MAX_IMPROVEMENTS} improvement steps"
    )


def optimal_value(mdp: Mdp) -> tuple[np.ndarray, Policy]:
    """Optimal value and a greedy optimal deterministic policy.

    Runs _policy_iteration from the reward-greedy policy and returns
    the lowest-index greedy policy of the final value, evaluated exactly, so
    the returned value is the value of an actual policy.

    Raises:
        IterationCap: no settled policy after _MAX_IMPROVEMENTS
            improvement steps.
    """
    for _, q in _policy_iteration(mdp, np.argmax(mdp.reward_matrix, axis=1)):
        pass
    actions = np.argmax(q, axis=1)
    greedy = Policy.deterministic(actions, mdp.n_actions)
    return _solve(mdp, actions[None])[0, :, 0], greedy
