"""Exact policy evaluation and Bellman operators.

Everything here is model-based and exact: value functions come from dense
linear solves of (I - gamma * P_pi) v = r_pi, never from iteration. The
matrix is always invertible because the spectral radius of gamma * P_pi is
at most gamma < 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IterationCap, ShapeMismatch
from .mdp import Mdp, Policy

# value_function_batch solves at most this many float64 entries of P_pi
# (4 MiB) at a time, in one buffer it allocates per call, so its peak memory
# grows with n only through the (n, |S|, |A|) input and the (n, |S|) output.
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


@dataclass(frozen=True, eq=False)
class InducedChain:
    """State-to-state dynamics of a fixed policy.

    Attributes:
        p_pi: |S| x |S| transition matrix under the policy.
        r_pi: per-state expected reward vector.
        resolvent: (I - gamma * p_pi)^{-1}; column i spans the direction in
            which the value can move when only state i's action distribution
            is free.
    """

    p_pi: np.ndarray
    r_pi: np.ndarray
    resolvent: np.ndarray

    @property
    def value(self) -> np.ndarray:
        return self.resolvent @ self.r_pi


def _collapse(
    mdp: Mdp, probs: np.ndarray, p_out=None, r_out=None
) -> tuple[np.ndarray, np.ndarray]:
    """P_pi and r_pi of one (|S|, |A|) policy or of a stack (..., |S|, |A|).

    They are written into the arrays p_out and r_out when those are given.
    """
    p_pi = np.einsum("...sa,sat->...st", probs, mdp.transition_tensor, out=p_out)
    r_pi = np.einsum("...sa,sa->...s", probs, mdp.reward_matrix, out=r_out)
    return p_pi, r_pi


def _system(mdp: Mdp, p_pi: np.ndarray, out=None) -> np.ndarray:
    """I - gamma * P_pi of one P_pi or a stack, in out if given; all solves use it."""
    system = np.multiply(p_pi, mdp.gamma, out=out)
    return np.subtract(np.eye(mdp.n_states), system, out=system)


def _solve(mdp: Mdp, probs: np.ndarray, systems=None, rewards=None) -> np.ndarray:
    """Exact values of one policy or a stack, shaped like probs minus |A|.

    The systems and r_pi are built in the buffers systems and rewards if given.
    """
    systems, rewards = _collapse(mdp, probs, systems, rewards)
    _system(mdp, systems, out=systems)
    return np.linalg.solve(systems, rewards[..., None])[..., 0]


def induce(mdp: Mdp, policy: Policy) -> InducedChain:
    """Collapse the MDP onto a policy: P_pi, r_pi and the resolvent."""
    _check_policy_shape(mdp, policy)
    p_pi, r_pi = _collapse(mdp, policy.probs)
    resolvent = np.linalg.solve(_system(mdp, p_pi), np.eye(mdp.n_states))
    return InducedChain(p_pi=p_pi, r_pi=r_pi, resolvent=resolvent)


def value_function(mdp: Mdp, policy: Policy) -> np.ndarray:
    """Exact value of a policy via a dense linear solve."""
    _check_policy_shape(mdp, policy)
    return _solve(mdp, policy.probs)


def value_function_batch(mdp: Mdp, probs: np.ndarray) -> np.ndarray:
    """Values of many policies, evaluated in blocks of bounded size.

    Policies go through the solve in consecutive blocks of
    max(1, _BLOCK_ENTRIES // |S|**2), each built in buffers allocated once
    per call. Each policy gets the same collapse and the same LAPACK solve
    as in a single call over the whole stack, so the values are bit-for-bit
    those of value_function, whatever n is.

    Args:
        probs: array of shape (n, |S|, |A|); each [i] is a row-stochastic
            policy matrix. Rows are trusted, not re-validated.

    Returns:
        (n, |S|) array of exact values, one row per policy.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 3 or probs.shape[1:] != (mdp.n_states, mdp.n_actions):
        raise ShapeMismatch(
            f"expected (n, {mdp.n_states}, {mdp.n_actions}) policies, got {probs.shape}"
        )
    n, n_states = probs.shape[:2]
    block = max(1, _BLOCK_ENTRIES // n_states**2)
    systems = np.empty((min(n, block), n_states, n_states))
    rewards = np.empty((min(n, block), n_states))
    values = np.empty((n, n_states))
    for start in range(0, n, block):
        chunk = probs[start : start + block]
        k = len(chunk)
        values[start : start + k] = _solve(mdp, chunk, systems[:k], rewards[:k])
    return values


def bellman_apply(mdp: Mdp, policy: Policy, v: np.ndarray) -> np.ndarray:
    """One application of the policy's Bellman operator: r_pi + gamma P_pi v."""
    _check_policy_shape(mdp, policy)
    v = _check_value_shape(mdp, v)
    p_pi, r_pi = _collapse(mdp, policy.probs)
    return r_pi + mdp.gamma * (p_pi @ v)


def q_values(mdp: Mdp, v: np.ndarray) -> np.ndarray:
    """State-action values r(s,a) + gamma * E[v(s')] as an |S| x |A| matrix."""
    v = _check_value_shape(mdp, v)
    return mdp.reward_matrix + mdp.gamma * (mdp.transition_tensor @ v)


def optimality_bellman_apply(mdp: Mdp, v: np.ndarray) -> tuple[np.ndarray, Policy]:
    """One application of the optimality operator, with its greedy policy.

    Ties in the per-state max are broken toward the lowest action index.
    """
    q = q_values(mdp, v)
    greedy_actions = np.argmax(q, axis=1)
    return q[np.arange(mdp.n_states), greedy_actions], Policy.deterministic(
        greedy_actions, mdp.n_actions
    )


def _policy_iteration(mdp: Mdp, actions, tolerance: float = 1e-10):
    """Policy iteration with exact evaluation (Puterman 1994, sec. 6.4).

    Starts from the deterministic policy taking actions[s] in state s and
    yields (v, Q_v) for each policy it evaluates. A state switches to its
    greedy action only when that gains more than tolerance * max(1, |v|_inf)
    over the current action, so rounding noise does not make it cycle and
    its cost does not grow as gamma nears 1. Stops after the first policy at
    which no state switches.

    Raises:
        IterationCap: no settled policy after _MAX_IMPROVEMENTS evaluations.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    states = np.arange(mdp.n_states)
    for _ in range(_MAX_IMPROVEMENTS):
        v = value_function(mdp, Policy.deterministic(actions, mdp.n_actions))
        q = q_values(mdp, v)
        yield v, q
        best = np.argmax(q, axis=1)
        gain = q[states, best] - q[states, actions]
        switch = gain > tolerance * max(1.0, float(np.max(np.abs(v))))
        if not switch.any():
            return
        actions = np.where(switch, best, actions)
    raise IterationCap(
        f"policy iteration did not settle in {_MAX_IMPROVEMENTS} improvement steps"
    )


def optimal_value(mdp: Mdp, tolerance: float = 1e-10) -> tuple[np.ndarray, Policy]:
    """Optimal value and a greedy optimal deterministic policy.

    Runs _policy_iteration from the reward-greedy policy and returns
    the lowest-index greedy policy of the final value, evaluated exactly, so
    the returned value is the value of an actual policy.

    Raises:
        IterationCap: no settled policy after _MAX_IMPROVEMENTS
            improvement steps.
    """
    for _, q in _policy_iteration(
        mdp, np.argmax(mdp.reward_matrix, axis=1), tolerance
    ):
        pass
    greedy = Policy.deterministic(np.argmax(q, axis=1), mdp.n_actions)
    return value_function(mdp, greedy), greedy
