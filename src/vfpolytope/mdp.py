"""Finite MDP and policy data model, built-in instances, JSON I/O, random generation.

Flat-index convention used throughout: the (state, action) pair ``(s, a)``
maps to row ``s * n_actions + a``, so ``rewards[s * n_actions + a]`` is the
expected reward of taking ``a`` in ``s`` and ``transitions[s * n_actions + a, t]``
is the probability of landing in state ``t``.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    EnumerationTooLarge,
    InvalidGamma,
    InvalidStochasticRow,
    MalformedDocument,
    UnknownFixture,
)

# Row sums may deviate by up to ROW_SUM_ACCEPT on input (hand-typed decimals);
# rows off by more than ROW_SUM_KEEP are renormalized so the stored model is
# stochastic to near machine precision.
ROW_SUM_ACCEPT = 1e-9
ROW_SUM_KEEP = 1e-12

ENUMERATION_CAP = 10**6

DOCUMENT_KEYS = ("n_states", "n_actions", "gamma", "rewards", "transitions")


def _stochastic_rows(raw: np.ndarray, what: str) -> np.ndarray:
    """Validate and (if needed) renormalize a matrix of probability rows."""
    # Each check reads one whole-array reduction: the smallest and largest
    # entry (NaN if any entry is NaN), then the largest row-sum deviation.
    rows = np.asarray(raw, dtype=float)
    lowest = rows.min(initial=0.0)
    if not (math.isfinite(lowest) and math.isfinite(rows.max(initial=0.0))):
        raise InvalidStochasticRow(f"{what} contains non-finite entries")
    if lowest < 0.0:
        bad = int(np.argwhere(rows < 0.0)[0][0])
        raise InvalidStochasticRow(f"{what} row {bad} has a negative entry")
    sums = rows.sum(axis=1)
    off = np.abs(sums - 1.0)
    worst = off.max(initial=0.0)
    if worst > ROW_SUM_ACCEPT:
        bad = int(np.argmax(off))
        raise InvalidStochasticRow(
            f"{what} row {bad} sums to {float(sums[bad])!r}, "
            f"off by more than {ROW_SUM_ACCEPT}"
        )
    if worst > ROW_SUM_KEEP:
        # Renormalizing only out-of-tolerance rows keeps reload idempotent:
        # already-normalized rows round-trip bit for bit.
        rows = rows.copy()
        fix = off > ROW_SUM_KEEP
        rows[fix] = rows[fix] / sums[fix, None]
    return rows


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Mdp:
    """A finite MDP with flat (state, action) indexing.

    Attributes:
        n_states: number of states.
        n_actions: number of actions.
        rewards: flat vector of length n_states * n_actions.
        transitions: matrix of shape (n_states * n_actions, n_states); each
            row is a probability distribution over next states.
        gamma: discount factor in [0, 1).
    """

    n_states: int
    n_actions: int
    rewards: np.ndarray
    transitions: np.ndarray
    gamma: float

    def __post_init__(self) -> None:
        try:
            n_states = operator.index(self.n_states)
            n_actions = operator.index(self.n_actions)
        except TypeError:
            raise MalformedDocument("n_states and n_actions must be integers") from None
        if n_states < 1 or n_actions < 1:
            raise MalformedDocument("n_states and n_actions must be positive")
        object.__setattr__(self, "n_states", n_states)
        object.__setattr__(self, "n_actions", n_actions)
        try:
            gamma = float(self.gamma)
        except OverflowError:  # an integer too large for a float
            gamma = np.inf
        if not (np.isfinite(gamma) and 0.0 <= gamma < 1.0):
            raise InvalidGamma(f"gamma must lie in [0, 1), got {gamma!r}")
        rewards = np.asarray(self.rewards, dtype=float).reshape(-1)
        n_sa = self.n_states * self.n_actions
        if rewards.shape != (n_sa,):
            raise MalformedDocument(
                f"rewards must have length {n_sa}, got {rewards.shape[0]}"
            )
        if not np.all(np.isfinite(rewards)):
            raise MalformedDocument("rewards must be finite")
        transitions = np.asarray(self.transitions, dtype=float)
        if transitions.shape != (n_sa, self.n_states):
            raise MalformedDocument(
                f"transitions must have shape ({n_sa}, {self.n_states}), "
                f"got {transitions.shape}"
            )
        transitions = _stochastic_rows(transitions, "transitions")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "rewards", _freeze(rewards))
        object.__setattr__(self, "transitions", _freeze(transitions))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mdp):
            return NotImplemented
        return (
            self.n_states == other.n_states
            and self.n_actions == other.n_actions
            and self.gamma == other.gamma
            and np.array_equal(self.rewards, other.rewards)
            and np.array_equal(self.transitions, other.transitions)
        )

    @property
    def reward_matrix(self) -> np.ndarray:
        """Rewards reshaped to (n_states, n_actions)."""
        return self.rewards.reshape(self.n_states, self.n_actions)

    @property
    def transition_tensor(self) -> np.ndarray:
        """Transitions reshaped to (n_states, n_actions, n_states)."""
        return self.transitions.reshape(self.n_states, self.n_actions, self.n_states)

    @property
    def max_abs_reward(self) -> float:
        return float(np.max(np.abs(self.rewards)))

    def value_bound(self) -> float:
        """Max-norm bound max|r| / (1 - gamma) on any attainable value."""
        return self.max_abs_reward / (1.0 - self.gamma)


@dataclass(frozen=True, eq=False)
class Policy:
    """Per-state distribution over actions, as a row-stochastic matrix."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2:
            raise MalformedDocument("policy probs must be a 2-D matrix")
        probs = _stochastic_rows(probs, "policy")
        object.__setattr__(self, "probs", _freeze(probs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Policy):
            return NotImplemented
        return np.array_equal(self.probs, other.probs)

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]

    @property
    def n_actions(self) -> int:
        return self.probs.shape[1]

    @classmethod
    def uniform(cls, n_states: int, n_actions: int) -> "Policy":
        return cls(np.full((n_states, n_actions), 1.0 / n_actions))

    @classmethod
    def deterministic(cls, actions, n_actions: int) -> "Policy":
        """One-hot policy taking actions[s] in state s."""
        actions = np.asarray(actions, dtype=int)
        probs = np.zeros((actions.shape[0], n_actions))
        probs[np.arange(actions.shape[0]), actions] = 1.0
        return cls(probs)

    def with_row(self, state: int, row) -> "Policy":
        """Copy of this policy with one state's action distribution replaced."""
        probs = np.array(self.probs)
        probs[state] = row
        return Policy(probs)

    def is_deterministic_at(self, state: int, tol: float = 0.0) -> bool:
        return bool(np.max(self.probs[state]) >= 1.0 - tol)


# ---------------------------------------------------------------------------
# Built-in MDPs (all two-state; numbers are used verbatim by the test suite)
# ---------------------------------------------------------------------------

_FIXTURES: dict[str, tuple[int, float, list[float], list[list[float]]]] = {
    "fig2a": (
        2,
        0.9,
        [0.06, 0.38, -0.13, 0.64],
        [[0.01, 0.99], [0.92, 0.08], [0.08, 0.92], [0.70, 0.30]],
    ),
    "fig2b": (
        2,
        0.9,
        [0.88, -0.02, -0.98, 0.42],
        [[0.96, 0.04], [0.19, 0.81], [0.43, 0.57], [0.72, 0.28]],
    ),
    "fig2c": (
        3,
        0.9,
        [-0.93, -0.49, 0.63, 0.78, 0.14, 0.41],
        [[0.52, 0.48], [0.5, 0.5], [0.99, 0.01], [0.85, 0.15], [0.11, 0.89], [0.1, 0.9]],
    ),
    "fig2d": (
        2,
        0.9,
        [-0.45, -0.1, 0.5, 0.5],
        [[0.7, 0.3], [0.99, 0.01], [0.2, 0.8], [0.99, 0.01]],
    ),
    "threeaction": (
        3,
        0.8,
        [-0.1, -1.0, 0.1, 0.4, 1.5, 0.1],
        [[0.9, 0.1], [0.2, 0.8], [0.7, 0.3], [0.05, 0.95], [0.25, 0.75], [0.3, 0.7]],
    ),
}
# The dynamics figures reuse fig2d's MDP under its own catalog name.
_FIXTURES["dyn2"] = _FIXTURES["fig2d"]

FIXTURE_NAMES = tuple(_FIXTURES)


def builtin_fixture(name: str) -> Mdp:
    """Return one of the built-in two-state MDPs by catalog name."""
    try:
        n_actions, gamma, rewards, transitions = _FIXTURES[name]
    except KeyError:
        raise UnknownFixture(
            f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}"
        ) from None
    return Mdp(
        n_states=2,
        n_actions=n_actions,
        rewards=np.array(rewards),
        transitions=np.array(transitions),
        gamma=gamma,
    )


def example1_mdp(gamma: float = 0.9) -> Mdp:
    """Two-state MDP with one absorbing zero-reward state.

    In state 0, action 0 stays put with reward 0 and action 1 moves to the
    absorbing state 1 with reward 1, so mixing the two one-hot policies with
    weight mu on action 1 yields the value (mu / (1 - gamma*(1 - mu)), 0).
    """
    return Mdp(
        n_states=2,
        n_actions=2,
        rewards=np.array([0.0, 1.0, 0.0, 0.0]),
        transitions=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]),
        gamma=gamma,
    )


# ---------------------------------------------------------------------------
# JSON document I/O
# ---------------------------------------------------------------------------


def load_mdp(text: str) -> Mdp:
    """Parse the JSON MDP document format into a validated Mdp."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to read
        raise MalformedDocument(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocument("document must be a JSON object")
    missing = [k for k in DOCUMENT_KEYS if k not in doc]
    extra = [k for k in doc if k not in DOCUMENT_KEYS]
    if missing or extra:
        raise MalformedDocument(f"missing keys {missing}, unexpected keys {extra}")
    # Mdp checks integers, positivity and shapes; JSON booleans would pass
    # operator.index there, so they are refused here.
    if any(isinstance(doc[k], bool) for k in ("n_states", "n_actions")):
        raise MalformedDocument("n_states and n_actions must be integers")
    if isinstance(doc["gamma"], bool) or not isinstance(doc["gamma"], (int, float)):
        raise MalformedDocument("gamma must be a number")
    try:
        rewards = np.array(doc["rewards"], dtype=float)
        transitions = np.array(doc["transitions"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise MalformedDocument(f"arrays must be numeric: {exc}") from exc
    if rewards.ndim != 1:
        raise MalformedDocument("rewards must be a flat array")
    return Mdp(
        n_states=doc["n_states"],
        n_actions=doc["n_actions"],
        rewards=rewards,
        transitions=transitions,
        gamma=doc["gamma"],
    )


def dump_mdp(mdp: Mdp) -> str:
    """Serialize to the JSON document format; floats keep full precision."""
    doc = {
        "n_states": mdp.n_states,
        "n_actions": mdp.n_actions,
        "gamma": mdp.gamma,
        "rewards": [float(x) for x in mdp.rewards],
        "transitions": [[float(x) for x in row] for row in mdp.transitions],
    }
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# Random generation and enumeration
# ---------------------------------------------------------------------------


def random_mdp(n_states: int, n_actions: int, gamma: float, seed) -> Mdp:
    """Random MDP: rewards uniform on [-1, 1], transition rows flat-Dirichlet."""
    if n_states < 1 or n_actions < 1:
        raise MalformedDocument("n_states and n_actions must be positive")
    if not 0.0 <= gamma < 1.0:
        raise InvalidGamma(f"gamma must lie in [0, 1), got {gamma!r}")
    rng = np.random.default_rng(seed)
    n_sa = n_states * n_actions
    rewards = rng.uniform(-1.0, 1.0, size=n_sa)
    transitions = rng.dirichlet(np.ones(n_states), size=n_sa)
    return Mdp(n_states, n_actions, rewards, transitions, gamma)


def random_policy(mdp: Mdp, seed) -> Policy:
    """Policy with every row drawn from the flat Dirichlet over actions."""
    rng = np.random.default_rng(seed)
    return Policy(rng.dirichlet(np.ones(mdp.n_actions), size=mdp.n_states))


def deterministic_policies(mdp: Mdp, cap: int = ENUMERATION_CAP) -> list[Policy]:
    """All |A|^|S| deterministic policies, lexicographic in the action tuple."""
    count = mdp.n_actions**mdp.n_states
    if count > cap:
        raise EnumerationTooLarge(
            f"{mdp.n_actions}^{mdp.n_states} = {count} deterministic policies "
            f"exceeds the cap of {cap}"
        )
    return [
        Policy.deterministic(actions, mdp.n_actions)
        for actions in itertools.product(range(mdp.n_actions), repeat=mdp.n_states)
    ]
