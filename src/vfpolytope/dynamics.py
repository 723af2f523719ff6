"""Model-based learning dynamics recorded as paths through value space.

Six algorithms: value iteration, policy iteration, vanilla and
entropy-regularized policy gradient, natural policy gradient, and the
cross-entropy method with or without covariance noise. All updates are
exact (no sampling noise except CEM's population draws, which are seeded),
and every run returns a Trajectory of exact value vectors. The loops
evaluate probability and action arrays; a Policy is built only where a
caller receives one. The three gradient methods share one loop, _ascend,
which owns its step's collapse and solve. Natural policy gradient steps
along its closed form and builds no Fisher matrix. The
standalone policy gradient, the visitation distribution and the damped
Fisher solve whose limit that form is serve as test oracles in
tests/oracles.py.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteLogits, ShapeMismatch
from .evaluation import (
    _check_value_shape,
    _collapse,
    _lapack_solve,
    _policy_iteration,
    _solve,
    _system,
    optimal_value,
    optimality_bellman_apply,
    q_values,
    value_function_batch,
)
from .mdp import Mdp, Policy

INIT_KINDS = ("vertex", "boundary", "interior")

# resolve_init smooths one-hot rows by this much toward uniform.
INIT_SMOOTHING = 0.01

# Every CEM iteration draws CEM_POPULATION members, refits on the top
# CEM_ELITES, and the covariance starts at CEM_INIT_COV * I.
CEM_POPULATION = 500
CEM_ELITES = 50
CEM_INIT_COV = 0.1


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Ordered value-space points of a run and named per-point columns.

    columns maps a name to one float per point. Its step_norm column, the
    sup-norm distance from the previous point (0 for the first), is derived
    from points and replaces any given one.
    """

    points: np.ndarray
    columns: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 2 or points.shape[0] < 1:
            raise ValueError("trajectory needs at least one point")
        columns = {k: np.asarray(c, dtype=float) for k, c in self.columns.items()}
        for name, column in columns.items():
            if column.shape != (len(points),):
                raise ValueError(
                    f"column {name!r} has shape {column.shape}, not ({len(points)},)"
                )
        columns["step_norm"] = np.zeros(len(points))
        columns["step_norm"][1:] = np.abs(np.diff(points, axis=0)).max(axis=1)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "columns", columns)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class CemConfig:
    """Cross-entropy method knobs: covariance noise, iterations, seed."""

    noise_scale: float = 0.0
    iterations: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        # NaN fails both comparisons, so it is rejected as inf is.
        if not 0.0 <= self.noise_scale < np.inf or self.iterations < 1:
            raise ValueError("bad CEM configuration")


def softmax_policy(theta: np.ndarray) -> Policy:
    """Rowwise softmax of a logit matrix, stabilized by max subtraction."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 2:
        raise ShapeMismatch("logits must be a 2-D matrix")
    if not np.all(np.isfinite(theta)):
        raise NonFiniteLogits("logits contain NaN or infinity")
    return Policy(_softmax_probs(theta))


def _softmax_probs(theta: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, stabilized by max subtraction."""
    e = np.exp(theta - theta.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _smoothed_one_hot(actions, n_actions: int) -> np.ndarray:
    """Rows one-hot at actions, each smoothed by INIT_SMOOTHING toward uniform."""
    rows = np.full((len(actions), n_actions), INIT_SMOOTHING / n_actions)
    rows[np.arange(len(actions)), actions] += 1.0 - INIT_SMOOTHING
    return rows


def resolve_init(mdp: Mdp, kind: str) -> Policy:
    """The policy a run starts from: near a vertex, near a boundary, or interior.

    vertex smooths the greedy optimal deterministic policy by INIT_SMOOTHING
    toward uniform; boundary pins state 0 toward action 0 the same way and
    leaves the rest uniform; interior is the uniform policy. Softmax runs
    cannot start exactly on the boundary, hence the smoothing.
    """
    if kind not in INIT_KINDS:
        raise ValueError(f"unknown init kind {kind!r}; known: {INIT_KINDS}")
    if kind == "interior":
        return Policy.uniform(mdp.n_states, mdp.n_actions)
    if kind == "vertex":
        _, greedy = optimal_value(mdp)
        best_actions = np.argmax(greedy.probs, axis=1)
        return Policy(_smoothed_one_hot(best_actions, mdp.n_actions))
    probs = np.full((mdp.n_states, mdp.n_actions), 1.0 / mdp.n_actions)
    probs[:1] = _smoothed_one_hot([0], mdp.n_actions)
    return Policy(probs)


# ---------------------------------------------------------------------------
# Value-space methods
# ---------------------------------------------------------------------------


def run_value_iteration(mdp: Mdp, v0: np.ndarray, iterations: int) -> Trajectory:
    """Iterate the optimality operator from v0, recording every iterate.

    Stops early once the sup-norm step is below 1e-10. Iterates are raw
    vectors and need not be the value of any policy.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    v = _check_value_shape(mdp, v0)
    points = [v]
    for _ in range(iterations):
        v_next = optimality_bellman_apply(mdp, v)
        points.append(v_next)
        if np.max(np.abs(v_next - v)) < 1e-10:
            break
        v = v_next
    return Trajectory(points=np.stack(points), columns={})


def run_policy_iteration(mdp: Mdp, v0: np.ndarray) -> Trajectory:
    """Exact policy iteration from the greedy policy of v0.

    Runs optimal_value's policy iteration, with its switch rule and its cap,
    from argmax Q_v0 and records v0 and then each evaluated policy's value,
    so every point after v0 is the exact value of a deterministic policy.

    Raises:
        IterationCap: the policy did not settle within the cap.
    """
    v = _check_value_shape(mdp, v0)
    steps = _policy_iteration(mdp, np.argmax(q_values(mdp, v), axis=1))
    points = [v, *(v_next for v_next, _ in steps)]
    return Trajectory(points=np.stack(points), columns={})


# ---------------------------------------------------------------------------
# Policy-gradient family
# ---------------------------------------------------------------------------


def _log_entropy(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log pi, read as 0 where pi is 0, and the per-state entropy rows of probs."""
    log_p = np.log(probs, out=np.zeros_like(probs), where=probs > 0.0)
    return log_p, -(probs * log_p).sum(axis=1)


def _gradient(
    mdp: Mdp,
    probs: np.ndarray,
    v: np.ndarray,
    d: np.ndarray,
    entropy_coeff: float = 0.0,
    log_entropy: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Exact softmax policy gradient from a step's policy, value and visitation.

    For J(theta) = mean_s V(s) the tabular softmax gradient is

        dJ/dtheta[s, a] = d(s)/(1-gamma) * pi(a|s) * (Q(s, a) - V(s))

    with d the discounted visitation distribution from a uniform start.
    A nonzero entropy_coeff adds that multiple of the gradient of
    sum_s d(s) * H(pi(.|s)), holding d fixed within the step. log_entropy,
    when given, is _log_entropy(probs).
    """
    q = q_values(mdp, v)
    advantage = q - v[:, None]
    grad = (d / (1.0 - mdp.gamma))[:, None] * probs * advantage
    if entropy_coeff != 0.0:
        log_p, h = _log_entropy(probs) if log_entropy is None else log_entropy
        grad_h = d[:, None] * (-probs) * (log_p + h[:, None])
        grad = grad + entropy_coeff * grad_h
    return grad


def _natural_direction(mdp: Mdp, v: np.ndarray) -> np.ndarray:
    """Undamped natural gradient of the tabular softmax, from the value alone.

    Where d > 0, A / (1 - gamma) solves F g = grad J up to a per-state constant
    (Kakade 2001; Agarwal et al. 2019); centering Q_v's rows picks the limit of
    the damped solve as damping goes to 0.
    """
    q = q_values(mdp, v)
    return (q - q.mean(axis=1, keepdims=True)) / (1.0 - mdp.gamma)


def _logits_of(mdp: Mdp, policy: Policy) -> np.ndarray:
    """The logits every softmax run starts from: the log of its start policy."""
    if np.any(policy.probs <= 0.0):
        raise NonFiniteLogits(
            "softmax runs need strictly positive initial probabilities"
        )
    if policy.probs.shape != (mdp.n_states, mdp.n_actions):
        raise ShapeMismatch(
            f"logits must have shape ({mdp.n_states}, {mdp.n_actions})"
        )
    return np.log(policy.probs)


def _ascend(
    mdp: Mdp, init: Policy, eta: float, iterations: int, direction, visitation: bool
) -> Trajectory:
    """Ascent on logits, recording exact values; one solve per step.

    A step takes the softmax of its logits, collapses it into a (k, |S|, |S|)
    system buffer allocated once per run, and makes one _lapack_solve against
    the (k, |S|, 1) right-hand side [r_pi, uniform start]. The value, bit for
    bit value_function's, is the recorded point, and direction(probs, v, d,
    log_entropy) reuses the step's arrays. The grad_norm column holds the
    sup-norm of the direction taken (0 at the start). With visitation (the
    policy-gradient runs) k = 2: the second system is the transpose, which
    gives d = (1 - gamma) (I - gamma P_pi)^{-T} of the uniform start, and
    the step computes _log_entropy, whose mean entropy fills the entropy
    column. Without it k = 1, d and log_entropy are None and there is no
    entropy column.

    Raises:
        NonFiniteLogits: an update left a logit NaN or infinite.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    theta = _logits_of(mdp, init)
    n = mdp.n_states
    systems = np.empty((2 if visitation else 1, n, n))
    rhs = np.full((len(systems), n, 1), 1.0 / n)
    points = np.empty((iterations + 1, n))
    columns = {"grad_norm": np.zeros(iterations + 1)}
    if visitation:
        columns["entropy"] = np.empty(iterations + 1)
    d = log_entropy = None
    for k in range(iterations + 1):
        if k > 0:
            step = direction(probs, v, d, log_entropy)
            columns["grad_norm"][k] = abs(step).max()
            # An overflowing update is reported once, by the finiteness check
            # below, not also as a numpy warning.
            with np.errstate(over="ignore", invalid="ignore"):
                theta = theta + eta * step
            if not np.isfinite(theta).all():
                raise NonFiniteLogits("logits contain NaN or infinity")
        probs = _softmax_probs(theta)
        _collapse(mdp, probs, systems[0], rhs[0, :, 0])
        _system(mdp, systems[0], out=systems[0])
        systems[1:] = systems[0].T
        solved = _lapack_solve(mdp, systems, rhs)[..., 0]
        v = points[k] = solved[0]
        if visitation:
            d = (1.0 - mdp.gamma) * solved[1]
            log_entropy = _log_entropy(probs)
            # sum / n has np.mean's bits without its Python-level overhead.
            columns["entropy"][k] = log_entropy[1].sum() / n
    return Trajectory(points=points, columns=columns)


def run_policy_gradient(
    mdp: Mdp, init: Policy, eta: float, iterations: int, entropy_coeff: float = 0.0
) -> Trajectory:
    """Gradient ascent on logits from the init policy, recording values."""

    def direction(probs, v, d, log_entropy):
        return _gradient(mdp, probs, v, d, entropy_coeff, log_entropy)

    return _ascend(mdp, init, eta, iterations, direction, visitation=True)


def run_npg(mdp: Mdp, init: Policy, eta: float, iterations: int) -> Trajectory:
    """Natural-gradient ascent in closed form; each step solves for v alone."""

    def direction(probs, v, d, log_entropy):
        return _natural_direction(mdp, v)

    return _ascend(mdp, init, eta, iterations, direction, visitation=False)


# ---------------------------------------------------------------------------
# Cross-entropy method
# ---------------------------------------------------------------------------


def _cov_sqrt(cov: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(cov)
    return u * np.sqrt(np.clip(w, 0.0, None))


def run_cem(mdp: Mdp, init: Policy, config: CemConfig) -> Trajectory:
    """Gaussian population search over flattened logits.

    The mean starts at the init policy's logits and the covariance at
    CEM_INIT_COV * I. Each iteration samples CEM_POPULATION parameter
    vectors, scores them by the uniform-start value of their softmax policy,
    refits mean and full maximum-likelihood covariance on the top
    CEM_ELITES, then adds noise_scale * I to the covariance. Iteration k
    draws its whole (CEM_POPULATION, dim) block of standard normals from one
    stream, keyed by the seed with spawn_key (k,).

    Raises:
        NonFiniteLogits: the covariance or its trace overflowed.
    """
    dim = mdp.n_states * mdp.n_actions
    mean = _logits_of(mdp, init).reshape(-1)
    cov = CEM_INIT_COV * np.eye(dim)
    shape = (mdp.n_states, mdp.n_actions)

    def mean_value(m: np.ndarray) -> np.ndarray:
        return _solve(mdp, _softmax_probs(m.reshape(shape)))

    points = np.empty((config.iterations + 1, mdp.n_states))
    cov_trace = np.empty(config.iterations + 1)
    best_score = np.empty(config.iterations + 1)
    points[0] = mean_value(mean)
    cov_trace[0] = np.trace(cov)
    best_score[0] = points[0].mean()
    for k in range(1, config.iterations + 1):
        root = _cov_sqrt(cov)
        rng = np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(k,))
        )
        z = rng.standard_normal((CEM_POPULATION, dim))
        samples = mean[None, :] + z @ root.T
        logits = samples.reshape(CEM_POPULATION, *shape)
        scores = value_function_batch(mdp, _softmax_probs(logits)).mean(axis=1)
        elite_idx = np.argsort(-scores, kind="stable")[:CEM_ELITES]
        elites = samples[elite_idx]
        new_mean = elites.mean(axis=0)
        centered = elites - new_mean[None, :]
        # An overflowing covariance is reported once, by the finiteness check
        # below, not also as numpy warnings or as eigh failing to converge.
        with np.errstate(over="ignore", invalid="ignore"):
            cov = centered.T @ centered / CEM_ELITES
            if config.noise_scale > 0.0:
                cov = cov + config.noise_scale * np.eye(dim)
            cov_trace[k] = np.trace(cov)
        if not (np.isfinite(cov).all() and np.isfinite(cov_trace[k])):
            raise NonFiniteLogits("CEM covariance contains NaN or infinity")
        mean = new_mean
        points[k] = mean_value(mean)
        best_score[k] = scores[elite_idx[0]]
    return Trajectory(
        points=points, columns={"cov_trace": cov_trace, "best_score": best_score}
    )
