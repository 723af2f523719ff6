"""Model-based learning dynamics recorded as paths through value space.

Six algorithms: value iteration, policy iteration, vanilla and
entropy-regularized policy gradient, natural policy gradient, and the
cross-entropy method with or without covariance noise. All updates are
exact (no sampling noise except CEM's population draws, which are seeded),
and every run returns a Trajectory of exact value vectors. The loops
evaluate probability and action arrays; a Policy is built only where a
caller receives one. The three gradient methods share one loop, _ascend,
which owns its step's collapse and solve and calls its direction directly.
Natural policy gradient steps along its closed form and builds no Fisher
matrix, and CEM draws from its elites' QR factor and builds no covariance
matrix. The standalone policy gradient, the visitation distribution and the
damped Fisher solve whose limit that form is serve as test oracles in
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

# Every CEM iteration draws CEM_POPULATION members and refits on the top
# CEM_ELITES, whose centered rows give a factor of at most CEM_ELITES rows;
# the covariance starts at CEM_INIT_COV * I, a factor of no rows.
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
    """Cross-entropy method settings: covariance noise, iterations, seed."""

    noise_scale: float = 0.0
    iterations: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        # NaN fails both comparisons, so it is rejected as inf is.
        if not 0.0 <= self.noise_scale < np.inf or self.iterations < 1:
            raise ValueError("bad CEM configuration")


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
    """log pi, read as 0 where pi is 0, and the per-state entropy rows of probs.

    A pi of exactly 0 is a softmax entry that underflowed; np.log warns of
    it unless divide errors are ignored, as in _ascend's loop.
    """
    log_p = np.log(probs)
    log_p[probs == 0.0] = 0.0
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
    mdp: Mdp, init: Policy, eta: float, iterations: int, natural: bool, entropy_coeff: float = 0.0
) -> Trajectory:
    """Ascent on logits, recording exact values; one solve per step.

    A step takes the softmax of its logits, collapses it into a (k, |S|, |S|)
    system buffer allocated once per run, and makes one _lapack_solve against
    the (k, |S|, 1) right-hand side [r_pi, uniform start]. The value, bit for
    bit value_function's, is the recorded point. The grad_norm column holds
    the sup-norm of the direction taken (0 at the start). A natural run
    (k = 1) steps along _natural_direction(v). Otherwise k = 2: the second
    system is the transpose, which gives d = (1 - gamma) (I - gamma
    P_pi)^{-T} of the uniform start, the step computes _log_entropy, whose
    mean entropy fills the entropy column, and the run steps along _gradient
    with entropy_coeff. The identity, the buffers and numpy's error state
    are set once per run, not per step.

    Raises:
        NonFiniteLogits: an update left a logit NaN or infinite.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    theta = _logits_of(mdp, init)
    n = mdp.n_states
    eye = np.eye(n)
    systems = np.empty((1 if natural else 2, n, n))
    rhs = np.full((len(systems), n, 1), 1.0 / n)
    points = np.empty((iterations + 1, n))
    grad_norm = np.zeros(iterations + 1)
    columns = {"grad_norm": grad_norm}
    if not natural:
        entropy = columns["entropy"] = np.empty(iterations + 1)
    # An overflowing update is reported once, by the finiteness check below,
    # not also as numpy warnings; a log of an underflowed 0 is read as 0.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(iterations + 1):
            if k > 0:
                if natural:
                    step = _natural_direction(mdp, v)
                else:
                    step = _gradient(mdp, probs, v, d, entropy_coeff, log_entropy)
                grad_norm[k] = abs(step).max()
                theta = theta + eta * step
                if not np.isfinite(theta).all():
                    raise NonFiniteLogits("logits contain NaN or infinity")
            probs = _softmax_probs(theta)
            _collapse(mdp, probs, systems[0], rhs[0, :, 0])
            _system(mdp, systems[0], out=systems[0], eye=eye)
            systems[1:] = systems[0].T
            solved = _lapack_solve(mdp, systems, rhs)[..., 0]
            v = points[k] = solved[0]
            if not natural:
                d = (1.0 - mdp.gamma) * solved[1]
                log_entropy = _log_entropy(probs)
                # sum / n has np.mean's bits without its Python-level overhead.
                entropy[k] = log_entropy[1].sum() / n
    return Trajectory(points=points, columns=columns)


def run_policy_gradient(
    mdp: Mdp, init: Policy, eta: float, iterations: int, entropy_coeff: float = 0.0
) -> Trajectory:
    """Gradient ascent on logits from the init policy, recording values."""
    return _ascend(mdp, init, eta, iterations, natural=False, entropy_coeff=entropy_coeff)


def run_npg(mdp: Mdp, init: Policy, eta: float, iterations: int) -> Trajectory:
    """Natural-gradient ascent in closed form; each step solves for v alone."""
    return _ascend(mdp, init, eta, iterations, natural=True)


# ---------------------------------------------------------------------------
# Cross-entropy method
# ---------------------------------------------------------------------------


def run_cem(mdp: Mdp, init: Policy, config: CemConfig) -> Trajectory:
    """Gaussian population search over flattened logits.

    The covariance is held as factor.T @ factor + spread * I and never
    formed; factor starts with r = 0 rows and spread at CEM_INIT_COV.
    Iteration k draws a (CEM_POPULATION, r + dim) block z of standard
    normals, without its last dim columns while spread is 0, from one stream
    keyed by the seed with spawn_key (k,), and samples mean + z[:, :r] @
    factor + sqrt(spread) * z[:, r:]. Members are scored by the
    uniform-start value of their softmax policy. The top CEM_ELITES set the
    mean, factor becomes the R of the QR of their centered rows over
    sqrt(CEM_ELITES), their maximum-likelihood covariance in
    min(CEM_ELITES, dim) rows, and spread becomes noise_scale.

    Raises:
        NonFiniteLogits: the covariance's trace overflowed.
    """
    dim = mdp.n_states * mdp.n_actions
    shape = (mdp.n_states, mdp.n_actions)
    mean = _logits_of(mdp, init).reshape(-1)
    factor, spread = np.empty((0, dim)), CEM_INIT_COV
    points = np.empty((config.iterations + 1, mdp.n_states))
    cov_trace = np.empty(config.iterations + 1)
    best_score = np.empty(config.iterations + 1)
    for k in range(config.iterations + 1):
        if k > 0:
            rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(k,)))
            r = len(factor)
            z = rng.standard_normal((CEM_POPULATION, r + dim * (spread > 0.0)))
            samples = mean + z[:, :r] @ factor
            if spread > 0.0:
                samples += np.sqrt(spread) * z[:, r:]
            logits = samples.reshape(CEM_POPULATION, *shape)
            scores = value_function_batch(mdp, _softmax_probs(logits)).mean(axis=1)
            elite_idx = np.argsort(-scores, kind="stable")[:CEM_ELITES]
            elites = samples[elite_idx]
            mean = elites.mean(axis=0)
            factor = np.linalg.qr((elites - mean) / np.sqrt(CEM_ELITES), mode="r")
            spread = config.noise_scale
            best_score[k] = scores[elite_idx[0]]
        # An overflowing trace is reported once, by the finiteness check
        # below, not also as numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            cov_trace[k] = (factor * factor).sum() + spread * dim
        if not np.isfinite(cov_trace[k]):
            raise NonFiniteLogits("CEM covariance contains NaN or infinity")
        points[k] = _solve(mdp, _softmax_probs(mean.reshape(shape))[None])[0, :, 0]
    best_score[0] = points[0].mean()
    return Trajectory(
        points=points, columns={"cov_trace": cov_trace, "best_score": best_score}
    )
