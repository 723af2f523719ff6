"""Independent reference paths that only the tests use.

Each computes what a package kernel computes by another route:

- neumann_value_oracle: the truncated resolvent series sum_i (gamma P_pi)^i r_pi;
- mc_value_oracle: Monte Carlo rollouts of the policy;
- bellman_apply and mix_policies: one Bellman backup of a fixed policy, and
  the rowwise mixture of two policies;
- softmax_policy: the rowwise softmax of one logit matrix, with its own exp
  and normalisation, for the reference gradients and the runs' checks;
- sample_policy_probs: the whole (n, |S|, |A|) stack of sampled policies,
  the pieces of geometry._policy_blocks joined in order;
- discounted_distribution and policy_gradient: the visitation distribution
  and the softmax policy gradient of one logit matrix, outside any run;
- three_solve_gradient: the softmax policy gradient with separate solves for
  the value and the visitation;
- value_derivative: the directional derivative of the policy-to-value map,
  in closed form;
- fisher_matrix and damped_natural_gradient: the softmax Fisher matrix and
  the damped solve (F + damping*I) g = grad J, whose limit as damping -> 0
  is run_npg's closed-form direction (Kakade 2001);
- cem_covariance: the dense covariance F^T F + spread*I that run_cem holds
  as a factor, F being a population's centered elites over sqrt(#elites);
- fraction_solve and exact_value: policy evaluation in exact rational
  arithmetic, by Gaussian elimination over fractions.Fraction;
- hull_2d and points_in_hull: a planar convex hull by monotone chain and
  the points within 1e-9 of it, for 2-state value sets;
- family_segments: the value segments of the one-state-pinned policy
  families of a 2-state MDP, on which its value set's boundary lies;
- bisect_exit: where rays from a value leave the value set, bisected on
  membership_gap instead of read off the Q bounds' lines.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from vfpolytope.dynamics import _gradient
from vfpolytope.errors import ShapeMismatch
from vfpolytope.evaluation import (
    _check_policy_shape,
    _check_value_shape,
    _collapse,
    _lapack_solve,
    _system,
    q_values,
    value_function,
)
from vfpolytope.geometry import (
    _policy_blocks,
    line_segment,
    membership_gap,
    segment_distances,
)
from vfpolytope.mdp import Mdp, Policy


def neumann_value_oracle(mdp: Mdp, policy: Policy, terms: int = 200) -> np.ndarray:
    """Truncated series sum_{i<terms} (gamma P_pi)^i r_pi.

    Off the exact value by at most neumann_tail_bound(mdp, terms) in max-norm.
    """
    p_pi = np.einsum("sa,sat->st", policy.probs, mdp.transition_tensor)
    term = np.einsum("sa,sa->s", policy.probs, mdp.reward_matrix)
    total = term.copy()
    step = mdp.gamma * p_pi
    for _ in range(terms - 1):
        term = step @ term
        total += term
    return total


def neumann_tail_bound(mdp: Mdp, terms: int) -> float:
    """gamma^terms * max|r| / (1 - gamma): the series' truncation error bound."""
    return mdp.gamma**terms * mdp.max_abs_reward / (1.0 - mdp.gamma)


class McEstimate(NamedTuple):
    """Monte Carlo value estimate with per-state standard errors."""

    value: np.ndarray
    stderr: np.ndarray
    truncation_bound: float


def mc_value_oracle(
    mdp: Mdp,
    policy: Policy,
    horizon: int = 300,
    episodes: int = 100_000,
    seed: int = 0,
) -> McEstimate:
    """Average truncated discounted return over simulated rollouts.

    One rng stream per start state; rollouts are vectorized over episodes.
    Uses the model's expected rewards, so the only noise is transition noise.
    """
    n_states, n_actions = mdp.n_states, mdp.n_actions
    cum_actions = np.cumsum(policy.probs, axis=1)
    cum_next = np.cumsum(mdp.transitions, axis=1)
    values = np.zeros(n_states)
    stderrs = np.zeros(n_states)
    for start in range(n_states):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(start,)))
        states = np.full(episodes, start, dtype=np.int64)
        returns = np.zeros(episodes)
        disc = 1.0
        for _ in range(horizon):
            u = rng.random(episodes)
            actions = np.minimum(
                (u[:, None] > cum_actions[states]).sum(axis=1), n_actions - 1
            )
            flat = states * n_actions + actions
            returns += disc * mdp.rewards[flat]
            u = rng.random(episodes)
            states = np.minimum(
                (u[:, None] > cum_next[flat]).sum(axis=1), n_states - 1
            )
            disc *= mdp.gamma
        values[start] = returns.mean()
        spread = returns.std(ddof=1) if episodes > 1 else 0.0
        stderrs[start] = spread / np.sqrt(episodes)
    return McEstimate(values, stderrs, neumann_tail_bound(mdp, horizon))


def bellman_apply(mdp: Mdp, policy: Policy, v: np.ndarray) -> np.ndarray:
    """One application of the policy's Bellman operator: r_pi + gamma P_pi v."""
    _check_policy_shape(mdp, policy)
    v = _check_value_shape(mdp, v)
    p_pi, r_pi = _collapse(mdp, policy.probs)
    return r_pi + mdp.gamma * (p_pi @ v)


def mix_policies(p0: Policy, p1: Policy, mu: float) -> Policy:
    """Rowwise convex combination mu*p1 + (1-mu)*p0."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu!r}")
    if p0.probs.shape != p1.probs.shape:
        raise ShapeMismatch("policies have different shapes")
    return Policy(mu * p1.probs + (1.0 - mu) * p0.probs)


def softmax_policy(theta) -> Policy:
    """Rowwise softmax of a logit matrix, each row shifted by its max before exp."""
    theta = np.asarray(theta, dtype=float)
    e = np.exp(theta - theta.max(axis=1, keepdims=True))
    return Policy(e / e.sum(axis=1, keepdims=True))


def sample_policy_probs(mdp: Mdp, n: int, seed) -> np.ndarray:
    """The n policies sample_values evaluates, as one (n, |S|, |A|) stack."""
    return np.concatenate([piece for _, piece in _policy_blocks(mdp, n, seed)])


def discounted_distribution(mdp: Mdp, policy: Policy) -> np.ndarray:
    """Discounted state-visit distribution (1-gamma) * sum_t gamma^t P(s_t = s).

    The start state is uniform. The result is a probability vector.
    """
    _check_policy_shape(mdp, policy)
    rho0 = np.full(mdp.n_states, 1.0 / mdp.n_states)
    p_pi, _ = _collapse(mdp, policy.probs)
    return (1.0 - mdp.gamma) * _lapack_solve(mdp, _system(mdp, p_pi).T, rho0)


def policy_gradient(mdp: Mdp, theta: np.ndarray, entropy_coeff: float = 0.0) -> np.ndarray:
    """Exact gradient of J(theta) = mean_s V(s), from one evaluation of theta.

    The package's step arithmetic (dynamics._gradient) on v and d from one
    stacked np.linalg.solve of [I - gamma P_pi, its transpose] against
    [r_pi, uniform start], built here from the MDP's tensors with the
    package's einsum contractions, so no package solve path is involved.
    """
    n = mdp.n_states
    probs = softmax_policy(theta).probs
    p_pi = np.einsum("sa,sat->st", probs, mdp.transition_tensor)
    r_pi = np.einsum("sa,sa->s", probs, mdp.reward_matrix)
    system = np.eye(n) - mdp.gamma * p_pi
    rhs = np.stack([r_pi, np.full(n, 1.0 / n)])[..., None]
    v, d = np.linalg.solve(np.stack([system, system.T]), rhs)[..., 0]
    return _gradient(mdp, probs, v, (1.0 - mdp.gamma) * d, entropy_coeff)


def three_solve_gradient(mdp: Mdp, theta, entropy_coeff: float = 0.0) -> np.ndarray:
    """policy_gradient written out with separate solves for v and d."""
    policy = softmax_policy(theta)
    probs = policy.probs
    v = value_function(mdp, policy)
    d = discounted_distribution(mdp, policy)
    grad = (d / (1.0 - mdp.gamma))[:, None] * probs * (q_values(mdp, v) - v[:, None])
    if entropy_coeff != 0.0:
        log_p = np.log(probs)
        h = -(probs * log_p).sum(axis=1)
        grad = grad + entropy_coeff * (d[:, None] * (-probs) * (log_p + h[:, None]))
    return grad


def value_derivative(mdp: Mdp, probs: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """d/dt V(probs + t * direction) at t = 0, in closed form.

    Differentiating v = r_pi + gamma P_pi v along D gives
    (I - gamma P_pi) dv = sum_a D(s, a) Q_v(s, a). P_pi, r_pi and Q_v are
    built here from the MDP's tensors and both systems go to np.linalg.solve,
    so no package solve path is involved.
    """
    p_pi = np.einsum("sa,sat->st", probs, mdp.transition_tensor)
    r_pi = np.einsum("sa,sa->s", probs, mdp.reward_matrix)
    system = np.eye(mdp.n_states) - mdp.gamma * p_pi
    v = np.linalg.solve(system, r_pi)
    q = mdp.reward_matrix + mdp.gamma * (mdp.transition_tensor @ v)
    return np.linalg.solve(system, (direction * q).sum(axis=1))


def fisher_matrix(probs: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Softmax Fisher matrix over the flattened logits: diagonal blocks, by d.

    Block s is d(s) * (diag(pi(.|s)) - pi(.|s) pi(.|s)^T); a log-probability
    depends on its own state's row alone, so every other block is zero.
    """
    n_states, n_actions = probs.shape
    fisher = np.zeros((n_states * n_actions, n_states * n_actions))
    for s, p in enumerate(probs):
        block = slice(s * n_actions, (s + 1) * n_actions)
        fisher[block, block] = d[s] * (np.diag(p) - np.outer(p, p))
    return fisher


def damped_natural_gradient(mdp: Mdp, theta, damping: float) -> np.ndarray:
    """Solve (F + damping*I) g = grad J, with d weighting F's blocks."""
    policy = softmax_policy(theta)
    fisher = fisher_matrix(policy.probs, discounted_distribution(mdp, policy))
    grad = three_solve_gradient(mdp, theta)
    flat = np.linalg.solve(fisher + damping * np.eye(len(fisher)), grad.reshape(-1))
    return flat.reshape(grad.shape)


def cem_covariance(elites: np.ndarray, spread: float) -> np.ndarray:
    """F^T F + spread*I, with F the centered elites divided by sqrt(#elites)."""
    factor = (elites - elites.mean(axis=0)) / np.sqrt(len(elites))
    return factor.T @ factor + spread * np.eye(elites.shape[1])


def fraction_solve(a, b) -> list[Fraction]:
    """Solve a x = b exactly: Gauss-Jordan elimination over Fractions."""
    n = len(b)
    rows = [[Fraction(x) for x in row] + [Fraction(rhs)] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def exact_value(mdp: Mdp, probs) -> list[Fraction]:
    """V = (I - gamma P_pi)^{-1} r_pi in exact arithmetic.

    Every float of the model and of probs (an |S| x |A| array of floats or
    Fractions) is taken at its exact binary value, so the result is the
    value of exactly the model the float kernels see.
    """
    n_states, n_actions = mdp.n_states, mdp.n_actions
    gamma = Fraction(mdp.gamma)
    p = [[Fraction(x) for x in row] for row in mdp.transitions.tolist()]
    r = [Fraction(x) for x in mdp.rewards.tolist()]
    pi = [[Fraction(x) for x in row] for row in np.asarray(probs, dtype=object)]
    system, r_pi = [], []
    for s, row in enumerate(pi):
        sa = range(s * n_actions, (s + 1) * n_actions)
        p_row = [sum(w * p[f][t] for w, f in zip(row, sa)) for t in range(n_states)]
        system.append([int(s == t) - gamma * x for t, x in enumerate(p_row)])
        r_pi.append(sum(w * r[f] for w, f in zip(row, sa)))
    return fraction_solve(system, r_pi)


def _as_points_2d(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) point array, got shape {pts.shape}")
    if pts.shape[0] < 1:
        raise ValueError("need at least one point")
    return pts


def _cross(o: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_2d(points) -> np.ndarray:
    """Counterclockwise convex hull of planar points (monotone chain).

    Collinear points interior to an edge are dropped; duplicate points are
    collapsed; the starting vertex is the lexicographic minimum.
    """
    pts = _as_points_2d(points)
    # Lexicographic sort, then exact duplicates out (np.unique(pts, axis=0)
    # keeps the same rows, but its first call imports numpy.ma).
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(pts[1:] != pts[:-1], axis=1)
    uniq = pts[keep]
    if uniq.shape[0] == 1:
        return uniq
    lower: list[np.ndarray] = []
    for p in uniq:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in uniq[::-1]:
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def _hull_escape(points, hull) -> np.ndarray:
    """Distance by which each of the (n, 2) points lies outside the hull.

    Zero inside. For a hull of three or more counterclockwise vertices (as
    produced by hull_2d) this is the largest signed distance past any edge
    line; degenerate hulls (single point, segment) use the distance to the
    segment.
    """
    pts = _as_points_2d(points)
    hull = _as_points_2d(hull)
    if hull.shape[0] < 3:
        return segment_distances(pts, hull[0], hull[-1])
    outside = np.zeros(pts.shape[0])
    for a, b in zip(hull, np.roll(hull, -1, axis=0)):
        edge = b - a
        edge_len = float(np.linalg.norm(edge))
        if edge_len == 0.0:
            continue
        cross = edge[0] * (pts[:, 1] - a[1]) - edge[1] * (pts[:, 0] - a[0])
        outside = np.maximum(outside, -cross / edge_len)
    return outside


def points_in_hull(points, hull) -> np.ndarray:
    """Mask of the (n, 2) points inside the hull or within 1e-9 of its boundary.

    The hull must be in counterclockwise order as produced by hull_2d.
    """
    return _hull_escape(points, hull) <= 1e-9


def family_segments(mdp: Mdp) -> list[tuple[np.ndarray, np.ndarray]]:
    """Ends of the 2|A| one-state-pinned family segments of a 2-state MDP.

    The policies that take action a at state s, whatever they do at the
    other state, form a semi-deterministic family whose values fill
    line_segment's bracket over the other state. By the boundary theorem the
    value set's boundary lies on these segments.
    """
    if mdp.n_states != 2:
        raise ValueError("one-state-pinned family segments need |S| = 2")
    eye = np.eye(mdp.n_actions)
    segments = []
    for s in range(2):
        for a in range(mdp.n_actions):
            base = Policy.uniform(2, mdp.n_actions).with_row(s, eye[a])
            seg = line_segment(mdp, base, 1 - s)
            segments.append((seg.v_low, seg.v_high))
    return segments


def bisect_exit(mdp: Mdp, start, rays) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) per ray: start + lo*u is a value and start + hi*u is not.

    Each of the (n, |S|) rays is bisected 64 times on
    membership_gap(...) <= 0 from [0, 2*max|r|/(1 - gamma) + 1], whose far
    end lies past every value for rays of max-norm 1; 64 halvings shrink
    that interval to float resolution. Where the value set is not convex
    along a ray, the crossing found need not be the first one.
    """
    start = np.asarray(start, dtype=float)
    rays = np.asarray(rays, dtype=float)
    lo = np.zeros(len(rays))
    hi = np.full(len(rays), 2.0 * mdp.value_bound() + 1.0)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        inside = membership_gap(mdp, start + mid[:, None] * rays) <= 0.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return lo, hi
