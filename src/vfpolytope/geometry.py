"""Geometric structure of the set of attainable value functions.

Policies that agree everywhere except one state map to a monotone line
segment in value space, bracketed by one-hot choices at the free state;
fixing k states confines the image to an affine slice spanned by the
resolvent columns of the free states; and the whole image sits inside the
convex hull of the deterministic-policy values, since applying the line
theorem one state at a time writes every value as a convex combination of
them (verification's hull suite checks those weights). The operations here
construct these objects exactly, in any dimension, and support
sampling-based checks of each property; membership_gap decides exactly
whether a vector is a value at all.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, NotAgreeing, ShapeMismatch
from .evaluation import (
    _BLOCK_ENTRIES,
    _check_policy_shape,
    _gather,
    _solve_blocks,
    _switch,
    induce,
    value_function_batch,
)
from .mdp import Mdp, Policy, deterministic_policies

SAMPLE_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class AgreementSet:
    """A base policy together with the states on which others must agree."""

    base: Policy
    fixed_states: tuple[int, ...]

    def __post_init__(self) -> None:
        states = tuple(int(s) for s in self.fixed_states)
        if len(set(states)) != len(states):
            raise ValueError("fixed_states contains duplicates")
        if any(s < 0 or s >= self.base.n_states for s in states):
            raise ValueError("fixed_states out of range")
        object.__setattr__(self, "fixed_states", states)

    @property
    def free_states(self) -> tuple[int, ...]:
        fixed = set(self.fixed_states)
        return tuple(s for s in range(self.base.n_states) if s not in fixed)


@dataclass(frozen=True, eq=False)
class AffineSlice:
    """Affine space anchor + span(basis) containing an agreement class's values.

    basis has shape (|S|, m) with one column per free state; columns are the
    free-state resolvent columns of the base policy and are always linearly
    independent (they come from an invertible matrix).
    """

    anchor: np.ndarray
    basis: np.ndarray

    def __post_init__(self) -> None:
        basis = np.asarray(self.basis, dtype=float)
        if basis.size:
            norms = np.linalg.norm(basis, axis=0)
            if np.any(norms == 0) or np.linalg.svd(basis / norms, compute_uv=False)[-1] <= 1e-10:
                raise IllConditioned("slice basis is numerically rank-deficient")

    @property
    def dimension(self) -> int:
        return self.basis.shape[1] if self.basis.size else 0

    def projection_residual(self, point: np.ndarray) -> float:
        """Largest max-norm distance to this affine space.

        point is one (|S|,) point or an (n, |S|) stack of them; any other
        shape raises ShapeMismatch. One least-squares solve covers the whole
        stack: its right-hand side is the (|S|, n) block of offsets from the
        anchor.
        """
        point = np.asarray(point, dtype=float)
        n_states = len(self.anchor)
        if point.ndim not in (1, 2) or point.shape[-1] != n_states:
            raise ShapeMismatch(
                f"expected a ({n_states},) point or an (n, {n_states}) stack, "
                f"got {point.shape}"
            )
        offsets = (point - self.anchor).T
        if not offsets.size:
            return 0.0
        if self.dimension == 0:
            return float(np.max(np.abs(offsets)))
        coeffs, *_ = np.linalg.lstsq(self.basis, offsets, rcond=None)
        return float(np.max(np.abs(offsets - self.basis @ coeffs)))


@dataclass(frozen=True, eq=False)
class LineSegment:
    """Bracketing pair for policies that agree everywhere but one state.

    pi_low and pi_high are one-hot at `state`, agree with each other (and
    the generating policy) elsewhere, and satisfy v_low <= v_high
    elementwise.
    """

    pi_low: Policy
    pi_high: Policy
    v_low: np.ndarray
    v_high: np.ndarray
    state: int


@dataclass(frozen=True, eq=False)
class InterpolationCurve:
    """The reparametrization mu -> rho(mu) along a single-state mixture.

    For policies p0, p1 agreeing off one state, the value of the mixture
    mu*p1 + (1-mu)*p0 equals v0 + rho(mu) * (v1 - v0) with

        rho(mu) = mu + gamma*mu*(1-mu)*omega / (1 - omega*gamma*(1-mu))

    where, writing D = P_p0 - P_p1 (rank one, supported on the free state's
    row) and R for the resolvent of p1, omega = D[s, :] @ R[:, s]. Since
    v0 - v1 is a multiple of R[:, s], D[s, :] @ (v0 - v1) over that multiple
    is omega itself, so omega is the only coefficient. rho(0) = 0 and
    rho(1) = 1 exactly. When the rows at s are equal, or v0 and v1 differ
    by less than 1e-12, the whole mixture is constant and the curve is
    flagged.
    """

    mus: np.ndarray
    rhos: np.ndarray
    omega: float
    constant: bool


def line_segment(mdp: Mdp, policy: Policy, state: int) -> LineSegment:
    """Bracket the values of all policies agreeing with `policy` off `state`.

    The one-hot replacements of the row at `state` have values v + c_a * R_s
    with R_s >= 0 (evaluation._switch), so they are totally ordered by c_a.
    The ends are the lowest-index argmin and argmax of c, each solved
    directly.
    """
    _check_policy_shape(mdp, policy)
    _check_state(mdp, state)
    eye = np.eye(mdp.n_actions)
    _, _, c, _ = _switch(mdp, policy.probs, state, eye)
    ends = [policy.with_row(state, eye[a]) for a in (np.argmin(c), np.argmax(c))]
    v_low, v_high = value_function_batch(mdp, np.stack([p.probs for p in ends]))
    return LineSegment(*ends, v_low=v_low, v_high=v_high, state=state)


def _check_state(mdp: Mdp, state: int) -> None:
    if not 0 <= state < mdp.n_states:
        raise ShapeMismatch(f"state {state} out of range for |S|={mdp.n_states}")


def _single_disagreement_state(p0: Policy, p1: Policy, state: int) -> None:
    if p0.probs.shape != p1.probs.shape:
        raise ShapeMismatch("policies have different shapes")
    for s in range(p0.n_states):
        if s != state and not np.array_equal(p0.probs[s], p1.probs[s]):
            raise NotAgreeing(
                f"policies must agree everywhere except state {state}; "
                f"they differ at state {s}"
            )


def interpolation_curve(
    mdp: Mdp, p0: Policy, p1: Policy, state: int, grid_size: int = 101
) -> InterpolationCurve:
    """Closed-form rho(mu) for the mixture path from p0 to p1 at one state."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    _check_state(mdp, state)
    _single_disagreement_state(p0, p1, state)
    _check_policy_shape(mdp, p1)
    mus = np.linspace(0.0, 1.0, grid_size)
    # p0 is p1 with the row at state replaced, so v0 = v1 + c * R_s.
    _, r_s, c, omega = _switch(mdp, p1.probs, state, p0.probs[state][None])
    same_rows = np.array_equal(p0.probs[state], p1.probs[state])
    if same_rows or abs(c[0]) * np.max(np.abs(r_s)) < 1e-12:
        return InterpolationCurve(mus, np.zeros(grid_size), omega=0.0, constant=True)
    omega, gamma = float(omega[0]), mdp.gamma
    rhos = mus + gamma * mus * (1.0 - mus) * omega / (1.0 - omega * gamma * (1.0 - mus))
    return InterpolationCurve(mus=mus, rhos=rhos, omega=omega, constant=False)


def affine_slice(mdp: Mdp, agreement: AgreementSet) -> AffineSlice:
    """Slice containing the values of all policies in the agreement class."""
    chain = induce(mdp, agreement.base)
    free = list(agreement.free_states)
    return AffineSlice(
        anchor=chain.value,
        basis=chain.resolvent[:, free] if free else np.zeros((mdp.n_states, 0)),
    )


def _policy_blocks(mdp: Mdp, n: int, seed):
    """Yield (start, piece) over sample_policy_probs(mdp, n, seed).

    A piece is one evaluation block, max(1, _BLOCK_ENTRIES // |S|**2)
    policies. Consecutive draws from one generator give the variates of one
    draw, so a block's pieces are bit for bit the block drawn at once.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence((int(seed),))
    piece = max(1, _BLOCK_ENTRIES // mdp.n_states**2)
    for block, block_start in enumerate(range(0, n, SAMPLE_BLOCK)):
        rng = np.random.default_rng(
            np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (block,))
        )
        block_end = min(block_start + SAMPLE_BLOCK, n)
        for start in range(block_start, block_end, piece):
            size = (min(piece, block_end - start), mdp.n_states, mdp.n_actions)
            draws = rng.standard_exponential(size)
            draws /= draws.sum(axis=2, keepdims=True)
            yield start, draws


def sample_policy_probs(mdp: Mdp, n: int, seed) -> np.ndarray:
    """(n, |S|, |A|) stack of flat-Dirichlet policies, one rng stream per block.

    Sample index i belongs to block i // SAMPLE_BLOCK, whose stream is keyed
    by the seed with its spawn key extended by (block,). The seed is an int
    (spawn key ()) or a SeedSequence. Each block draws its exponential
    variates in C order and normalizes them over actions, which is a flat
    Dirichlet. The first m of n samples therefore equal an m-sample
    run, so results do not depend on how a sample is split into batches.
    The spawn key keeps every block stream distinct from a generator seeded
    with the caller's key itself, such as random_policy(mdp, seed).
    """
    out = np.empty((n, mdp.n_states, mdp.n_actions))
    for start, draws in _policy_blocks(mdp, n, seed):
        out[start : start + len(draws)] = draws
    return out


def sample_values(
    mdp: Mdp, n: int, seed, agreement: AgreementSet | None = None
) -> np.ndarray:
    """Values of n random policies, optionally constrained to an agreement class.

    The policies are sample_policy_probs(mdp, n, seed), drawn and evaluated
    one piece of _policy_blocks at a time, so only one evaluation block of
    them is held. Rows at the agreement's fixed states are overwritten by
    the base policy before evaluation. Returns an (n, |S|) array,
    deterministic per seed.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if agreement is not None:
        _check_policy_shape(mdp, agreement.base)
    values = np.empty((n, mdp.n_states))
    for start, probs in _policy_blocks(mdp, n, seed):
        if agreement is not None:
            for s in agreement.fixed_states:
                probs[:, s, :] = agreement.base.probs[s]
        values[start : start + len(probs)] = value_function_batch(mdp, probs)
    return values


def polytope_vertices_det(mdp: Mdp) -> np.ndarray:
    """(|A|^|S|, |S|) exact values of the deterministic policies.

    Row i is the value of row i of deterministic_policies(mdp), bit for bit
    that of value_function_batch on the one-hot policy.
    """
    return _solve_blocks(mdp, deterministic_policies(mdp), _gather)


def slice_rank(values: np.ndarray) -> int:
    """Rank of the span of {v_i - v_0}: singular values over 1e-8 of the largest."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] < 2:
        raise ValueError("need at least two points")
    diffs = values[1:] - values[0]
    svals = np.linalg.svd(diffs, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > 1e-8 * svals[0]))


def _q_stack(mdp: Mdp, values: np.ndarray) -> np.ndarray:
    """(n, |S|, |A|) state-action values r(s,a) + gamma * E[v(s')] of a stack."""
    return mdp.reward_matrix + mdp.gamma * np.einsum(
        "sat,nt->nsa", mdp.transition_tensor, values
    )


def membership_gap(mdp: Mdp, values) -> np.ndarray:
    """Scaled distance by which each row of an (n, |S|) stack misses the value set.

    v is the value of some policy iff min_a Q_v(s,a) <= v(s) <= max_a Q_v(s,a)
    at every state: mixing each state's actions to average Q_v(s, .) to v(s)
    gives a policy whose Bellman operator fixes v, and that fixed point is
    unique. Per point this returns the largest of min_a Q_v(s,a) - v(s) and
    v(s) - max_a Q_v(s,a) over states, divided by max(1, |v|_inf): at most 0
    on members, 0 on the boundary and positive outside, in any dimension.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != mdp.n_states:
        raise ShapeMismatch(
            f"expected an (n, {mdp.n_states}) value stack, got {values.shape}"
        )
    q = _q_stack(mdp, values)
    gap = np.maximum(q.min(axis=2) - values, values - q.max(axis=2)).max(axis=1)
    return gap / np.maximum(1.0, np.abs(values).max(axis=1))


def _ray_exit(mdp: Mdp, start: np.ndarray, rays: np.ndarray) -> np.ndarray:
    """Smallest t >= 0 at which start + t*u leaves the value set, per ray u.

    start is an (|S|,) value x and rays an (n, |S|) stack. Q_v is affine in
    v, so along a ray Q_{x+tu}(s,a) - (x+tu)(s) is the line alpha + beta*t,
    with alpha = Q_x(s,a) - x(s) and beta = gamma*P(s,a,.)u - u(s). The
    bound max_a Q >= v(s) fails exactly where all |A| of its lines are
    negative: on the open interval from the largest -alpha/beta with
    beta < 0 to the smallest with beta > 0, which is empty if some line has
    beta = 0 <= alpha. The bound v(s) >= min_a Q fails where all of
    -alpha - beta*t are negative. The exit is the smallest left end,
    clipped at 0, of the 2|S| intervals that reach past 0.
    """
    alpha = _q_stack(mdp, start[None])[0] - start[:, None]
    beta = mdp.gamma * np.einsum("sat,nt->nsa", mdp.transition_tensor, rays)
    beta -= rays[:, :, None]
    # Axis 1 picks the bound: the upper one's lines, then the lower one's.
    a = np.stack([alpha, -alpha])
    b = np.stack([beta, -beta], axis=1)
    root = np.divide(-a, b, out=np.zeros_like(b), where=b != 0.0)
    left = np.where(b < 0.0, root, -np.inf).max(axis=3)
    right = np.where(b > 0.0, root, np.inf).min(axis=3)
    held = ((b == 0.0) & (a >= 0.0)).any(axis=3)
    fails = (left < right) & (right > 0.0) & ~held
    return np.maximum(np.where(fails, left, np.inf).min(axis=(1, 2)), 0.0)


def segment_distances(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances from each row of points to the segment [a, b]."""
    pts = np.asarray(points, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.linalg.norm(pts - a, axis=1)
    t = np.clip((pts - a) @ ab / denom, 0.0, 1.0)
    return np.linalg.norm(pts - (a + t[:, None] * ab), axis=1)
