"""Five named property suites over the geometric structure.

The suites re-check every structural claim the package relies on (the line
theorem's segment images and interpolation ratio, affine slices and their
rank, hull inclusion, boundary coverage, optimal dominance) on seeded
random instances or on one given MDP; run_suite runs one of them.
Every suite runs in any dimension. Hull inclusion is certified rather than
tested against a hull: the line theorem, applied one state at a time, gives
each sampled value convex weights over the deterministic-policy values, and
the suite checks those weights against independently solved vertices.
Boundary points are where random rays first leave the value set, read off
the Q bounds in closed form; the policy rebuilt at each one from
geometry._q_bracket, membership_gap's kernel, with its tightest state
snapped to one action, must have it as its solved value. The independent
oracles (truncated series, Monte Carlo, exact rationals, a planar hull, a
bisection on membership_gap) live with the tests, in tests/oracles.py.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EnumerationTooLarge, UnknownSuite
from .evaluation import (
    _BLOCK_ENTRIES,
    _switch,
    optimal_value,
    optimality_bellman_apply,
    q_values,
    value_function,
    value_function_batch,
)
from .geometry import (
    AgreementSet,
    _policy_blocks,
    _q_bracket,
    _ray_exit,
    affine_slice,
    interpolation_curve,
    line_segment,
    polytope_vertices_det,
    sample_values,
    segment_distances,
    slice_rank,
)
from .mdp import ENUMERATION_CAP, Mdp, Policy, random_mdp, random_policy

# The boundary suite follows this many random rays per instance.
BOUNDARY_RAYS = 64


@dataclass
class CheckReport:
    """Outcome of one suite: instance count, failures, worst deviation."""

    check_name: str
    instances_run: int
    failures: list[dict] = field(default_factory=list)
    max_deviation: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, descriptor: str, deviation: float, tolerance: float) -> None:
        """Keep the worst deviation; one that is not <= tolerance, NaN too, fails."""
        deviation = float(deviation)
        self.max_deviation = float(np.maximum(self.max_deviation, deviation))
        if not deviation <= tolerance:
            self.failures.append(
                {"instance": descriptor, "deviation": deviation, "tolerance": tolerance}
            )

    def to_dict(self) -> dict:
        """Plain JSON data; a non-finite deviation is "inf", "-inf" or "nan"."""
        return {
            "check_name": self.check_name,
            "instances_run": self.instances_run,
            "failures": [
                {**f, "deviation": _json_float(f["deviation"])} for f in self.failures
            ],
            "max_deviation": _json_float(self.max_deviation),
            "passed": self.passed,
        }


def _json_float(x: float) -> float | str:
    """x, or its name where strict JSON has no number for it."""
    return x if np.isfinite(x) else str(x)


# ---------------------------------------------------------------------------
# Suites: one check per instance, one stream per (suite, instance)
# ---------------------------------------------------------------------------


def _random_instance(seed, index: int) -> Mdp:
    """Random instance `index`, shared by every suite of one seed."""
    rng = np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=(0, int(index)))
    )
    n_states = int(rng.integers(2, 5))
    n_actions = int(rng.integers(2, 4))
    gamma = float(rng.uniform(0.3, 0.95))
    return random_mdp(n_states, n_actions, gamma, seed=rng)


def _sample(mdp: Mdp, n: int, rng: np.random.Generator, agreement=None) -> np.ndarray:
    """Values of n sampled policies, keyed by a spawn child of rng's seed."""
    return sample_values(mdp, n, rng.bit_generator.seed_seq.spawn(1)[0], agreement)


def _grid_values(mdp: Mdp, p0: Policy, p1: Policy, grid: int) -> np.ndarray:
    """Values of mu*p1 + (1-mu)*p0 at grid evenly spaced mu, in one batch."""
    mus = np.linspace(0.0, 1.0, grid)[:, None, None]
    return value_function_batch(mdp, mus * p1.probs + (1.0 - mus) * p0.probs)


# Each check takes one instance, does its per-instance work, and returns
# the check of one trial's stream, which returns a label and a deviation.


def _check_line(mdp: Mdp):
    """The line theorem: one-hot ends, mixtures on the bracket at ratio rho.

    A policy and the 21 mixtures of its bracket's ends over one free state
    lie on the segment between the ends, and the mixture at mu is
    v_low + rho(mu) * (v_high - v_low) with rho from interpolation_curve,
    increasing. Every value is first divided by max(1, |v|_inf) over the
    images; rho is compared relative to max|v_high - v_low| and is not
    checked when that is at most 1e-12 of max|v| over the images, or the
    curve is constant.
    """

    def check(rng: np.random.Generator):
        base = random_policy(mdp, rng)
        state = int(rng.integers(mdp.n_states))
        seg = line_segment(mdp, base, state)
        if not (
            seg.pi_low.is_deterministic_at(state) and seg.pi_high.is_deterministic_at(state)
        ):
            return f"state {state}", np.inf
        # The base keeps its arbitrary row at the free state, so its value checks
        # the bracket itself and not only the ends' own mixtures.
        mixtures = _grid_values(mdp, seg.pi_low, seg.pi_high, 21)
        images = np.vstack([mixtures, value_function(mdp, base)])
        # The mixtures at mu = 0 and 1 are the ends. Scaled before any norm, so
        # no square overflows.
        unit = max(1.0, float(np.abs(images).max()))
        images, v_low, v_high = images / unit, seg.v_low / unit, seg.v_high / unit
        delta = v_high - v_low
        length = float(np.linalg.norm(delta))
        off = segment_distances(images, v_low, v_high).max()
        deviation = max(
            float(off / length if length >= 1e-12 else off),
            float(np.max(v_low[None, :] - images)),
            float(np.max(images - v_high[None, :])),
        )
        curve = interpolation_curve(mdp, seg.pi_low, seg.pi_high, state, 21)
        scale, size = float(np.max(np.abs(delta))), float(np.max(np.abs(images)))
        if not curve.constant and scale > 1e-12 * size:
            predicted = v_low[None, :] + curve.rhos[:, None] * delta[None, :]
            deviation = max(deviation, float(np.max(np.abs(images[:-1] - predicted))) / scale)
            if scale > 1e-8 * size and float(np.min(np.diff(curve.rhos))) <= 0.0:
                deviation = max(deviation, 1.0)
        return f"state {state}", deviation

    return check


def _check_slice(mdp: Mdp):
    """Constrained samples live in the anchored affine slice, at the expected rank."""

    def check(rng: np.random.Generator):
        k = int(rng.integers(mdp.n_states + 1))
        fixed = sorted(rng.choice(mdp.n_states, size=k, replace=False).tolist())
        agreement = AgreementSet(base=random_policy(mdp, rng), fixed_states=fixed)
        sl = affine_slice(mdp, agreement)
        values = _sample(mdp, 200, rng, agreement)
        # Relative to max(1, |v|_inf) over the samples, as every suite's deviation.
        residual = sl.projection_residual(values) / max(1.0, float(np.abs(values).max()))
        # A free state moves the value exactly where Q_v(s, .) at the anchor is
        # not constant: v's derivative along a change d of that state's row is
        # (d . Q_v(s, .)) R_s, and the columns R_s are independent. With one
        # action no state moves it.
        spread = np.ptp(q_values(mdp, sl.anchor), axis=1)
        moves = spread > 1e-12 * max(1.0, float(np.abs(sl.anchor).max()))
        expected = int(np.delete(moves, fixed).sum())
        rank = slice_rank(values)
        deviation = residual if rank == expected else np.inf
        return f"k={len(fixed)} rank={rank}/{expected}", deviation

    return check


def _split(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The line theorem's two ends and their weights over c's last axis.

    c holds the offsets c_a of a policy's one-hot variants along one
    direction, in which the policy itself sits at 0. The ends are the
    lowest-index argmin and argmax of c, and their weights (1 - t, t), with
    t = -c_lo / (c_hi - c_lo), mix them to 0. Where the width c_hi - c_lo is
    at most 1e-12 * max(1, max|c_a|), every c_a is rounding noise about 0
    and t is 0.
    """
    ends = np.stack([c.argmin(axis=-1), c.argmax(axis=-1)], axis=-1)
    low, high = np.moveaxis(np.take_along_axis(c, ends, axis=-1), -1, 0)
    width = high - low
    # max(c_hi, -c_lo) is max|c_a|.
    floor = 1e-12 * np.maximum(1.0, np.maximum(high, -low))
    t = np.divide(-low, width, out=np.zeros_like(width), where=width > floor)
    return ends, np.stack([1.0 - t, t], axis=-1)


def _hull_deviation(mdp: Mdp, vertices: np.ndarray, probs: np.ndarray) -> float:
    """Worst error of the line-theorem hull certificate of n stacked policies.

    vertices is polytope_vertices_det(mdp) and probs an (n, |S|, |A|) stack.
    At state s a policy's one-hot variants have values v + c_a R_s
    (evaluation._switch), and v is (1 - t) v_lo + t v_hi of the extreme two
    (_split). States 0 .. |S|-2 are split in turn, one stacked _switch per
    state. That leaves 2^(|S|-1) policies per sample, deterministic but at
    the last state, whose variants there are vertices; R_s(s) >= 1 orders
    those by their last coordinate, from which t is read with no solve. The
    weights lam of the 2^|S| vertex leaves are products of the t's. The
    error is the largest of |sum lam V_leaf - V|_inf / max(1, |V|_inf),
    with V the first solve's value, of -min lam and of |sum lam - 1|.
    """
    n, n_states, n_actions = probs.shape
    eye = np.eye(n_actions)
    nodes, weights = probs[:, None], np.ones((n, 1))
    # Each node's vertex row, one base-|A| digit per split state.
    index = np.zeros((n, 1), dtype=np.intp)
    # The nodes' values at the last state; with one state, the policies'.
    last = target = value_function_batch(mdp, probs) if n_states == 1 else None
    for s in range(n_states - 1):
        v, r_s, c, _ = _switch(mdp, nodes, s, eye)
        target = v[:, 0] if s == 0 else target
        ends, split = _split(c)
        ends_c = np.take_along_axis(c, ends, axis=-1)
        last = (v[..., -1, None] + ends_c * r_s[..., -1, None]).reshape(n, -1)
        weights = (weights[..., None] * split).reshape(n, -1)
        index = (index[..., None] + ends * n_actions ** (n_states - 1 - s)).reshape(n, -1)
        nodes = np.repeat(nodes, 2, axis=1)
        nodes[:, :, s] = eye[ends.reshape(n, -1)]
    leaves = index[..., None] + np.arange(n_actions)
    ends, split = _split(vertices[leaves, -1] - last[..., None])
    weights = (weights[..., None] * split).reshape(n, -1)
    leaves = np.take_along_axis(leaves, ends, axis=-1).reshape(n, -1)
    mixture = np.einsum("nk,nks->ns", weights, vertices[leaves])
    scale = np.maximum(1.0, np.abs(target).max(axis=1))
    residual = np.abs(mixture - target).max(axis=1) / scale
    return float(np.max([
        residual.max(), -weights.min(), np.abs(weights.sum(axis=1) - 1.0).max(), 0.0
    ]))


def _check_hull(mdp: Mdp):
    """Sampled values are convex combinations of the deterministic values.

    2,000 of _sample's policies are certified by _hull_deviation, in chunks
    whose 2^|S| leaves of |S| x |S| systems stay within _BLOCK_ENTRIES
    entries. The cap check and the vertices are per-MDP work.
    """
    samples = 2_000
    leaves = samples << mdp.n_states
    if leaves > ENUMERATION_CAP:
        raise EnumerationTooLarge(
            f"hull certificate of {samples} policies at |S|={mdp.n_states} has "
            f"{leaves} vertex leaves, over the cap of {ENUMERATION_CAP}"
        )
    vertices = polytope_vertices_det(mdp)
    chunk = max(1, _BLOCK_ENTRIES // (mdp.n_states**2 << mdp.n_states))

    def check(rng: np.random.Generator):
        deviation = 0.0
        seed = rng.bit_generator.seed_seq.spawn(1)[0]
        for _, probs in _policy_blocks(mdp, samples, seed):
            for start in range(0, len(probs), chunk):
                piece = _hull_deviation(mdp, vertices, probs[start : start + chunk])
                deviation = np.maximum(deviation, piece)
        return "", float(deviation)

    return check


def _check_boundary(mdp: Mdp):
    """Exact boundary points are values of semi-deterministic policies.

    From the uniform policy's value, BOUNDARY_RAYS random rays are followed
    to where they first leave the value set, which geometry._ray_exit gives
    in closed form from the Q bounds. At each such boundary point every
    state's row mixes its extreme actions by the weight of
    geometry._q_bracket, the kernel membership_gap reads too, and the
    tightest state is snapped to its nearer end, so the policy is
    semi-deterministic. Its solved value must match the point, within
    max(1, |v|_inf) times the tolerance. The start is per-MDP work.
    """
    n_states, n_actions = mdp.n_states, mdp.n_actions
    start = value_function(mdp, Policy.uniform(n_states, n_actions))
    eye = np.eye(n_actions)

    def check(rng: np.random.Generator):
        rays = rng.standard_normal((BOUNDARY_RAYS, n_states))
        rays /= np.abs(rays).max(axis=1, keepdims=True)
        points = start + _ray_exit(mdp, start, rays)[:, None] * rays
        gap, (low, high), weight = _q_bracket(mdp, points)
        rows, tight = np.arange(BOUNDARY_RAYS), np.argmax(gap, axis=1)
        weight[rows, tight] = np.round(weight[rows, tight])
        probs = eye[low] * (1.0 - weight)[..., None] + eye[high] * weight[..., None]
        scale = np.maximum(1.0, np.abs(points).max(axis=1))
        misses = np.abs(value_function_batch(mdp, probs) - points).max(axis=1)
        return f"|S|={n_states}", float(np.max(misses / scale))

    return check


def _check_dominance(mdp: Mdp):
    """v* dominates 50 sampled values and is fixed by the optimality operator.

    Both excesses are relative to max(1, |v*|_inf). v* and its residual are
    per-MDP work.
    """
    v_star, _ = optimal_value(mdp)
    scale = max(1.0, float(np.abs(v_star).max()))
    residual = float(np.abs(optimality_bellman_apply(mdp, v_star) - v_star).max()) / scale

    def check(rng: np.random.Generator):
        return "", max(0.0, float(np.max(_sample(mdp, 50, rng) - v_star)) / scale, residual)

    return check


# name -> (stream tag, check, tolerance). Tag 0 keys the random instances.
# Tags are fixed and never reused, so removing a suite moves no other
# suite's stream; 2, 3, 5, 6, 9, 10, 12 and 13 belonged to removed suites.
_SUITES = {
    "line": (1, _check_line, 1e-9),
    "slice": (4, _check_slice, 1e-9),
    "hull": (7, _check_hull, 1e-9),
    "boundary": (8, _check_boundary, 1e-9),
    "dominance": (11, _check_dominance, 1e-8),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(
    suite_name: str, trials: int = 100, seed=0, mdp: Mdp | None = None
) -> CheckReport:
    """Run one named property suite over seeded random instances.

    When an MDP is given the suite checks it instead of random instances,
    and its check does its per-MDP work once; on the random family, once per
    instance. Every deviation is
    relative to max(1, |v|_inf), so a suite's verdict does not move with the
    rewards' scale. The hull suite raises
    EnumerationTooLarge, before it draws anything, when its certificate
    would pass the enumeration cap. Instance i draws from one stream keyed
    SeedSequence(seed, spawn_key=(tag, i)), where tag is the suite's fixed
    tag in _SUITES, so no two suites share a stream. The report is
    deterministic for a fixed (seed, trials).
    """
    try:
        tag, check, tol = _SUITES[suite_name]
    except KeyError:
        raise UnknownSuite(
            f"unknown suite {suite_name!r}; known: {', '.join(SUITE_NAMES)}"
        ) from None
    if trials < 1:
        raise ValueError("trials must be at least 1")
    report = CheckReport(check_name=suite_name, instances_run=trials)
    for i in range(trials):
        if mdp is None or i == 0:
            trial = check(mdp or _random_instance(seed, i))
        rng = np.random.default_rng(
            np.random.SeedSequence(int(seed), spawn_key=(tag, i))
        )
        label, deviation = trial(rng)
        report.record(f"instance {i} {label}".rstrip(), deviation, tol)
    return report
