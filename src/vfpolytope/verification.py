"""Eight named property suites over the geometric structure.

The suites re-check every structural claim the package relies on (segment
images and their order, interpolation ratio, affine slices and their rank,
span equality, hull inclusion, boundary coverage, optimal dominance,
smoothness) on seeded random instances or on one given MDP; run_suite runs
one of them. Every suite runs in any dimension. Hull inclusion is certified
rather than tested against a hull: the line theorem, applied one state at a
time, gives each sampled value convex weights over the deterministic-policy
values, and the suite checks those weights against independently solved
vertices. Boundary points are where random rays first leave the value set,
read off the Q bounds in closed form. The independent oracles (truncated
series, Monte Carlo, exact rationals, a planar hull, a bisection on
membership_gap) live with the tests, in tests/oracles.py.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import EnumerationTooLarge, UnknownSuite
from .evaluation import (
    _BLOCK_ENTRIES,
    _switch,
    induce,
    optimal_value,
    value_function,
    value_function_batch,
)
from .geometry import (
    AgreementSet,
    _policy_blocks,
    _q_stack,
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

# The smooth suite's central-difference step; it compares it with its half.
SMOOTH_STEP = 1e-5


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
        return {
            "check_name": self.check_name,
            "instances_run": self.instances_run,
            "failures": self.failures,
            "max_deviation": self.max_deviation,
            "passed": self.passed,
        }


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


def _random_states(rng: np.random.Generator, n_states: int, low: int, high: int):
    """Sorted list of random states, of a size drawn from [low, high)."""
    k = int(rng.integers(low, high))
    return sorted(rng.choice(n_states, size=k, replace=False).tolist())


def _redraw(policy: Policy, states, rng: np.random.Generator) -> Policy:
    """Copy of policy with the given states' rows drawn afresh, flat Dirichlet."""
    for s in states:
        policy = policy.with_row(s, rng.dirichlet(np.ones(policy.n_actions)))
    return policy


def _grid_values(mdp: Mdp, p0: Policy, p1: Policy, grid: int) -> np.ndarray:
    """Values of mix_policies(p0, p1, mu) at grid evenly spaced mu, in one batch."""
    mus = np.linspace(0.0, 1.0, grid)[:, None, None]
    return value_function_batch(mdp, mus * p1.probs + (1.0 - mus) * p0.probs)


def semidet_family_segments(mdp: Mdp) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact value segments of each one-state-pinned policy family (2-state).

    For every (state, action), policies taking that action deterministically
    form a family whose image is the bracket segment over the other state.
    """
    if mdp.n_states != 2:
        raise ValueError("semi-deterministic family segments need |S| = 2")
    segments = []
    eye = np.eye(mdp.n_actions)
    for s in range(2):
        other = 1 - s
        for a in range(mdp.n_actions):
            base = Policy.uniform(2, mdp.n_actions).with_row(s, eye[a])
            seg = line_segment(mdp, base, other)
            segments.append((seg.v_low, seg.v_high))
    return segments


# Each check takes one instance and its stream and returns a label, a
# deviation and optionally a tolerance that overrides the suite's own.


def _check_line(mdp: Mdp, rng: np.random.Generator):
    """A policy and the mixtures over one free state stay on the bracket, ordered."""
    base = random_policy(mdp, rng)
    state = int(rng.integers(mdp.n_states))
    seg = line_segment(mdp, base, state)
    # The base keeps its arbitrary row at the free state, so its value checks
    # the bracket itself and not only the ends' own mixtures.
    images = np.vstack(
        [_grid_values(mdp, seg.pi_low, seg.pi_high, 21), value_function(mdp, base)]
    )
    length = float(np.linalg.norm(seg.v_high - seg.v_low))
    off = segment_distances(images, seg.v_low, seg.v_high).max()
    deviation = max(
        float(off / length if length >= 1e-12 else off),
        float(np.max(seg.v_low[None, :] - images)),
        float(np.max(images - seg.v_high[None, :])),
    )
    if not (
        seg.pi_low.is_deterministic_at(state) and seg.pi_high.is_deterministic_at(state)
    ):
        deviation = np.inf
    return f"state {state}", deviation


def _check_rho(mdp: Mdp, rng: np.random.Generator):
    """Closed-form interpolation ratio matches direct evaluation, monotonically."""
    p0 = random_policy(mdp, rng)
    state = int(rng.integers(mdp.n_states))
    p1 = _redraw(p0, [state], rng)
    curve = interpolation_curve(mdp, p0, p1, state, grid_size=101)
    images = _grid_values(mdp, p0, p1, 101)
    v0, v1 = images[0], images[-1]
    delta = v1 - v0
    scale = float(np.max(np.abs(delta)))
    if curve.constant or scale < 1e-12:
        return "constant", float(np.max(np.abs(images - v0[None, :]))), 1e-9
    predicted = v0[None, :] + curve.rhos[:, None] * delta[None, :]
    deviation = float(np.max(np.abs(images - predicted))) / scale
    if scale > 1e-8 and float(np.min(np.diff(curve.rhos))) <= 0.0:
        deviation = max(deviation, 1.0)
    return f"state {state}", deviation


def _check_slice(mdp: Mdp, rng: np.random.Generator):
    """Constrained samples live in the anchored affine slice, with full rank."""
    fixed = _random_states(rng, mdp.n_states, 0, mdp.n_states + 1)
    agreement = AgreementSet(base=random_policy(mdp, rng), fixed_states=fixed)
    sl = affine_slice(mdp, agreement)
    values = _sample(mdp, 200, rng, agreement)
    residual = sl.projection_residual(values)
    # With one action every policy is the same policy: the slice is a point.
    expected = mdp.n_states - len(fixed) if mdp.n_actions > 1 else 0
    rank = slice_rank(values)
    deviation = residual if rank == expected else np.inf
    return f"k={len(fixed)} rank={rank}/{expected}", deviation


def _check_span(mdp: Mdp, rng: np.random.Generator):
    """Free-state resolvent columns span the same space across an agreement class."""
    fixed = _random_states(rng, mdp.n_states, 0, mdp.n_states)
    free = [s for s in range(mdp.n_states) if s not in fixed]
    p0 = random_policy(mdp, rng)
    basis0 = induce(mdp, p0).resolvent[:, free]
    basis1 = induce(mdp, _redraw(p0, free, rng)).resolvent[:, free]
    deviation = 0.0
    for source, target in ((basis0, basis1), (basis1, basis0)):
        coeffs, *_ = np.linalg.lstsq(target, source, rcond=None)
        residual = source - target @ coeffs
        deviation = max(
            deviation,
            float(
                np.max(
                    np.linalg.norm(residual, axis=0)
                    / np.linalg.norm(source, axis=0)
                )
            ),
        )
    return f"k={len(fixed)}", deviation


def _split(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The line theorem's two ends and their weights over c's last axis.

    c holds the offsets c_a of a policy's one-hot variants along one
    direction, in which the policy itself sits at 0. The ends are the
    lowest-index argmin and argmax of c, and their weights (1 - t, t), with
    t = -c_lo / (c_hi - c_lo) (0 where every c_a is equal), mix them to 0.
    """
    ends = np.stack([c.argmin(axis=-1), c.argmax(axis=-1)], axis=-1)
    low, high = np.moveaxis(np.take_along_axis(c, ends, axis=-1), -1, 0)
    width = high - low
    t = np.divide(-low, width, out=np.zeros_like(width), where=width != 0.0)
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
    entries. The cap check and the vertices are per-MDP work: this returns
    the check of one trial's stream.
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
    state's row mixes the actions of min and max Q_v(s, .) to average v(s),
    and the tightest state is snapped to its extreme action. The policy's
    solved value must match the point; on 2-state instances the point must
    also lie on one of the one-state-pinned family segments. Distances are
    scaled by max(1, |v|_inf). The start and the segments are per-MDP work:
    this returns the check of one trial's stream.
    """
    n_states, n_actions = mdp.n_states, mdp.n_actions
    start = value_function(mdp, Policy.uniform(n_states, n_actions))
    segments = semidet_family_segments(mdp) if n_states == 2 else []

    def check(rng: np.random.Generator):
        rays = rng.standard_normal((BOUNDARY_RAYS, n_states))
        rays /= np.abs(rays).max(axis=1, keepdims=True)
        points = start + _ray_exit(mdp, start, rays)[:, None] * rays
        q = _q_stack(mdp, points)
        q_min, q_max = q.min(axis=2), q.max(axis=2)
        spread = q_max - q_min
        weight = np.clip(
            (points - q_min) / np.where(spread > 0.0, spread, 1.0), 0.0, 1.0
        )
        tight = np.argmax(np.maximum(q_min - points, points - q_max), axis=1)
        rows = np.arange(BOUNDARY_RAYS)
        weight[rows, tight] = np.round(weight[rows, tight])
        probs = np.zeros((BOUNDARY_RAYS, n_states, n_actions))
        cells = (rows[:, None], np.arange(n_states)[None, :])
        probs[cells + (q.argmin(axis=2),)] = 1.0 - weight
        probs[cells + (q.argmax(axis=2),)] += weight
        scale = np.maximum(1.0, np.abs(points).max(axis=1))
        misses = np.abs(value_function_batch(mdp, probs) - points).max(axis=1)
        deviation = float(np.max(misses / scale))
        if segments:
            dists = np.min(
                [segment_distances(points, a, b) for a, b in segments], axis=0
            )
            deviation = max(deviation, float(np.max(dists / scale)))
        return f"|S|={n_states}", deviation

    return check


def _check_dominance(mdp: Mdp, rng: np.random.Generator):
    """The optimal value dominates 50 sampled policy values elementwise."""
    v_star, _ = optimal_value(mdp)
    values = _sample(mdp, 50, rng)
    return "", max(0.0, float(np.max(values - v_star[None, :])))


def _check_smooth(mdp: Mdp, rng: np.random.Generator):
    """Directional derivatives of the policy-to-value map are step-size stable."""
    probs = rng.dirichlet(np.ones(mdp.n_actions), size=mdp.n_states)
    probs = (probs + 0.05) / (1.0 + 0.05 * mdp.n_actions)
    direction = rng.normal(size=probs.shape)
    direction -= direction.mean(axis=1, keepdims=True)
    direction /= max(1.0, np.max(np.abs(direction))) / 0.5

    def fd(step: float) -> np.ndarray:
        plus = value_function(mdp, Policy(probs + step * direction))
        minus = value_function(mdp, Policy(probs - step * direction))
        return (plus - minus) / (2.0 * step)

    coarse = fd(SMOOTH_STEP)
    fine = fd(SMOOTH_STEP / 2.0)
    if np.linalg.norm(fine) < 1e-9:
        return "(flat)", float(np.linalg.norm(coarse)), 1e-7
    return "", abs(float(np.linalg.norm(coarse) / np.linalg.norm(fine)) - 1.0)


# name -> (stream tag, check, tolerance). Tag 0 keys the random instances.
# Tags are fixed and never reused, so removing a suite moves no other
# suite's stream; 2, 6, 9, 10 and 13 belonged to removed suites.
_SUITES = {
    "line": (1, _check_line, 1e-9),
    "rho": (3, _check_rho, 1e-8),
    "slice": (4, _check_slice, 1e-9),
    "span": (5, _check_span, 1e-8),
    "hull": (7, _check_hull, 1e-9),
    "boundary": (8, _check_boundary, 1e-9),
    "dominance": (11, _check_dominance, 1e-8),
    "smooth": (12, _check_smooth, 0.1),
}

SUITE_NAMES = tuple(_SUITES)

# These suites' checks take the MDP alone, do its per-MDP work, and return
# the check of one trial's stream.
_PER_MDP = ("hull", "boundary")


def run_suite(
    suite_name: str, trials: int = 100, seed=0, mdp: Mdp | None = None
) -> CheckReport:
    """Run one named property suite over seeded random instances.

    When an MDP is given the suite checks it instead of random instances,
    and the hull and boundary suites do their per-MDP work once; on the
    random family they do it once per instance. The hull suite raises
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
            instance = mdp or _random_instance(seed, i)
            trial = (
                check(instance) if suite_name in _PER_MDP else partial(check, instance)
            )
        rng = np.random.default_rng(
            np.random.SeedSequence(int(seed), spawn_key=(tag, i))
        )
        label, deviation, *override = trial(rng)
        limit = override[0] if override else tol
        report.record(f"instance {i} {label}".rstrip(), deviation, limit)
    return report
