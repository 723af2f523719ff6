"""Independent oracles and property suites over the geometric structure.

The suites re-check every structural claim the package relies on (segment
images, total order, interpolation ratio, affine slices, span equality,
agreement zeros, hull inclusion, boundary coverage, slice rank, one-state
paths, optimal dominance, smoothness, boundedness) on seeded random
instances, and the oracles triangulate exact policy evaluation against a
truncated resolvent series and Monte Carlo rollouts.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DimensionUnsupported, UnknownSuite
from .evaluation import (
    _check_policy_shape,
    _collapse,
    induce,
    optimal_value,
    value_function,
    value_function_batch,
)
from .geometry import (
    AgreementSet,
    _hull_escape,
    _q_stack,
    affine_slice,
    hull_2d,
    interpolation_curve,
    line_segment,
    membership_gap,
    mix_policies,
    path_between,
    polytope_vertices_det,
    sample_values,
    segment_distances,
    slice_rank,
)
from .mdp import Mdp, Policy, random_mdp, random_policy

# The boundary suite bisects this many rays per instance, each this many
# times: enough halvings to shrink any starting interval to float resolution.
BOUNDARY_RAYS = 64
BOUNDARY_HALVINGS = 64

# The smooth suite's central-difference step; it compares it with its half.
SMOOTH_STEP = 1e-5


@dataclass(frozen=True)
class OracleConfig:
    """Knobs for the independent value oracles."""

    neumann_terms: int = 200
    mc_horizon: int = 300
    mc_episodes: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.neumann_terms, self.mc_horizon, self.mc_episodes) < 1:
            raise ValueError("oracle sizes must be positive")


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
        deviation = float(deviation)
        self.max_deviation = max(self.max_deviation, deviation)
        if deviation > tolerance:
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


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo value estimate with per-state standard errors."""

    value: np.ndarray
    stderr: np.ndarray
    truncation_bound: float


# ---------------------------------------------------------------------------
# Value oracles
# ---------------------------------------------------------------------------


def neumann_value_oracle(mdp: Mdp, policy: Policy, config: OracleConfig) -> np.ndarray:
    """Truncated series sum_{i<n} (gamma P_pi)^i r_pi.

    Off the exact value by at most gamma^n * max|r| / (1 - gamma) in max-norm.
    """
    _check_policy_shape(mdp, policy)
    p_pi, term = _collapse(mdp, policy.probs)
    total = term.copy()
    step = mdp.gamma * p_pi
    for _ in range(config.neumann_terms - 1):
        term = step @ term
        total += term
    return total


def neumann_tail_bound(mdp: Mdp, n_terms: int) -> float:
    return mdp.gamma**n_terms * mdp.max_abs_reward / (1.0 - mdp.gamma)


def mc_value_oracle(mdp: Mdp, policy: Policy, config: OracleConfig) -> McEstimate:
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
        rng = np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(start,))
        )
        states = np.full(config.mc_episodes, start, dtype=np.int64)
        returns = np.zeros(config.mc_episodes)
        disc = 1.0
        for _ in range(config.mc_horizon):
            u = rng.random(config.mc_episodes)
            actions = np.minimum(
                (u[:, None] > cum_actions[states]).sum(axis=1), n_actions - 1
            )
            flat = states * n_actions + actions
            returns += disc * mdp.rewards[flat]
            u = rng.random(config.mc_episodes)
            states = np.minimum(
                (u[:, None] > cum_next[flat]).sum(axis=1), n_states - 1
            )
            disc *= mdp.gamma
        values[start] = returns.mean()
        spread = returns.std(ddof=1) if config.mc_episodes > 1 else 0.0
        stderrs[start] = spread / np.sqrt(config.mc_episodes)
    bound = mdp.gamma**config.mc_horizon * mdp.max_abs_reward / (1.0 - mdp.gamma)
    return McEstimate(value=values, stderr=stderrs, truncation_bound=bound)


def compare_oracles(
    mdp: Mdp, policy: Policy, config: OracleConfig | None = None
) -> CheckReport:
    """Triangulate exact solve vs truncated series vs Monte Carlo."""
    config = config or OracleConfig()
    report = CheckReport(check_name="oracle_triangulation", instances_run=1)
    exact = value_function(mdp, policy)
    series = neumann_value_oracle(mdp, policy, config)
    series_bound = neumann_tail_bound(mdp, config.neumann_terms)
    report.record(
        "exact_vs_series",
        np.max(np.abs(exact - series)),
        series_bound + 1e-12,
    )
    mc = mc_value_oracle(mdp, policy, config)
    mc_tol = 3.0 * mc.stderr + mc.truncation_bound + 1e-12
    report.record(
        "exact_vs_mc", np.max(np.abs(exact - mc.value) - mc_tol), 0.0
    )
    report.record(
        "series_vs_mc",
        np.max(np.abs(series - mc.value) - (mc_tol + series_bound)),
        0.0,
    )
    return report


# ---------------------------------------------------------------------------
# Suites: one check per instance, one stream per (suite, instance)
# ---------------------------------------------------------------------------


def _random_instance(seed, index: int, two_state: bool = False) -> Mdp:
    """Random instance `index`, shared by every suite of one seed."""
    rng = np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=(0, int(index)))
    )
    n_states = 2 if two_state else int(rng.integers(2, 5))
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
    mixtures = np.stack(
        [mix_policies(p0, p1, mu).probs for mu in np.linspace(0.0, 1.0, grid)]
    )
    return value_function_batch(mdp, mixtures)


def _segment_deviation(images: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Largest relative off-segment distance of image points from [a, b]."""
    length = float(np.linalg.norm(b - a))
    dists = segment_distances(images, a, b)
    if length < 1e-12:
        return float(dists.max())
    return float(dists.max() / length)


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
    """Mixtures over one free state stay on the bracket segment, ordered."""
    base = random_policy(mdp, rng)
    state = int(rng.integers(mdp.n_states))
    seg = line_segment(mdp, base, state)
    images = _grid_values(mdp, seg.pi_low, seg.pi_high, 21)
    deviation = max(
        _segment_deviation(images, seg.v_low, seg.v_high),
        float(np.max(seg.v_low[None, :] - images)),
        float(np.max(images - seg.v_high[None, :])),
    )
    if not (
        seg.pi_low.is_deterministic_at(state) and seg.pi_high.is_deterministic_at(state)
    ):
        deviation = np.inf
    return f"state {state}", deviation


def _agreeing_pair(mdp: Mdp, rng: np.random.Generator) -> tuple[Policy, Policy, int]:
    """Two policies identical except at one randomly chosen state."""
    p0 = random_policy(mdp, rng)
    state = int(rng.integers(mdp.n_states))
    return p0, _redraw(p0, [state], rng), state


def _check_order(mdp: Mdp, rng: np.random.Generator):
    """Values of single-state variants are elementwise comparable."""
    p0, p1, state = _agreeing_pair(mdp, rng)
    v0 = value_function(mdp, p0)
    v1 = value_function(mdp, p1)
    deviation = min(float(np.max(v0 - v1)), float(np.max(v1 - v0)))
    return f"state {state}", max(0.0, deviation)


def _check_rho(mdp: Mdp, rng: np.random.Generator):
    """Closed-form interpolation ratio matches direct evaluation, monotonically."""
    p0, p1, state = _agreeing_pair(mdp, rng)
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
    residual = max(sl.projection_residual(v) for v in values)
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


def _check_zeros(mdp: Mdp, rng: np.random.Generator):
    """Copied rows give bitwise-equal per-state rewards and transitions."""
    fixed = _random_states(rng, mdp.n_states, 1, mdp.n_states + 1)
    p1 = random_policy(mdp, rng)
    p2 = _redraw(p1, [s for s in range(mdp.n_states) if s not in fixed], rng)
    p_pi1, r_pi1 = _collapse(mdp, p1.probs)
    p_pi2, r_pi2 = _collapse(mdp, p2.probs)
    deviation = max(
        float(np.max(np.abs(r_pi1[fixed] - r_pi2[fixed]))),
        float(np.max(np.abs(p_pi1[fixed] - p_pi2[fixed]))),
    )
    return f"fixed={fixed}", deviation


def _check_hull(mdp: Mdp, rng: np.random.Generator, samples: int = 2_000):
    """Sampled values stay inside the deterministic-vertex hull (2-state)."""
    vertices = np.stack([v for _, v in polytope_vertices_det(mdp)])
    hull = hull_2d(vertices)
    cloud = _sample(mdp, samples, rng)
    return "", float(np.max(_hull_escape(cloud, hull)))


def _check_boundary(mdp: Mdp, rng: np.random.Generator):
    """Exact boundary points are values of semi-deterministic policies.

    From the uniform policy's value, BOUNDARY_RAYS random rays are bisected
    on membership_gap to float resolution, keeping the last member found on
    each. At each such boundary point every state's row mixes the actions of
    min and max Q_v(s, .) to average v(s), and the tightest state is snapped
    to its extreme action. The policy's solved value must match the point;
    on 2-state instances the point must also lie on one of the
    one-state-pinned family segments. Distances are scaled by
    max(1, |v|_inf).
    """
    n_states, n_actions = mdp.n_states, mdp.n_actions
    rays = rng.standard_normal((BOUNDARY_RAYS, n_states))
    rays /= np.abs(rays).max(axis=1, keepdims=True)
    start = value_function(mdp, Policy.uniform(n_states, n_actions))
    # |start + t ray|_inf > value_bound, so hi is outside the value set.
    lo = np.zeros(BOUNDARY_RAYS)
    hi = np.full(BOUNDARY_RAYS, 2.0 * mdp.value_bound() + 1.0)
    for _ in range(BOUNDARY_HALVINGS):
        mid = 0.5 * (lo + hi)
        inside = membership_gap(mdp, start + mid[:, None] * rays) <= 0.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    points = start + lo[:, None] * rays
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
    if n_states == 2:
        segments = semidet_family_segments(mdp)
        dists = np.min(
            [segment_distances(points, a, b) for a, b in segments], axis=0
        )
        deviation = max(deviation, float(np.max(dists / scale)))
    return f"|S|={n_states}", deviation


def _check_rank(mdp: Mdp, rng: np.random.Generator):
    """Fixing k states leaves at most |S| - k directions of variation."""
    fixed = _random_states(rng, mdp.n_states, 0, mdp.n_states + 1)
    agreement = AgreementSet(base=random_policy(mdp, rng), fixed_states=fixed)
    values = _sample(mdp, 500, rng, agreement)
    overshoot = slice_rank(values) - (mdp.n_states - len(fixed))
    return f"k={len(fixed)}", float(max(0, overshoot))


def _check_path(mdp: Mdp, rng: np.random.Generator):
    """Each hop of a one-state-at-a-time policy path maps to a segment."""
    hops = path_between(mdp, random_policy(mdp, rng), random_policy(mdp, rng))
    deviation = 0.0
    for a, b in zip(hops, hops[1:]):
        images = _grid_values(mdp, a, b, 21)
        deviation = max(
            deviation, _segment_deviation(images, images[0], images[-1])
        )
    return f"hops={len(hops)}", deviation


def _check_dominance(mdp: Mdp, rng: np.random.Generator, samples: int = 50):
    """The optimal value dominates sampled policy values elementwise."""
    v_star, _ = optimal_value(mdp)
    values = _sample(mdp, samples, rng)
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


def _check_bounded(mdp: Mdp, rng: np.random.Generator):
    """Sampled values respect the max|r| / (1 - gamma) norm bound."""
    deviation = float(np.max(np.abs(_sample(mdp, 1_000, rng)))) - mdp.value_bound()
    return "", max(0.0, deviation)


# A suite's stream tag is its 1-based position here (0 keys the instances),
# so new suites go at the end.
_SUITES = {
    "line": (_check_line, 1e-9),
    "order": (_check_order, 1e-9),
    "rho": (_check_rho, 1e-8),
    "slice": (_check_slice, 1e-9),
    "span": (_check_span, 1e-8),
    "zeros": (_check_zeros, 0.0),
    "hull": (_check_hull, 1e-9),
    "boundary": (_check_boundary, 1e-9),
    "rank": (_check_rank, 0.0),
    "path": (_check_path, 1e-9),
    "dominance": (_check_dominance, 1e-8),
    "smooth": (_check_smooth, 0.1),
    "bounded": (_check_bounded, 1e-8),
}

SUITE_NAMES = tuple(_SUITES)

# Suites that need a planar value set; on a given MDP they need |S| = 2.
PLANAR_SUITES = ("hull",)

# On a given MDP these suites run once, on a larger sample than each random
# instance gets.
_ONCE_ON_GIVEN = {
    "hull": partial(_check_hull, samples=50_000),
    "dominance": partial(_check_dominance, samples=1_000),
}


def run_suite(
    suite_name: str,
    trials: int = 100,
    seed=0,
    mdp: Mdp | None = None,
    tolerance: float | None = None,
) -> CheckReport:
    """Run one named property suite over seeded random instances.

    When an MDP is given the suite checks it instead of random instances;
    a suite in PLANAR_SUITES then raises DimensionUnsupported unless the MDP
    has two states. Instance i draws from one stream keyed
    SeedSequence(seed, spawn_key=(tag, i)), where tag is the suite's
    position in SUITE_NAMES plus one, so no two suites share a stream. The
    report is deterministic for a fixed (seed, trials, tolerance).
    """
    try:
        check, default_tol = _SUITES[suite_name]
    except KeyError:
        raise UnknownSuite(
            f"unknown suite {suite_name!r}; known: {', '.join(SUITE_NAMES)}"
        ) from None
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if mdp is not None and mdp.n_states != 2 and suite_name in PLANAR_SUITES:
        raise DimensionUnsupported(
            f"suite {suite_name!r} needs a 2-state MDP, got |S|={mdp.n_states}"
        )
    if mdp is not None and suite_name in _ONCE_ON_GIVEN:
        check, trials = _ONCE_ON_GIVEN[suite_name], 1
    tol = default_tol if tolerance is None else tolerance
    tag = SUITE_NAMES.index(suite_name) + 1
    report = CheckReport(check_name=suite_name, instances_run=trials)
    for i in range(trials):
        instance = mdp or _random_instance(seed, i, suite_name in PLANAR_SUITES)
        rng = np.random.default_rng(
            np.random.SeedSequence(int(seed), spawn_key=(tag, i))
        )
        label, deviation, *override = check(instance, rng)
        limit = override[0] if override else tol
        report.record(f"instance {i} {label}".rstrip(), deviation, limit)
    return report
