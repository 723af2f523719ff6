import numpy as np
import pytest

from vfpolytope.cli import main
from vfpolytope.dynamics import (
    CemConfig,
    Trajectory,
    run_cem,
    run_npg,
    run_policy_gradient,
    run_value_iteration,
)
from vfpolytope.errors import MalformedDocument, ShapeMismatch
from vfpolytope.evaluation import value_function_batch
from vfpolytope.geometry import (
    AgreementSet,
    affine_slice,
    interpolation_curve,
    line_segment,
    sample_values,
    slice_rank,
)
from vfpolytope.mdp import Policy, builtin_fixture, dump_mdp, random_mdp, random_policy
from vfpolytope.verification import run_suite

from oracles import hull_2d, points_in_hull

DYN2 = builtin_fixture("dyn2")
UNIFORM2 = Policy.uniform(2, 2)


# Library checks on inputs that the CLI and the suites refuse before they
# call the library, so only a direct call reaches them.
@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: value_function_batch(DYN2, np.full((4, 3, 2), 0.5)),
         ShapeMismatch, r"expected \(n, 2, 2\) policies, got \(4, 3, 2\)"),
        (lambda: run_value_iteration(DYN2, np.zeros(3), 5),
         ShapeMismatch, "value vector must have length 2"),
        (lambda: run_value_iteration(DYN2, np.zeros(2), 0),
         ValueError, "iterations must be at least 1"),
        (lambda: Trajectory(points=np.empty((0, 2)), columns={}),
         ValueError, "trajectory needs at least one point"),
        (lambda: run_policy_gradient(DYN2, Policy.uniform(3, 2), 0.05, 5),
         ShapeMismatch, r"logits must have shape \(2, 2\)"),
        (lambda: run_cem(DYN2, Policy.uniform(2, 3), CemConfig()),
         ShapeMismatch, r"logits must have shape \(2, 2\)"),
        (lambda: run_policy_gradient(DYN2, UNIFORM2, 0.0, 5),
         ValueError, "eta must be positive"),
        (lambda: run_npg(DYN2, UNIFORM2, 0.05, 0),
         ValueError, "iterations must be at least 1"),
        (lambda: interpolation_curve(DYN2, UNIFORM2, UNIFORM2, 0, grid_size=1),
         ValueError, "grid_size must be at least 2"),
        (lambda: interpolation_curve(DYN2, UNIFORM2, Policy.uniform(2, 3), 0),
         ShapeMismatch, "policies have different shapes"),
        (lambda: slice_rank(np.zeros((1, 2))),
         ValueError, "need at least two points"),
        (lambda: AgreementSet(base=UNIFORM2, fixed_states=(2,)),
         ValueError, "fixed_states out of range"),
        (lambda: random_mdp(0, 2, 0.9, 0),
         MalformedDocument, "n_states and n_actions must be positive"),
        (lambda: random_mdp(2, 0, 0.9, 0),
         MalformedDocument, "n_states and n_actions must be positive"),
    ],
    ids=[
        "batch-shape", "vi-v0-length", "vi-iterations", "empty-trajectory",
        "pg-logits-shape", "cem-logits-shape", "ascent-eta", "ascent-iterations",
        "curve-grid", "curve-policy-shapes", "slice-rank-one-point",
        "agreement-state-range", "random-mdp-no-states", "random-mdp-no-actions",
    ],
)
def test_library_rejects_what_the_cli_refuses_first(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_projection_residual_of_an_empty_stack_is_zero():
    slice_ = affine_slice(DYN2, AgreementSet(base=UNIFORM2, fixed_states=(0,)))
    assert slice_.projection_residual(np.empty((0, 2))) == 0.0


def test_line_segment_state_out_of_range():
    with pytest.raises(ShapeMismatch):
        line_segment(DYN2, UNIFORM2, 5)


def test_run_suite_rejects_zero_trials():
    with pytest.raises(ValueError):
        run_suite("line", trials=0)


def test_cli_line_single_action_mdp(tmp_path):
    mdp_path = tmp_path / "m.json"
    mdp_path.write_text(dump_mdp(random_mdp(2, 1, 0.9, seed=3)))
    out = tmp_path / "line.csv"
    assert main(
        ["line", "--mdp", str(mdp_path), "--state", "0", "--seed", "1",
         "--grid", "5", "--out", str(out)]
    ) == 0
    rows = out.read_text().strip().splitlines()[1:]
    rhos = [float(r.split(",")[1]) for r in rows]
    assert rhos == [0.0] * 5  # constant family collapses to one point


def test_sampled_points_inside_own_hull():
    mdp = builtin_fixture("fig2b")
    values = sample_values(mdp, 400, 17)
    hull = hull_2d(values)
    assert points_in_hull(values[:100], hull).all()


def test_sample_values_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        sample_values(builtin_fixture("dyn2"), 0, 1)


def test_policy_row_replacement_keeps_others_bitwise():
    mdp = builtin_fixture("fig2c")
    p = random_policy(mdp, 2)
    q = p.with_row(1, np.array([0.2, 0.3, 0.5]))
    assert np.array_equal(p.probs[0], q.probs[0])
    assert not np.array_equal(p.probs[1], q.probs[1])
