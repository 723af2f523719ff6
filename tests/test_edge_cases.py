import numpy as np
import pytest

from vfpolytope.cli import main
from vfpolytope.errors import ShapeMismatch
from vfpolytope.geometry import line_segment, sample_values
from vfpolytope.mdp import Policy, builtin_fixture, dump_mdp, random_mdp, random_policy
from vfpolytope.verification import run_suite

from oracles import hull_2d, points_in_hull


def test_line_segment_state_out_of_range():
    mdp = builtin_fixture("dyn2")
    with pytest.raises(ShapeMismatch):
        line_segment(mdp, Policy.uniform(2, 2), 5)


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
