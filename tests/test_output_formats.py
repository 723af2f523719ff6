import numpy as np

from vfpolytope.cli import main
from vfpolytope.geometry import boundary_semidet_sample
from vfpolytope.mdp import Mdp
from vfpolytope.output import format_cell, svg_scatter, write_csv


def test_single_state_family_is_a_point():
    m = Mdp(
        n_states=1,
        n_actions=3,
        rewards=np.array([0.2, -0.1, 0.7]),
        transitions=np.ones((3, 1)),
        gamma=0.5,
    )
    values = boundary_semidet_sample(m, 0, 2, 50, 4)
    assert np.ptp(values) == 0.0
    assert values[0, 0] == 0.7 / (1 - 0.5)


def test_csv_floats_round_trip_exactly(tmp_path):
    out = tmp_path / "s.csv"
    assert main(
        ["sample", "--mdp", "fig2b", "--n", "100", "--seed", "13", "--out", str(out)]
    ) == 0
    from vfpolytope.geometry import sample_values
    from vfpolytope.mdp import builtin_fixture

    expected = sample_values(builtin_fixture("fig2b"), 100, 13)
    lines = out.read_text().strip().splitlines()[1:]
    parsed = np.array([[float(x) for x in line.split(",")] for line in lines])
    assert np.array_equal(parsed, expected)


def test_format_cell_shortest_round_trip():
    assert format_cell(0.1) == "0.1"
    assert format_cell(1 / 3) == repr(1 / 3)
    assert float(format_cell(np.float64(2.0) / 3.0)) == 2.0 / 3.0
    assert format_cell(7) == "7"
    assert format_cell(True) == "1"


def test_csv_float_array_matches_per_cell_formatting(tmp_path):
    values = np.array(
        [[-0.0, 1e-05, 1e16], [np.nan, np.inf, -np.inf], [5e-324, 0.1, -2.5]]
    )
    fast, cells = tmp_path / "fast.csv", tmp_path / "cells.csv"
    write_csv(fast, ["a", "b", "c"], values)
    write_csv(cells, ["a", "b", "c"], [list(row) for row in values])
    assert fast.read_bytes() == cells.read_bytes()
    assert fast.read_text().splitlines()[1:] == [
        "-0.0,1e-05,1e+16", "nan,inf,-inf", "5e-324,0.1,-2.5",
    ]


def test_csv_int_column_matches_per_cell_formatting(tmp_path):
    values = np.array(
        [[-0.0, 1e-05, 1e16], [np.nan, np.inf, -np.inf], [5e-324, 0.1, -2.5]]
    )
    flags = [1, 0, 1]
    fast, cells = tmp_path / "fast.csv", tmp_path / "cells.csv"
    write_csv(fast, ["a", "b", "c", "flag"], values, flags)
    write_csv(
        cells, ["a", "b", "c", "flag"],
        [[*map(float, row), flag] for row, flag in zip(values, flags)],
    )
    assert fast.read_bytes() == cells.read_bytes()
    assert fast.read_text().splitlines()[1:] == [
        "-0.0,1e-05,1e+16,1", "nan,inf,-inf,0", "5e-324,0.1,-2.5,1",
    ]


def test_thread_env_var_does_not_change_output(tmp_path, monkeypatch):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["sample", "--mdp", "dyn2", "--n", "50", "--seed", "2",
                 "--out", str(out_a)]) == 0
    monkeypatch.setenv("VFP_THREADS", "8")
    assert main(["sample", "--mdp", "dyn2", "--n", "50", "--seed", "2",
                 "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    monkeypatch.setenv("VFP_THREADS", "not-a-number")
    assert main(["sample", "--mdp", "dyn2", "--n", "5", "--seed", "2",
                 "--out", str(tmp_path / "c.csv")]) == 0


def test_svg_is_deterministic_and_well_formed():
    points = np.array([[0.0, 0.0], [1.0, 2.0], [-1.0, 0.5]])
    vertices = np.array([[0.5, 0.5]])
    a = svg_scatter(points, vertices=vertices, path_points=points[:2])
    b = svg_scatter(points, vertices=vertices, path_points=points[:2])
    assert a == b
    assert a.startswith("<svg")
    assert a.rstrip().endswith("</svg>")
    assert 'width="600" height="600"' in a


def test_svg_degenerate_single_point():
    content = svg_scatter(np.array([[3.0, 3.0]]))
    assert "<circle" in content
