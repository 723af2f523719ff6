import tracemalloc

import numpy as np
import pytest

from vfpolytope.cli import main
from vfpolytope.geometry import AgreementSet, sample_values
from vfpolytope.mdp import Mdp, Policy
from vfpolytope.output import write_csv, write_svg


def test_single_state_family_is_a_point():
    m = Mdp(
        n_states=1,
        n_actions=3,
        rewards=np.array([0.2, -0.1, 0.7]),
        transitions=np.ones((3, 1)),
        gamma=0.5,
    )
    pinned = AgreementSet(base=Policy(np.array([[0.0, 0.0, 1.0]])), fixed_states=(0,))
    values = sample_values(m, 50, 4, pinned)
    assert np.ptp(values) == 0.0
    assert values[0, 0] == 0.7 / (1 - 0.5)


def test_csv_floats_round_trip_exactly(tmp_path):
    out = tmp_path / "s.csv"
    assert main(
        ["sample", "--mdp", "fig2b", "--n", "100", "--seed", "13", "--out", str(out)]
    ) == 0
    from vfpolytope.mdp import builtin_fixture

    expected = sample_values(builtin_fixture("fig2b"), 100, 13)
    lines = out.read_text().strip().splitlines()[1:]
    parsed = np.array([[float(x) for x in line.split(",")] for line in lines])
    assert np.array_equal(parsed, expected)


EDGE_FLOATS = np.array(
    [[-0.0, 1e-05, 1e16], [np.nan, np.inf, -np.inf], [5e-324, 0.1, -2.5]]
)


def test_csv_cells_are_shortest_round_trip_floats_and_plain_ints(tmp_path):
    out = tmp_path / "out.csv"
    write_csv(
        out, ["i", "a", "b", "c", "d", "flag"],
        np.arange(3), EDGE_FLOATS, 1 / np.array([3.0, 7.0, 9.0]), np.array([1, 0, 1]),
    )
    assert out.read_bytes() == (
        b"i,a,b,c,d,flag\n"
        b"0,-0.0,1e-05,1e+16,0.3333333333333333,1\n"
        b"1,nan,inf,-inf,0.14285714285714285,0\n"
        b"2,5e-324,0.1,-2.5,0.1111111111111111,1\n"
    )


def test_format_cell_shortest_round_trip(tmp_path):
    out = tmp_path / "out.csv"
    write_csv(
        out, ["x", "n"],
        np.array([0.1, 1 / 3, np.float64(2.0) / 3.0]), np.array([7, 1, 0]),
    )
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert rows[0] == ["0.1", "7"]
    assert rows[1] == [repr(1 / 3), "1"]
    assert float(rows[2][0]) == 2.0 / 3.0
    assert rows[2][1] == "0"


def test_csv_int_column_matches_per_cell_formatting(tmp_path):
    flags = np.array([1, 0, 1])
    out = tmp_path / "out.csv"
    write_csv(out, ["a", "b", "c", "flag"], EDGE_FLOATS, flags)
    per_cell = [
        ",".join(map(repr, [*map(float, row), int(flag)]))
        for row, flag in zip(EDGE_FLOATS, flags)
    ]
    assert out.read_text().splitlines()[1:] == per_cell
    assert per_cell == [
        "-0.0,1e-05,1e+16,1", "nan,inf,-inf,0", "5e-324,0.1,-2.5,1",
    ]


def test_csv_single_float_block(tmp_path):
    out = tmp_path / "out.csv"
    write_csv(out, ["a", "b", "c"], EDGE_FLOATS)
    assert out.read_bytes() == (
        b"a,b,c\n-0.0,1e-05,1e+16\nnan,inf,-inf\n5e-324,0.1,-2.5\n"
    )


def test_csv_rows_span_formatting_chunks(tmp_path):
    values = np.arange(3000.0) / 7.0
    out = tmp_path / "out.csv"
    write_csv(out, ["i", "v"], np.arange(3000), values)
    lines = out.read_text().splitlines()
    assert lines[1:] == [f"{i},{v!r}" for i, v in enumerate(values.tolist())]


def test_csv_blocks_of_unequal_length_raise(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "out.csv", ["a", "b"], np.zeros(3), np.zeros(2))


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


def svg_text(tmp_path, *args, **kwargs) -> str:
    out = tmp_path / "out.svg"
    write_svg(out, *args, **kwargs)
    return out.read_bytes().decode("ascii")


def test_svg_is_deterministic_and_well_formed(tmp_path):
    points = np.array([[0.0, 0.0], [1.0, 2.0], [-1.0, 0.5]])
    vertices = np.array([[0.5, 0.5]])
    a = svg_text(tmp_path, points, vertices=vertices, path_points=points[:2])
    b = svg_text(tmp_path, points, vertices=vertices, path_points=points[:2])
    assert a == b
    assert a.startswith("<svg")
    assert a.rstrip().endswith("</svg>")
    assert 'width="600" height="600"' in a


def reference_svg(points, vertices, path_points):
    """write_svg's text as built with a per-point projection, before 0.5.0."""
    everything = np.vstack([points, vertices, path_points])
    lo, hi = everything.min(axis=0), everything.max(axis=0)
    span = hi - lo
    span[span == 0.0] = 1.0
    margin = 0.05 * span
    lo, scale = lo - margin, 600.0 / (span + 2 * margin)

    def project(p):
        x = (p[0] - lo[0]) * scale[0]
        y = 600.0 - (p[1] - lo[1]) * scale[1]
        return (f"{x:.3f}", f"{y:.3f}")

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="600" height="600" '
        'viewBox="0 0 600 600">',
        '<rect width="600" height="600" fill="#ffffff"/>',
    ]
    for x, y in map(project, points):
        parts.append(
            f'<circle cx="{x}" cy="{y}" r="1.5" fill="#4477aa" fill-opacity="0.45"/>'
        )
    coords = " ".join(",".join(project(p)) for p in path_points)
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="#222222" stroke-width="1.5"/>'
    )
    for x, y in map(project, path_points):
        parts.append(f'<circle cx="{x}" cy="{y}" r="2.5" fill="#222222"/>')
    for x, y in map(project, vertices):
        parts.append(f'<circle cx="{x}" cy="{y}" r="5" fill="#cc3311"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def test_svg_matches_per_point_projection_across_chunks(tmp_path):
    rng = np.random.default_rng(3)
    points = rng.normal(size=(2500, 2)) * [1.0, 1e-3]
    vertices = rng.normal(size=(4, 2))
    path_points = np.cumsum(rng.normal(size=(1500, 2)) * 0.01, axis=0)
    assert svg_text(tmp_path, points, vertices, path_points) == reference_svg(
        points, vertices, path_points
    )


@pytest.mark.parametrize("n_path", [1, 1024, 1025])
def test_svg_path_matches_per_point_projection_at_chunk_edges(tmp_path, n_path):
    rng = np.random.default_rng(n_path)
    points = rng.normal(size=(1024, 2))
    vertices = rng.normal(size=(3, 2))
    path_points = rng.normal(size=(n_path, 2))
    assert svg_text(tmp_path, points, vertices, path_points) == reference_svg(
        points, vertices, path_points
    )


def test_svg_degenerate_single_point(tmp_path):
    content = svg_text(tmp_path, np.array([[3.0, 3.0]]))
    assert "<circle" in content


def traced_peak(write, *args) -> int:
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_is_written_in_bounded_memory(tmp_path):
    # The 250,000-row text is about 10 MB; joined and then encoded whole it
    # took about 20 MiB.
    values = np.random.default_rng(0).normal(size=(250_000, 2))
    out = tmp_path / "big.csv"
    peak = traced_peak(write_csv, out, ["a", "b"], values)
    assert peak < 4 * 2**20, peak
    with open(out, "rb") as handle:
        assert handle.readline() == b"a,b\n"
        assert handle.readline() == ("%r,%r\n" % tuple(values[0].tolist())).encode()


def test_svg_is_written_in_bounded_memory(tmp_path):
    # 200,000 circles are about 15 MB of text, and their projection 3.2 MB.
    points = np.random.default_rng(1).normal(size=(200_000, 2))
    out = tmp_path / "big.svg"
    peak = traced_peak(write_svg, out, points, points[:3], points[:1000])
    assert peak < 4 * 2**20, peak
    assert out.stat().st_size > 200_000 * 70
