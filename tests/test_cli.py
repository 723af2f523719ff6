import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vfpolytope
from vfpolytope import cli, errors
from vfpolytope.cli import MAX_TRIALS, main
from vfpolytope.mdp import (
    Mdp,
    builtin_fixture,
    dump_mdp,
    example1_mdp,
    load_mdp,
    random_mdp,
)
from vfpolytope.verification import SUITE_NAMES, CheckReport


# Subprocesses import the package under test, whichever tree PYTHONPATH put
# first for this run.
PACKAGE_PATH = str(Path(vfpolytope.__file__).parents[1])


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


class TestFixturesCommand:
    def test_list_prints_six_rows(self, capsys):
        assert main(["fixtures", "list"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 6

    def test_dump_reloads(self, tmp_path):
        out = tmp_path / "dyn2.json"
        assert main(["fixtures", "dump", "dyn2", "--out", str(out)]) == 0
        mdp = load_mdp(out.read_text())
        assert mdp.gamma == 0.9
        assert mdp.rewards[0] == -0.45
        assert (tmp_path / "dyn2.json.manifest.json").exists()

    def test_dump_unknown_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["fixtures", "dump", "bogus", "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err


class TestSampleCommand:
    def test_csv_schema_and_count(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(
            ["sample", "--mdp", "dyn2", "--n", "200", "--seed", "7", "--out", str(out)]
        ) == 0
        header, data = read_csv(out)
        assert header == ["v_s0", "v_s1"]
        assert data.shape == (200, 2)

    def test_zero_samples_exits_2(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(
            ["sample", "--mdp", "dyn2", "--n", "0", "--seed", "1", "--out", str(out)]
        )
        assert code == 2

    def test_svg_for_two_state(self, tmp_path):
        out = tmp_path / "s.csv"
        svg = tmp_path / "s.svg"
        code = main(
            [
                "sample", "--mdp", "fig2c", "--n", "50", "--seed", "1",
                "--out", str(out), "--svg", str(svg),
            ]
        )
        assert code == 0
        content = svg.read_text()
        assert content.startswith("<svg")
        assert "circle" in content

    def test_svg_for_three_state_exits_3(self, tmp_path):
        doc = dump_mdp(random_mdp(3, 2, 0.8, seed=1))
        mdp_path = tmp_path / "m3.json"
        mdp_path.write_text(doc)
        code = main(
            [
                "sample", "--mdp", str(mdp_path), "--n", "10", "--seed", "1",
                "--out", str(tmp_path / "s.csv"), "--svg", str(tmp_path / "s.svg"),
            ]
        )
        assert code == 3

    def test_fix_pins_states(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(
            [
                "sample", "--mdp", "dyn2", "--n", "300", "--seed", "3",
                "--fix", "0=copy-of-base", "--fix", "1=copy-of-base",
                "--out", str(out),
            ]
        ) == 0
        _, data = read_csv(out)
        assert np.max(np.ptp(data, axis=0)) < 1e-12

    def test_bad_fix_syntax_exits_2(self, tmp_path):
        code = main(
            [
                "sample", "--mdp", "dyn2", "--n", "10", "--seed", "3",
                "--fix", "0=whatever", "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert code == 2

    def test_unknown_mdp_exits_2(self, tmp_path):
        code = main(
            ["sample", "--mdp", "nope", "--n", "10", "--seed", "1",
             "--out", str(tmp_path / "s.csv")]
        )
        assert code == 2


class TestLineCommand:
    def test_example1_interpolation_column(self, tmp_path):
        mdp_path = tmp_path / "e1.json"
        mdp_path.write_text(dump_mdp(example1_mdp()))
        out = tmp_path / "line.csv"
        assert main(
            [
                "line", "--mdp", str(mdp_path), "--state", "0", "--seed", "0",
                "--grid", "11", "--out", str(out),
            ]
        ) == 0
        header, data = read_csv(out)
        assert header == ["mu", "rho", "v_s0", "v_s1", "endpoint_flag"]
        mu, rho = data[:, 0], data[:, 1]
        np.testing.assert_allclose(rho, mu / (1 - 0.9 * (1 - mu)), atol=1e-10)
        assert data[0, 4] == 1 and data[-1, 4] == 1
        assert np.all(data[1:-1, 4] == 0)

    def test_grid_two_gives_endpoints(self, tmp_path):
        out = tmp_path / "line.csv"
        assert main(
            ["line", "--mdp", "dyn2", "--state", "1", "--seed", "2",
             "--grid", "2", "--out", str(out)]
        ) == 0
        _, data = read_csv(out)
        assert data.shape[0] == 2
        np.testing.assert_array_equal(data[:, 0], [0.0, 1.0])

    def test_invalid_state_exits_2(self, tmp_path):
        code = main(
            ["line", "--mdp", "dyn2", "--state", "5", "--seed", "2",
             "--out", str(tmp_path / "line.csv")]
        )
        assert code == 2

    def test_rows_collinear_threeaction(self, tmp_path):
        from vfpolytope.geometry import segment_distances

        for state in (0, 1):
            out = tmp_path / f"line{state}.csv"
            assert main(
                ["line", "--mdp", "threeaction", "--state", str(state),
                 "--seed", "4", "--grid", "21", "--out", str(out)]
            ) == 0
            _, data = read_csv(out)
            points = data[:, 2:4]
            assert segment_distances(points, points[0], points[-1]).max() < 1e-9

    @staticmethod
    def _check_rows_against_solves(mdp, state, seed, grid, tmp_path):
        from vfpolytope.evaluation import value_function
        from vfpolytope.geometry import line_segment
        from oracles import mix_policies
        from vfpolytope.mdp import random_policy

        mdp_path = tmp_path / "mdp.json"
        mdp_path.write_text(dump_mdp(mdp))
        out = tmp_path / "line.csv"
        assert main(
            ["line", "--mdp", str(mdp_path), "--state", str(state), "--seed",
             str(seed), "--grid", str(grid), "--out", str(out)]
        ) == 0
        _, data = read_csv(out)
        segment = line_segment(mdp, random_policy(mdp, seed), state)
        for mu, row in zip(data[:, 0], data[:, 2:-1]):
            mixture = mix_policies(segment.pi_low, segment.pi_high, mu)
            direct = value_function(mdp, mixture)
            scale = max(1.0, np.max(np.abs(direct)))
            assert np.max(np.abs(row - direct)) <= 1e-9 * scale
        np.testing.assert_array_equal(data[0, 2:-1], segment.v_low)
        np.testing.assert_array_equal(data[-1, 2:-1], segment.v_high)
        return data

    @pytest.mark.parametrize("gamma", [0.5, 0.9, 0.999])
    @pytest.mark.parametrize("n_states", [2, 3, 64, 128])
    def test_closed_form_rows_match_direct_solves(self, n_states, gamma, tmp_path):
        mdp = random_mdp(n_states, 3, gamma, seed=n_states)
        self._check_rows_against_solves(mdp, n_states // 2, 7, 11, tmp_path)

    def test_single_action_curve_is_constant(self, tmp_path):
        mdp = random_mdp(4, 1, 0.9, seed=3)
        data = self._check_rows_against_solves(mdp, 1, 2, 6, tmp_path)
        assert np.all(data[:, 1] == 0.0)
        assert np.all(data[:, 2:-1] == data[0, 2:-1])

    def test_solve_count_does_not_depend_on_grid(self, tmp_path, monkeypatch):
        mdp_path = tmp_path / "mdp.json"
        mdp_path.write_text(dump_mdp(random_mdp(16, 3, 0.9, seed=1)))
        calls = []
        solve = np.linalg.solve

        def counted(a, b):
            calls.append(np.shape(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        counts = []
        for grid in ("2", "1001"):
            calls.clear()
            assert main(
                ["line", "--mdp", str(mdp_path), "--state", "3", "--seed", "1",
                 "--grid", grid, "--out", str(tmp_path / f"line{grid}.csv")]
            ) == 0
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


class TestSizeCaps:
    class Reached(Exception):
        pass

    @pytest.fixture
    def guarded(self, monkeypatch):
        import vfpolytope.cli as cli
        import vfpolytope.geometry as geometry

        def reached(*args, **kwargs):
            raise self.Reached

        monkeypatch.setattr(np, "linspace", reached)
        monkeypatch.setattr(geometry, "_policy_blocks", reached)
        for name in ("run_value_iteration", "run_policy_gradient", "run_npg", "run_cem"):
            monkeypatch.setattr(cli, name, reached)

    @pytest.mark.parametrize(
        "flag, low, argv, cells_each",
        [
            ("--n", 1, ["sample", "--mdp", "dyn2", "--out", "out.csv"], 2 * 2),
            ("--n", 1, ["sample", "--mdp", "threeaction", "--out", "out.csv"], 2 * 3),
            ("--grid", 2,
             ["line", "--mdp", "dyn2", "--state", "0", "--out", "out.csv"], 2),
            *(
                pytest.param(
                    "--iters", 1,
                    ["dynamics", "--mdp", "dyn2", "--algo", algo, "--out", "out.csv"], 2,
                    id=f"--iters-{algo}",
                )
                for algo in ("vi", "pg", "entpg", "npg", "cem", "cemcn")
            ),
        ],
    )
    def test_one_above_cap_exits_2_before_allocating(
        self, flag, low, argv, cells_each, guarded, tmp_path, monkeypatch, capsys
    ):
        from vfpolytope.cli import MAX_CELLS

        monkeypatch.chdir(tmp_path)
        cap = MAX_CELLS // cells_each
        expected = f"error: {flag} must be between {low} and {cap} for this MDP\n"
        for count in (cap + 1, 10**30, low - 1):
            assert main([*argv, flag, str(count)]) == 2
            assert capsys.readouterr().err == expected
        assert not (tmp_path / "out.csv").exists()
        with pytest.raises(self.Reached):
            main([*argv, flag, str(cap)])


class TestDynamicsCommand:
    def test_vi_contracts(self, tmp_path):
        from vfpolytope.evaluation import optimal_value

        out = tmp_path / "vi.csv"
        assert main(
            ["dynamics", "--mdp", "dyn2", "--algo", "vi", "--init", "interior",
             "--iters", "60", "--out", str(out)]
        ) == 0
        _, data = read_csv(out)
        v_star, _ = optimal_value(builtin_fixture("dyn2"))
        gaps = np.max(np.abs(data[:, 1:3] - v_star[None, :]), axis=1)
        assert np.all(gaps[1:] <= 0.9 * gaps[:-1] + 1e-12)

    def test_pi_rows_are_deterministic_values(self, tmp_path):
        from vfpolytope.geometry import polytope_vertices_det

        out = tmp_path / "pi.csv"
        assert main(
            ["dynamics", "--mdp", "dyn2", "--algo", "pi", "--init", "boundary",
             "--out", str(out)]
        ) == 0
        _, data = read_csv(out)
        det = polytope_vertices_det(builtin_fixture("dyn2"))
        for row in data[1:, 1:3]:
            assert np.min(np.max(np.abs(det - row[None, :]), axis=1)) < 1e-8

    def test_cemcn_reaches_optimum(self, tmp_path):
        from vfpolytope.evaluation import optimal_value

        out = tmp_path / "cem.csv"
        assert main(
            ["dynamics", "--mdp", "dyn2", "--algo", "cemcn", "--init", "interior",
             "--iters", "100", "--seed", "0", "--out", str(out)]
        ) == 0
        header, data = read_csv(out)
        v_star, _ = optimal_value(builtin_fixture("dyn2"))
        assert np.max(np.abs(data[-1, 1:3] - v_star)) < 0.05
        assert "meta_cov_trace" in header

    def test_policy_file_init(self, tmp_path):
        policy_path = tmp_path / "p.json"
        policy_path.write_text(json.dumps({"probs": [[0.5, 0.5], [0.5, 0.5]]}))
        out = tmp_path / "pg.csv"
        assert main(
            ["dynamics", "--mdp", "dyn2", "--algo", "pg", "--init", str(policy_path),
             "--iters", "5", "--out", str(out)]
        ) == 0
        _, data = read_csv(out)
        assert data.shape[0] == 6

    def test_bad_init_exits_2(self, tmp_path):
        code = main(
            ["dynamics", "--mdp", "dyn2", "--algo", "pg", "--init", "nowhere.json",
             "--iters", "5", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_svg_overlay(self, tmp_path):
        out = tmp_path / "npg.csv"
        svg = tmp_path / "npg.svg"
        assert main(
            ["dynamics", "--mdp", "dyn2", "--algo", "npg", "--init", "interior",
             "--iters", "30", "--out", str(out), "--svg", str(svg)]
        ) == 0
        assert "polyline" in svg.read_text()


class TestVerifyCommand:
    def test_single_suite_report(self, tmp_path, capsys):
        report = tmp_path / "rep.json"
        code = main(
            ["verify", "--suite", "line", "--trials", "20", "--seed", "1",
             "--report", str(report)]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["all_passed"] is True
        assert payload["reports"][0]["check_name"] == "line"
        assert payload["reports"][0]["max_deviation"] < 1e-9
        assert "pass line" in capsys.readouterr().out

    def test_unknown_suite_exits_2(self, tmp_path, capsys):
        # run_suite is the one place that checks the name.
        code = main(
            ["verify", "--suite", "bogus", "--trials", "5", "--seed", "1",
             "--report", str(tmp_path / "r.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown suite 'bogus'")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["order", "zeros", "rank", "path", "bounded"])
    def test_removed_suite_exits_2(self, name, tmp_path, capsys):
        code = main(["verify", "--suite", name, "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: unknown suite {name!r}; known: line, rho, slice, span, hull, "
            "boundary, dominance, smooth\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_nonpositive_trials_exits_2_without_traceback(self, trials, tmp_path):
        report = tmp_path / "r.json"
        env = {**os.environ, "PYTHONPATH": PACKAGE_PATH}
        proc = subprocess.run(
            [sys.executable, "-m", "vfpolytope.cli", "verify", "--suite", "all",
             "--trials", trials, "--report", str(report)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: --trials must be at least 1\n"
        assert not report.exists()

    @pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**30])
    def test_trials_above_cap_exit_2_before_any_suite_runs(
        self, trials, tmp_path, monkeypatch, capsys
    ):
        def reached(*args, **kwargs):
            raise AssertionError("run_suite reached")

        monkeypatch.setattr(cli, "run_suite", reached)
        report = tmp_path / "r.json"
        code = main(["verify", "--suite", "all", "--trials", str(trials),
                     "--report", str(report)])
        assert code == 2
        assert capsys.readouterr().err == f"error: --trials must be at most {MAX_TRIALS}\n"
        assert not report.exists()

    def test_trials_at_cap_are_accepted(self, tmp_path, monkeypatch):
        def suite(name, trials, seed, mdp):
            return CheckReport(check_name=name, instances_run=trials)

        monkeypatch.setattr(cli, "run_suite", suite)
        report = tmp_path / "r.json"
        code = main(["verify", "--suite", "line", "--trials", str(MAX_TRIALS),
                     "--report", str(report)])
        assert code == 0
        assert json.loads(report.read_text())["reports"][0]["instances_run"] == MAX_TRIALS

    def test_all_suites_run_hull_on_three_states(self, tmp_path, capsys):
        doc = tmp_path / "m3.json"
        doc.write_text(dump_mdp(random_mdp(3, 2, 0.9, 0)))
        report = tmp_path / "rep.json"
        code = main(
            ["verify", "--suite", "all", "--trials", "2", "--seed", "1",
             "--mdp", str(doc), "--report", str(report)]
        )
        assert code == 0
        reports = json.loads(report.read_text())["reports"]
        assert [r["check_name"] for r in reports] == list(SUITE_NAMES)
        assert all(r["instances_run"] == 2 for r in reports)
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 8 and not [line for line in out if line.startswith("skip")]

    def test_hull_past_the_enumeration_cap_is_skipped_or_exits_3(self, tmp_path, capsys):
        # 2,000 sampled policies of 2^9 vertex leaves each pass the cap.
        doc = tmp_path / "m9.json"
        doc.write_text(dump_mdp(random_mdp(9, 2, 0.9, 0)))
        report = tmp_path / "rep.json"
        code = main(
            ["verify", "--suite", "all", "--trials", "1", "--mdp", str(doc),
             "--report", str(report)]
        )
        assert code == 0
        names = [r["check_name"] for r in json.loads(report.read_text())["reports"]]
        assert names == [name for name in SUITE_NAMES if name != "hull"]
        message = ("hull certificate of 2000 policies at |S|=9 has 1024000 vertex "
                   "leaves, over the cap of 1000000")
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line.startswith("skip")] == [f"skip hull: {message}"]
        explicit = tmp_path / "hull.json"
        assert main(
            ["verify", "--suite", "hull", "--mdp", str(doc), "--report", str(explicit)]
        ) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not explicit.exists()

    @pytest.mark.parametrize("seed", ["13", "16"])
    def test_all_suites_pass_on_seeds_13_and_16(self, seed, tmp_path):
        report = tmp_path / "rep.json"
        code = main(
            ["verify", "--suite", "all", "--trials", "10", "--seed", seed,
             "--report", str(report)]
        )
        assert code == 0
        assert json.loads(report.read_text())["all_passed"] is True

    @pytest.mark.parametrize(
        "mdp",
        [
            random_mdp(3, 2, 0.9, 0),
            random_mdp(3, 1, 0.9, 0),
            Mdp(2, 3, np.zeros(6), random_mdp(2, 3, 0.9, 0).transitions, 0.9),
        ],
        ids=["three-state", "single-action", "zero-reward"],
    )
    def test_boundary_suite_on_a_given_mdp(self, mdp, tmp_path, capsys):
        doc = tmp_path / "m.json"
        doc.write_text(dump_mdp(mdp))
        report = tmp_path / "rep.json"
        code = main(
            ["verify", "--suite", "boundary", "--trials", "3", "--mdp", str(doc),
             "--report", str(report)]
        )
        assert code == 0
        (entry,) = json.loads(report.read_text())["reports"]
        assert entry["passed"] and entry["instances_run"] == 3
        assert entry["max_deviation"] <= 1e-9
        assert "pass boundary: 3 instances" in capsys.readouterr().out

    def test_all_suites_exit_0(self, tmp_path):
        report = tmp_path / "rep.json"
        code = main(
            ["verify", "--suite", "all", "--trials", "5", "--seed", "1",
             "--report", str(report)]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert len(payload["reports"]) == 8


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--mdp", "dyn2", "--n", "5", "--out", "out"],
        ["line", "--mdp", "dyn2", "--state", "0", "--out", "out"],
        ["verify", "--suite", "line", "--trials", "1", "--report", "out"],
        ["dynamics", "--mdp", "dyn2", "--algo", "cem", "--iters", "1",
         "--out", "out"],
    ],
    ids=lambda a: a[0],
)
def test_negative_seed_exits_2_without_traceback(argv, tmp_path):
    env = {**os.environ, "PYTHONPATH": PACKAGE_PATH}
    proc = subprocess.run(
        [sys.executable, "-m", "vfpolytope.cli", *argv, "--seed", "-1"],
        capture_output=True, text=True, env=env, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: --seed must be non-negative\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fixtures", "dump", "dyn2", "--out", "missing/out.json"],
        ["sample", "--mdp", "dyn2", "--n", "5", "--out", "missing/out.csv"],
        ["sample", "--mdp", "dyn2", "--n", "5", "--out", "out.csv",
         "--svg", "missing/out.svg"],
        ["line", "--mdp", "dyn2", "--state", "0", "--out", "missing/out.csv"],
        ["dynamics", "--mdp", "dyn2", "--algo", "vi", "--iters", "3",
         "--out", "missing/out.csv"],
        ["dynamics", "--mdp", "dyn2", "--algo", "vi", "--iters", "3",
         "--out", "out.csv", "--svg", "missing/out.svg"],
        ["verify", "--suite", "line", "--trials", "1", "--report", "missing/r.json"],
        ["line", "--mdp", "dyn2", "--state", "0", "--out", "."],
        ["sample", "--mdp", "latin1.json", "--n", "5", "--out", "out.csv"],
        ["line", "--mdp", "latin1.json", "--state", "0", "--out", "out.csv"],
        ["dynamics", "--mdp", "latin1.json", "--algo", "vi", "--out", "out.csv"],
        ["verify", "--suite", "line", "--trials", "1", "--mdp", "latin1.json",
         "--report", "r.json"],
    ],
    ids=[
        "fixtures-out", "sample-out", "sample-svg", "line-out", "dynamics-out",
        "dynamics-svg", "verify-report", "line-out-dir", "sample-mdp", "line-mdp",
        "dynamics-mdp", "verify-mdp",
    ],
)
def test_file_errors_exit_2_with_one_line(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.json").write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["latin1.json"]


@pytest.fixture
def opened(monkeypatch):
    """The file names passed to open() or to pathlib's reads, in call order."""
    import builtins
    import io

    names, real_open = [], io.open

    def counted(file, *args, **kwargs):
        names.append(os.fspath(file) if isinstance(file, (str, os.PathLike)) else file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counted)
    monkeypatch.setattr(builtins, "open", counted)
    return names


def test_each_input_file_is_read_once(tmp_path, opened):
    mdp_path, policy_path = tmp_path / "m.json", tmp_path / "p.json"
    mdp_path.write_text(dump_mdp(builtin_fixture("dyn2")))
    policy_path.write_text(json.dumps({"probs": [[0.5, 0.5], [0.5, 0.5]]}))
    out = tmp_path / "out.csv"
    opened.clear()
    assert main(
        ["dynamics", "--mdp", str(mdp_path), "--algo", "pg", "--init", str(policy_path),
         "--iters", "3", "--out", str(out)]
    ) == 0
    reads = [opened.count(str(path)) for path in (mdp_path, policy_path)]
    assert reads == [1, 1]
    inputs = json.loads((tmp_path / "out.csv.manifest.json").read_text())["inputs"]
    assert inputs == {str(path): sha(path) for path in (mdp_path, policy_path)}


def test_input_digest_names_the_parsed_bytes(tmp_path, monkeypatch):
    # A file rewritten after it was read must not lend its digest to the run.
    mdp_path = tmp_path / "m.json"
    mdp_path.write_text(dump_mdp(builtin_fixture("dyn2")))
    parsed = []

    def load_then_rewrite(text):
        parsed.append(text)
        mdp_path.write_text(text + "\n")
        return load_mdp(text)

    monkeypatch.setattr(cli, "load_mdp", load_then_rewrite)
    out = tmp_path / "out.csv"
    assert main(["sample", "--mdp", str(mdp_path), "--n", "3", "--out", str(out)]) == 0
    inputs = json.loads((tmp_path / "out.csv.manifest.json").read_text())["inputs"]
    assert inputs == {str(mdp_path): hashlib.sha256(parsed[0].encode()).hexdigest()}


def test_missing_report_directory_exits_2_before_any_suite(tmp_path, monkeypatch, capsys):
    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_suite", no_suite)
    assert main(["verify", "--suite", "all", "--trials", "1",
                 "--report", "missing/r.json"]) == 2
    assert capsys.readouterr().err == (
        "error: --report 'missing/r.json': no directory 'missing'\n"
    )
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--algo", "pg", "--eta", "nan"], "--eta must be positive and finite"),
        (["--algo", "npg", "--eta", "inf"], "--eta must be positive and finite"),
        (["--algo", "entpg", "--entropy-coeff", "inf"], "--entropy-coeff must be finite"),
        (["--algo", "entpg", "--entropy-coeff=-inf"], "--entropy-coeff must be finite"),
        (["--algo", "entpg", "--entropy-coeff", "nan"], "--entropy-coeff must be finite"),
    ],
    ids=["eta-nan", "eta-inf", "coeff-inf", "coeff-minus-inf", "coeff-nan"],
)
def test_non_finite_step_flags_exit_2_before_any_work(argv, message, tmp_path):
    env = {**os.environ, "PYTHONPATH": PACKAGE_PATH}
    proc = subprocess.run(
        [sys.executable, "-m", "vfpolytope.cli", "dynamics", "--mdp", "dyn2", *argv,
         "--iters", "5", "--out", "o.csv"],
        capture_output=True, text=True, env=env, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


def test_bad_policy_row_sum_is_a_plain_float(tmp_path, capsys):
    policy_path = tmp_path / "p.json"
    policy_path.write_text(json.dumps({"probs": [[0.5, 0.4], [0.5, 0.5]]}))
    code = main(["dynamics", "--mdp", "dyn2", "--algo", "pg", "--init",
                 str(policy_path), "--iters", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "sums to 0.9, off by more than" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("algo", ["pg", "entpg", "npg", "cem", "cemcn"])
def test_softmax_runs_reject_a_zero_init_probability(algo, tmp_path, capsys):
    policy_path = tmp_path / "p.json"
    policy_path.write_text(json.dumps({"probs": [[1.0, 0.0], [0.5, 0.5]]}))
    out = tmp_path / "x.csv"
    code = main(["dynamics", "--mdp", "dyn2", "--algo", algo, "--init",
                 str(policy_path), "--iters", "5", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: softmax runs need strictly positive initial probabilities\n"
    )
    assert not out.exists()


def test_logit_overflow_is_one_error_line(tmp_path):
    env = {**os.environ, "PYTHONPATH": PACKAGE_PATH}
    proc = subprocess.run(
        [sys.executable, "-m", "vfpolytope.cli", "dynamics", "--mdp", "dyn2",
         "--algo", "npg", "--eta", "1e308", "--iters", "5", "--out", "out"],
        capture_output=True, text=True, env=env, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: logits contain NaN or infinity\n"


def test_vertex_init_near_gamma_one_finishes(tmp_path):
    # The vertex init solves for the optimal policy first.
    mdp_path = tmp_path / "mdp.json"
    mdp_path.write_text(dump_mdp(random_mdp(3, 2, 0.9999999, seed=0)) + "\n")
    env = {**os.environ, "PYTHONPATH": PACKAGE_PATH}
    proc = subprocess.run(
        [sys.executable, "-m", "vfpolytope.cli", "dynamics", "--mdp", str(mdp_path),
         "--algo", "pi", "--init", "vertex", "--out", "out.csv"],
        capture_output=True, text=True, env=env, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert (tmp_path / "out.csv").exists()


SINGULAR_AT_LAST_GAMMA = [
    ((2, 2), ["sample", "--n", "100", "--out", "out.csv"]),
    ((1, 2), ["sample", "--n", "100", "--out", "out.csv"]),
    *(((n_s, n_a), ["dynamics", "--algo", "cem", "--out", "out.csv"])
      for n_s, n_a in ((2, 2), (1, 2), (3, 3))),
]


def write_mdp_with_gamma(path: Path, shape: tuple[int, int], gamma: float) -> None:
    doc = json.loads(dump_mdp(random_mdp(*shape, 0.5, seed=0)))
    doc["gamma"] = gamma
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("shape, argv", SINGULAR_AT_LAST_GAMMA)
def test_singular_system_near_gamma_one_exits_3(
    shape, argv, tmp_path, monkeypatch, capsys
):
    # At gamma = 1 - 2^-53, the largest double below 1, I - gamma P_pi is
    # singular to working precision for some policies.
    write_mdp_with_gamma(tmp_path / "mdp.json", shape, 1 - 2**-53)
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--mdp", "mdp.json"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "gamma = 0.9999999999999999" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "shape, gamma, trials, skips",
    [
        ((2, 2), 1 - 2**-53, 1, 2),
        ((1, 2), 1 - 2**-53, 1, 2),
        ((3, 3), 1 - 2**-53, 1, 3),
        ((3, 1), 1 - 2**-53, 1, 1),
        ((3, 3), 1 - 1e-12, 2, 1),
    ],
    ids=["2x2", "1x2", "3x3", "3x1", "3x3-gamma-1e-12"],
)
def test_verify_all_skips_suites_that_cannot_compute(
    shape, gamma, trials, skips, tmp_path, monkeypatch, capsys
):
    # Near gamma = 1 some suites meet a singular system or a rank-deficient
    # slice basis. `--suite all` reports every other suite; each skipped
    # suite run alone exits 3 with one error line and writes no report.
    write_mdp_with_gamma(tmp_path / "mdp.json", shape, gamma)
    monkeypatch.chdir(tmp_path)
    common = ["--trials", str(trials), "--mdp", "mdp.json"]
    assert main(["verify", "--suite", "all", *common, "--report", "all.json"]) in (0, 1)
    captured = capsys.readouterr()
    assert captured.err == ""
    skipped = {}
    for line in captured.out.splitlines():
        if line.startswith("skip "):
            name, _, message = line[len("skip "):].partition(": ")
            assert "gamma = 0.9999999999" in message or "rank-deficient" in message
            skipped[name] = message
    assert len(skipped) == skips
    reported = [r["check_name"] for r in json.loads(Path("all.json").read_text())["reports"]]
    assert reported == [name for name in SUITE_NAMES if name not in skipped]
    for name, message in skipped.items():
        report = Path(f"{name}.json")
        assert main(["verify", "--suite", name, *common, "--report", str(report)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not report.exists()


def _snapshot(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize(
    "shape, argv",
    [
        ((2, 1001), ["sample", "--n", "5"]),
        ((2, 1001), ["dynamics", "--algo", "vi", "--iters", "5"]),
        ((3, 2), ["sample", "--n", "5"]),
        ((3, 2), ["dynamics", "--algo", "vi", "--iters", "5"]),
    ],
    ids=["sample-2x1001", "dynamics-2x1001", "sample-3x2", "dynamics-3x2"],
)
def test_svg_capability_error_writes_nothing(shape, argv, tmp_path, monkeypatch, capsys):
    # Past the enumeration cap (1001^2 vertices) or off the plane, --svg is
    # refused before anything is sampled, run or written: the outputs of an
    # earlier successful run stay byte for byte and no file appears.
    (tmp_path / "mdp.json").write_text(dump_mdp(random_mdp(*shape, 0.9, seed=0)))
    monkeypatch.chdir(tmp_path)
    command = argv + ["--mdp", "mdp.json", "--out", "out.csv"]
    assert main(command) == 0
    before = _snapshot(tmp_path)
    capsys.readouterr()
    assert main(command + ["--svg", "out.svg"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert _snapshot(tmp_path) == before


ERROR_TYPES = sorted(
    (cls for cls in vars(errors).values()
     if isinstance(cls, type) and issubclass(cls, errors.VfpError)),
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("cls", [*ERROR_TYPES, cli.CliError, OSError],
                         ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_error_type(cls, tmp_path, monkeypatch, capsys):
    capability = {errors.CapabilityError, errors.EnumerationTooLarge, errors.IllConditioned}

    def fail(args):
        raise cls("cannot go on")

    monkeypatch.setitem(cli._HANDLERS, "line", fail)
    code = main(["line", "--mdp", "dyn2", "--state", "0", "--out", str(tmp_path / "o")])
    assert code == (3 if cls in capability else 2)
    assert capsys.readouterr().err == "error: cannot go on\n"
    assert list(tmp_path.iterdir()) == []


def test_optimal_value_iteration_cap_is_one_error_line(tmp_path, monkeypatch, capsys):
    from vfpolytope import evaluation

    monkeypatch.setattr(evaluation, "_MAX_IMPROVEMENTS", 1)
    # The vertex init hits the cap in optimal_value, the interior init in
    # the policy iteration that --algo pi runs itself.
    for init in ("vertex", "interior"):
        code = main(["dynamics", "--mdp", "dyn2", "--algo", "pi", "--init", init,
                     "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("algo", ["pg", "pi", "cem"])
def test_entropy_coeff_outside_entpg_exits_2(algo, tmp_path):
    env = {**os.environ, "PYTHONPATH": PACKAGE_PATH}
    proc = subprocess.run(
        [sys.executable, "-m", "vfpolytope.cli", "dynamics", "--mdp", "dyn2",
         "--algo", algo, "--entropy-coeff", "0.5", "--iters", "5", "--out", "out"],
        capture_output=True, text=True, env=env, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        f"error: --entropy-coeff applies only to --algo entpg, not {algo}\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, used", [([], 0.1), (["--entropy-coeff", "0.3"], 0.3)])
def test_entpg_manifest_records_the_coefficient_used(flag, used, tmp_path):
    env = {**os.environ, "PYTHONPATH": PACKAGE_PATH}
    proc = subprocess.run(
        [sys.executable, "-m", "vfpolytope.cli", "dynamics", "--mdp", "dyn2",
         "--algo", "entpg", "--iters", "5", "--out", "out.csv", *flag],
        capture_output=True, text=True, env=env, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    assert manifest["config"]["entropy_coeff"] == used


@pytest.mark.parametrize(
    "argv, iters, eta",
    [
        (["--algo", "pi", "--iters", "5"], None, None),
        (["--algo", "vi", "--eta", "7"], 100, None),
        (["--algo", "cem"], 100, None),
        (["--algo", "npg", "--iters", "5", "--eta", "0.2"], 5, 0.2),
    ],
    ids=["pi", "vi", "cem", "npg"],
)
def test_dynamics_manifest_records_unused_flags_as_null(
    argv, iters, eta, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    assert main(["dynamics", "--mdp", "dyn2", *argv, "--out", "out.csv"]) == 0
    config = json.loads((tmp_path / "out.csv.manifest.json").read_text())["config"]
    assert (config["iters"], config["eta"]) == (iters, eta)


class TestReproducibility:
    COMMANDS = [
        ["fixtures", "dump", "fig2b", "--out", "fix.json"],
        ["sample", "--mdp", "dyn2", "--n", "300", "--seed", "5",
         "--out", "s.csv", "--svg", "s.svg"],
        ["line", "--mdp", "threeaction", "--state", "0", "--seed", "5",
         "--grid", "11", "--out", "l.csv"],
        ["dynamics", "--mdp", "dyn2", "--algo", "cemcn", "--init", "vertex",
         "--iters", "10", "--seed", "5", "--out", "d.csv", "--svg", "d.svg"],
        ["verify", "--suite", "line", "--trials", "10", "--seed", "5",
         "--report", "v.json"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_rerun_from_manifest_is_byte_identical(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        primary = next(
            argv[i + 1] for i, a in enumerate(argv) if a in ("--out", "--report")
        )
        manifest_path = Path(primary + ".manifest.json")
        manifest = json.loads(manifest_path.read_text())
        recorded = {o["path"]: o["sha256"] for o in manifest["outputs"]}
        assert main(manifest["argv"]) == 0
        for path, digest in recorded.items():
            assert sha(Path(path)) == digest
        assert json.loads(manifest_path.read_text()) == manifest


def test_verify_hull_leaves_numpy_ma_unimported(tmp_path):
    # np.unique(..., axis=0) imports numpy.ma on its first call, 10-16 ms of
    # a cold `vfp verify`; the hull certificate calls nothing that imports it.
    # scipy is a test-only dependency, so no command may import it either.
    env = {**os.environ, "PYTHONPATH": PACKAGE_PATH}
    code = (
        "import sys; from vfpolytope.cli import main; status = main(sys.argv[1:]); "
        "print('numpy.ma' in sys.modules, 'scipy' in sys.modules); sys.exit(status)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "verify", "--suite", "hull", "--trials", "1",
         "--mdp", "dyn2", "--report", "r.json"],
        capture_output=True, text=True, env=env, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False False"
